"""The host probe: how much slower than the reference host is a CPU right now?

This sandbox is a two-CPU guest on a shared host.  What else runs on the
host slows each guest CPU by anything between nothing and a factor of two,
changing within milliseconds and lasting for minutes, and it inflates CPU
time as much as wall time, so it reads exactly like a slower program.  The
probe is the way to tell the two apart: a fixed pure-Python spin, timed over
and over on the CPU that runs the engine while the engine is being measured.
A slice of a run in which the spin took ``f`` times :data:`REFERENCE_MS` ran
on a host ``f`` times slower than the reference, and the slice's timings are
scaled back by it (:func:`metrics.timing_metrics`).  Nothing of the program
under test runs inside the probe.

In-process workloads spin between operations (:func:`spin`).  A served
workload's engine runs in another process, so a :class:`Prober` child shares
that process's CPU: it sleeps, spins for a fifth of a millisecond, and times
the spin with its own CPU clock, which does not count the time it waits for
the server to let it run.
"""

from __future__ import annotations

import select
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, List, Optional, Tuple

HERE = Path(__file__).resolve().parent

#: Iterations of one spin.
LOOPS = 5000
#: Milliseconds one spin takes on the reference host: this sandbox's CPU
#: (Xeon, 2.1 GHz, CPython 3.11) while nothing else disturbs it.
REFERENCE_MS = 0.190
#: Seconds a :class:`Prober` sleeps between spins.
PERIOD = 0.01

#: ``(perf_counter reading, milliseconds the spin took)``
Sample = Tuple[float, float]


def spin(clock: Callable[[], float] = time.perf_counter) -> float:
    """Milliseconds, by ``clock``, that the fixed spin takes right now."""
    started = clock()
    total = 0
    for value in range(LOOPS):
        total += value & 7
    return (clock() - started) * 1e3


class Prober:
    """A child that probes one CPU until :meth:`stop`, which returns its samples."""

    def __init__(self, cpu: Optional[int]) -> None:
        command = [sys.executable, str(HERE / "probe.py")]
        if cpu is not None:
            command.append(str(cpu))
        self.process: Optional[subprocess.Popen] = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def stop(self) -> List[Sample]:
        """Closing its input is the signal; the child answers with every sample."""
        process, self.process = self.process, None
        if process is None:
            return []
        try:
            out, _ = process.communicate(input="", timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
            return []
        return [(float(at), float(ms)) for at, ms in (line.split() for line in out.splitlines())]

    def __enter__(self) -> "Prober":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def _child_main(argv: List[str]) -> int:
    """Probe until standard input closes: also what happens when the harness dies."""
    import os

    if argv:
        os.sched_setaffinity(0, {int(argv[0])})
    samples: List[Sample] = []
    while not select.select([sys.stdin], [], [], PERIOD)[0]:
        samples.append((time.perf_counter(), spin(time.thread_time)))
    sys.stdout.write("".join(f"{at!r} {ms!r}\n" for at, ms in samples))
    return 0


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
