"""Process launcher for the served workloads, and the children's entry point.

The query server and the slow fixture run as subprocesses of the harness
through the program's public ``serve_forever`` entry points, so their CPU
and memory can be read from ``/proc/<pid>`` apart from the load generator's.
Each child regenerates the catalog from ``(seed, artists, labels)``; only
generated inputs cross the process boundary.

When the machine has more than one CPU the process that runs the engine has
the last one to itself — the harness when it calls the library, the query
server when it is served — but for the host probe (``probe.py``), which has
to share it to see what the engine sees.  The load generator and the slow
fixture keep to the other CPUs, so that never more processes want to run
than there are CPUs.

Children never outlive the harness: :class:`Children` terminates them on
every exit path, and each child also watches its parent pid and exits when
it changes, so not even ``kill -9`` of the harness leaves an orphan holding
a core during the next run.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import os
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Iterator, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
START_TIMEOUT = 60.0


def add_program_to_path() -> None:
    """Make ``repro`` (the program under test) and this directory importable."""
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        raise SystemExit(f"error: the program under test is missing: no {source}/repro")
    for entry in (str(source), str(HERE)):
        if entry not in sys.path:
            sys.path.insert(0, entry)


# -- reading a child's resource use -----------------------------------------------
def cpu_seconds(pid: int) -> float:
    """utime + stime of ``pid`` from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        # The command name may contain spaces; fields resume after ')'.
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def peak_rss_mb(pid: object) -> float:
    """VmHWM of ``pid`` (a pid, or ``"self"``) in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


# -- launching ------------------------------------------------------------------------
def engine_cpu() -> Optional[int]:
    """The CPU set aside for the engine: the last one, or ``None`` with only one."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[-1] if len(cpus) > 1 else None


@contextlib.contextmanager
def on_engine_cpu() -> Iterator[None]:
    """Run the caller on the engine's CPU: a library workload's engine is the caller's."""
    before = os.sched_getaffinity(0)
    cpu = engine_cpu()
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


class Children:
    """The subprocesses of one set-up; ``close`` always reaps all of them."""

    def __init__(self) -> None:
        self.processes: List[subprocess.Popen] = []
        self.own_cpus = os.sched_getaffinity(0)
        self.engine_cpu = engine_cpu()
        if self.engine_cpu is not None:
            os.sched_setaffinity(0, self.own_cpus - {self.engine_cpu})

    def spawn(self, role: str, seed: int, artists: int, labels: int, *extra: str) -> subprocess.Popen:
        """``query`` runs on the engine's CPU, ``fixture`` where the harness runs."""
        command = [
            sys.executable, str(HERE / "targets.py"), role,
            "--seed", str(seed), "--artists", str(artists), "--labels", str(labels), *extra,
        ]  # fmt: skip
        if role == "query" and self.engine_cpu is not None:
            command += ["--cpu", str(self.engine_cpu)]
        process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=str(ROOT)
        )
        self.processes.append(process)
        return process

    @staticmethod
    def tell(process: subprocess.Popen, line: str) -> None:
        """Send the child the line it is waiting for on its standard input."""
        assert process.stdin is not None
        process.stdin.write(line + "\n")
        process.stdin.close()

    @contextlib.contextmanager
    def alongside(self) -> Iterator[None]:
        """Run the caller on the server's CPU: for the server's in-process twin."""
        if self.engine_cpu is not None:
            os.sched_setaffinity(0, {self.engine_cpu})
        try:
            yield
        finally:
            if self.engine_cpu is not None:
                os.sched_setaffinity(0, self.own_cpus - {self.engine_cpu})

    @staticmethod
    def url_of(process: subprocess.Popen) -> str:
        """The URL the child prints once it is listening."""
        assert process.stdout is not None
        ready, _, _ = select.select([process.stdout], [], [], START_TIMEOUT)
        line = process.stdout.readline().strip() if ready else ""
        if not line.startswith("http://"):
            raise RuntimeError(f"child {process.args[2]} did not start (printed {line!r})")
        return line

    def close(self) -> None:
        for process in self.processes:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
        for process in self.processes:
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            for pipe in (process.stdin, process.stdout):
                if pipe is not None and not pipe.closed:
                    with contextlib.suppress(BrokenPipeError):
                        pipe.close()
        self.processes.clear()
        os.sched_setaffinity(0, self.own_cpus)

    def __enter__(self) -> "Children":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# -- the children ------------------------------------------------------------------------
def _exit_with_parent() -> None:
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def _child_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="benchmark child process")
    parser.add_argument("role", choices=("query", "fixture"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--artists", type=int, required=True)
    parser.add_argument("--labels", type=int, required=True)
    parser.add_argument(
        "--backend", default="memory",
        help="query: memory, a fixture URL, or - to read the URL from standard input once built",
    )  # fmt: skip
    parser.add_argument("--delay", type=float, default=0.0, help="fixture: seconds per lookup")
    parser.add_argument("--cpu", type=int, help="run on this CPU only")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    add_program_to_path()
    _exit_with_parent()

    from catalog import Catalog

    instance = Catalog(args.seed, args.artists, args.labels).instance()
    try:
        if args.role == "fixture":
            from repro.sources.fixture_server import serve_forever as serve_fixture

            asyncio.run(serve_fixture(instance, latency=args.delay))
        else:
            from repro import Engine
            from repro.serve import ServeConfig, serve_forever

            # The fixture starts while this process builds its catalog.
            backend = sys.stdin.readline().strip() if args.backend == "-" else args.backend
            with Engine(instance.schema, instance, backend=backend) as engine:
                asyncio.run(serve_forever(engine, ServeConfig()))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(_child_main())
