"""Lightweight per-phase profiling of the fixpoint kernel.

Every kernel run owns a :class:`KernelProfile` and charges its five phases
to it — *offer* (binding enumeration + meta-cache hits), *dispatch*
(dispatcher refills and steps, i.e. simulated-event or real scheduling),
*absorb* (folding completions into the caches), *answer-check*
(incremental/full query evaluation) and *fast-fail* (the policy's phase
transitions, i.e. Section IV's non-emptiness tests between positions) —
together with the counters that make a regression diagnosable without
external tools: offer passes, dispatcher steps, completions and completion
batches, how many answer checks ran incrementally vs. as full evaluations,
and how many fast-failing tests ran.

The profile travels with the run's result (``Result.to_dict()["profile"]``,
``explain()``, the ``--profile`` CLI flag) and engine sessions aggregate the
profiles of their executions under ``session.stats()["kernel"]``.  The
instrumentation is a pair of ``perf_counter`` reads per phase transition —
cheap enough to stay on permanently.
"""

from __future__ import annotations

from typing import Dict, List

_TIMINGS = (
    "offer_seconds",
    "dispatch_seconds",
    "absorb_seconds",
    "answer_check_seconds",
    "fast_fail_seconds",
)

_COUNTERS = (
    "offer_passes",
    "dispatch_steps",
    "completions",
    "completion_batches",
    "answer_checks",
    "incremental_checks",
    "full_checks",
    "answers_streamed",
    "fast_fail_checks",
)


class KernelProfile:
    """Per-phase timings and counters of one (or many merged) kernel runs."""

    __slots__ = _TIMINGS + _COUNTERS + ("runs", "max_batch")

    # Written out field by field, not looped over the name tuples: every run
    # builds one profile and every absorbed run merges one.
    def __init__(self) -> None:
        self.offer_seconds = 0.0
        self.dispatch_seconds = 0.0
        self.absorb_seconds = 0.0
        self.answer_check_seconds = 0.0
        self.fast_fail_seconds = 0.0
        self.offer_passes = 0
        self.dispatch_steps = 0
        self.completions = 0
        self.completion_batches = 0
        self.answer_checks = 0
        self.incremental_checks = 0
        self.full_checks = 0
        self.answers_streamed = 0
        self.fast_fail_checks = 0
        #: Kernel runs folded into this profile (1 for a single execution).
        self.runs = 1
        #: Largest completion batch absorbed in one dispatcher step.
        self.max_batch = 0

    # -- aggregation ---------------------------------------------------------
    def merge(self, other: "KernelProfile") -> None:
        """Fold another run's profile into this one (session aggregation)."""
        self.offer_seconds += other.offer_seconds
        self.dispatch_seconds += other.dispatch_seconds
        self.absorb_seconds += other.absorb_seconds
        self.answer_check_seconds += other.answer_check_seconds
        self.fast_fail_seconds += other.fast_fail_seconds
        self.offer_passes += other.offer_passes
        self.dispatch_steps += other.dispatch_steps
        self.completions += other.completions
        self.completion_batches += other.completion_batches
        self.answer_checks += other.answer_checks
        self.incremental_checks += other.incremental_checks
        self.full_checks += other.full_checks
        self.answers_streamed += other.answers_streamed
        self.fast_fail_checks += other.fast_fail_checks
        self.runs += other.runs
        if other.max_batch > self.max_batch:
            self.max_batch = other.max_batch

    @property
    def total_seconds(self) -> float:
        return sum(getattr(self, name) for name in _TIMINGS)

    # -- rendering -----------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        timings = {
            name[: -len("_seconds")]: round(getattr(self, name), 6) for name in _TIMINGS
        }
        counters = {name: getattr(self, name) for name in _COUNTERS}
        counters["max_batch"] = self.max_batch
        return {
            "runs": self.runs,
            "timings_seconds": timings,
            "counters": counters,
        }

    def describe(self) -> List[str]:
        """Human-readable breakdown, one line per phase (CLI ``--profile``)."""
        total = self.total_seconds or 1.0
        lines = ["kernel profile:"]
        for label, seconds, detail in (
            ("offer", self.offer_seconds, f"{self.offer_passes} passes"),
            ("dispatch", self.dispatch_seconds, f"{self.dispatch_steps} steps"),
            (
                "absorb",
                self.absorb_seconds,
                f"{self.completions} completions / "
                f"{self.completion_batches} batches (max {self.max_batch})",
            ),
            (
                "answer-check",
                self.answer_check_seconds,
                f"{self.incremental_checks} incremental + {self.full_checks} full",
            ),
            ("fast-fail", self.fast_fail_seconds, f"{self.fast_fail_checks} tests"),
        ):
            share = 100.0 * seconds / total
            lines.append(f"  {label:<13} {seconds * 1000.0:9.2f} ms  {share:5.1f}%  ({detail})")
        lines.append(
            f"  answers streamed: {self.answers_streamed}; "
            f"kernel runs folded: {self.runs}"
        )
        return lines

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KernelProfile(total={self.total_seconds:.4f}s, "
            f"steps={self.dispatch_steps}, completions={self.completions})"
        )
