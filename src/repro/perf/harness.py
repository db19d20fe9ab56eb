"""Measurement, serialization, and baseline comparison for wall-clock benches.

The protocol is deliberately boring: each bench is a callable that performs a
fixed amount of work and returns the number of work units it did; the harness
runs it ``repeats`` times (after one untimed warmup) and reports the *best*
run, since the minimum over repeats is the least noise-contaminated estimate
of the true cost on a shared machine.  The primary ``value`` is always a rate
(units per wall-clock second, higher is better), which makes the regression
rule a single inequality: ``value < baseline * (1 - tolerance)`` fails.

Bench names encode their scale (``uts@1024``, ``broadcast@256``) so a result
is only ever compared against a baseline entry with identical parameters;
quick-mode runs simply produce a subset of names and are checked against the
matching subset of the committed full baseline.

Schema v2: every baseline document carries its own ``tolerance``.  Quick-mode
CI previously applied the hard-coded default to every suite, silently — the
macro kernel suite needs a looser gate than the microbenches, and a baseline
file whose tolerance was lost in editing should fail loudly, not gate at
whatever the binary's default happens to be.  ``--tolerance`` still overrides
for one-off runs; a baseline without a well-formed tolerance is a usage error
(exit 2), never a silent fallback.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional, Union

SCHEMA_VERSION = 2

#: default allowed fractional slowdown before --check fails (20%)
DEFAULT_TOLERANCE = 0.2


@dataclass
class BenchResult:
    """One bench's measurement: a rate plus the raw timings behind it."""

    name: str
    value: float  #: primary metric, units/second of wall-clock — higher is better
    unit: str  #: what ``value`` counts, e.g. ``"events/s"`` or ``"nodes/s"``
    ops: float  #: work units performed per run
    best_s: float  #: fastest wall-clock run, the basis of ``value``
    runs_s: list[float] = field(default_factory=list)  #: every timed run
    params: dict = field(default_factory=dict)  #: scale knobs, for the record


@dataclass
class Baseline:
    """A loaded ``BENCH_*.json`` document: results plus the suite's own gate."""

    suite: str
    tolerance: float  #: allowed fractional slowdown for this suite
    quick: bool
    results: dict[str, BenchResult]


@dataclass
class Regression:
    """A bench that fell below its baseline by more than the tolerance."""

    name: str
    value: float
    baseline: float
    ratio: float  #: value / baseline; < 1 - tolerance means failure


def measure(
    fn: Callable[[], Union[float, tuple[float, float]]],
    repeats: int = 3,
    warmup: bool = True,
) -> tuple[float, float, list[float]]:
    """Time ``fn`` ``repeats`` times; returns ``(ops, best_s, runs_s)``.

    ``fn`` does one full unit of benchmark work and returns how many work
    units that was.  The warmup run is untimed — it pays import, allocation,
    and branch-training costs that steady-state runs do not see.  A bench
    whose set-up cannot be split from its work (forking place processes)
    times itself and returns ``(ops, seconds)``; that time replaces the
    stopwatch's.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats!r}")
    if warmup:
        fn()
    ops = 0.0
    runs: list[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - start
        if isinstance(out, tuple):
            out, elapsed = out
        ops = float(out)
        runs.append(elapsed)
    return ops, min(runs), runs


def write_results(
    path: str,
    suite: str,
    results: list[BenchResult],
    quick: bool,
    tolerance: float = DEFAULT_TOLERANCE,
) -> None:
    """Serialize one suite's results as a ``BENCH_*.json`` document."""
    doc = {
        "schema": SCHEMA_VERSION,
        "suite": suite,
        "quick": quick,
        "tolerance": tolerance,
        "higher_is_better": True,
        "results": [asdict(r) for r in results],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=False)
        f.write("\n")


def load_results(path: str) -> Baseline:
    """Load and validate a ``BENCH_*.json`` document.

    The per-suite ``tolerance`` is mandatory and must be a number in
    ``[0, 1)`` — a baseline that lost its gate in hand-editing fails here,
    loudly, instead of gating at some default.
    """
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported benchmark schema {doc.get('schema')!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    tolerance = doc.get("tolerance")
    if isinstance(tolerance, bool) or not isinstance(tolerance, (int, float)):
        raise ValueError(
            f"{path}: missing or malformed per-suite tolerance {tolerance!r} "
            "(schema v2 requires a number in [0, 1))"
        )
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(f"{path}: tolerance {tolerance!r} out of range [0, 1)")
    results: dict[str, BenchResult] = {}
    for entry in doc["results"]:
        result = BenchResult(**entry)
        results[result.name] = result
    return Baseline(
        suite=doc.get("suite", ""),
        tolerance=float(tolerance),
        quick=bool(doc.get("quick", False)),
        results=results,
    )


def compare_to_baseline(
    results: list[BenchResult],
    baseline: dict[str, BenchResult],
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[Regression]:
    """Return the benches that regressed past ``tolerance`` vs the baseline.

    Only names present in both sets are compared — a quick run checks its
    subset against a full baseline, and brand-new benches (no baseline entry
    yet) never fail the gate.
    """
    regressions: list[Regression] = []
    for result in results:
        base = baseline.get(result.name)
        if base is None or base.value <= 0:
            continue
        ratio = result.value / base.value
        if result.value < base.value * (1.0 - tolerance):
            regressions.append(
                Regression(
                    name=result.name,
                    value=result.value,
                    baseline=base.value,
                    ratio=ratio,
                )
            )
    return regressions


def render_results(
    results: list[BenchResult],
    baseline: Optional[dict[str, BenchResult]] = None,
) -> str:
    """Human-readable table: one line per bench, with vs-baseline ratio if known."""
    lines = []
    width = max((len(r.name) for r in results), default=4)
    for r in results:
        line = f"  {r.name:<{width}}  {r.value:>14,.0f} {r.unit:<10} best {r.best_s:.3f}s"
        if baseline and r.name in baseline and baseline[r.name].value > 0:
            line += f"  ({r.value / baseline[r.name].value:.2f}x vs baseline)"
        lines.append(line)
    return "\n".join(lines)
