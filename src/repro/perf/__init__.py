"""Wall-clock performance measurement of the simulator itself.

Everything else in this package measures *simulated* time — the paper's
metric.  :mod:`repro.perf` measures the *simulator*: how many engine events,
transport round-trips, and UTS nodes per wall-clock second the pure-Python
stack sustains.  That number is the ceiling on how many simulated places the
test suite and Figure-1 sweeps can afford, so it is tracked like any other
regression surface: ``repro perf`` emits ``BENCH_sim.json`` (engine /
transport / finish microbenchmarks), ``BENCH_kernels.json`` (macro kernel
runs) and ``BENCH_procs.json`` (round trips over the real-process wire), and
CI fails when a committed baseline degrades past tolerance.
"""

from repro.perf.benches import BENCHES, SUITES, run_suite
from repro.perf.harness import (
    DEFAULT_TOLERANCE,
    Baseline,
    BenchResult,
    compare_to_baseline,
    load_results,
    measure,
    render_results,
    write_results,
)

__all__ = [
    "BENCHES",
    "DEFAULT_TOLERANCE",
    "SUITES",
    "Baseline",
    "BenchResult",
    "compare_to_baseline",
    "load_results",
    "measure",
    "render_results",
    "run_suite",
    "write_results",
]
