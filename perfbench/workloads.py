"""The benchmark's workloads: one job each, run through the public entry points.

A *job* is one complete ``simulate()`` or ``run_portable()`` call.  Each job
returns an *observation*: its output checksum and the program's own counters.
Counters of a simulated run are exact, so every job of a run must repeat the
first job's observation; :meth:`Workload.check` adds the workload's absolute
output checks.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

#: program counters read from a simulated run's metrics snapshot
SIM_COUNTERS = (
    "sim.events_executed", "net.messages", "net.bytes", "net.route_misses",
    "finish.ctl_messages", "finish.ctl_bytes", "team.collectives",
    "glb.steal_attempts", "glb.steals_ok", "glb.lifelines_sent", "glb.processed",
)

#: measures one sim set-up in a fresh interpreter: import repro, build a runtime
_SIM_SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
import repro
from repro.harness.runner import make_runtime
make_runtime(int(sys.argv[1]))
print(repr(time.perf_counter() - t0))
"""


def _noop_main(ctx):
    """The procs set-up probe: a program that does nothing."""
    return None
    yield  # a generator, like every APGAS main


class Workload:
    name = ""
    backend = ""
    places = 0
    #: set-up samples per run (the reported setup_s is their median)
    setup_samples = 0
    #: CPUs a timed run is pinned to (None: every CPU it may use)
    timed_cpus = None

    def prepare(self, seed: int) -> None:
        """Derive the inputs from ``seed``; compute any reference output."""

    def job(self) -> dict:
        raise NotImplementedError

    def check(self, obs: dict) -> str:
        """'' if ``obs`` is a correct output, else what is wrong with it."""
        return ""

    def setup_once(self, root: str) -> float:
        raise NotImplementedError

    def setup_s(self, root: str) -> float:
        return statistics.median(self.setup_once(root) for _ in range(self.setup_samples))


class SimWorkload(Workload):
    backend = "sim"
    setup_samples = 7

    def __init__(self, kernel: str, **params) -> None:
        self.kernel = kernel
        self.params = params

    def job(self) -> dict:
        from repro.harness.runner import simulate

        result = simulate(self.kernel, self.places, **self.params)
        snap = result.extra["metrics"]
        obs = {name: snap.total(name) for name in SIM_COUNTERS}
        obs.update(
            checksum=result.extra.get("checksum"),
            nodes=result.extra.get("nodes", 0),
            sim_time=result.sim_time,
            verified=result.verified,
        )
        return obs

    def setup_once(self, root: str) -> float:
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        out = subprocess.run(
            [sys.executable, "-c", _SIM_SETUP_PROBE, str(self.places)],
            cwd=root, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        return float(out.stdout.strip().splitlines()[-1])


class UtsSteal(SimWorkload):
    """Message-bound: UTS under lifeline GLB at 1024 places, where steal traffic dominates."""

    name = "uts-steal"
    places = 1024
    #: the harness-default tree (depth 9, chunk 64): its size and digest
    NODES = 205_011
    CHECKSUM = "58daa59fa3bb7387"

    def __init__(self) -> None:
        # the tree is fixed: its node count and digest are the output check,
        # and a different tree would change the work per job
        super().__init__("uts")

    def check(self, obs: dict) -> str:
        if obs["nodes"] != self.NODES or obs["checksum"] != self.CHECKSUM:
            return (f"uts tree has {obs['nodes']} nodes, checksum {obs['checksum']}; "
                    f"expected {self.NODES}, {self.CHECKSUM}")
        return ""


class KmeansCompute(SimWorkload):
    """Compute-bound SPMD: K-Means at 256 places, kernel math with Team collectives."""

    name = "kmeans-compute"
    places = 256

    def __init__(self) -> None:
        super().__init__("kmeans")

    def prepare(self, seed: int) -> None:
        self.params = {"seed": seed}

    def check(self, obs: dict) -> str:
        return "" if obs["verified"] is True else "places disagree on the final centroids"


class ProcsKmeans(Workload):
    """Real processes: K-Means at 2 places, a socket allreduce per iteration, fork and reap per job."""

    name = "procs-kmeans"
    backend = "procs"
    places = 2
    setup_samples = 41
    # Timed runs pin this process, and so the place process it forks, to one
    # CPU: a job then costs both places' CPU work plus context switches.
    # Spread over two CPUs of a shared host, cross-CPU wake-ups swing the job
    # time between two regimes (0.064 s and 0.10 s medians of 5-second blocks).
    # Traced runs do not pin: on one CPU a place's wall-clock spans would also
    # count the time its peer runs after a wake-up preemption.
    timed_cpus = 1
    #: small points, many iterations: wire and loop costs, not math
    PARAMS = {"n_per_place": 256, "dim": 4, "k": 8, "iterations": 100}
    DEADLINE = 30.0

    def prepare(self, seed: int) -> None:
        from repro.harness.runner import run_portable

        self.params = dict(self.PARAMS, seed=seed)
        # the conformance property at benchmark scale: the sim backend's
        # checksum and finish ctl counts for the same program and params
        ref = run_portable("kmeans", self.places, backend="sim", **self.params)
        self.reference = (ref.checksum, ref.ctl_by_pragma)

    def job(self) -> dict:
        from repro.harness.runner import run_portable

        run = run_portable("kmeans", self.places, backend="procs",
                           deadline=self.DEADLINE, **self.params)
        return {
            "checksum": run.checksum,
            "ctl_by_pragma": run.ctl_by_pragma,
            "finish.ctl_messages": sum(run.ctl_by_pragma.values()),
        }

    def check(self, obs: dict) -> str:
        if (obs["checksum"], obs["ctl_by_pragma"]) != self.reference:
            return (f"procs checksum {obs['checksum']} / ctl {obs['ctl_by_pragma']} differ "
                    f"from the sim backend's {self.reference}")
        return ""

    def setup_once(self, root: str) -> float:
        from repro.xrt.procs import run_procs_program

        t0 = time.perf_counter()
        run_procs_program(_noop_main, self.places, deadline=self.DEADLINE)
        return time.perf_counter() - t0


WORKLOADS = {w.name: w for w in (UtsSteal, KmeansCompute, ProcsKmeans)}
