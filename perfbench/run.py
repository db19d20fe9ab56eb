"""Time the shipped simulator and real-process paths, end to end or layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload uts-steal --seed 1 --seconds 30 --trace 0

Workloads (closed loop: one client issues jobs back to back):
``uts-steal``, ``kmeans-compute`` and ``procs-kmeans`` (see ``workloads.py``
and ``README.md``).

``--trace 0`` times jobs untraced and reports the end-to-end metrics.
``--trace 1`` runs untraced reference jobs, then installs the layer wrappers
(``layers.py``) and reports per-layer metrics from traced jobs.  Either way
every job's output is checked.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time

#: a run times at least this many jobs, even past ``--seconds``
MIN_JOBS = 3
#: per-layer self times must sum to the traced wall time within this share
SELF_SUM_SLACK = 0.02

END_TO_END = (
    ("wall_s", "s"), ("wall_p90_s", "s"), ("cpu_s", "s"),
    ("peak_rss_mb", "MB"), ("setup_s", "s"),
)

PER_LAYER = (
    ("sim.sim_time", "s"),
    ("sim.slotted.events", "count"), ("sim.slotted.scheduled", "count"),
    ("sim.slotted.self_s", "s"), ("sim.host_us_per_event", "us"),
    ("activity.resumes", "count"), ("activity.self_s", "s"),
    ("machine.network.transfers", "count"), ("machine.network.bytes", "bytes"),
    ("machine.network.route_misses", "count"), ("machine.network.self_s", "s"),
    ("xrt.transport.posts", "count"), ("xrt.transport.self_s", "s"),
    ("runtime.remote_spawns", "count"), ("runtime.remote_evals", "count"),
    ("runtime.self_s", "s"),
    ("runtime.finish.ctl_messages", "count"), ("runtime.finish.ctl_bytes", "bytes"),
    ("runtime.finish.self_s", "s"),
    ("runtime.team.collectives", "count"), ("runtime.team.self_s", "s"),
    ("glb.steal_attempts", "count"), ("glb.steals_ok", "count"),
    ("glb.lifelines_sent", "count"), ("glb.steal_ok_ratio", "ratio"),
    ("glb.msgs_per_node", "ratio"), ("glb.self_s", "s"),
    ("kernels.uts.nodes", "count"), ("kernels.uts.self_s", "s"),
    ("kernels.kmeans.self_s", "s"),
    ("xrt.procs.launcher.self_s", "s"), ("xrt.procs.launcher.fork_s", "s"),
    ("xrt.procs.launcher.reap_s", "s"),
    ("xrt.procs.wire.frames", "count"), ("xrt.procs.wire.bytes", "bytes"),
    ("xrt.procs.wire.encode_s", "s"), ("xrt.procs.wire.decode_s", "s"),
    ("xrt.procs.wire.dropped", "count"),
    ("xrt.procs.loop.dispatches", "count"), ("xrt.procs.loop.dispatch_s", "s"),
    ("xrt.procs.loop.poll_wait_s", "s"), ("xrt.procs.loop.self_s", "s"),
    ("xrt.procs.router.routed", "count"), ("xrt.procs.router.self_s", "s"),
    ("other.self_s", "s"),
    ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"),
    ("trace.self_sum_share", "ratio"),
)

#: per-layer self-time metrics -> the tracer layer they read
SELF_TIMES = {
    "sim.slotted.self_s": "sim.slotted",
    "activity.self_s": "activity",
    "machine.network.self_s": "machine.network",
    "xrt.transport.self_s": "xrt.transport",
    "runtime.self_s": "runtime",
    "runtime.finish.self_s": "runtime.finish",
    "runtime.team.self_s": "runtime.team",
    "glb.self_s": "glb",
    "kernels.uts.self_s": "kernels.uts",
    "kernels.kmeans.self_s": "kernels.kmeans",
    "xrt.procs.launcher.self_s": "xrt.procs.launcher",
    "xrt.procs.launcher.fork_s": "xrt.procs.launcher.fork",
    "xrt.procs.launcher.reap_s": "xrt.procs.launcher.reap",
    "xrt.procs.wire.encode_s": "xrt.procs.wire.encode",
    "xrt.procs.wire.decode_s": "xrt.procs.wire.decode",
    "xrt.procs.loop.dispatch_s": "xrt.procs.loop.dispatch",
    "xrt.procs.loop.poll_wait_s": "xrt.procs.loop.poll_wait",
    "xrt.procs.loop.self_s": "xrt.procs.loop",
    "xrt.procs.router.self_s": "xrt.procs.router",
    "other.self_s": "other",
}

#: per-layer counts of wrapped calls -> the wrapped functions they sum
CALL_COUNTS = {
    "sim.slotted.scheduled": ("SlottedEngine.schedule",),
    "activity.resumes": ("Process._step", "Process._throw"),
    "xrt.transport.posts": ("Transport.post_args", "Transport.send"),
    "runtime.remote_spawns": ("ApgasRuntime.spawn_remote", "ProcsRuntime.spawn_remote"),
    "runtime.remote_evals": ("ApgasRuntime.remote_eval", "ProcsRuntime.remote_eval"),
    "xrt.procs.wire.frames": ("encode_frame",),
    "xrt.procs.loop.dispatches": ("PlaceLoop.dispatch",),
}

#: per-layer counts the program keeps itself -> the observation key
PROGRAM_COUNTS = {
    "sim.slotted.events": "sim.events_executed",
    "machine.network.transfers": "net.messages",
    "machine.network.bytes": "net.bytes",
    "machine.network.route_misses": "net.route_misses",
    "runtime.finish.ctl_messages": "finish.ctl_messages",
    "runtime.finish.ctl_bytes": "finish.ctl_bytes",
    "runtime.team.collectives": "team.collectives",
    "glb.steal_attempts": "glb.steal_attempts",
    "glb.steals_ok": "glb.steals_ok",
    "glb.lifelines_sent": "glb.lifelines_sent",
    "kernels.uts.nodes": "nodes",
    "sim.sim_time": "sim_time",
}


class Jobs:
    """Runs jobs, checks each output, and counts attempts and failures."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        #: the first job's observation; every later job must repeat it exactly
        self.reference = None

    def run(self, job):
        """One job: returns ``(wall seconds, cpu seconds, observation or None)``."""
        self.attempted += 1
        t0, c0 = time.perf_counter(), _cpu_seconds()
        try:
            obs = job()
        except Exception as exc:  # a job that raises (or hits its deadline) failed
            self._fail(f"{type(exc).__name__}: {exc}")
            return None, None, None
        wall, cpu = time.perf_counter() - t0, _cpu_seconds() - c0
        problem = self.workload.check(obs)
        if not problem and self.reference is not None and obs != self.reference:
            changed = sorted(k for k in obs if obs[k] != self.reference.get(k))
            problem = f"job {self.attempted} differs from job 1 in {changed}"
        if self.reference is None:
            self.reference = obs
        if problem:
            self._fail(problem)
            return None, None, None
        return wall, cpu, obs

    def _fail(self, problem: str) -> None:
        self.failed += 1
        self.errors.append(problem)
        print(f"FAILED job {self.attempted}: {problem}", file=sys.stderr)


def _cpu_seconds() -> float:
    """CPU seconds of this process and its reaped children (place processes)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _blas_threads():
    """Threads the BLAS NumPy loaded will use, or None if it cannot be asked."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    from repro.harness.runner import make_runtime

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "event_core": type(make_runtime(1).engine).__name__,
    }


def _jobs_until(jobs: Jobs, job, deadline: float, minimum: int, first_estimate: float):
    """Run jobs until the next one would end past ``deadline`` (at least ``minimum``)."""
    walls, cpus, estimate = [], [], first_estimate
    while len(walls) < minimum or time.perf_counter() + estimate <= deadline:
        wall, cpu, _obs = jobs.run(job)
        if wall is None:
            if jobs.failed > minimum:
                break  # a broken program: stop, the result is already incorrect
            continue
        walls.append(wall)
        cpus.append(cpu)
        estimate = statistics.median(walls)
    return walls, cpus


def _p90(values: list) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def timed_run(workload, seconds: float, root: str):
    if workload.timed_cpus:
        os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:workload.timed_cpus])
    jobs = Jobs(workload)
    warm, _, _ = jobs.run(workload.job)  # warm-up: checked, not timed
    deadline = time.perf_counter() + seconds
    walls, cpus = _jobs_until(jobs, workload.job, deadline, MIN_JOBS, warm or 0.0)
    peak = _peak_rss_mb()  # before set-up probes add children of their own
    setup = workload.setup_s(root)
    if not walls:
        return jobs, {}, 0
    metrics = {
        "wall_s": statistics.median(walls),
        "wall_p90_s": _p90(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak,
        "setup_s": setup,
    }
    return jobs, metrics, len(walls)


def traced_run(workload, seconds: float):
    from layers import Tracer

    jobs = Jobs(workload)
    warm, _, _ = jobs.run(workload.job)  # warm-up; its observation is the reference
    start = time.perf_counter()
    # a third of the time untraced, for the tracing overhead; the rest traced
    plain, _ = _jobs_until(jobs, workload.job, start + seconds / 3, 1, warm or 0.0)
    tracer = Tracer()
    tracer.install()
    walls, _ = _jobs_until(jobs, tracer.span(workload.job, "other", "job"),
                           start + seconds, 1, 2 * (warm or 0.0))
    if not walls or not plain:
        return jobs, {}, 0
    untraced = statistics.median(plain)
    metrics, self_sum = layer_metrics(tracer, jobs.reference, len(walls), walls, untraced)
    if abs(self_sum - sum(walls)) > SELF_SUM_SLACK * sum(walls):
        jobs.errors.append(f"layer self times sum to {self_sum:.4f}s, traced wall {sum(walls):.4f}s")
    return jobs, metrics, len(walls)


def layer_metrics(tracer, obs: dict, n_jobs: int, walls: list, untraced: float):
    """Per-layer metrics per traced job, and place 0's self-time sum."""
    self_s: dict = {}
    calls: dict = {}
    own = tracer.totals()
    extra = dict(own["extra"])
    place0 = sum(s for s, _n in own["cells"].values())
    for totals in [own, *tracer.children]:
        for (layer, fn), (s, n) in totals["cells"].items():
            self_s[layer] = self_s.get(layer, 0.0) + s
            calls[fn] = calls.get(fn, 0) + n
    for child in tracer.children:
        for key, value in child["extra"].items():
            extra[key] += value

    m = {name: self_s.get(layer, 0.0) / n_jobs for name, layer in SELF_TIMES.items()}
    m.update({name: sum(calls.get(fn, 0) for fn in fns) / n_jobs
              for name, fns in CALL_COUNTS.items()})
    m.update({name: obs.get(key, 0) for name, key in PROGRAM_COUNTS.items()})
    events, nodes = m["sim.slotted.events"], m["kernels.uts.nodes"]
    attempts = m["glb.steal_attempts"]
    m["sim.host_us_per_event"] = untraced / events * 1e6 if events else 0.0
    m["glb.steal_ok_ratio"] = m["glb.steals_ok"] / attempts if attempts else 0.0
    m["glb.msgs_per_node"] = m["machine.network.transfers"] / nodes if nodes else 0.0
    m["xrt.procs.wire.bytes"] = extra["wire_bytes"] / n_jobs
    m["xrt.procs.wire.dropped"] = extra["dropped"] / n_jobs
    m["xrt.procs.router.routed"] = extra["routed"] / n_jobs
    traced = statistics.median(walls)
    m["trace.wall_s"] = traced
    m["trace.untraced_wall_s"] = untraced
    m["trace.overhead_s"] = traced - untraced
    m["trace.self_sum_share"] = place0 / sum(walls)
    return m, place0


def _print_summary(workload, seed, trace, jobs, metrics, units, n_timed, env) -> None:
    print(f"perfbench {workload.name}  seed {seed}  trace {trace}  "
          f"closed loop, 1 client, {workload.places} places on {workload.backend}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"jobs: {n_timed} measured, {jobs.attempted} attempted, {jobs.failed} failed")
    print(f"  error_rate {jobs.failed / max(jobs.attempted, 1):.4f}")
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:32s} {metrics[name]:14.6f} {unit}")
    if trace and metrics.get("trace.wall_s"):
        wall = metrics["trace.wall_s"]
        print("self time as a share of traced wall time (summed over places, so "
              "procs runs exceed 100%):")
        for name in sorted(SELF_TIMES, key=lambda n: -metrics[n]):
            if metrics[name]:
                print(f"  {SELF_TIMES[name]:28s} {100 * metrics[name] / wall:6.2f}%")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    workload = WORKLOADS[args.workload]()
    env = environment()
    workload.prepare(args.seed)
    if args.trace:
        jobs, values, n_timed = traced_run(workload, args.seconds)
        units = dict(PER_LAYER)
    else:
        jobs, values, n_timed = timed_run(workload, args.seconds, root)
        units = dict(END_TO_END)
    env["cpu_affinity"] = sorted(os.sched_getaffinity(0))
    _print_summary(workload, args.seed, args.trace, jobs, values, units, n_timed, env)
    correct = not jobs.errors and set(values) == set(units)
    print(json.dumps({
        "correct": correct,
        "attempted": jobs.attempted,
        "failed": jobs.failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
