"""The benchmark catalog: what ``repro perf`` actually times.

Three suites, one per layer the fast-path work targets:

* ``sim`` (-> ``BENCH_sim.json``): microbenchmarks of the default event
  core's ``Clock`` surface (heap timers, zero-delay dispatch, cancel-churn
  compaction), the slotted core's fast paths (freelist churn, batched
  payload-call dispatch, interned-handle timers), the transport's send/ack
  round-trip path, and FINISH_DENSE's coalescing windows.  These localize a
  regression to a subsystem.
* ``kernels`` (-> ``BENCH_kernels.json``): whole-stack macro runs through
  :func:`repro.harness.simulate` — the numbers that actually bound how large
  a sweep the repo can afford.  ``uts@*`` is message-bound (GLB steal
  traffic); ``kmeans@256`` is compute-bound (kernel math plus Team
  collectives).  ``uts@1024`` is the headline (the Figure-1 scale) and is
  skipped in quick mode.
* ``procs`` (-> ``BENCH_procs.json``): the real-process wire — mailbox
  round trips between two place processes, directly with place 0
  (``procs.pingpong@2``) and between two children through place 0's star
  router (``procs.router_hop@3``).  These time encode, socket write, poll,
  decode and loop dispatch on the real sockets.

Each bench is deterministic: fixed seeds, fixed scales encoded in the name,
no wall-clock-dependent control flow — only the *timing* varies run to run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from repro.perf.harness import BenchResult, measure


def _noop() -> None:
    pass


# -- engine microbenchmarks ----------------------------------------------------
# These time the default core (what ordinary runs use) through the ``Clock``
# surface every event core shares.


def _bench_engine_timers(n: int = 200_000) -> float:
    """Heap-path throughput: ``n`` fire-and-forget timers at scattered delays."""
    from repro.sim import make_engine

    eng = make_engine()
    schedule = eng.schedule_fire
    for i in range(n):
        # Knuth-hash the index into a delay so pushes interleave with pops
        schedule(((i * 2654435761) % 997 + 1) * 1e-6, _noop)
    eng.run()
    return eng.events_executed


def _bench_engine_ready(n: int = 200_000) -> float:
    """Zero-delay dispatch throughput: a self-reposting ``call_soon`` chain."""
    from repro.sim import make_engine

    eng = make_engine()
    remaining = n

    def tick() -> None:
        nonlocal remaining
        remaining -= 1
        if remaining > 0:
            eng.call_soon_fire(tick)

    eng.call_soon_fire(tick)
    eng.run()
    return n


def _bench_engine_cancel_churn(waves: int = 100, batch: int = 1000) -> float:
    """Arm-then-cancel churn: the retransmit-timer pattern compaction targets.

    Every wave arms ``batch`` timers and immediately cancels 90% of them —
    the shape chaos-mode retries produce.  Throughput collapses if lazy
    deletion lets the heap fill with corpses.
    """
    from repro.sim import make_engine

    eng = make_engine()

    def wave(i: int) -> None:
        handles = [eng.schedule((j % 97 + 1) * 1e-6, _noop) for j in range(batch)]
        for h in handles[: batch * 9 // 10]:
            h.cancel()
        if i + 1 < waves:
            eng.schedule_fire(1e-4, lambda: wave(i + 1))

    wave(0)
    eng.run()
    return waves * batch


# -- slotted-core microbenchmarks ----------------------------------------------


def _bench_slotted_churn(n: int = 200_000) -> float:
    """Slot alloc/free churn through the freelist: timers at scattered delays.

    Steady state keeps a few hundred slots in flight, so every schedule pops
    a recycled slot and every dispatch pushes it back — the allocation-free
    regime the slotted core exists for.
    """
    from repro.sim.slotted import SlottedEngine

    eng = SlottedEngine()
    schedule = eng.schedule_call
    for i in range(n):
        schedule(((i * 2654435761) % 997 + 1) * 1e-6, _noop1, i)
    eng.run()
    return eng.events_executed


def _bench_slotted_batch(n: int = 200_000) -> float:
    """Batched zero-delay dispatch: a self-reposting payload-call chain.

    The ready list is drained by cursor in same-timestamp batches; the
    payload argument rides in the slot table, so the whole chain allocates
    nothing per event.
    """
    from repro.sim.slotted import SlottedEngine

    eng = SlottedEngine()

    def tick(remaining: int) -> None:
        if remaining > 1:
            eng.call_soon_call(tick, remaining - 1)

    eng.call_soon_call(tick, n)
    eng.run()
    return n


def _bench_slotted_fire(n: int = 200_000) -> float:
    """Interned-handle scheduling: ``schedule_fire`` heap timers.

    Fire-and-forget callers share one conceptual never-cancelled handle, so
    the entry is just ``(time, seq, callback)`` — no slot, no handle object.
    """
    from repro.sim.slotted import SlottedEngine

    eng = SlottedEngine()
    schedule = eng.schedule_fire
    for i in range(n):
        schedule(((i * 2654435761) % 997 + 1) * 1e-6, _noop)
    eng.run()
    return eng.events_executed


def _noop1(_a) -> None:
    pass


# -- transport / finish microbenchmarks ---------------------------------------


def _bench_transport_roundtrip(rounds: int = 4000) -> float:
    """Ping-pong over the PAMI transport: one active message each way per round."""
    from repro.machine.config import MachineConfig
    from repro.machine.topology import Topology
    from repro.sim import make_engine
    from repro.xrt.pami import PamiTransport

    eng = make_engine()
    cfg = MachineConfig.small()
    tp = PamiTransport(eng, cfg, Topology(cfg, 2))
    remaining = rounds

    def ping(dst: int, body: object) -> None:
        tp.post_args(1, 0, "pong", None)

    def pong(dst: int, body: object) -> None:
        nonlocal remaining
        remaining -= 1
        if remaining > 0:
            tp.post_args(0, 1, "ping", None)

    tp.register_handler("ping", ping)
    tp.register_handler("pong", pong)
    tp.post_args(0, 1, "ping", None)
    eng.run()
    return rounds


def _bench_finish_dense(places: int = 64, waves: int = 30) -> float:
    """FINISH_DENSE coalescing: waves of world-wide spawns under one dense finish.

    Each wave is one finish scope with an activity at every other place, so
    the router's coalescing windows (and the plain-activity fast path) carry
    all the traffic.  Work units are remote activities joined.
    """
    from repro.harness.runner import make_runtime
    from repro.machine.config import MachineConfig
    from repro.runtime import Pragma

    rt = make_runtime(places, MachineConfig.small())

    def leaf(ctx) -> None:
        pass

    def main(ctx):
        for _ in range(waves):
            with ctx.finish(Pragma.FINISH_DENSE, name="bench") as f:
                for p in ctx.places():
                    if p != ctx.here:
                        ctx.at_async(p, leaf)
            yield f.wait()

    rt.run(main)
    return waves * (places - 1)


# -- kernel macro runs ---------------------------------------------------------


def _bench_uts(places: int) -> Callable[[], float]:
    def run() -> float:
        from repro.harness.runner import simulate

        result = simulate("uts", places)
        return float(result.extra["nodes"])

    return run


def _bench_kmeans(places: int, points: int) -> Callable[[], float]:
    """Work units: points classified (``points`` per place per iteration)."""

    def run() -> float:
        from repro.harness.runner import simulate

        result = simulate("kmeans", places, actual_points=points)
        return float(places * points * result.extra["iterations"])

    return run


# -- procs (real processes) microbenchmarks -------------------------------------
# Each run forks its places afresh; the initiating place times only the round
# trips, so fork and reap stay out of the rate (``measure`` takes the
# ``(ops, seconds)`` a self-timed bench returns).


def _pingpong_echo(ctx, peer: int, rounds: int):
    """Answer each of ``rounds`` pings from ``peer`` with a pong."""
    for _ in range(rounds):
        item = yield ctx.recv("perf:ping")
        ctx.send(peer, "perf:pong", item)


def _pingpong_serve(ctx, peer: int, rounds: int):
    """``rounds`` mailbox round trips with ``peer``; reports their wall time."""
    start = time.perf_counter()
    for i in range(rounds):
        ctx.send(peer, "perf:ping", i)
        yield ctx.recv("perf:pong")
    ctx.send(0, "perf:elapsed", time.perf_counter() - start)


def _bench_procs_pingpong(places: int, a: int, b: int, rounds: int = 2000):
    """Mailbox round trips between places ``a`` and ``b`` over real sockets.

    With ``a`` and ``b`` both children, every frame crosses place 0's star
    router: two router hops per round trip.
    """

    def main(ctx):
        with ctx.finish() as f:
            ctx.at_async(b, _pingpong_echo, a, rounds)
            ctx.at_async(a, _pingpong_serve, b, rounds)
        yield f.wait()
        return (yield ctx.recv("perf:elapsed"))

    def run() -> tuple:
        from repro.xrt.procs import run_procs_program

        return float(rounds), run_procs_program(main, places).result

    return run


# -- catalog -------------------------------------------------------------------


@dataclass(frozen=True)
class Bench:
    """A named, fixed-scale benchmark belonging to one suite."""

    name: str
    suite: str  #: one of :data:`SUITES`
    unit: str
    fn: Callable[[], Union[float, tuple]]
    quick: bool = True  #: False: skipped under ``--quick`` (full runs only)
    params: dict = field(default_factory=dict)


SUITES = ("sim", "kernels", "procs")

BENCHES: list[Bench] = [
    Bench(
        name="engine.timers@200k",
        suite="sim",
        unit="events/s",
        fn=_bench_engine_timers,
        params={"n": 200_000},
    ),
    Bench(
        name="engine.ready@200k",
        suite="sim",
        unit="events/s",
        fn=_bench_engine_ready,
        params={"n": 200_000},
    ),
    Bench(
        name="engine.cancel_churn@100k",
        suite="sim",
        unit="timers/s",
        fn=_bench_engine_cancel_churn,
        params={"waves": 100, "batch": 1000},
    ),
    Bench(
        name="slotted.churn@200k",
        suite="sim",
        unit="events/s",
        fn=_bench_slotted_churn,
        params={"n": 200_000},
    ),
    Bench(
        name="slotted.batch@200k",
        suite="sim",
        unit="events/s",
        fn=_bench_slotted_batch,
        params={"n": 200_000},
    ),
    Bench(
        name="slotted.fire@200k",
        suite="sim",
        unit="events/s",
        fn=_bench_slotted_fire,
        params={"n": 200_000},
    ),
    Bench(
        name="transport.roundtrip@4k",
        suite="sim",
        unit="roundtrips/s",
        fn=_bench_transport_roundtrip,
        params={"rounds": 4000},
    ),
    Bench(
        name="finish.dense@64",
        suite="sim",
        unit="joins/s",
        fn=_bench_finish_dense,
        params={"places": 64, "waves": 30},
    ),
    Bench(
        name="uts@256",
        suite="kernels",
        unit="nodes/s",
        fn=_bench_uts(256),
        params={"places": 256, "depth": 9},
    ),
    Bench(
        name="uts@1024",
        suite="kernels",
        unit="nodes/s",
        fn=_bench_uts(1024),
        quick=False,  # the Figure-1-scale run: minutes of wall clock with repeats
        params={"places": 1024, "depth": 9},
    ),
    Bench(
        name="kmeans@256",
        suite="kernels",
        unit="points/s",
        fn=_bench_kmeans(256, 4096),
        params={"places": 256, "points": 4096, "k": 64, "dim": 12, "iterations": 5},
    ),
    Bench(
        name="procs.pingpong@2",
        suite="procs",
        unit="roundtrips/s",
        fn=_bench_procs_pingpong(2, 0, 1),
        params={"places": 2, "between": [0, 1], "rounds": 2000},
    ),
    Bench(
        name="procs.router_hop@3",
        suite="procs",
        unit="roundtrips/s",
        fn=_bench_procs_pingpong(3, 1, 2),
        params={"places": 3, "between": [1, 2], "rounds": 2000},
    ),
]

_BY_NAME = {b.name: b for b in BENCHES}


def run_suite(
    suite: str,
    quick: bool = False,
    repeats: int = 3,
    log: Optional[Callable[[str], None]] = None,
) -> list[BenchResult]:
    """Run every bench of ``suite`` (skipping full-only ones under ``quick``)."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    results: list[BenchResult] = []
    for bench in BENCHES:
        if bench.suite != suite or (quick and not bench.quick):
            continue
        if log is not None:
            log(f"  {bench.name} ...")
        ops, best_s, runs_s = measure(bench.fn, repeats=repeats)
        results.append(
            BenchResult(
                name=bench.name,
                value=ops / best_s if best_s > 0 else 0.0,
                unit=bench.unit,
                ops=ops,
                best_s=best_s,
                runs_s=[round(r, 6) for r in runs_s],
                params=dict(bench.params),
            )
        )
    return results
