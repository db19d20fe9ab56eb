"""Unit tests for the wall-clock harness: measure, serialize, compare."""

import json

import pytest

from repro.perf import benches
from repro.perf.harness import (
    BenchResult,
    compare_to_baseline,
    load_results,
    measure,
    render_results,
    write_results,
)


def _result(name, value, unit="ops/s"):
    return BenchResult(name=name, value=value, unit=unit, ops=value, best_s=1.0)


def test_measure_reports_min_and_all_runs():
    calls = []

    def fn():
        calls.append(1)
        return 42

    ops, best_s, runs_s = measure(fn, repeats=3)
    assert ops == 42.0
    assert len(calls) == 4  # one warmup + three timed
    assert len(runs_s) == 3
    assert best_s == min(runs_s)
    assert best_s >= 0


def test_measure_uses_the_time_a_self_timed_bench_reports():
    """``(ops, seconds)`` from the bench replaces the outer stopwatch, so set-up
    the bench cannot split off (forking place processes) stays out of the rate."""
    import time

    def fn():
        time.sleep(0.02)  # set-up the bench excludes from its own timing
        return 7, 0.001

    ops, best_s, runs_s = measure(fn, repeats=2)
    assert ops == 7.0
    assert runs_s == [0.001, 0.001] and best_s == 0.001


@pytest.mark.procs
@pytest.mark.parametrize("places,a,b", [(2, 0, 1), (3, 1, 2)])
def test_procs_pingpong_bench_times_its_round_trips(places, a, b):
    ops, seconds = benches._bench_procs_pingpong(places, a, b, rounds=20)()
    assert ops == 20.0
    assert 0.0 < seconds < 10.0


def test_measure_rejects_zero_repeats():
    with pytest.raises(ValueError):
        measure(lambda: 1, repeats=0)


def test_write_load_roundtrip(tmp_path):
    path = str(tmp_path / "BENCH_sim.json")
    results = [
        BenchResult(
            name="engine.timers@200k",
            value=250_000.0,
            unit="events/s",
            ops=200_000.0,
            best_s=0.8,
            runs_s=[0.9, 0.8],
            params={"n": 200_000},
        )
    ]
    write_results(path, "sim", results, quick=True, tolerance=0.15)
    doc = json.loads(open(path).read())
    assert doc["suite"] == "sim" and doc["quick"] is True and doc["higher_is_better"]
    assert doc["tolerance"] == 0.15
    loaded = load_results(path)
    assert loaded.results["engine.timers@200k"] == results[0]
    assert loaded.tolerance == 0.15
    assert loaded.suite == "sim" and loaded.quick is True


def test_load_rejects_unknown_schema(tmp_path):
    path = tmp_path / "BENCH_sim.json"
    path.write_text(json.dumps({"schema": 99, "results": []}))
    with pytest.raises(ValueError, match="schema"):
        load_results(str(path))


@pytest.mark.parametrize("tolerance", [None, "0.2", True, -0.1, 1.0, 7])
def test_load_rejects_missing_or_malformed_tolerance(tmp_path, tolerance):
    """Schema v2: the per-suite gate is mandatory and must be in [0, 1)."""
    from repro.perf.harness import SCHEMA_VERSION

    doc = {"schema": SCHEMA_VERSION, "suite": "sim", "results": []}
    if tolerance is not None:
        doc["tolerance"] = tolerance
    path = tmp_path / "BENCH_sim.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="tolerance"):
        load_results(str(path))


def test_compare_flags_only_regressions_past_tolerance():
    baseline = {r.name: r for r in [_result("a", 100.0), _result("b", 100.0), _result("c", 100.0)]}
    current = [_result("a", 85.0), _result("b", 79.0), _result("c", 130.0)]
    regs = compare_to_baseline(current, baseline, tolerance=0.2)
    assert [r.name for r in regs] == ["b"]
    assert regs[0].ratio == pytest.approx(0.79)


def test_compare_ignores_benches_missing_from_either_side():
    """Quick runs check their subset; brand-new benches never fail the gate."""
    baseline = {"old": _result("old", 100.0), "both": _result("both", 100.0)}
    current = [_result("both", 95.0), _result("new", 1.0)]
    assert compare_to_baseline(current, baseline, tolerance=0.2) == []


def test_render_results_includes_baseline_ratio():
    baseline = {"x": _result("x", 50.0)}
    text = render_results([_result("x", 100.0)], baseline)
    assert "2.00x vs baseline" in text


def test_catalog_names_are_unique_and_suites_known():
    names = [b.name for b in benches.BENCHES]
    assert len(names) == len(set(names))
    assert all(b.suite in benches.SUITES for b in benches.BENCHES)
    # quick mode must leave something to measure in every suite
    for suite in benches.SUITES:
        assert any(b.quick for b in benches.BENCHES if b.suite == suite)


def test_run_suite_rejects_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        benches.run_suite("warp")


def test_run_suite_quick_skips_full_only_benches(monkeypatch):
    ran = []

    def make(name, quick):
        return benches.Bench(
            name=name,
            suite="sim",
            unit="ops/s",
            fn=lambda: ran.append(name) or 10,
            quick=quick,
        )

    monkeypatch.setattr(benches, "BENCHES", [make("fast", True), make("slow", False)])
    results = benches.run_suite("sim", quick=True, repeats=1)
    assert [r.name for r in results] == ["fast"]
    assert "slow" not in ran
    assert results[0].ops == 10.0 and results[0].value > 0
