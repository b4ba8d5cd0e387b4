"""Tests of the end-to-end benchmark itself (not part of tier-1).

Run with ``python -m pytest benchmarks/e2e -q``.  Every workload runs at
its scaled-down size, so the whole file takes well under a minute.
"""

import json
import math
import re
import sys
import types

import calibration
import pytest
import run as bench
import tracing
import workloads
from tracing import END, NAME, PARENT, SEAMS, START, Seam, Tracer, self_times

NAMES = list(workloads.WORKLOADS)
SPEC = bench.load_spec()


# ----------------------------------------------------------------- tracer


@pytest.fixture
def toy(monkeypatch):
    """A throwaway module with nested calls, and a clock that ticks once per read."""
    module = types.ModuleType("toy_layers")

    def leaf(x):
        return x + 1

    def mid(x):
        return module.leaf(x) + module.leaf(x)

    def top(x):
        return module.mid(x)

    def boom():
        module.leaf(0)
        raise RuntimeError("boom")

    module.leaf, module.mid, module.top, module.boom = leaf, mid, top, boom
    monkeypatch.setitem(sys.modules, "toy_layers", module)
    ticks = iter(range(10_000))
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: float(next(ticks)))
    seams = (
        Seam("a.top", "toy_layers:top"),
        Seam("a.mid", "toy_layers:mid"),
        Seam("b.leaf", "toy_layers:leaf", count=lambda x: x * 10),
        Seam("a.top", "toy_layers:boom"),
    )
    return module, Tracer(seams)


def test_nested_spans_self_time_and_parents(toy):
    module, tracer = toy
    with tracer.installed(), tracer.record():
        assert module.top(3) == 8
    spans = tracer.spans
    assert [s[NAME] for s in spans] == ["top", "mid", "leaf", "leaf"]
    assert [s[PARENT] for s in spans] == [-1, 0, 1, 1]
    # One tick per clock read: top 0..7, mid 1..6, leaves 2..3 and 4..5.
    assert [(s[START], s[END]) for s in spans] == [(0, 7), (1, 6), (2, 3), (4, 5)]
    assert self_times(spans) == {"a.top": 2.0, "a.mid": 3.0, "b.leaf": 2.0}
    assert sum(self_times(spans).values()) == spans[0][END] - spans[0][START]
    assert [s[-1] for s in spans] == [0.0, 0.0, 30.0, 30.0]


def test_spans_only_inside_record_and_reset_between_records(toy):
    module, tracer = toy
    with tracer.installed():
        module.top(1)
        assert tracer.spans == []
        with tracer.record():
            module.leaf(1)
        with tracer.record():
            module.leaf(2)
            module.leaf(3)
        assert len(tracer.spans) == 2


def test_patches_restored_even_on_exception(toy):
    module, tracer = toy
    before = {name: getattr(module, name) for name in ("leaf", "mid", "top", "boom")}
    with pytest.raises(RuntimeError):
        with tracer.installed(), tracer.record():
            module.boom()
    assert {name: getattr(module, name) for name in before} == before
    assert not tracer.recording
    # The span of the raising call is closed, not lost.
    assert [(s[NAME], s[END] > s[START]) for s in tracer.spans] == [("boom", True), ("leaf", True)]


def test_real_seams_resolve_and_are_restored():
    owners = [tracing._resolve(seam.target) for seam in SEAMS]
    before = [vars(owner)[attr] for owner, attr in owners]
    with pytest.raises(KeyError):
        with Tracer().installed():
            assert all(vars(o)[a] is not b for (o, a), b in zip(owners, before))
            raise KeyError("inside")
    assert all(vars(o)[a] is b for (o, a), b in zip(owners, before))


def test_moved_seam_is_an_error():
    moved = Seam("x", "repro.serving.engine:ContinuousBatchingEngine.no_such")
    with pytest.raises(LookupError):
        with Tracer((moved,)).installed():
            pass


# -------------------------------------------------------------- workloads


def _run_small(name, seed=0):
    workload = workloads.SMALL_WORKLOADS[name]
    state = workload.build(seed)
    workload.run(state)
    problems = workload.check(state)
    return workload.summarize(state), problems


@pytest.fixture(scope="module")
def small_runs():
    return {name: _run_small(name) for name in NAMES}


@pytest.mark.parametrize("name", NAMES)
def test_small_workload_is_correct_and_complete(small_runs, name):
    summary, problems = small_runs[name]
    assert problems == []
    assert summary.failed == 0 and summary.attempted > 0
    modeled = [m for m in bench._names(SPEC, "end_to_end") if m.startswith("sim_")]
    assert set(summary.sim) | {"failed_share"} == set(modeled) | set(bench.MODELED_IN_TRACE)
    assert all(math.isfinite(v) and v > 0 for v in summary.sim.values())
    assert set(summary.layers) <= set(bench._names(SPEC, "per_layer"))


@pytest.mark.parametrize("name", NAMES)
def test_seed_is_honoured(small_runs, name):
    first, _ = small_runs[name]
    again, _ = _run_small(name, seed=0)
    other, _ = _run_small(name, seed=1)
    assert (again.sim, again.digest) == (first.sim, first.digest)
    assert other.digest != first.digest
    assert other.sim != first.sim


def test_a_failed_check_is_reported():
    workload = workloads.SMALL_WORKLOADS["kernel_longctx"]
    state = workload.build(0)
    workload.run(state)
    state["outs"][3] = state["outs"][3] + 1.0
    assert any("step 3" in problem for problem in workload.check(state))
    chaos = workloads.SMALL_WORKLOADS["tiered_chaos"]
    chaos.expect_min = {"healed_pages": 10_000}
    try:
        state = chaos.build(0)
        chaos.run(state)
        assert any("healed_pages" in problem for problem in chaos.check(state))
    finally:
        chaos.expect_min = {}


# ------------------------------------------------------------ calibration


def test_host_times_are_divided_by_the_slowdown(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(bench.time, "perf_counter", lambda: float(next(ticks)))
    monkeypatch.setattr(calibration, "slowdown", lambda: 4.0)
    workload = types.SimpleNamespace(build=lambda seed: {"seed": seed}, run=lambda state: None)
    # One tick per clock read: the build and the run each take 1 s of host time.
    state, setup_s, wall_s, slow, _ = bench._repeat(workload, 7)
    assert (state, setup_s, wall_s, slow) == ({"seed": 7}, 0.25, 0.25, 4.0)


def test_reference_unit_is_timed_against_its_idle_core_time(monkeypatch):
    assert 0.2 < calibration.slowdown(units=1) < 50.0
    ticks = iter(range(100))
    monkeypatch.setattr(calibration.time, "perf_counter", lambda: 3.0 * next(ticks))
    assert calibration.slowdown(units=2) == 3.0 / (2 * calibration.REFERENCE_UNIT_S)


# ------------------------------------------------------------ whole passes


@pytest.fixture(scope="module")
def small_passes():
    """Both passes of every workload through ``measure`` at small size."""
    patch = pytest.MonkeyPatch()
    patch.setattr(workloads, "WORKLOADS", workloads.SMALL_WORKLOADS)
    try:
        return {
            name: [bench.measure(name, 0, seconds=0.0, repeats=1, traced=t) for t in (False, True)]
            for name in NAMES
        }
    finally:
        patch.undo()


@pytest.mark.parametrize("name", NAMES)
def test_passes_report_every_declared_metric(small_passes, name):
    plain, traced = small_passes[name]
    assert plain["correct"] and traced["correct"], plain["problems"] + traced["problems"]
    assert list(plain["metrics"]) == bench._names(SPEC, "end_to_end")
    assert list(traced["metrics"]) == bench._names(SPEC, "per_layer")
    assert all(cell["value"] > 0 for cell in plain["metrics"].values())
    assert plain["digest"] == traced["digest"]
    assert traced["metrics"]["trace.coverage_share"]["value"] >= 0.9


def test_layers_separate_the_workloads(small_passes):
    def layer(name, metric):
        return small_passes[name][1]["metrics"][metric]["value"]

    numerics = [
        m
        for m in bench._names(SPEC, "per_layer")
        if m.startswith(("core.", "attn.", "model.transformer")) and "model_launch" not in m
    ]
    assert all(layer("cluster_scale", m) == 0 for m in numerics)
    assert layer("cluster_scale", "cluster.dispatches") == 24
    assert layer("cluster_scale", "gpu.simulate_kernel.calls") > 0
    chaos_only = [
        m
        for m in bench._names(SPEC, "per_layer")
        if m.startswith(("pages.tiers.", "faults.", "attn.tier_frames."))
    ]
    for name in NAMES:
        if name != "tiered_chaos":
            assert all(layer(name, m) == 0 for m in chaos_only), name
    assert layer("tiered_chaos", "pages.tiers.self_ms") > 0
    assert layer("tiered_chaos", "faults.audits") > 0
    self_ms = [m for m in bench._names(SPEC, "per_layer") if m.endswith(".self_ms")]
    core = sum(layer("kernel_longctx", m) for m in self_ms if m.startswith("core."))
    assert core == sum(layer("kernel_longctx", m) for m in self_ms) > 0
    assert layer("decode_burst", "attn.runner.group_size_mean") > layer(
        "prefill_shared", "attn.runner.group_size_mean"
    )
    assert layer("prefill_shared", "pages.prefix.hit_share") > 0
    assert layer("decode_burst", "pages.prefix.hit_share") == 0


# ---------------------------------------------------------------- compare


def _ledger(tmp_path, label, **changes):
    def cells(names, value):
        return {name: {"value": changes.get(name, value), "unit": "-"} for name in names}

    body = {
        "end_to_end": cells(bench._names(SPEC, "end_to_end"), 2.0),
        "per_layer": cells(bench.MODELED_IN_TRACE, 1.0),
        "spreads": {"setup_s": 0.01, "wall_s": changes.get("spread", 0.01)},
        "digest": changes.get("digest", "d"),
    }
    path = tmp_path / f"{label}.json"
    path.write_text(json.dumps({"workloads": {"decode_burst": body}}))
    return str(path)


def test_compare_applies_bounds_exactness_and_spread(tmp_path, capsys):
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "wall_s")
    slow, fast = 2.0 * (1 + bound) + 0.1, 2.0 * (1 - bound) - 0.1
    base = _ledger(tmp_path, "a")
    assert bench.compare(base, _ledger(tmp_path, "same")) == 0
    assert bench.compare(base, _ledger(tmp_path, "slow", wall_s=slow)) == 1
    assert "REGRESSION" in capsys.readouterr().out
    assert bench.compare(base, _ledger(tmp_path, "fast", wall_s=fast)) == 0
    assert "improved" in capsys.readouterr().out
    assert bench.compare(base, _ledger(tmp_path, "noisy", wall_s=slow, spread=0.5)) == 0
    assert "unresolved" in capsys.readouterr().out
    assert bench.compare(base, _ledger(tmp_path, "sim", sim_tok_per_s=2.0000001)) == 1
    assert bench.compare(base, _ledger(tmp_path, "digest", digest="e")) == 1
    assert bench.compare(base, _ledger(tmp_path, "fail", failed_share=1.5)) == 1


# ------------------------------------------------------------------- spec


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"] and SPEC["command"][-1].startswith(SPEC["paths"][0])
    assert 2 <= len(SPEC["workloads"]) <= 8 and NAMES == bench._names(SPEC, "workloads")
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer") for m in SPEC[kind]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len(bench.SPEC_PATH.read_bytes()) <= 64 * 1024


def test_benchmark_imports_nothing_from_tests():
    for path in bench.HERE.glob("*.py"):
        if path.name != "test_e2e.py":
            assert not re.search(r"^\s*(from|import) tests\b", path.read_text(), re.M), path
    assert not list(bench.HERE.glob("bench_*.py"))
