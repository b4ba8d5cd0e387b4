"""Benchmark regression gate (`scripts/check_bench_regression.py`).

The gate is one table (`CHECKS`) and one evaluator, so the tests are
parametrised over the table: `CASES` pins every gated row's bound from
both sides with a synthetic point, and the rules all rows share (missing
metric fails, section mandatory once baselined) are tested once each.
"""

import copy
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "scripts" / "check_bench_regression.py"
EMITTER = REPO_ROOT / "benchmarks" / "emit_serving.py"
BASELINE = REPO_ROOT / "benchmarks" / "baseline.json"


def _load_checker():
    spec = importlib.util.spec_from_file_location("check_bench_regression", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = _load_checker()


def _format_point(tokens_per_s):
    return {"tokens_per_s": tokens_per_s, "p99_tbt_s": 0.03, "p99_ttft_s": 20.0}


#: A document every row passes; it doubles as its own baseline.
HEALTHY = {
    "formats": {
        "FP16": _format_point(100.0),
        "INT4": _format_point(200.0),
        "INT2": _format_point(210.0),
    },
    "prefix_cache": {
        "hit_rate": 0.49,
        "tokens_per_s_on": 67.7,
        "tokens_per_s_off": 33.9,
        "effective_capacity_pages": 28242,
    },
    "offload": {
        "swap_outs": 12,
        "tokens_per_s_swap": 110.0,
        "tokens_per_s_recompute": 100.0,
        "swap_speedup": 1.1,
        "offload_stall_s": 7.075264000000001e-05,
    },
    "grouped": {"batch": 8, "priced_speedup": 7.0, "wall_speedup": 1.5},
    "chaos": {
        "transfer_retries": 7,
        "healed_pages": 3,
        "failed": 0,
        "goodput_ratio": 0.5,
        "shed": 2,
    },
    "cluster": {
        "affinity_speedup": 1.4,
        "cross_replica_misses_prefix_affinity": 0,
        "tp": {
            "tp": 2,
            "allreduce_tax_ms": 0.35,
            "rank_attention_ms": 6.2,
            "full_attention_ms": 13.7,
        },
    },
    "kernels": {
        "speedup_decode_step": 30.0,
        "speedup_prefill_pack": 4.0,
        "decode_step_flatness": 1.1,
        "transformer": {"engine_step_ms": 5.4, "exact_step_ms": 12.6},
    },
}

#: (section, metric, value that still passes, value that must fail) — one
#: per gated row, each pair straddling the row's bound.
CASES = [
    ("formats.INT4", "tokens_per_s", 185.0, 170.0),  # -7.5% vs -15% of 200
    ("prefix_cache", "hit_rate", 0.25, 0.24),
    ("prefix_cache", "tokens_per_s_on", 33.9, 33.8),  # never below cache-off
    ("offload", "swap_outs", 1, 0),
    ("offload", "tokens_per_s_swap", 100.1, 100.0),  # strictly above recompute
    ("offload", "swap_speedup", 1.0, 0.99),
    ("grouped", "priced_speedup", 5.0, 4.9),
    ("grouped", "wall_speedup", 1.0, 0.8),
    ("chaos", "transfer_retries", 1, 0),
    ("chaos", "healed_pages", 1, 0),
    ("chaos", "failed", 0, 1),
    ("chaos", "goodput_ratio", 0.40, 0.37),
    ("cluster", "affinity_speedup", 1.10, 1.05),
    ("cluster", "cross_replica_misses_prefix_affinity", 0, 3),
    ("cluster", "tp.allreduce_tax_ms", 0.01, 0.0),
    ("cluster", "tp.rank_attention_ms", 13.6, 13.7),  # strictly below full-head
    ("kernels", "speedup_decode_step", 25.0, 6.0),
    ("kernels", "speedup_prefill_pack", 3.0, 1.2),
    ("kernels", "decode_step_flatness", 2.0, 3.5),
]
CASE_IDS = [f"{section}:{metric}" for section, metric, _, _ in CASES]
SECTIONS = ["formats.INT2", *(key for key in HEALTHY if key != "formats")]

_DROP = object()


def _with(doc, path, value):
    """A deep copy of ``doc`` with dotted ``path`` set (or dropped)."""
    doc = copy.deepcopy(doc)
    *parents, leaf = path.split(".")
    node = doc
    for key in parents:
        node = node[key]
    if value is _DROP:
        del node[leaf]
    else:
        node[leaf] = value
    return doc


def test_every_gated_row_has_a_case():
    gated = {(c.section, c.metric) for c in checker.CHECKS if c.op is not None}
    covered = {
        ("formats.*" if section.startswith("formats.") else section, metric)
        for section, metric, _, _ in CASES
    }
    assert covered == gated


def test_healthy_point_passes():
    assert checker.evaluate(HEALTHY, HEALTHY) == []


@pytest.mark.parametrize("section,metric,passing,failing", CASES, ids=CASE_IDS)
def test_row_bound_from_both_sides(section, metric, passing, failing):
    path = f"{section}.{metric}"
    assert checker.evaluate(_with(HEALTHY, path, passing), HEALTHY) == []
    failures = checker.evaluate(_with(HEALTHY, path, failing), HEALTHY)
    assert len(failures) == 1
    assert failures[0].startswith(f"{section}: {metric} ")


@pytest.mark.parametrize("section,metric,passing,failing", CASES, ids=CASE_IDS)
def test_missing_metric_fails_never_crashes(section, metric, passing, failing):
    path = f"{section}.{metric}"
    for broken in (_with(HEALTHY, path, _DROP), _with(HEALTHY, path, "fast")):
        failures = checker.evaluate(broken, HEALTHY)
        assert any(f.startswith(f"{section}: {metric} n/a") for f in failures)


def test_missing_comparison_metric_fails_never_crashes():
    """A row bounded by another metric cannot pass when that metric is gone."""
    for path in (
        "prefix_cache.tokens_per_s_off",
        "offload.tokens_per_s_recompute",
        "cluster.tp.full_attention_ms",
        "cluster.tp",
    ):
        assert checker.evaluate(_with(HEALTHY, path, _DROP), HEALTHY)
    # The baseline-relative row needs the baseline's value the same way.
    stale = _with(HEALTHY, "formats.FP16.tokens_per_s", _DROP)
    assert checker.evaluate(HEALTHY, stale)


def test_empty_section_fails_every_gated_row():
    failures = checker.evaluate(_with(HEALTHY, "kernels", {}), HEALTHY)
    assert len(failures) == 3


@pytest.mark.parametrize("section", SECTIONS)
def test_section_mandatory_once_baselined(section):
    absent = _with(HEALTHY, section, _DROP)
    assert checker.evaluate(absent, HEALTHY) == [f"{section}: missing from current results"]
    # Not baselined yet: absent from both passes ...
    assert checker.evaluate(absent, absent) == []


def test_unbaselined_section_is_still_gated():
    """... but the bounds do not wait for a baseline: a section the current
    file carries is held to its rows even before the baseline records it."""
    baseline = _with(HEALTHY, "chaos", _DROP)
    assert checker.evaluate(HEALTHY, baseline) == []
    assert checker.evaluate(_with(HEALTHY, "chaos.goodput_ratio", 0.37), baseline)


def test_improvement_passes():
    assert checker.evaluate(_with(HEALTHY, "formats.FP16.tokens_per_s", 300.0), HEALTHY) == []


def test_report_only_rows_never_gate(capsys):
    current = _with(HEALTHY, "formats.FP16.p99_tbt_s", None)
    current["formats"]["INT4"]["p99_ttft_s"] = 2000.0
    current["offload"]["offload_stall_s"] = 9.0
    assert checker.evaluate(current, HEALTHY) == []
    out = capsys.readouterr().out
    assert "formats.FP16: p99_tbt_s n/a" in out  # reported, not fabricated
    assert "+9900.0% vs baseline" in out


def test_values_print_with_unit_and_fixed_precision(capsys):
    """The offload stall used to print as a raw float (7.075264000000001e-05)."""
    checker.evaluate(HEALTHY, HEALTHY)
    out = capsys.readouterr().out
    assert "offload: offload_stall_s 7.075e-05 s" in out
    assert "7.075264" not in out
    assert "formats.INT4: tokens_per_s 200.0 tok/s (>= baseline 200.0 tok/s less 10%" in out


class TestCommittedFiles:
    def test_baseline_holds_measurements_only(self):
        assert "kernels" not in json.loads(BASELINE.read_text())
        assert '"floors"' not in BASELINE.read_text()

    def test_committed_baseline_passes_its_own_gate(self):
        baseline = json.loads(BASELINE.read_text())
        assert set(SECTIONS) - {"formats.INT2", "kernels"} <= set(baseline)
        assert checker.evaluate(baseline, baseline) == []

    def test_committed_kernels_point_passes_the_gate(self):
        kernels = json.loads((REPO_ROOT / "BENCH_kernels.json").read_text())
        assert checker.evaluate({"kernels": kernels}, {}) == []


class TestCli:
    def _run(self, tmp_path, current, baseline, *extra):
        cur = tmp_path / "current.json"
        base = tmp_path / "baseline.json"
        cur.write_text(json.dumps(current))
        base.write_text(json.dumps(baseline))
        return subprocess.run(
            [sys.executable, str(SCRIPT), str(cur), str(base), *extra],
            capture_output=True,
            text=True,
        )

    def test_exit_zero_on_pass(self, tmp_path):
        result = self._run(tmp_path, HEALTHY, HEALTHY)
        assert result.returncode == 0
        assert "benchmark gate: OK" in result.stdout

    def test_exit_nonzero_on_regression(self, tmp_path):
        current = _with(HEALTHY, "formats.FP16.tokens_per_s", 50.0)
        result = self._run(tmp_path, current, HEALTHY)
        assert result.returncode == 1
        assert "REGRESSION: formats.FP16: tokens_per_s 50.0 tok/s" in result.stdout

    def test_kernels_file_is_gated_as_the_kernels_section(self, tmp_path):
        serving = _with(HEALTHY, "kernels", _DROP)
        kern = tmp_path / "kernels.json"
        kern.write_text(json.dumps(_with(HEALTHY, "kernels.speedup_decode_step", 4.0)["kernels"]))
        result = self._run(tmp_path, serving, serving, "--kernels", str(kern))
        assert result.returncode == 1
        assert "REGRESSION: kernels: speedup_decode_step 4.0x" in result.stdout
        kern.write_text(json.dumps(HEALTHY["kernels"]))
        assert self._run(tmp_path, serving, serving, "--kernels", str(kern)).returncode == 0
        kern.write_text("{}")
        assert self._run(tmp_path, serving, serving, "--kernels", str(kern)).returncode == 1

    def test_bounds_are_not_flags(self, tmp_path):
        """A bound is changed by editing its table row, never per invocation."""
        result = self._run(tmp_path, HEALTHY, HEALTHY, "--min-goodput-ratio", "0.1")
        assert result.returncode == 2


def _emit(cwd, out):
    src = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, str(EMITTER), "--fast", "--out", str(out)],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=src),
        check=True,
    )
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    """(cwd, refreshed, fresh): the emitter run over a copy of the
    committed baseline — the documented refresh — and once more into a
    new file, both from a scratch working directory."""
    cwd = tmp_path_factory.mktemp("emit")
    refreshed = cwd / "baseline.json"
    shutil.copy(BASELINE, refreshed)
    return cwd, _emit(cwd, refreshed), _emit(cwd, cwd / "BENCH_serving.json")


class TestEmitAndGate:
    def test_refresh_round_trip_loses_nothing(self, emitted):
        """Refreshing the baseline used to drop every ``floors`` block but
        one, silently weakening chaos 0.40 -> 0.35 and cluster 1.10 -> 1.00."""
        _, refreshed, fresh = emitted
        assert list(refreshed) == list(json.loads(BASELINE.read_text()))
        assert checker.evaluate(fresh, refreshed) == []
        for path, value in (("chaos.goodput_ratio", 0.37), ("cluster.affinity_speedup", 1.05)):
            failures = checker.evaluate(_with(fresh, path, value), refreshed)
            assert len(failures) == 1 and failures[0].startswith(path.replace(".", ": ") + " ")

    def test_emitter_leaves_the_five_run_manifests(self, emitted):
        """Config-addressed: unchanged digests mean unchanged run configs."""
        cwd, _, _ = emitted
        assert sorted(p.name for p in (cwd / "eval" / "results").iterdir()) == [
            "chaos-cbd5139f3d",
            "cluster-aa590c4940",
            "offload-bda7e9dfad",
            "prefix-cache-c25da38ca1",
            "serving-e7f3225f99",
        ]

    def test_committed_baseline_matches_engine_output(self, emitted):
        """A fresh deterministic run must pass the gate against the
        committed baseline — a stale baseline.json fails tier-1, not just
        the separate CI bench job."""
        _, _, fresh = emitted
        baseline = json.loads(BASELINE.read_text())
        assert fresh["fast_mode"] == baseline["fast_mode"]
        assert fresh["prefill_chunk_tokens"] == baseline["prefill_chunk_tokens"]
        assert checker.evaluate(fresh, baseline) == []
        # Deterministic simulation: the refresh command reproduces the
        # committed numbers exactly, not merely within the gate threshold.
        for name, point in baseline["formats"].items():
            assert fresh["formats"][name]["tokens_per_s"] == pytest.approx(
                point["tokens_per_s"], rel=1e-12
            )
        for section, metric in (
            ("prefix_cache", "hit_rate"),
            ("offload", "swap_speedup"),
            ("grouped", "priced_speedup"),
            ("chaos", "goodput_ratio"),
            ("cluster", "affinity_speedup"),
        ):
            assert fresh[section][metric] == pytest.approx(baseline[section][metric], rel=1e-12)
