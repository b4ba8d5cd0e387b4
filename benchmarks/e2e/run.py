#!/usr/bin/env python3
"""Two-clock end-to-end benchmark: one command, five workloads, both clocks.

Three ways to call it (see ``README.md`` beside this file):

``run.py [--workload NAME] [--seed N] [--repeats R] [--out FILE]``
    The full ledger.  Each workload runs in its own subprocess, once
    untraced (end-to-end metrics) and once traced (per-layer metrics);
    every metric is printed by name with its unit, correctness is checked,
    and the run lands under ``eval/results/e2e-<digest>/``.

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload, one pass, in this process; the last line of standard
    output is one JSON object (``correct``, ``attempted``, ``failed``,
    ``metrics``).  This is the form ``BENCHMARK.json`` names.

``run.py --compare A.json B.json``
    Parent-vs-change agreement check over two ``--out`` files.

Any failed correctness check makes the exit status non-zero.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

SPEC_PATH = ROOT / "BENCHMARK.json"
#: Pinned to one thread before numpy loads: the shared box has two cores
#: and an unpinned BLAS makes host times depend on its neighbours.
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
#: Set-up is sampled at least this often per run (the timed repeats' own
#: builds count); the median is reported.
SETUP_SAMPLES = 7
#: End-to-end metrics that are exact constants of a schedule.  The
#: driver refuses a time that reads the same on every run, so
#: ``BENCHMARK.json`` lists them with the per-layer metrics (no bound);
#: ``--compare`` still requires them identical.
MODELED_IN_TRACE = ("sim_tbt_ms_p50", "sim_tbt_ms_p99", "sim_speedup_vs_fp16", "failed_share")
#: Below this absolute change a ``setup_s`` difference is not a regression.
SETUP_FLOOR_S = 0.05


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def _spread(samples) -> float:
    """Inter-quartile distance over the median (with three samples: the range)."""
    if len(samples) < 2:
        return 0.0
    first, mid, third = statistics.quantiles(samples, n=4)
    return (third - first) / mid if mid else 0.0


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


# --------------------------------------------------------------- one pass


def _build(workload, seed: int):
    """A fresh state, its build time in idle-core seconds, and the host
    slowdown measured once it is ready (see ``calibration.py``)."""
    from calibration import slowdown

    before = slowdown()
    state, setup_s = _timed(workload.build, seed)
    gc.collect()  # the previous repeat's garbage is not the next region's time
    ready = slowdown()
    return state, setup_s * 2.0 / (before + ready), ready


def _repeat(workload, seed: int, tracer=None):
    """One fresh build + timed run, each bracketed by calibrations.

    Returns ``(state, setup_s, wall_s, slow, t0)``: both times in idle-core
    seconds, the slowdown in force around the timed run, and its start.
    """
    from calibration import slowdown

    state, setup_s, ready = _build(workload, seed)
    start = time.perf_counter()
    if tracer is None:
        workload.run(state)
    else:
        with tracer.record():
            workload.run(state)
    wall_s = time.perf_counter() - start
    slow = (ready + slowdown()) / 2.0
    return state, setup_s, wall_s / slow, slow, start


def measure(name: str, seed: int, seconds: float, repeats: int, traced: bool, spans_path=None):
    """Run one workload for ``seconds`` (at least ``repeats`` timed runs).

    Every repeat builds afresh.  A traced pass alternates an untraced and
    a traced repeat, so tracing overhead is measured inside the one pass.
    Host times are medians over the repeats, each in idle-core seconds
    (see the README's method section); modeled metrics and the decoded
    digest must be identical across repeats.
    """
    from layers import modeled_shares, span_metrics
    from tracing import Tracer, span_records
    from workloads import SMALL_WORKLOADS, WORKLOADS

    spec = load_spec()
    workload = WORKLOADS[name]
    _repeat(SMALL_WORKLOADS[name], seed)  # warm-up: imports, BLAS, allocator pools
    tracer = Tracer()
    setups, walls, slows, traced_walls, layer_runs, summaries = [], [], [], [], [], []
    state = None
    begin = lap = time.perf_counter()
    lap_s = 0.0  # stop where half of one more lap would cross the deadline
    while len(walls) < repeats or lap - begin + lap_s / 2.0 < seconds:
        state = None  # two live engines would double the peak memory reported
        state, setup_s, wall_s, slow, _ = _repeat(workload, seed)
        setups.append(setup_s)
        walls.append(wall_s)
        slows.append(slow)
        if traced:
            state = None
            with tracer.installed():
                state, setup_s, wall_s, slow, origin = _repeat(workload, seed, tracer)
            setups.append(setup_s)
            traced_walls.append(wall_s)
            layer_runs.append(span_metrics(tracer.spans, wall_s * slow, slow))
        summaries.append(workload.summarize(state))
        now = time.perf_counter()
        lap_s, lap = now - lap, now
    # Read now: the extra builds and the checks' reference tensors below
    # are the benchmark's memory, not the program's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setups) < SETUP_SAMPLES:
        setups.append(_build(workload, seed)[1])
    problems = workload.check(state)
    summary = workload.summarize(state)  # after check: carries its findings
    if any(s.sim != summary.sim or s.digest != summary.digest for s in summaries):
        problems.append("repeats of one seed disagree on modeled metrics or decoded digest")

    values = dict(summary.sim)
    values["failed_share"] = summary.failed / summary.attempted
    values["setup_s"] = statistics.median(setups)
    values["wall_s"] = statistics.median(walls)
    values["peak_rss_mb"] = peak_rss_mb
    if traced:
        layers = dict.fromkeys(_names(spec, "per_layer"), 0.0)
        layers.update({k: values[k] for k in MODELED_IN_TRACE})
        for key in layer_runs[-1]:
            layers[key] = statistics.median(run[key] for run in layer_runs)
        layers.update(summary.layers)
        layers.update(modeled_shares(tracer))
        if layers["serving.steps"]:
            layers["serving.host_ms_per_step"] = values["wall_s"] * 1e3 / layers["serving.steps"]
        layers["host.slowdown"] = statistics.median(slows)
        layers["trace.overhead_share"] = statistics.median(traced_walls) / values["wall_s"] - 1.0
        values = layers
        if spans_path:
            with open(spans_path, "a") as fh:
                for record in span_records(tracer.spans, origin, workload=name):
                    fh.write(json.dumps(record) + "\n")
    spec_metrics = spec["per_layer" if traced else "end_to_end"]
    unknown = sorted(set(values) - set(_names(spec, "per_layer")) - set(_names(spec, "end_to_end")))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    return {
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "repeats": len(walls),
        "correct": not problems,
        "problems": problems,
        "attempted": summary.attempted,
        "failed": summary.failed,
        "digest": summary.digest,
        "anchor": summary.anchor,
        "samples": summary.samples,
        "spreads": {"setup_s": _spread(setups), "wall_s": _spread(walls)},
        "host_samples": {
            "setup_s": setups,
            "wall_s": walls,
            "traced_wall_s": traced_walls,
            "slowdown": slows,
        },
        "sizes": workload.sizes,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics
        },
    }


def _names(spec: dict, kind: str):
    return [m["name"] for m in spec[kind]]


def _print_record(record: dict) -> None:
    print(f"== {record['workload']} (seed {record['seed']}, {record['repeats']} repeats)")
    for name, metric in record["metrics"].items():
        notes = []
        if name in record["spreads"]:
            notes.append(f"spread {record['spreads'][name]:.1%}")
        if name in record["samples"]:
            notes.append(f"n={record['samples'][name]}")
        if name == "sim_speedup_vs_fp16":
            notes.append(record["anchor"])
        note = f"  ({', '.join(notes)})" if notes else ""
        print(f"  {name:38s} {metric['value']:14.6g} {metric['unit']}{note}")
    print(f"  decoded_digest {record['digest'][:16]}", end="  ")
    print(f"failed {record['failed']}/{record['attempted']}")
    for problem in record["problems"]:
        print(f"  CHECK FAILED: {problem}")


def run_pass(args) -> int:
    record = measure(
        args.workload, args.seed, args.seconds, args.repeats, bool(args.trace), args.spans
    )
    _print_record(record)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2, default=str) + "\n")
    if not record["correct"]:
        return 1
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


# ------------------------------------------------------------ full ledger


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_all(args) -> int:
    """Both passes of every selected workload, one subprocess each."""
    import numpy
    from workloads import WORKLOADS

    from repro.bench.results import run_digest, write_run

    spec = load_spec()
    names = [args.workload] if args.workload else _names(spec, "workloads")
    config = {
        "bench": "e2e",
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": args.repeats,
        "sizes": {name: WORKLOADS[name].sizes for name in names},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_pins": {name: os.environ[name] for name in THREAD_PINS},
        "git_sha": _git_sha(),
    }
    results_root = ROOT / "eval" / "results"
    run_dir = results_root / f"e2e-{run_digest(config)}"
    run_dir.mkdir(parents=True, exist_ok=True)
    spans_path = run_dir / "spans.jsonl"
    spans_path.write_text("")  # each traced pass appends its spans when it ends
    results, status = {}, 0
    for name in names:
        passes = []
        for trace in (0, 1):
            out = run_dir / f"pass-{name}-{trace}.json"
            command = [sys.executable, str(HERE / "run.py"), "--workload", name]
            command += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
            command += ["--repeats", str(args.repeats), "--trace", str(trace)]
            command += ["--out", str(out), "--spans", str(spans_path)]
            done = subprocess.run(command, capture_output=True, text=True)
            if not out.exists():
                print(done.stdout + done.stderr)
                raise SystemExit(f"{name} --trace {trace} produced no result")
            passes.append(json.loads(out.read_text()))
            out.unlink()
            _print_record(passes[-1])
            status |= done.returncode
        plain, traced = passes
        results[name] = {
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
            "spreads": plain["spreads"],
            "digest": plain["digest"],
            "problems": plain["problems"] + traced["problems"],
        }
        if plain["digest"] != traced["digest"]:
            status = 1
            results[name]["problems"].append("traced and untraced runs decoded differently")
    summary = {"config": config, "workloads": results}
    written = write_run("e2e", config, summary, root=results_root)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, default=str) + "\n")
    print(f"wrote {written}/ (manifest.json, summary.json, spans.jsonl)")
    print("all checks passed" if status == 0 else "CHECKS FAILED")
    return status


# ---------------------------------------------------------------- compare


def compare(path_a: str, path_b: str) -> int:
    """Parent (A) vs change (B), one row per (workload, end-to-end metric).

    Host metrics may worsen by their ``BENCHMARK.json`` bound; one whose
    repeat-to-repeat spread exceeds that bound is *unresolved*, not
    unchanged.  Modeled metrics and decoded digests must be identical.
    """
    spec = load_spec()
    side_a = json.loads(Path(path_a).read_text())["workloads"]
    side_b = json.loads(Path(path_b).read_text())["workloads"]
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = _names(spec, "end_to_end") + list(MODELED_IN_TRACE)
    status = 0
    for name in sorted(set(side_a) & set(side_b)):
        a, b = side_a[name], side_b[name]
        for metric in rows:
            old, new = ({**r["end_to_end"], **r["per_layer"]}[metric]["value"] for r in (a, b))
            sign = 1.0 if meta[metric]["better"] == "lower" else -1.0
            worse = sign * (new - old) / old if old else sign * (new - old)
            bound = meta[metric].get("bound")
            if metric.startswith("sim_") or metric == "failed_share":
                verdict = "identical" if new == old else ("REGRESSION" if worse > 0 else "CHANGED")
            elif max(a["spreads"].get(metric, 0.0), b["spreads"].get(metric, 0.0)) > bound:
                verdict = "unresolved (spread exceeds bound)"
            elif worse > bound and not (metric == "setup_s" and abs(new - old) < SETUP_FLOOR_S):
                verdict = "REGRESSION"
            else:
                verdict = "improved" if worse < -bound else "unchanged"
            if verdict in ("REGRESSION", "CHANGED"):
                status = 1
            print(f"{name:16s} {metric:24s} {old:14.6g} -> {new:14.6g}  {worse:+8.2%}  {verdict}")
        same = a["digest"] == b["digest"]
        status |= 0 if same else 1
        print(f"{name:16s} {'decoded_digest':24s} {'identical' if same else 'DIFFERENT'}")
    print("agreement: OK" if status == 0 else "agreement: FAILED")
    return status


def main(argv=None) -> int:
    for name in THREAD_PINS:
        os.environ[name] = "1"
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=_names(spec, "workloads"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--repeats", type=int, default=3, help="minimum timed repeats per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="run one pass in this process")
    parser.add_argument("--out", help="write the detailed result JSON here")
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return run_pass(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
