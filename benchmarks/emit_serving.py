"""Emit ``BENCH_serving.json``: the one command behind the serving ledger.

Runs every gated serving section in-process — the per-format throughput
comparison and its ``grouped`` decode point, then the ``SECTIONS`` table —
and writes the whole document once.  The output file is never read, so a
refresh cannot lose or keep anything: what the benches measured is what
the file holds.  Every section also leaves its config-addressed
``eval/results/<name>-<digest>/`` manifest (``repro.bench.results``).

CI's bench job and the baseline refresh are the same command::

    python benchmarks/emit_serving.py --fast --out BENCH_serving.json
    python benchmarks/emit_serving.py --fast --out benchmarks/baseline.json

``scripts/check_bench_regression.py`` gates the first against the second;
its table is the only place a bound is declared.
"""

import argparse
import json
import sys

import bench_chaos as chaos
import bench_cluster as cluster
import bench_offload as offload
import bench_prefix_cache as prefix
import bench_serving_engine as serving

from repro.bench.results import write_run

#: (document key, run-directory name, run function, manifest config) of
#: every section that sits beside the root's per-format comparison.
SECTIONS = (
    ("prefix_cache", "prefix-cache", prefix.run_prefix_bench, prefix.run_config),
    ("offload", "offload", offload.run_offload_bench, offload.run_config),
    ("chaos", "chaos", chaos.run_chaos_bench, chaos.run_config),
    ("cluster", "cluster", cluster.run_cluster_bench, cluster.run_config),
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true", default=serving.FAST)
    parser.add_argument("--prefill-chunk", type=int, default=512)
    parser.add_argument("--out", default="BENCH_serving.json")
    args = parser.parse_args(argv)
    chunk = args.prefill_chunk if args.prefill_chunk > 0 else None
    doc = serving.run_serving_bench(args.fast, chunk)
    doc["grouped"] = serving.run_grouped_bench(args.fast)
    run_dirs = [write_run("serving", serving.run_config(args.fast, chunk), doc)]
    for key, name, run, config in SECTIONS:
        doc[key] = run(args.fast)
        run_dirs.append(write_run(name, config(args.fast), doc[key]))
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out} and " + ", ".join(f"{run_dir}/" for run_dir in run_dirs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
