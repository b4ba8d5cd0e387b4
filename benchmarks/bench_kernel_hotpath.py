"""Decode hot-path microbenchmark: vectorized SoA cache vs per-block loops.

Times the kernel hot paths in two implementations of identical numerics:

- the vectorized struct-of-arrays ``BitKVCache`` (fused tile walk, chunked
  quantize+pack prefill flush, dequant memoized between flushes), and
- the retained seed implementation (``tests/reference_cache.py``): nested
  Python loops over per-(batch, head) block lists that re-dequantize every
  packed block on every step and walk ``tile_n`` tiles in Python.

Three headline numbers at the acceptance geometry (batch 8, hkv 8,
seq 16k, INT4, d 64):

- ``speedup_decode_step``: per-decode-step speedup;
- ``speedup_prefill_pack``: whole-prompt quantize+pack speedup.  Both
  sides are measured steady-state — the vectorized prefill runs twice and
  reports the second run, so neither side pays the process's
  first-allocation page faults while the other reuses a warm heap;
- ``decode_step_flatness``: max/min vectorized decode wall time across
  no-flush steps (the memoization contract).

An end-to-end ``transformer`` section (TinyTransformer decode step,
engine-backed vs exact attention) tracks what the kernel-level wins are
worth inside a full forward pass.

Report only: these are same-machine host-clock ratios, so nothing gates
on them.  CI runs this module as a script and uploads the point::

    python benchmarks/bench_kernel_hotpath.py --out BENCH_kernels.json

The properties behind them are pinned deterministically: the memo
flatness contract by ``tests/core/test_vectorized_cache.py``, grouped ==
looped decode by ``tests/attn/test_grouped_decode.py``, and host time by
the calibrated ``kernel_longctx`` / ``decode_burst`` workloads of
``benchmarks/e2e``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from repro.attn import ContiguousBitBackend  # noqa: E402
from repro.bench.results import write_run  # noqa: E402
from repro.core.attention import BitDecoding, BitKVCache  # noqa: E402
from repro.core.config import BitDecodingConfig  # noqa: E402
from repro.model.transformer import TinyTransformer  # noqa: E402

from tests.reference_cache import ReferenceBitKVCache, reference_decode  # noqa: E402

#: Acceptance geometry (ISSUE 3/4): 16k tokens, batch 8, hkv 8, INT4.
DEFAULT_GEOMETRY = dict(batch=8, hkv=8, hq=8, seq_len=16384, head_dim=64, bits=4)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, (time.perf_counter() - t0) * 1e3


def run_hotpath_bench(
    batch=8,
    hkv=8,
    hq=8,
    seq_len=16384,
    head_dim=64,
    bits=4,
    steps=6,
    reference_steps=1,
    seed=0,
):
    """One full comparison run, summarized as the BENCH_kernels.json shape."""
    config = BitDecodingConfig(bits=bits)
    engine = BitDecoding(config, "a100")
    rng = np.random.default_rng(seed)
    k = rng.standard_normal((batch, hkv, seq_len, head_dim)).astype(np.float16)
    v = rng.standard_normal((batch, hkv, seq_len, head_dim)).astype(np.float16)
    q = rng.standard_normal((batch, 1, hq, head_dim)).astype(np.float16)

    # Prefill pack: the first run pays the process's cold allocations; the
    # steady-state pack cost is the faster of two subsequent runs (noise
    # only ever adds time, so the min is the stable estimator).  That is
    # the gated number, compared against the reference measured the same
    # way below, on the then-warm heap.
    _, vec_prefill_cold_ms = _timed(lambda: BitKVCache.from_prefill(k, v, config))
    _, vec_prefill_a_ms = _timed(lambda: BitKVCache.from_prefill(k, v, config))
    cache, vec_prefill_b_ms = _timed(lambda: BitKVCache.from_prefill(k, v, config))
    vec_prefill_ms = min(vec_prefill_a_ms, vec_prefill_b_ms)
    per_step_ms = []
    for _ in range(steps):
        _, t = _timed(lambda: engine.decode(q, cache))
        per_step_ms.append(t)
    # Step 0 pays the one-off dequant of the packed part; the steady state
    # is every subsequent (no-flush) step.
    steady = per_step_ms[1:] if len(per_step_ms) > 1 else per_step_ms
    vec_steady_ms = statistics.median(steady)
    flatness = max(steady) / min(steady) if min(steady) > 0 else float("inf")

    # Same min-of-two estimator as the vectorized side.
    ref, ref_prefill_ms = _timed(lambda: ReferenceBitKVCache.from_prefill(k, v, config))
    _, ref_prefill_2_ms = _timed(lambda: ReferenceBitKVCache.from_prefill(k, v, config))
    ref_prefill_ms = min(ref_prefill_ms, ref_prefill_2_ms)
    ref_step_ms = []
    for _ in range(reference_steps):
        _, t = _timed(lambda: reference_decode(config, q, ref))
        ref_step_ms.append(t)
    ref_decode_ms = statistics.median(ref_step_ms)

    return {
        "geometry": {
            "batch": batch,
            "hkv": hkv,
            "hq": hq,
            "seq_len": seq_len,
            "head_dim": head_dim,
            "bits": bits,
        },
        "vectorized": {
            "prefill_pack_ms": vec_prefill_ms,
            "prefill_pack_cold_ms": vec_prefill_cold_ms,
            "first_step_ms": per_step_ms[0],
            "steady_step_ms": vec_steady_ms,
            "per_step_ms": per_step_ms,
        },
        "reference": {
            "prefill_pack_ms": ref_prefill_ms,
            "step_ms": ref_decode_ms,
        },
        "speedup_decode_step": ref_decode_ms / vec_steady_ms,
        "speedup_prefill_pack": ref_prefill_ms / vec_prefill_ms,
        "decode_step_flatness": flatness,
    }


def run_transformer_bench(
    batch=4,
    n_layers=2,
    hq=8,
    hkv=8,
    head_dim=64,
    prefill_tokens=512,
    steps=4,
    bits=4,
    seed=0,
):
    """End-to-end TinyTransformer decode step: engine cache vs exact FP16.

    Small geometry by design — prefill attention materializes O(seq^2)
    scores per KV head, so this measures the decode step's end-to-end
    cost (projections, RoPE, cache append, attention, MLP), not a
    long-context prefill.
    """
    hidden = hq * head_dim
    dims = dict(
        n_layers=n_layers,
        hq=hq,
        hkv=hkv,
        head_dim=head_dim,
        hidden=hidden,
        intermediate=2 * hidden,
    )
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, prefill_tokens, hidden)).astype(np.float32) * 0.5
    step_inputs = [
        rng.standard_normal((batch, hidden)).astype(np.float32) * 0.5 for _ in range(steps)
    ]

    results = {}
    for name, backend in (
        ("engine", ContiguousBitBackend(BitDecodingConfig(bits=bits), "a100")),
        ("exact", None),
    ):
        model = TinyTransformer(**dims, backend=backend, seed=seed)
        _, prefill_ms = _timed(lambda: model.prefill(x))
        step_ms = []
        for step in step_inputs:
            _, t = _timed(lambda: model.decode_step(step))
            step_ms.append(t)
        results[name] = {
            "prefill_ms": prefill_ms,
            "step_ms": statistics.median(step_ms),
            "per_step_ms": step_ms,
        }

    return {
        "geometry": {
            "batch": batch,
            "n_layers": n_layers,
            "hq": hq,
            "hkv": hkv,
            "head_dim": head_dim,
            "prefill_tokens": prefill_tokens,
            "bits": bits,
        },
        "engine_step_ms": results["engine"]["step_ms"],
        "exact_step_ms": results["exact"]["step_ms"],
        "engine": results["engine"],
        "exact": results["exact"],
    }


def _print_summary(result):
    geom = result["geometry"]
    print(
        f"kernel hot path @ batch {geom['batch']}, hkv {geom['hkv']}, "
        f"seq {geom['seq_len']}, d {geom['head_dim']}, INT{geom['bits']}"
    )
    vec, ref = result["vectorized"], result["reference"]
    print(
        f"  prefill pack: vectorized {vec['prefill_pack_ms']:9.1f} ms "
        f"(cold {vec['prefill_pack_cold_ms']:.1f} ms) | "
        f"reference {ref['prefill_pack_ms']:9.1f} ms"
    )
    print(
        f"  decode:  vectorized {vec['steady_step_ms']:9.1f} ms/step "
        f"(first {vec['first_step_ms']:.1f} ms) | reference {ref['step_ms']:9.1f} ms/step"
    )
    print(
        f"  speedup: {result['speedup_decode_step']:.1f}x per decode step, "
        f"{result['speedup_prefill_pack']:.1f}x prefill pack; "
        f"flatness {result['decode_step_flatness']:.2f} "
        f"(max/min steady step, 1.0 = perfectly flat)"
    )
    transformer = result.get("transformer")
    if transformer:
        tg = transformer["geometry"]
        print(
            f"  transformer step @ batch {tg['batch']}, {tg['n_layers']} layers, "
            f"hidden {tg['hq'] * tg['head_dim']}: "
            f"engine {transformer['engine_step_ms']:.1f} ms | "
            f"exact {transformer['exact_step_ms']:.1f} ms"
        )


def test_kernel_hotpath_smoke(run):
    """Small-geometry smoke: the vectorized path must beat per-block loops."""
    result = run(
        run_hotpath_bench, batch=2, hkv=2, hq=4, seq_len=2048, head_dim=32, bits=4, steps=4
    )
    result["transformer"] = run_transformer_bench(
        batch=1, n_layers=1, hq=4, hkv=2, head_dim=32, prefill_tokens=128, steps=2
    )
    _print_summary(result)
    assert result["speedup_decode_step"] > 1.0
    assert result["speedup_prefill_pack"] > 1.0
    assert result["vectorized"]["steady_step_ms"] <= result["vectorized"]["first_step_ms"] * 1.5
    assert result["transformer"]["engine_step_ms"] > 0
    assert result["transformer"]["exact_step_ms"] > 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--batch", type=int, default=DEFAULT_GEOMETRY["batch"])
    parser.add_argument("--hkv", type=int, default=DEFAULT_GEOMETRY["hkv"])
    parser.add_argument("--hq", type=int, default=DEFAULT_GEOMETRY["hq"])
    parser.add_argument("--seq", type=int, default=DEFAULT_GEOMETRY["seq_len"])
    parser.add_argument("--head-dim", type=int, default=DEFAULT_GEOMETRY["head_dim"])
    parser.add_argument("--bits", type=int, default=DEFAULT_GEOMETRY["bits"])
    parser.add_argument("--steps", type=int, default=6, help="vectorized decode steps to time")
    parser.add_argument(
        "--skip-transformer", action="store_true", help="omit the TinyTransformer step bench"
    )
    parser.add_argument("--out", default=None, help="write BENCH_kernels.json here")
    args = parser.parse_args(argv)

    result = run_hotpath_bench(
        batch=args.batch,
        hkv=args.hkv,
        hq=args.hq,
        seq_len=args.seq,
        head_dim=args.head_dim,
        bits=args.bits,
        steps=args.steps,
    )
    if not args.skip_transformer:
        result["transformer"] = run_transformer_bench(bits=args.bits)
    _print_summary(result)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=2)
    # Every run leaves a config-addressed manifest, --out or not.
    run_dir = write_run(
        "kernels",
        {
            "bench": "kernels",
            "geometry": result.get("geometry"),
            "steps": args.steps,
            "transformer": not args.skip_transformer,
        },
        result,
    )
    if args.out:
        print(f"wrote {args.out} and {run_dir}/")
    else:
        print(f"wrote {run_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
