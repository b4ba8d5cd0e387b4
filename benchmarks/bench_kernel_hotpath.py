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

Next to the steady step it reports ``flush_step_ms``, one append that
flushes a block column plus the decode that reads it, and
``flush_step_ratio``, that over ``steady_step_ms``: a flush writes only
its new block column into the cache's buffers, so it stays near a steady
step instead of re-copying the whole reconstruction (512 MiB at the
acceptance geometry).

An end-to-end ``transformer`` section (TinyTransformer decode step over
the paged low-bit backend vs exact attention) tracks what the kernel-level wins are
worth inside a full forward pass.  Its ``replay_ms`` row times a recomputed
sequence's ``REPLAY_TOKENS`` consumed decode tokens replayed as ONE
layer-major forward (``prefill_chunk``'s decode tail, what the serving
runner does on a heal or a recompute preemption), next to
``replay_per_token_ms``, the same tokens as one ``decode_step`` each.
Its ``chunk_live_row_ms`` row times one ``CHUNK_TOKENS``-row prefill chunk
that reads only its last row (``live_rows=1``, what the serving runner
asks of a chunk that completes a prefill), next to
``chunk_all_rows_ms``, the same chunk returning every row.

A kernel-level ``projections`` section times one pass of the bench-gqa
geometry's 16 projection GEMMs (4 layers of ``wqkv``, ``wo``,
``w_gate_up``, ``w_down``, 36 MB of weights, so every GEMM reads its weight
from past L2) at ``PROJECTION_ROWS`` rows: ``pass_ms`` per row count, the
fastest of ``PROJECTION_REPEATS`` passes.  Its ``build_ms`` is the fastest
of as many constructions of that model, the weight draw that makes up
nearly all of an executed workload's ``setup_s``.

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

from repro.attn import PagedBitBackend  # noqa: E402
from repro.bench.results import write_run  # noqa: E402
from repro.core.attention import BitDecoding, BitKVCache  # noqa: E402
from repro.core.config import BitDecodingConfig  # noqa: E402
from repro.model.transformer import TinyTransformer, _matmul  # noqa: E402

from tests.reference_cache import ReferenceBitKVCache, reference_decode  # noqa: E402

#: Acceptance geometry (ISSUE 3/4): 16k tokens, batch 8, hkv 8, INT4.
DEFAULT_GEOMETRY = dict(batch=8, hkv=8, hq=8, seq_len=16384, head_dim=64, bits=4)
# Consumed decode tokens per replay: the length of the heal/recompute
# replays the tiered_chaos workload runs.
REPLAY_TOKENS = 33
# Rows per prefill chunk in the chunk point: the prefill_shared workload's
# chunk size.
CHUNK_TOKENS = 128
# Rows per projection pass: one decoder, tiered_chaos's four, decode_burst's
# sixteen and a prefill-sized 64.
PROJECTION_ROWS = (1, 4, 16, 64)
PROJECTION_REPEATS = 7


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

    # One flushing step: fill the residual to one short of N_r untimed,
    # then time the append that flushes plus the decode that reads it.
    new_rows = rng.standard_normal((2, batch, hkv, head_dim)).astype(np.float16)
    while cache.res_len() < config.residual_block_size - 1:
        cache.append_token(*new_rows)

    def flush_step():
        assert cache.append_token(*new_rows)
        engine.decode(q, cache)

    _, flush_step_ms = _timed(flush_step)

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
            "flush_step_ms": flush_step_ms,
            "per_step_ms": per_step_ms,
        },
        "reference": {
            "prefill_pack_ms": ref_prefill_ms,
            "step_ms": ref_decode_ms,
        },
        "speedup_decode_step": ref_decode_ms / vec_steady_ms,
        "speedup_prefill_pack": ref_prefill_ms / vec_prefill_ms,
        "decode_step_flatness": flatness,
        "flush_step_ratio": flush_step_ms / vec_steady_ms,
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
    """End-to-end TinyTransformer decode step: paged low-bit cache vs exact FP16.

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
        ("engine", PagedBitBackend(BitDecodingConfig(bits=bits), "a100")),
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

    replay = _replay_ms(dims, bits, seed, prefill_tokens)
    chunk = _chunk_ms(dims, bits, seed, prefill_tokens)
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
        "replay_tokens": REPLAY_TOKENS,
        "replay_ms": replay["layer_major"],
        "replay_per_token_ms": replay["per_token"],
        "chunk_tokens": CHUNK_TOKENS,
        "chunk_all_rows_ms": chunk["all_rows"],
        "chunk_live_row_ms": chunk["live_row"],
        "engine": results["engine"],
        "exact": results["exact"],
    }


def run_projection_bench(rows=PROJECTION_ROWS, repeats=PROJECTION_REPEATS, seed=0):
    """One pass of the bench-gqa model's 16 projection GEMMs per row count.

    The geometry is the e2e benchmark's executed model (4 layers, hidden
    512, intermediate 1024): each pass walks all 36 MB of weights, so no
    GEMM finds its weight in L2.  Returns the fastest of ``repeats``
    passes per row count, the row counts timed in turn, and ``build_ms``,
    the fastest of ``repeats`` constructions of the model.
    """
    dims = dict(n_layers=4, hq=8, hkv=2, head_dim=64, hidden=512, intermediate=1024, seed=seed)
    build_ms = min(_timed(lambda: TinyTransformer(**dims))[1] for _ in range(repeats))
    model = TinyTransformer(**dims)
    weights = [
        w for layer in model.layers for w in (layer.wqkv, layer.wo, layer.w_gate_up, layer.w_down)
    ]
    rng = np.random.default_rng(seed)
    inputs = {
        (m, k): rng.standard_normal((m, k)).astype(np.float32) for m in rows for k in (512, 1024)
    }

    def one_pass(m):
        for w in weights:
            _matmul(inputs[m, w.shape[1]], w)

    best = {}
    for _ in range(repeats):
        for m in rows:
            _, t = _timed(lambda: one_pass(m))
            best[m] = min(t, best.get(m, t))
    return {
        "gemms": len(weights),
        "pass_ms": {str(m): best[m] for m in rows},
        "build_ms": build_ms,
    }


def _replay_ms(dims, bits, seed, context):
    """Fastest of three replays of ``REPLAY_TOKENS`` decode inputs after a
    ``context``-token prompt, per mode: one layer-major forward vs one
    ``decode_step`` per token.  Each repeat replays into a fresh session."""
    model, prompt, rng = _paged_model(dims, bits, seed, context)
    tail = rng.standard_normal((REPLAY_TOKENS, model.hidden)).astype(np.float32) * 0.5
    return _best_ms(model, prompt, {
        "layer_major": lambda s: model.prefill_chunk(tail[None], s, decode_tail=REPLAY_TOKENS),
        "per_token": lambda s: [model.decode_step(row[None], s) for row in tail],
    })


def _chunk_ms(dims, bits, seed, context):
    """Fastest of three ``CHUNK_TOKENS``-row prefill chunks after a
    ``context``-token prompt, per mode: every row returned vs only the
    last (``live_rows=1``).  Each repeat runs into a fresh session."""
    model, prompt, rng = _paged_model(dims, bits, seed, context)
    chunk = rng.standard_normal((1, CHUNK_TOKENS, model.hidden)).astype(np.float32) * 0.5
    return _best_ms(model, prompt, {
        "all_rows": lambda s: model.prefill_chunk(chunk, s),
        "live_row": lambda s: model.prefill_chunk(chunk, s, live_rows=1),
    })


def _paged_model(dims, bits, seed, context):
    """A paged-backend model, a ``context``-row prompt and the rng that drew it."""
    model = TinyTransformer(
        **dims, backend=PagedBitBackend(BitDecodingConfig(bits=bits), "a100"), seed=seed
    )
    rng = np.random.default_rng(seed)
    prompt = rng.standard_normal((1, context, model.hidden)).astype(np.float32) * 0.5
    return model, prompt, rng


def _best_ms(model, prompt, modes):
    """Fastest of three runs per mode, alternating modes, each into a
    fresh session holding ``prompt``."""
    best = {}
    for _ in range(3):
        for name, run in modes.items():
            session = model.new_session()
            model.prefill_chunk(prompt, session)
            _, t = _timed(lambda: run(session))
            model.release_session(session)
            best[name] = min(t, best.get(name, t))
    return best


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
        f"  flush step: {vec['flush_step_ms']:9.1f} ms (append that flushes + its decode), "
        f"{result['flush_step_ratio']:.2f}x the steady step"
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
        print(
            f"  transformer replay of {transformer['replay_tokens']} decode tokens: "
            f"layer-major {transformer['replay_ms']:.1f} ms | "
            f"per-token {transformer['replay_per_token_ms']:.1f} ms"
        )
        print(
            f"  transformer {transformer['chunk_tokens']}-row prefill chunk: "
            f"last row read {transformer['chunk_live_row_ms']:.1f} ms | "
            f"all rows read {transformer['chunk_all_rows_ms']:.1f} ms"
        )
    projections = result.get("projections")
    if projections:
        print(
            f"  {projections['gemms']}-GEMM bench-gqa projection pass: "
            + " | ".join(f"M {m} {ms:.2f} ms" for m, ms in projections["pass_ms"].items())
        )
        print(f"  bench-gqa model build: {projections['build_ms']:.1f} ms")


def test_kernel_hotpath_smoke(run):
    """Small-geometry smoke: the vectorized path must beat per-block loops."""
    result = run(
        run_hotpath_bench, batch=2, hkv=2, hq=4, seq_len=2048, head_dim=32, bits=4, steps=4
    )
    result["transformer"] = run_transformer_bench(
        batch=1, n_layers=1, hq=4, hkv=2, head_dim=32, prefill_tokens=128, steps=2
    )
    result["projections"] = run_projection_bench(repeats=1)
    _print_summary(result)
    assert result["speedup_decode_step"] > 1.0
    assert result["speedup_prefill_pack"] > 1.0
    assert result["vectorized"]["steady_step_ms"] <= result["vectorized"]["first_step_ms"] * 1.5
    assert result["vectorized"]["flush_step_ms"] > 0
    assert result["flush_step_ratio"] > 0
    assert result["transformer"]["engine_step_ms"] > 0
    assert result["transformer"]["exact_step_ms"] > 0
    assert result["transformer"]["replay_ms"] > 0
    assert result["transformer"]["chunk_live_row_ms"] > 0
    assert result["projections"]["gemms"] == 16
    assert sorted(result["projections"]["pass_ms"]) == sorted(map(str, PROJECTION_ROWS))
    assert all(ms > 0 for ms in result["projections"]["pass_ms"].values())
    assert result["projections"]["build_ms"] > 0


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
    result["projections"] = run_projection_bench()
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
