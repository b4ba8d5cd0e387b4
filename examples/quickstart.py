"""Quickstart: decode with a 4-bit KV cache through the AttentionBackend API.

Builds a small GQA attention problem, prefills a quantized cache behind a
paged backend handle (the Residual Kernel packs complete blocks into
pages, the FP16 residual holds the tail), runs one decode step through
the Packing + Residual kernels, and compares against exact FP16
attention — then shows paged decode bit-identical to ``BitDecoding.decode``
over the contiguous ``BitKVCache``, for INT4 and for MXFP4 (the
Blackwell micro-scaling format).  Also prints the simulated kernel timing
on an A100 for a realistic long-context geometry.

Run:  python examples/quickstart.py
(exits 1 if either format's paged decode differs from the contiguous one)
"""

import numpy as np

from repro import (
    AttentionGeometry,
    BitDecodingConfig,
    PagedBitBackend,
    get_arch,
)
from repro.core.attention import BitDecoding, BitKVCache
from repro.core.softmax import reference_attention


def main() -> int:
    rng = np.random.default_rng(0)
    batch, hkv, hq, seq_len, head_dim = 1, 8, 32, 1000, 128

    # 1. Configure: 4-bit, channel-wise keys (the paper's KC-4 flagship),
    #    behind the paged backend (one page holds one packed block).
    config = BitDecodingConfig(bits=4, granularity="channel")
    backend = PagedBitBackend(config, get_arch("a100"))
    print(f"configuration: {config.short_name} via {type(backend).__name__}")
    print(f"residual block size N_r = {config.residual_block_size} (Eq. 1)")

    # 2. Prefill: quantize + pack the context into a cache handle.
    k = rng.standard_normal((batch, hkv, seq_len, head_dim)).astype(np.float16)
    v = rng.standard_normal((batch, hkv, seq_len, head_dim)).astype(np.float16)
    cache = backend.new_handle(batch, hkv, head_dim)
    backend.prefill(None, (k, v), cache)
    # Handles are opaque to the protocol (seq_len is the only portable
    # observable); the paged handle's per-sequence block table is reached
    # here explicitly for backend-specific introspection.
    seq = cache.seqs[0]
    nr = config.residual_block_size
    print(f"cache holds {cache.seq_len} tokens")
    print(
        f"  {seq.n_blocks * nr} packed in pages {seq.block_ids} + "
        f"{seq.res_len} residual, "
        f"{BitKVCache.from_prefill(k, v, config).compression_ratio():.2f}x "
        "compression vs FP16"
    )

    # 3. Decode one token.
    q = rng.standard_normal((batch, 1, hq, head_dim)).astype(np.float16)
    out = backend.decode_step(q, cache)

    # 4. Compare against exact FP16 attention.
    gq = hq // hkv
    ref = np.empty_like(out)
    for h in range(hq):
        ref[0, 0, h] = reference_attention(
            q[0, 0, h : h + 1].astype(np.float32),
            k[0, h // gq].astype(np.float32),
            v[0, h // gq].astype(np.float32),
        )
    err = np.abs(out - ref).max()
    cos = float(out.ravel() @ ref.ravel()) / (
        np.linalg.norm(out) * np.linalg.norm(ref)
    )
    print(f"decode vs FP16 reference: max error {err:.4f}, cosine {cos:.6f}")

    # 5. Append new tokens; the residual flushes on block boundaries.
    for _ in range(config.residual_block_size):
        backend.append_kv(
            (
                rng.standard_normal((batch, hkv, head_dim)).astype(np.float16),
                rng.standard_normal((batch, hkv, head_dim)).astype(np.float16),
            ),
            cache,
        )
    print(f"after {nr} appends: {seq.n_blocks * nr} packed tokens")

    # 6. Paged storage changes where blocks live, not the numerics: paged
    #    decode is bit-identical to BitDecoding.decode over the contiguous
    #    BitKVCache — for the integer path on an A100 and for MXFP4 on a
    #    Blackwell device.
    short_k, short_v = k[:, :, :300], v[:, :, :300]
    all_identical = True
    for fmt, arch in (
        (dict(bits=4, granularity="channel"), "a100"),
        (dict(version="fp4", fp4_format="mxfp4"), "rtx5090"),
    ):
        fmt_config = BitDecodingConfig(**fmt)
        engine = BitDecoding(fmt_config, get_arch(arch))
        paged = PagedBitBackend(engine, n_pages=16)
        handle = paged.new_handle(batch, hkv, head_dim)
        paged.prefill(None, (short_k, short_v), handle)
        contiguous = BitKVCache.from_prefill(short_k, short_v, fmt_config)
        identical = np.array_equal(
            paged.decode_step(q, handle), engine.decode(q, contiguous)
        )
        all_identical = all_identical and identical
        print(f"{fmt_config.short_name}: paged vs contiguous decode bit-identical: {identical}")

    # 7. Simulated decode latency at a realistic long-context geometry.
    geom = AttentionGeometry(batch=1, hq=32, hkv=8, seq_len=131072, head_dim=128)
    engine = backend.attention_system
    for result in engine.decode_results(geom):
        print(
            f"  {result.name:<16} {result.time_ms:7.4f} ms "
            f"(bound by {result.bound_by})"
        )
    print(f"decode attention total: {engine.decode_time_ms(geom):.4f} ms @ 128K on A100")
    return 0 if all_identical else 1


if __name__ == "__main__":
    raise SystemExit(main())
