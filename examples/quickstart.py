"""Quickstart: decode with a 4-bit KV cache through the AttentionBackend API.

Builds a small GQA attention problem, prefills a quantized cache behind a
backend handle (the Residual Kernel packs complete blocks, the FP16
residual holds the tail), runs one decode step through the Packing +
Residual kernels, and compares against exact FP16 attention — then shows
the paged backend producing bit-identical decode output from a page pool.
Also prints the simulated kernel timing on an A100 for a realistic
long-context geometry.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    AttentionGeometry,
    BitDecodingConfig,
    ContiguousBitBackend,
    PagedBitBackend,
    get_arch,
)
from repro.core.softmax import reference_attention


def main() -> None:
    rng = np.random.default_rng(0)
    batch, hkv, hq, seq_len, head_dim = 1, 8, 32, 1000, 128

    # 1. Configure: 4-bit, channel-wise keys (the paper's KC-4 flagship),
    #    behind the contiguous (bit-exact reference) backend.
    config = BitDecodingConfig(bits=4, granularity="channel")
    backend = ContiguousBitBackend(config, get_arch("a100"))
    print(f"configuration: {config.short_name} via {type(backend).__name__}")
    print(f"residual block size N_r = {config.residual_block_size} (Eq. 1)")

    # 2. Prefill: quantize + pack the context into a cache handle.
    k = rng.standard_normal((batch, hkv, seq_len, head_dim)).astype(np.float16)
    v = rng.standard_normal((batch, hkv, seq_len, head_dim)).astype(np.float16)
    cache = backend.new_handle(batch, hkv, head_dim)
    backend.prefill(None, (k, v), cache)
    # Handles are opaque to the protocol (seq_len is the only portable
    # observable); the contiguous handle's BitKVCache is reached here
    # explicitly for backend-specific introspection.
    bitkv = cache.cache
    print(f"cache holds {cache.seq_len} tokens")
    print(
        f"  {bitkv.packed_len()} packed + {bitkv.res_len()} residual, "
        f"{bitkv.compression_ratio():.2f}x compression vs FP16"
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
    print(f"after {config.residual_block_size} appends: {bitkv.packed_len()} packed tokens")

    # 6. Same protocol, paged storage: packed blocks live in a page pool
    #    behind a block table, and decode is bit-identical to the
    #    contiguous reference under exact_tiled numerics.
    exact = BitDecodingConfig(bits=4, granularity="channel", numerics_mode="exact_tiled")
    short_k, short_v = k[:, :, : 3 * 128], v[:, :, : 3 * 128]
    outs = []
    for impl in (
        ContiguousBitBackend(exact, get_arch("a100")),
        PagedBitBackend(exact, get_arch("a100"), n_pages=64),
    ):
        handle = impl.new_handle(batch, hkv, head_dim)
        impl.prefill(None, (short_k, short_v), handle)
        outs.append(impl.decode_step(q, handle))
    identical = np.array_equal(*outs)
    print(f"paged vs contiguous decode bit-identical: {identical}")

    # 7. Simulated decode latency at a realistic long-context geometry.
    geom = AttentionGeometry(batch=1, hq=32, hkv=8, seq_len=131072, head_dim=128)
    engine = backend.attention_system
    for result in engine.decode_results(geom):
        print(
            f"  {result.name:<16} {result.time_ms:7.4f} ms "
            f"(bound by {result.bound_by})"
        )
    print(f"decode attention total: {engine.decode_time_ms(geom):.4f} ms @ 128K on A100")


if __name__ == "__main__":
    main()
