"""Shared modelling helpers for the baseline systems.

The baselines differ from BitDecoding along three axes the paper analyses:

1. **Fusion** — KIVI launches separate kernels per attention stage
   (inflated launches + intermediate global traffic); Atom/QServe fuse but
   run everything on CUDA cores; BitDecoding fuses and splits work across
   both pipes.
2. **Compute placement** — CUDA-core FMA GEMV attention sustains a small
   fraction of the cores' peak (register bandwidth, no MMA operand reuse);
   :data:`CUDA_GEMV_EFFICIENCY` captures it.
3. **GQA handling** — kernels that parallelize over *query* heads stream
   each KV head ``g_q`` times; repeated reads partially hit in L2.
"""

from __future__ import annotations

from repro.core.config import AttentionGeometry
from repro.gpu.arch import ArchSpec

#: Fraction of CUDA-core peak a fused FMA-based attention GEMV sustains.
#: FMA pipelines lack the operand reuse of MMA fragments: every
#: multiply-accumulate needs fresh register file bandwidth, and the same
#: instructions also issue the dequant/scale math.
CUDA_GEMV_EFFICIENCY = 0.25

#: Cap on the L2 hit rate of repeated KV streams: the blocks re-reading a
#: KV head are only partially co-scheduled with the block that brought it
#: in, so even a cache-resident stream misses about half its repeats.
L2_HIT_CAP = 0.5


def l2_hit_fraction(arch: ArchSpec, stream_bytes: float) -> float:
    """Expected L2 hit rate when a KV stream of ``stream_bytes`` is re-read.

    When the concurrently-live stream fits in L2, repeats mostly hit
    (capped at :data:`L2_HIT_CAP`); beyond that, hits decay with the
    ratio of cache to stream.
    """
    if stream_bytes <= 0:
        return L2_HIT_CAP
    l2_bytes = arch.l2_size_mb * 1024 * 1024
    return min(L2_HIT_CAP, l2_bytes / stream_bytes)


def gqa_reread_traffic(arch: ArchSpec, geom: AttentionGeometry, kv_bytes: float) -> tuple:
    """(DRAM bytes, L2 bytes) for a kernel that streams KV per *query* head.

    The cache is semantically ``kv_bytes``; a query-head-parallel kernel
    reads it ``g_q`` times.  Repeats hit L2 at :func:`l2_hit_fraction` of
    the per-step working set.
    """
    gq = geom.gq
    if gq <= 1:
        return kv_bytes, 0.0
    hit = l2_hit_fraction(arch, kv_bytes)
    repeats = (gq - 1) * kv_bytes
    dram = kv_bytes + repeats * (1.0 - hit)
    l2 = repeats * hit
    return dram, l2


def int_kv_metadata_bytes(geom: AttentionGeometry, group_size: int) -> float:
    """half2 scale/zero bytes for an integer-quantized KV cache.

    Assumes channel-wise keys (one half2 per channel per ``group_size``
    tokens) and per-token values (one half2 per token) — the configuration
    every system in the evaluation shares.
    """
    seq = geom.seq_len
    heads = geom.batch * geom.hkv
    k_meta = heads * geom.head_dim * (seq / group_size) * 4.0
    v_meta = heads * seq * 4.0
    return k_meta + v_meta


def attention_gflops(geom: AttentionGeometry, m_rows: float) -> float:
    """FLOPs of QK^T + PV when the kernel computes ``m_rows`` query rows
    per KV head (padded rows included — they occupy the pipes)."""
    return 2.0 * 2.0 * geom.batch * geom.hkv * m_rows * geom.seq_len * geom.head_dim
