"""Tensor-parallel sharding of the paged low-bit KV pool.

BitDecoding's headline table includes the 70B/8xA100 tensor-parallel
row; this module is that row made mechanical.  TP shards the *head*
space: attention heads are embarrassingly parallel (each head's QK^T,
softmax and PV touch only its own slice), and GQA groups map whole onto
ranks — rank ``r`` owns query heads ``[r*hq/tp, (r+1)*hq/tp)`` and their
``hkv/tp`` KV heads.  Everything positional (block tables, page ids,
sequence lengths, residual slots, the scheduler) is *replicated*, and the
pool arrays are ``[n_pages, hkv, ...]``, so in this simulator a rank's
storage is simply the ``[:, lo:hi]`` head slice of the ONE ordinary
:class:`~repro.attn.paged.PagedBitKVCache`.  Writes, flushes,
copy-on-write, dequant memos, tier migration and the swap stash therefore
run unsharded and unchanged; only the attention call is split.

Bit-exactness falls out of per-head independence: quantization scales,
packed words, softmax and the PV reduction never mix heads, so decoding
each rank's query heads against its :class:`HeadSliceView` of the cache
and concatenating the outputs on the head axis reproduces the single-rank
run bit for bit.  ``serve-sim --tp 2 --execute`` turns that argument
into a hard cross-check.

Pricing: a TP decode step pays ONE rank's (head-sliced) attention kernel
— ranks run concurrently — plus the per-layer all-reduce tax
(:func:`repro.model.inference._allreduce_ms`) and the already-sharded
weight GEMMs.  The backend inherits its pricing unchanged: callers pass
``n_gpus`` and ``tp`` (the engine passes its config's, which
``EngineConfig`` requires to equal the backend's degree under
``execute=True``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.attn.paged import PagedBitBackend


class HeadSliceView:
    """One rank's KV heads of a paged group view, already gathered.

    Duck-types the cache interface :meth:`BitDecoding.decode` reads over
    a :class:`~repro.attn.paged.PagedGroupView` (one sequence is a group
    of one): same batch, same residual lengths, ``heads`` of its KV
    heads.  ``packed`` / ``residual`` are the wrapped view's full-head
    ``dequant_kv()`` / ``residual_kv()`` pairs, fetched once per
    attention call and sliced (zero-copy) per rank.
    """

    def __init__(self, cache, packed, residual, heads: slice):
        self.config = cache.config
        self.batch = cache.batch
        self.hkv = heads.stop - heads.start
        self.head_dim = cache.head_dim
        self.residual_lengths = cache.residual_lengths
        self._packed = tuple(x[:, heads] for x in packed)
        self._residual = tuple(x[:, heads] for x in residual)

    def dequant_kv(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._packed

    def residual_kv(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._residual


class ShardedPagedBackend(PagedBitBackend):
    """Tensor-parallel paged backend: head-split the attention call.

    Subclasses :class:`~repro.attn.paged.PagedBitBackend` and keeps all of
    its storage machinery; the one override, :meth:`_attend`, slices the
    queries (head axis 2) into ``tp`` contiguous chunks, decodes each
    against that rank's :class:`HeadSliceView`, and concatenates the rank
    outputs on the head axis.  GQA query-head order is grouped by KV
    head, so contiguous query and KV splits stay aligned and each rank
    sees a well-formed ``gq``-grouped geometry.
    """

    def __init__(self, engine=None, arch="a100", tp: int = 2, n_pages: int = 256, n_slots: int = 64):
        super().__init__(engine, arch, n_pages=n_pages, n_slots=n_slots)
        if tp < 1:
            raise ValueError("tp must be >= 1")
        self.tp = tp

    def _attend(self, q: np.ndarray, cache) -> np.ndarray:
        if cache.hkv % self.tp != 0:
            raise ValueError(
                f"tp={self.tp} does not divide hkv={cache.hkv}; tensor "
                "parallelism shards whole KV-head groups"
            )
        if q.shape[2] % self.tp != 0:
            raise ValueError(
                f"head axis of size {q.shape[2]} does not split across tp={self.tp} ranks"
            )
        per_rank = cache.hkv // self.tp
        packed, residual = cache.dequant_kv(), cache.residual_kv()
        outs = [
            self.engine.decode(
                q_r,
                HeadSliceView(cache, packed, residual, slice(r * per_rank, (r + 1) * per_rank)),
            )
            for r, q_r in enumerate(np.split(q, self.tp, axis=2))
        ]
        return np.concatenate(outs, axis=2)

