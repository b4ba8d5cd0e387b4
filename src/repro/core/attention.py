"""Top-level BitDecoding API: the quantized KV cache and the decode engine.

This is the public face of the library:

>>> from repro import BitDecodingConfig, get_arch
>>> from repro.core.attention import BitDecoding
>>> engine = BitDecoding(BitDecodingConfig(bits=4), get_arch("a100"))
>>> cache = engine.prefill(k, v)            # [batch, hkv, seq, d] FP16
>>> out = engine.decode(q, cache)           # q: [batch, 1, hq, d]

``BitKVCache`` owns the two-part cache (packed low-bit blocks + FP16
residual, Sec. IV-A(2)) in *struct-of-arrays* form: one packed-words
tensor, one ``half2`` metadata tensor and one residual tensor per K/V,
each carrying ``[batch, hkv, ...]`` leading dims so prefill packing,
appends, flushes and dequantization run as single batched numpy ops —
no Python iteration over (batch, head, block) in the decode hot path.
``BitDecoding`` runs the Residual and Packing kernels over it, merges
their partial softmax states, and can report the simulated GPU timing of
every launch.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.arch_support import validate_config
from repro.core.config import AttentionGeometry, BitDecodingConfig
from repro.core.packing_kernel import PackingShape, build_packing_launch, run_numeric
from repro.core.query_transform import group_queries, ungroup_output
from repro.core.residual_cache import BatchedResidual, partition_prefill
from repro.core.residual_kernel import (
    BlockBatch,
    attend_residual,
    attend_residual_grouped,
    build_residual_launch,
    flush_blocks,
)
from repro.core.softmax import OnlineSoftmaxState
from repro.gpu.arch import ArchSpec, get_arch
from repro.gpu.kernel import KernelLaunch, KernelResult, memoized_latency, remember, simulate_kernel


class BitKVCache:
    """Two-part low-bit KV cache for a batch of sequences, struct-of-arrays.

    Storage is batched over every (sequence, kv-head) pair: the packed part
    is one :class:`~repro.core.residual_kernel.PackedBlockBatch` (or
    :class:`~repro.core.residual_kernel.Fp4BlockBatch`) whose word/metadata
    tensors carry ``[batch, hkv, n_blocks, ...]`` leading dims, and the FP16
    residual is one :class:`~repro.core.residual_cache.BatchedResidual`
    tensor pair with a shared fill cursor.  All sequences in the batch share
    a length (the paper's padded "Batches" setting), which is exactly what
    makes the lock-step layout valid.

    Dequantized packed K/V are memoized per flush epoch: decode steps that
    do not flush reuse the reconstruction instead of re-dequantizing every
    block (see :meth:`dequant_kv`).
    """

    def __init__(self, batch: int, hkv: int, head_dim: int, config: BitDecodingConfig):
        if min(batch, hkv, head_dim) <= 0:
            raise ValueError("batch, hkv and head_dim must be positive")
        self.batch = batch
        self.hkv = hkv
        self.head_dim = head_dim
        self.config = config
        nr = config.residual_block_size
        self.packed: Optional[BlockBatch] = None
        self.residual = BatchedResidual(batch, hkv, nr, head_dim)
        self.seq_len = 0
        self.flush_epoch = 0
        self._dequant_memo: Optional[Tuple[Tuple[int, int], Tuple[np.ndarray, np.ndarray]]] = None

    # ------------------------------------------------------------------ fill

    @classmethod
    def from_prefill(cls, k: np.ndarray, v: np.ndarray, config: BitDecodingConfig) -> "BitKVCache":
        """Build a cache from prefill K/V of shape ``[batch, hkv, seq, d]``.

        The first ``L - (L mod N_r)`` tokens are quantized+packed — all
        ``batch x hkv x n_blocks`` blocks in one vectorized flush — and the
        remainder seeds the FP16 residual (Sec. V-B(1)).
        """
        k = np.asarray(k)
        v = np.asarray(v)
        if k.ndim != 4 or k.shape != v.shape:
            raise ValueError("k and v must both be [batch, hkv, seq, d]")
        batch, hkv, seq_len, d = k.shape
        cache = cls(batch, hkv, d, config)
        nr = config.residual_block_size
        packed_len, res_len = partition_prefill(seq_len, nr)
        n_blocks = packed_len // nr
        if n_blocks:
            cache.packed = flush_blocks(
                k[:, :, :packed_len].reshape(batch, hkv, n_blocks, nr, d),
                v[:, :, :packed_len].reshape(batch, hkv, n_blocks, nr, d),
                config,
            )
            cache.flush_epoch += 1
        if res_len:
            cache.residual.fill(k[:, :, packed_len:], v[:, :, packed_len:])
        cache.seq_len = seq_len
        return cache

    def append_token(self, k_new: np.ndarray, v_new: np.ndarray) -> bool:
        """Append one decoded token's K/V (``[batch, hkv, d]``).

        One slice write into the batched residual; on the step where the
        residual fills to ``N_r``, all ``batch x hkv`` blocks are quantized
        and packed in a single vectorized flush.  Returns True when that
        flush happened (the once-per-``N_r``-steps quantization event).
        """
        k_new = np.asarray(k_new)
        v_new = np.asarray(v_new)
        expected = (self.batch, self.hkv, self.head_dim)
        if k_new.shape != expected or v_new.shape != expected:
            raise ValueError(f"new K/V must have shape {expected}")
        block = self.residual.append(k_new, v_new)
        flushed = block is not None
        if flushed:
            batch_blocks = flush_blocks(block[0][:, :, None], block[1][:, :, None], self.config)
            memo = self._dequant_memo
            extendable = (
                memo is not None
                and self.packed is not None
                and memo[0] == (self.packed.n_blocks, self.flush_epoch)
            )
            self.packed = (
                batch_blocks if self.packed is None else self.packed.extend(batch_blocks)
            )
            self.flush_epoch += 1
            if extendable:
                # A flush only appends blocks, so the memoized reconstruction
                # extends with just the new blocks' dequant — per-block
                # independence makes this bit-identical to a full rebuild,
                # and keeps flush steps O(N_r), not O(context).
                k_new_hat, v_new_hat = batch_blocks.dequant_kv(self.config)
                kv = (
                    np.concatenate([memo[1][0], k_new_hat], axis=2),
                    np.concatenate([memo[1][1], v_new_hat], axis=2),
                )
                self._dequant_memo = ((self.packed.n_blocks, self.flush_epoch), kv)
            else:
                self._dequant_memo = None
        self.seq_len += 1
        return flushed

    # ------------------------------------------------------------------ views

    def packed_len(self) -> int:
        """Tokens currently in the packed (low-bit) part, per head."""
        if self.packed is None:
            return 0
        return self.packed.n_blocks * self.packed.length

    def res_len(self) -> int:
        """Tokens currently in the FP16 residual, per head."""
        return self.residual.length

    def dequant_kv(self) -> Tuple[np.ndarray, np.ndarray]:
        """Reconstructed FP32 ``[batch, hkv, packed_len, d]`` K/V, memoized.

        The first call after a flush exercises the real batched unpack +
        dequantization of the stored fragment-order words; subsequent calls
        return the cached reconstruction until the next flush changes the
        packed part (keyed on ``(n_blocks, flush_epoch)``).
        """
        if self.packed is None:
            empty = np.zeros((self.batch, self.hkv, 0, self.head_dim), np.float32)
            return empty, empty
        key = (self.packed.n_blocks, self.flush_epoch)
        if self._dequant_memo is not None and self._dequant_memo[0] == key:
            return self._dequant_memo[1]
        kv = self.packed.dequant_kv(self.config)
        self._dequant_memo = (key, kv)
        return kv

    def residual_kv(self) -> Tuple[np.ndarray, np.ndarray]:
        """Valid FP16 residual rows, ``[batch, hkv, res_len, d]``."""
        return self.residual.view()

    # ------------------------------------------------------------------ sizes

    @property
    def packed_nbytes(self) -> float:
        """Packed-word bytes, computed from array shapes in O(1)."""
        if self.packed is None:
            return 0.0
        return self.packed.packed_nbytes

    @property
    def meta_nbytes(self) -> float:
        """Quantization-metadata bytes, computed from array shapes in O(1)."""
        if self.packed is None:
            return 0.0
        return self.packed.meta_nbytes

    @property
    def residual_nbytes(self) -> float:
        """FP16 residual bytes (constant), from array shapes in O(1)."""
        return self.residual.nbytes

    @property
    def total_nbytes(self) -> float:
        return self.packed_nbytes + self.meta_nbytes + self.residual_nbytes

    def fp16_equivalent_nbytes(self) -> float:
        """Bytes an FP16 cache of the same contents would occupy."""
        return 2.0 * self.batch * self.hkv * self.seq_len * self.head_dim * 2.0

    def compression_ratio(self) -> float:
        if self.total_nbytes == 0:
            return 1.0
        return self.fp16_equivalent_nbytes() / self.total_nbytes


class BitDecoding:
    """The BitDecoding engine: decode attention over a :class:`BitKVCache`."""

    def __init__(self, config: BitDecodingConfig, arch: Union[ArchSpec, str] = "a100"):
        self.arch = get_arch(arch) if isinstance(arch, str) else arch
        validate_config(self.arch, config)
        self.config = config
        self._group_memos: Dict[tuple, Dict[Tuple[int, int], float]] = {}
        self._residual_memo: Dict[tuple, float] = {}
        #: One :class:`PackingShape` per length-free geometry class; as many
        #: entries as distinct decode-group batches the engine has priced.
        self._packing_shapes: Dict[tuple, PackingShape] = {}

    def _check_cache_compatible(self, cache: BitKVCache) -> None:
        """Refuse caches built under a different kernel configuration.

        The Packing Kernel must mirror the Residual Kernel's instruction
        configuration (Sec. IV-A(4)); bit width, word width, dequant path
        and version all feed that configuration.
        """
        ours, theirs = self.config, cache.config
        mismatched = (
            ours.bits != theirs.bits
            or ours.word_bits != theirs.word_bits
            or ours.version != theirs.version
            or ours.dequant_method != theirs.dequant_method
        )
        if mismatched:
            raise ValueError(
                f"engine configured as {ours.short_name} cannot decode a "
                f"cache packed as {theirs.short_name}: the kernels' "
                "instruction configurations must match (Sec. IV-A(4))"
            )

    # ------------------------------------------------------------- numerics

    def prefill(self, k: np.ndarray, v: np.ndarray) -> BitKVCache:
        """Quantize + pack a prefill context (``[batch, hkv, seq, d]``)."""
        return BitKVCache.from_prefill(k, v, self.config)

    def decode(self, q: np.ndarray, cache: BitKVCache) -> np.ndarray:
        """One decode step: attention of ``q`` over the full cache.

        ``q``: ``[batch, q_len, hq, d]``.  Returns ``[batch, q_len, hq, d]``.
        Runs the Packing Kernel over the packed part and the Residual
        Kernel over the FP16 tail — each as one batched pass over every
        (batch, kv-head) pair — and merges their partial online-softmax
        states exactly as the split-KV reduction kernel does.
        """
        q = np.asarray(q, dtype=np.float32)
        if q.ndim != 4:
            raise ValueError("q must be [batch, q_len, hq, d]")
        self._check_cache_compatible(cache)
        batch, q_len, hq, d = q.shape
        if batch != cache.batch or d != cache.head_dim:
            raise ValueError("query does not match the cache's batch/head_dim")
        if hq % cache.hkv != 0:
            raise ValueError("hq must be a multiple of the cache's hkv")
        scale = 1.0 / math.sqrt(d)

        grouped = group_queries(q, cache.hkv)  # [b, hkv, M, d]
        states: List[OnlineSoftmaxState] = []
        k_hat, v_hat = cache.dequant_kv()
        if k_hat.shape[-2]:
            states.append(run_numeric(grouped, k_hat, v_hat, self.config, scale))
        k_res, v_res = cache.residual_kv()
        if k_res.shape[-2]:
            res_lens = getattr(cache, "residual_lengths", None)
            if res_lens is not None:
                states.append(
                    attend_residual_grouped(grouped, k_res, v_res, res_lens, self.config, scale)
                )
            else:
                states.append(attend_residual(grouped, k_res, v_res, self.config, scale))
        if not states:
            raise ValueError("decode on an empty cache")
        merged = states[0]
        for st in states[1:]:
            merged.merge(st)
        return ungroup_output(merged.finalize(), hq, q_len)

    # ---------------------------------------------------------- performance

    def _res_len(self, res_len: Optional[int]) -> int:
        """``res_len`` or, when None, half the residual block (the average
        decode state)."""
        return max(1, self.config.residual_block_size // 2) if res_len is None else res_len

    def _packing_launch(
        self, geom: AttentionGeometry, res_len: int, paged: bool, page_size: int
    ) -> Optional[KernelLaunch]:
        """The Packing-Kernel launch over the ``seq_len - res_len`` packed
        tokens, or None when nothing is packed yet."""
        packed_len = max(0, geom.seq_len - res_len)
        if packed_len == 0:
            return None
        key = (geom.batch, geom.hq, geom.hkv, geom.head_dim, geom.q_len)
        shape = self._packing_shapes.get(key)
        if shape is None:
            shape = self._packing_shapes[key] = PackingShape(geom, self.config, self.arch)
        return build_packing_launch(
            geom,
            self.config,
            self.arch,
            packed_len=packed_len,
            paged=paged,
            page_size=page_size,
            shape=shape,
        )

    def decode_launches(
        self,
        geom: AttentionGeometry,
        res_len: Optional[int] = None,
        flush: bool = False,
        paged: bool = False,
        page_size: int = 64,
    ) -> List[KernelLaunch]:
        """Kernel launches of one decode step at a given geometry.

        ``res_len`` defaults to half the residual block (the average decode
        state); pass ``res_len=None, flush=True`` to model a flush step.
        """
        res_len = self._res_len(res_len)
        packing = self._packing_launch(geom, res_len, paged, page_size)
        residual = build_residual_launch(geom, self.config, self.arch, res_len, flush=flush)
        return [residual] if packing is None else [packing, residual]

    def decode_results(self, geom: AttentionGeometry, **kwargs) -> List[KernelResult]:
        """Simulate one decode step's launches on this engine's device."""
        return [
            simulate_kernel(self.arch, launch)
            for launch in self.decode_launches(geom, **kwargs)
        ]

    def _residual_ms(self, geom: AttentionGeometry, res_len: int, flush: bool) -> float:
        """Residual-Kernel latency, memoized without ``geom.seq_len``.

        :func:`build_residual_launch` never reads the cache length, so one
        simulation serves every length of a ``(batch, heads, head_dim,
        q_len, res_len, flush)`` class.  The memo is separate from
        ``decode_time_ms``'s, whose keys are whole geometries.
        """
        key = (geom.batch, geom.hq, geom.hkv, geom.head_dim, geom.q_len, res_len, flush)
        value = self._residual_memo.get(key)
        if value is None:
            launch = build_residual_launch(geom, self.config, self.arch, res_len, flush=flush)
            value = remember(self._residual_memo, key, simulate_kernel(self.arch, launch).time_ms)
        return value

    @memoized_latency
    def decode_time_ms(
        self,
        geom: AttentionGeometry,
        res_len: Optional[int] = None,
        flush: bool = False,
        paged: bool = False,
        page_size: int = 64,
    ) -> float:
        """Simulated latency (ms) of one decode attention step.

        The Packing launch plus the Residual launch of
        :meth:`decode_launches`, summed in that order.  Memoized per engine
        on ``geom`` + kwargs; a miss simulates only the Packing launch
        (whose trace reads ``seq_len``) and takes the Residual launch from
        :meth:`_residual_ms`.  :meth:`decode_launches` /
        :meth:`decode_results` stay uncached because they hand out mutable
        launches and results.
        """
        res_len = self._res_len(res_len)
        packing = self._packing_launch(geom, res_len, paged, page_size)
        packing_ms = 0.0 if packing is None else simulate_kernel(self.arch, packing).time_ms
        return packing_ms + self._residual_ms(geom, res_len, flush)

    def group_memo(self, model, tp: int) -> Dict[Tuple[int, int], float]:
        """Per-step attention ms by ``(group_batch, group_seq_len)`` for
        ``model`` at ``tp``: ``model.n_layers`` times :meth:`decode_time_ms`
        at ``model.attention_geometry(group_batch, group_seq_len, tp=tp)``.

        The step pricing in :mod:`repro.model.inference` fills it, so a
        decode group priced before costs one lookup on an int pair instead
        of a geometry build plus a dataclass-keyed hit.  It lives on the
        engine (a fresh engine is cold) and is cleared at
        :data:`~repro.gpu.kernel.LATENCY_MEMO_CAP` entries.
        """
        return self._group_memos.setdefault((model, tp), {})
