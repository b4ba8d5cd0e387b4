"""Paged low-bit KV cache: packed words in a shared page pool.

This is the serving-side cache the paper's system implies but the
reproduction never had: the *same* struct-of-arrays packed-word /
``half2``-metadata tensors the contiguous :class:`BitKVCache` stores,
re-homed into a fixed pool of physical pages indexed by per-sequence
block tables.  One page holds one Tensor-Core-aligned packed block
(``N_r`` tokens across every KV head of one sequence), so:

- a page is exactly one flush's output — pages are written whole, never
  partially, which is what makes recycled pages safe (a reused page is
  fully overwritten before any decode can read it);
- the page *id* space is owned by :class:`~repro.pages.page_table.PageTable`
  over :class:`~repro.pages.allocator.PageAllocator` — the same machinery
  the serving engine schedules with, so admission, chunked prefill and
  preemption manipulate the very pages the numerics read, and preempting
  a sequence frees *packed* pages, not fp16 rows;
- the newest ``< N_r`` tokens live in a per-sequence FP16 residual slot
  (the paper's two-part cache), reserved per batch slot exactly as
  :func:`repro.model.memory.page_pool_size` accounts it.

Storage is bit-identical to the contiguous cache: blocks are produced by
the same :func:`~repro.core.residual_kernel.flush_blocks` and read back
through the same :class:`~repro.core.residual_kernel.PackedBlockBatch`
dequant, so a paged decode and a contiguous decode of the same tokens
agree exactly under ``numerics_mode="exact_tiled"`` (the parity suite in
``tests/attn`` enforces it).
"""

from __future__ import annotations

import zlib
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.attn.protocol import (
    AttentionBackend,
    KVCacheHandle,
    coerce_engine,
    register_backend,
)
from repro.attn.reference import chunked_causal_attention
from repro.core.attention import BitDecoding
from repro.core.config import BitDecodingConfig
from repro.core.quantization import QuantParams
from repro.core.residual_kernel import PackedBlockBatch, flush_blocks
from repro.gpu.arch import ArchSpec
from repro.pages.allocator import OutOfPagesError, PageAllocator
from repro.pages.page_table import PageTable
from repro.pages.tiers import TieredPageStore, TierObserver


def _group_key(handles) -> Tuple[Tuple[int, int], ...]:
    """The ``(seq_id, slot)`` member tuple that keys a group's cached reads."""
    return tuple((h.seq_id, h.slot) for h in handles)


def _extend(memo_kv, new_kv):
    """Append newly dequantized blocks to a memoized ``(K, V)`` pair.

    Blocks are append-only for live handles and dequant is per-block
    independent, so extending is bit-identical to a full rebuild — and
    O(new blocks) per step instead of O(context).
    """
    return tuple(np.concatenate([old, new], axis=2) for old, new in zip(memo_kv, new_kv))


class PagedSeqHandle(KVCacheHandle):
    """One sequence's block table into a :class:`PagedBitKVCache`.

    Duck-types the cache interface :meth:`BitDecoding.decode` reads
    (``config`` / ``batch`` / ``hkv`` / ``head_dim`` / ``dequant_kv`` /
    ``residual_kv``), so decode over a paged sequence runs through the
    exact same kernel code path as the contiguous cache.
    """

    seq_len = 0
    batch = 1

    def __init__(self, store: "PagedBitKVCache", seq_id: int, slot: int):
        self.store = store
        self.seq_id = seq_id
        self.slot = slot
        self.seq_len = 0
        self._dequant_memo: Optional[Tuple[int, Tuple[np.ndarray, np.ndarray]]] = None

    @property
    def config(self) -> BitDecodingConfig:
        return self.store.config

    @property
    def hkv(self) -> int:
        return self.store.hkv

    @property
    def head_dim(self) -> int:
        return self.store.head_dim

    @property
    def n_blocks(self) -> int:
        """Complete packed blocks (= pages actually holding packed words)."""
        return self.seq_len // self.store.block_tokens

    @property
    def res_len(self) -> int:
        """Tokens currently in this sequence's FP16 residual slot."""
        return self.seq_len % self.store.block_tokens

    @property
    def block_ids(self) -> List[int]:
        """Physical page ids of the packed blocks, in logical order."""
        return self.store.table.sequences[self.seq_id].pages[: self.n_blocks]

    def dequant_kv(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.store.dequant_seq(self)

    def residual_kv(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.store.residual_view(self)


class PagedBatchHandle(KVCacheHandle):
    """A lock-step batch of paged sequences over one shared store."""

    def __init__(self, store: "PagedBitKVCache", seqs: List[PagedSeqHandle]):
        self.store = store
        self.seqs = seqs

    @property
    def seq_len(self) -> int:
        return self.seqs[0].seq_len if self.seqs else 0


class PagedGroupView:
    """Batched cache view over one equal-``n_blocks`` shape group.

    Duck-types the same cache interface :meth:`BitDecoding.decode` reads,
    but with ``batch == len(handles)``: ``dequant_kv`` gathers every
    member's packed pages into one ``[G, hkv, L, d]`` SoA tensor (through
    the store's cached gather index maps) and ``residual_kv`` gathers the
    FP16 residual slots padded to the widest member, with
    ``residual_lengths`` carrying each member's true fill so the ragged
    residual kernel can stay tolerance-free.  One ``run_numeric`` call
    then covers the whole group — the batched-SoA kernel shape the
    per-sequence loop could never reach.
    """

    def __init__(self, store: "PagedBitKVCache", handles: List[PagedSeqHandle]):
        if not handles:
            raise ValueError("a shape group needs at least one sequence")
        nb = handles[0].n_blocks
        if any(h.n_blocks != nb for h in handles):
            raise ValueError("group members must share n_blocks (the shape key)")
        self.store = store
        self.handles = list(handles)
        self.batch = len(handles)
        self.residual_lengths = np.asarray([h.res_len for h in handles], dtype=np.int64)

    @property
    def config(self) -> BitDecodingConfig:
        return self.store.config

    @property
    def hkv(self) -> int:
        return self.store.hkv

    @property
    def head_dim(self) -> int:
        return self.store.head_dim

    def dequant_kv(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.store.dequant_group(self.handles)

    def residual_kv(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.store.residual_group(self.handles)


class PagedBitKVCache(TierObserver):
    """Page-pool storage for one layer's packed low-bit K/V.

    The pool arrays mirror :class:`PackedBlockBatch` with the block axis
    promoted to a *physical page* axis: ``k_words``/``v_words`` are
    ``[n_pages, hkv, ...fragment words...]`` and the quantization
    metadata ``[n_pages, hkv, ...group stats...]``.  FP16 residual slots
    are ``[n_slots, hkv, N_r, d]`` pairs handed out per resident
    sequence by their own :class:`PageAllocator` (the serving memory
    model reserves residual buffers per batch slot, not per page).

    Pass ``table`` to share an externally scheduled
    :class:`~repro.pages.page_table.PageTable` (the serving engine's):
    page reservation then belongs to the scheduler and
    :meth:`write_rows` only fills what was reserved.  Without ``table``
    the store owns its table and reserves pages as it writes.

    Pass ``tiers`` to spread the pool over a
    :class:`~repro.pages.tiers.TieredPageStore`: the pool axis then
    spans *frames* (device + host + disk), logical page ids map through
    the store's bijection, and this cache registers as a tier observer
    so migrations move its packed words and metadata bit-exactly.  Reads
    of a non-resident page take the measured fallback: the store faults
    it into the device tier synchronously and records the stall.
    """

    def __init__(
        self,
        config: BitDecodingConfig,
        hkv: int,
        head_dim: int,
        n_pages: int = 256,
        n_slots: int = 16,
        table: Optional[PageTable] = None,
        tiers: Optional[TieredPageStore] = None,
    ):
        if config.version == "fp4":
            raise NotImplementedError(
                "the paged pool stores integer packed words; the FP4 "
                "micro-scaling path has no paged backend yet"
            )
        if min(hkv, head_dim, n_slots) <= 0:
            raise ValueError("hkv, head_dim and n_slots must be positive")
        self.config = config
        self.hkv = hkv
        self.head_dim = head_dim
        nr = config.residual_block_size
        self.block_tokens = nr
        if table is None:
            table = PageTable(PageAllocator(n_pages), page_size=nr)
            self.shared_table = False
        else:
            if table.page_size != nr:
                raise ValueError(
                    f"shared page table's page_size ({table.page_size}) must equal "
                    f"the residual block size N_r ({nr}): one page holds one "
                    "packed block"
                )
            self.shared_table = True
        self.table = table
        n_pages = table.allocator.n_pages
        if tiers is not None:
            if tiers.allocator is not table.allocator:
                raise ValueError("tiers must be built over the page table's allocator")
            tiers.add_observer(self)
        self.tiers = tiers

        # One probe flush fixes every pool shape/dtype: the fragment-word
        # tensor and group-stat layouts depend only on (N_r, d, config),
        # never on batch/hkv/block count.
        zeros = np.zeros((1, 1, 1, nr, head_dim), np.float16)
        probe = flush_blocks(zeros, zeros, config)
        self._layout_name = probe.layout_name
        self._k_axis = probe.k_params.axis
        self._k_group = probe.k_params.group_size
        self._v_axis = probe.v_params.axis
        self._v_group = probe.v_params.group_size
        self.k_words = np.zeros((n_pages, hkv) + probe.k_words.shape[3:], probe.k_words.dtype)
        self.v_words = np.zeros((n_pages, hkv) + probe.v_words.shape[3:], probe.v_words.dtype)
        self.k_scale = np.zeros((n_pages, hkv) + probe.k_params.scale.shape[3:], np.float32)
        self.k_zero = np.zeros_like(self.k_scale)
        self.v_scale = np.zeros((n_pages, hkv) + probe.v_params.scale.shape[3:], np.float32)
        self.v_zero = np.zeros_like(self.v_scale)
        self.slots = PageAllocator(n_slots)
        self.res_k = np.zeros((n_slots, hkv, nr, head_dim), np.float16)
        self.res_v = np.zeros((n_slots, hkv, nr, head_dim), np.float16)

        # Gather-cache epochs (the dequant-memo machinery, store-wide).
        # ``frames_epoch`` advances whenever the page-id -> frame mapping
        # can move (tier migrations), invalidating cached gather index
        # maps but not gathered *values*; ``content_epoch`` advances when
        # page content or sequence membership changes (CoW remaps, page
        # clones, corruption, slot churn), invalidating gathered values
        # too.  Per-sequence handles keep their own append-only memo.
        self.frames_epoch = 0
        self.content_epoch = 0
        self._group_memos: dict = {}
        self._group_frame_maps: dict = {}

    def _pools(self) -> Tuple[np.ndarray, ...]:
        return (self.k_words, self.v_words, self.k_scale, self.k_zero, self.v_scale, self.v_zero)

    def _frames(self, pages) -> np.ndarray:
        """Physical pool indices for logical page ids (identity untiered)."""
        if self.tiers is None:
            return np.asarray(pages)
        return self.tiers.frames_of(list(pages))

    # --------------------------------------------------- TierObserver hooks

    def copy_frame(self, src: int, dst: int) -> None:
        self.frames_epoch += 1
        for pool in self._pools():
            pool[dst] = pool[src]

    def exchange_frames(self, a: int, b: int) -> None:
        self.frames_epoch += 1
        for pool in self._pools():
            tmp = pool[a].copy()
            pool[a] = pool[b]
            pool[b] = tmp

    def frame_checksum(self, frame: int) -> int:
        """CRC32 over every pool's bytes for one frame (packed words and
        quantization metadata alike — rot in a scale is as fatal as rot in
        a word)."""
        digest = 0
        for pool in self._pools():
            digest = zlib.crc32(np.ascontiguousarray(pool[frame]).tobytes(), digest)
        return digest & 0xFFFFFFFF

    def corrupt_frame(self, frame: int, salt: int) -> None:
        """Deterministically flip bits in one frame's packed K words.

        The mask is derived from ``salt`` and guaranteed nonzero, so the
        damage always changes the frame's checksum — injection can never
        silently miss.
        """
        self.frames_epoch += 1
        self.content_epoch += 1
        flat = self.k_words[frame].reshape(-1)
        idx = salt % flat.size
        # (salt | 1) keeps the low bit set, so the mask is never zero.
        flat[idx] ^= np.asarray((salt | 1) & np.iinfo(flat.dtype).max, dtype=flat.dtype)

    # ---------------------------------------------------------- sequences

    def adopt(self, seq_id: int, prefix_tokens: int = 0) -> PagedSeqHandle:
        """Bind an externally registered page-table sequence to the pool.

        ``prefix_tokens`` marks that many leading tokens as already packed
        into the sequence's pages (a prefix-cache hit): the handle starts
        at that length and decodes read the shared pages' packed words
        as-is — bit-exact reuse, no recompute.  Hits are page-granular, so
        the count must be block-aligned (the residual slot starts empty).
        """
        if prefix_tokens % self.block_tokens:
            raise ValueError(
                f"prefix_tokens ({prefix_tokens}) must be a multiple of the "
                f"packed block size N_r ({self.block_tokens}): prefix-cache "
                "hits are whole flushed pages"
            )
        if prefix_tokens > self.table.sequences[seq_id].length:
            raise ValueError("prefix_tokens exceeds the sequence's reserved length")
        return self._bind(seq_id, prefix_tokens)

    def _bind(self, seq_id: int, seq_len: int) -> PagedSeqHandle:
        """Hand a residual slot to a sequence starting at ``seq_len``."""
        try:
            slot = self.slots.allocate()
        except OutOfPagesError as err:
            raise OutOfPagesError(
                f"all {self.slots.n_pages} residual slots in use; release "
                "finished sequences or construct the pool with more n_slots"
            ) from err
        self.content_epoch += 1
        handle = PagedSeqHandle(self, seq_id, slot)
        handle.seq_len = seq_len
        return handle

    def reattach(
        self,
        seq_id: int,
        seq_len: int,
        res_k: Optional[np.ndarray] = None,
        res_v: Optional[np.ndarray] = None,
    ) -> PagedSeqHandle:
        """Rebind a sequence whose pages survived while its handle did not.

        Swap-in path: the scheduler kept the page-table sequence (and its
        packed pages, wherever the tier store parked them) across a
        preemption, but the residual slot was returned.  ``seq_len`` may
        sit mid-block, so unlike :meth:`adopt` this also restores the
        partial FP16 residual rows (``[hkv, res_len, d]``) stashed at
        swap-out.
        """
        if seq_len > self.table.sequences[seq_id].length:
            raise ValueError("seq_len exceeds the sequence's reserved length")
        n_res = seq_len % self.block_tokens
        if n_res and (res_k is None or res_v is None):
            raise ValueError(
                f"seq_len ({seq_len}) implies {n_res} residual tokens; "
                "their FP16 rows must be supplied to reattach"
            )
        handle = self._bind(seq_id, seq_len)
        if n_res:
            self.res_k[handle.slot][:, :n_res] = np.asarray(res_k, np.float16)
            self.res_v[handle.slot][:, :n_res] = np.asarray(res_v, np.float16)
        return handle

    def add_sequence(self) -> PagedSeqHandle:
        """Register a fresh empty sequence (store-owned table mode)."""
        return self.adopt(self.table.add_sequence(0))

    def fork(self, handle: PagedSeqHandle) -> PagedSeqHandle:
        """Clone a sequence copy-on-write: share every page, copy the slot.

        The child maps the parent's physical pages — including a trailing
        reserved-but-unflushed one — and gets its own residual slot seeded
        with the parent's FP16 rows.  Packed pages stay shared until one
        side's flush lands on a shared page, at which point
        :meth:`_store_blocks` clones the mapping before writing (pages are
        written whole, so the "copy" is just a fresh page id).
        """
        child_seq = self.table.fork_sequence(handle.seq_id)
        child = self.adopt(child_seq)
        child.seq_len = handle.seq_len
        self.res_k[child.slot] = self.res_k[handle.slot]
        self.res_v[child.slot] = self.res_v[handle.slot]
        return child

    def free_slot(self, handle: PagedSeqHandle) -> None:
        """Return the residual slot; the scheduler owns the pages."""
        self.content_epoch += 1
        self.slots.release(handle.slot)
        handle._dequant_memo = None

    def release(self, handle: PagedSeqHandle) -> None:
        """Free the sequence's pages and residual slot."""
        self.table.release_sequence(handle.seq_id)
        self.free_slot(handle)

    def reserve(self, handle: PagedSeqHandle, n_tokens: int) -> None:
        """Reserve pages for ``n_tokens`` more tokens (store-owned mode).

        With a shared (scheduler-owned) table this is a no-op: the engine
        reserved the pages when it admitted/extended the sequence, and
        :meth:`write_rows` enforces that the reservation exists.
        """
        if not self.shared_table:
            self.table.extend_sequence(handle.seq_id, n_tokens)

    # -------------------------------------------------------------- writes

    def _check_reserved(self, handle: PagedSeqHandle, n: int) -> None:
        """Writes only fill pages the table's owner already reserved."""
        reserved = self.table.sequences[handle.seq_id].length
        if handle.seq_len + n > reserved:
            raise ValueError(
                f"write of {n} tokens at {handle.seq_len} exceeds the "
                f"sequence's reserved length ({reserved}); reserve pages first"
            )

    def write_rows(self, handle: PagedSeqHandle, k_rows: np.ndarray, v_rows: np.ndarray) -> None:
        """Append ``n`` tokens' K/V (``[hkv, n, d]``) to a sequence.

        Rows stream through the residual slot; every time the slot fills
        to ``N_r`` the completed block is quantized+packed by the same
        :func:`flush_blocks` the contiguous cache uses and written whole
        into the sequence's next physical page.  Runs of complete blocks
        (bulk prefill) skip the slot and flush straight from the input in
        one batched call — bit-identical, per-block independence.
        """
        k_rows = np.asarray(k_rows, np.float16)
        v_rows = np.asarray(v_rows, np.float16)
        if k_rows.shape != v_rows.shape or k_rows.ndim != 3:
            raise ValueError("K and V rows must share an [hkv, n, d] shape")
        n = k_rows.shape[1]
        self._check_reserved(handle, n)
        nr = self.block_tokens
        res_k = self.res_k[handle.slot]
        res_v = self.res_v[handle.slot]
        written = 0
        while written < n:
            fill = handle.seq_len % nr
            remaining = n - written
            if fill == 0 and remaining >= nr:
                nb = remaining // nr
                shape = (self.hkv, nb, nr, self.head_dim)
                flushed = flush_blocks(
                    k_rows[:, written : written + nb * nr].reshape(shape)[None],
                    v_rows[:, written : written + nb * nr].reshape(shape)[None],
                    self.config,
                )
                self._store_blocks([handle], flushed)
                handle.seq_len += nb * nr
                written += nb * nr
                continue
            take = min(nr - fill, remaining)
            res_k[:, fill : fill + take] = k_rows[:, written : written + take]
            res_v[:, fill : fill + take] = v_rows[:, written : written + take]
            handle.seq_len += take
            written += take
            if handle.seq_len % nr == 0:
                flushed = flush_blocks(res_k[None, :, None], res_v[None, :, None], self.config)
                self._store_blocks([handle], flushed, completed=True)

    def _store_blocks(
        self, handles: List[PagedSeqHandle], flushed: PackedBlockBatch, completed: bool = False
    ) -> None:
        """Write one batched flush (batch axis = handles) into pages.

        The flush holds ``nb`` blocks per handle: *new* ones starting at
        its current (block-aligned) length, or — ``completed`` — the ones
        its length just grew over (the residual slot filled).  Whole pages
        only, which makes the copy-on-write guard cheap: a target page
        mapped by more than one sequence (a forked clone) is swapped for
        a fresh exclusive page before the write, and since the page is
        overwritten whole no content copy is needed, just the remap.
        """
        nb = flushed.k_words.shape[2]
        pages: List[int] = []
        for handle in handles:
            first = handle.n_blocks - nb if completed else handle.n_blocks
            for i in range(nb):
                page, copied_from = self.table.ensure_exclusive(handle.seq_id, first + i)
                if copied_from is not None:
                    self.content_epoch += 1
                pages.append(page)
        idx = self._frames(pages)
        kp, vp = flushed.k_params, flushed.v_params
        parts = (flushed.k_words, flushed.v_words, kp.scale, kp.zero, vp.scale, vp.zero)
        for pool, part in zip(self._pools(), parts):
            # [G, hkv, nb, ...] -> [G*nb, hkv, ...] in page-list order.
            pool[idx] = part.swapaxes(1, 2).reshape((len(pages),) + pool.shape[1:])

    def append_rows(self, handles: List[PagedSeqHandle], k_rows: np.ndarray, v_rows: np.ndarray) -> None:
        """Append ONE token to every handle at once (``[B, hkv, d]`` rows).

        The decode-step write path, batched: one fancy-index scatter lands
        every sequence's new row in its residual slot at its own fill, and
        the sequences whose slot just filled are flushed through a single
        leading-dim-batched :func:`flush_blocks` call — bit-identical to
        per-sequence :meth:`write_rows` by per-block independence.
        """
        k_rows = np.asarray(k_rows, np.float16)
        v_rows = np.asarray(v_rows, np.float16)
        if k_rows.shape != v_rows.shape or k_rows.ndim != 3 or k_rows.shape[0] != len(handles):
            raise ValueError("K and V rows must share a [batch, hkv, d] shape")
        for handle in handles:
            self._check_reserved(handle, 1)
        nr = self.block_tokens
        slots = np.asarray([h.slot for h in handles])
        fills = np.asarray([h.seq_len % nr for h in handles])
        self.res_k[slots, :, fills] = k_rows
        self.res_v[slots, :, fills] = v_rows
        flushing: List[PagedSeqHandle] = []
        for handle in handles:
            handle.seq_len += 1
            if handle.seq_len % nr == 0:
                flushing.append(handle)
        if flushing:
            fslots = np.asarray([h.slot for h in flushing])
            flushed = flush_blocks(
                self.res_k[fslots][:, :, None], self.res_v[fslots][:, :, None], self.config
            )
            self._store_blocks(flushing, flushed, completed=True)

    def write_rows_group(
        self, handles: List[PagedSeqHandle], k_rows: np.ndarray, v_rows: np.ndarray
    ) -> None:
        """Bulk-write ``n`` tokens to every handle at once (``[G, hkv, n, d]``).

        The no-query prefill write path, batched: every handle must sit at
        a block-aligned fill (fresh admissions do), so the complete blocks
        flush through one ``[G, hkv, nb, N_r, d]`` :func:`flush_blocks`
        call and the common remainder scatters into the residual slots in
        one assignment — bit-identical to per-sequence :meth:`write_rows`.
        """
        k_rows = np.asarray(k_rows, np.float16)
        v_rows = np.asarray(v_rows, np.float16)
        if k_rows.shape != v_rows.shape or k_rows.ndim != 4 or k_rows.shape[0] != len(handles):
            raise ValueError("K and V rows must share a [batch, hkv, n, d] shape")
        n = k_rows.shape[2]
        nr = self.block_tokens
        for handle in handles:
            if handle.seq_len % nr:
                raise ValueError("write_rows_group requires block-aligned fills")
            self._check_reserved(handle, n)
        nb, rem = divmod(n, nr)
        if nb:
            shape = (len(handles), self.hkv, nb, nr, self.head_dim)
            flushed = flush_blocks(
                k_rows[:, :, : nb * nr].reshape(shape),
                v_rows[:, :, : nb * nr].reshape(shape),
                self.config,
            )
            self._store_blocks(handles, flushed)
        if rem:
            slots = np.asarray([h.slot for h in handles])
            self.res_k[slots, :, :rem] = k_rows[:, :, nb * nr :]
            self.res_v[slots, :, :rem] = v_rows[:, :, nb * nr :]
        for handle in handles:
            handle.seq_len += n

    def copy_pages(self, src: List[int], dst: List[int]) -> None:
        """Clone packed words + metadata between physical pages.

        The engine's ``prefix_share=False`` diagnostic mode uses this to
        materialize prefix-cache hits as private copies instead of shared
        mappings — the numerics must be bit-identical either way, which is
        exactly what the sharing acceptance test pins down.
        """
        if len(src) != len(dst):
            raise ValueError("src and dst page lists must have equal length")
        if not src:
            return
        self.content_epoch += 1
        s, d = self._frames(src), self._frames(dst)
        for pool in self._pools():
            pool[d] = pool[s]

    # --------------------------------------------------------------- reads

    def _dequant_frames(self, fmap: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Gather a ``[G, nb]`` frame map into a :class:`PackedBlockBatch`
        and dequantize it to FP32 ``[G, hkv, nb * N_r, d]``.

        One fancy-index gather per pool assembles the ``[G, hkv, nb, ...]``
        SoA tensors; dequant is per-block independent, so a batched
        reconstruction is bit-identical to per-sequence (``G == 1``)
        gathers.  Callers fault the pages in *first*: under a tier store
        reads are always device reads, and a promotion moves frames.
        """
        g, nb = fmap.shape
        flat = fmap.reshape(-1)

        def gather(pool: np.ndarray) -> np.ndarray:
            shaped = pool.take(flat, axis=0).reshape((g, nb) + pool.shape[1:])
            return np.ascontiguousarray(shaped.swapaxes(1, 2))

        k_words, v_words, k_scale, k_zero, v_scale, v_zero = map(gather, self._pools())
        bits = self.config.bits
        batch = PackedBlockBatch(
            length=self.block_tokens,
            head_dim=self.head_dim,
            bits=bits,
            word_bits=self.config.word_bits,
            layout_name=self._layout_name,
            k_words=k_words,
            v_words=v_words,
            k_params=QuantParams(k_scale, k_zero, self._k_axis, self._k_group, bits),
            v_params=QuantParams(v_scale, v_zero, self._v_axis, self._v_group, bits),
        )
        return batch.dequant_kv(self.config)

    def dequant_seq(self, handle: PagedSeqHandle) -> Tuple[np.ndarray, np.ndarray]:
        """FP32 ``[1, hkv, packed_len, d]`` reconstruction, memoized.

        Blocks are append-only for a live handle, so the memo extends
        with just the new pages' dequant on a flush — bit-identical to a
        full rebuild by per-block independence, and O(new blocks) per
        step instead of O(context).
        """
        nb = handle.n_blocks
        if nb == 0:
            empty = np.zeros((1, self.hkv, 0, self.head_dim), np.float32)
            return empty, empty
        memo = handle._dequant_memo
        if memo is not None and memo[0] == nb:
            return memo[1]
        have = memo[0] if memo is not None and memo[0] < nb else 0
        pages = self.table.sequences[handle.seq_id].pages[have:nb]
        if self.tiers is not None:
            # The measured fallback: pages still off-device fault in
            # synchronously (stall recorded) before the gather.
            self.tiers.fault_in(pages)
        kv = self._dequant_frames(self._frames(pages)[None])
        if have:
            kv = _extend(memo[1], kv)
        handle._dequant_memo = (nb, kv)
        return kv

    def residual_view(self, handle: PagedSeqHandle) -> Tuple[np.ndarray, np.ndarray]:
        """Valid FP16 residual rows, ``[1, hkv, res_len, d]``."""
        n = handle.res_len
        return (
            self.res_k[handle.slot][None, :, :n],
            self.res_v[handle.slot][None, :, :n],
        )

    # ------------------------------------------------------- grouped reads

    #: Bound on cached gather maps / group dequant memos.  Keys are the
    #: exact member tuple; :meth:`retire_groups` drops superseded ones
    #: each step, the cap just keeps pathological churn from hoarding
    #: memory.
    _GROUP_CACHE_ENTRIES = 32

    @staticmethod
    def _cache_put(cache: dict, key, entry) -> None:
        cache.pop(key, None)
        cache[key] = entry
        while len(cache) > PagedBitKVCache._GROUP_CACHE_ENTRIES:
            cache.pop(next(iter(cache)))

    def retire_groups(self, groups: List[List[PagedSeqHandle]]) -> None:
        """Drop the gather maps and dequant memos this step's groups supersede.

        A sequence sits in exactly one decode group per step, so a cached
        entry that names one of ``groups``' sequences under any other
        member tuple belongs to a composition that has moved on; ragged
        groups churn member tuples every time a member flushes.  Entries
        naming none of these sequences (another handle's) are kept.
        """
        live = {_group_key(g) for g in groups}
        members = {member for g in groups for member in _group_key(g)}
        for cache in (self._group_memos, self._group_frame_maps):
            for key in [k for k in cache if k not in live and not members.isdisjoint(k)]:
                del cache[key]

    def group_view(self, handles: List[PagedSeqHandle]) -> PagedGroupView:
        """A batched decode view over one equal-``n_blocks`` group."""
        return PagedGroupView(self, handles)

    def _group_frames(self, key, handles: List[PagedSeqHandle], nb: int) -> np.ndarray:
        """Cached ``np.take`` index map ``[G, nb]`` into the pool arrays.

        Valid while both epochs stand; a pure append extends the cached
        map with just the new pages' frames (block tables are append-only
        for live handles).  Callers fault pages in *first* — a promotion
        moves frames and must bump ``frames_epoch`` before the map is
        built, not after.
        """
        entry = self._group_frame_maps.get(key)
        if (
            entry is not None
            and entry["frames_epoch"] == self.frames_epoch
            and entry["content_epoch"] == self.content_epoch
            and entry["nb"] <= nb
        ):
            have = entry["nb"]
            if have == nb:
                return entry["map"]
            fresh = np.asarray(
                [self.table.sequences[h.seq_id].pages[have:nb] for h in handles]
            )
            fmap = np.concatenate(
                [entry["map"], self._frames(fresh.reshape(-1)).reshape(len(handles), nb - have)],
                axis=1,
            )
        else:
            pages = np.asarray([self.table.sequences[h.seq_id].pages[:nb] for h in handles])
            fmap = self._frames(pages.reshape(-1)).reshape(len(handles), nb)
        self._cache_put(
            self._group_frame_maps,
            key,
            {
                "nb": nb,
                "frames_epoch": self.frames_epoch,
                "content_epoch": self.content_epoch,
                "map": fmap,
            },
        )
        return fmap

    def dequant_group(self, handles: List[PagedSeqHandle]) -> Tuple[np.ndarray, np.ndarray]:
        """FP32 ``[G, hkv, packed_len, d]`` group reconstruction, memoized.

        The memo is keyed by the exact ``(seq_id, slot)`` member tuple and
        guarded by ``content_epoch``; while the group composition holds
        (steady-state decode), each step extends it with one batched
        dequant of the newly flushed block column instead of rebuilding
        O(context) state.
        """
        nb = handles[0].n_blocks
        if nb == 0:
            empty = np.zeros((len(handles), self.hkv, 0, self.head_dim), np.float32)
            return empty, empty
        key = _group_key(handles)
        memo = self._group_memos.get(key)
        have = 0
        if memo is not None and memo["epoch"] == self.content_epoch and memo["nb"] <= nb:
            if memo["nb"] == nb:
                return memo["kv"]
            have = memo["nb"]
        if self.tiers is not None:
            self.tiers.fault_in(
                [p for h in handles for p in self.table.sequences[h.seq_id].pages[have:nb]]
            )
        kv = self._dequant_frames(self._group_frames(key, handles, nb)[:, have:])
        if have:
            kv = _extend(memo["kv"], kv)
        self._cache_put(self._group_memos, key, {"nb": nb, "epoch": self.content_epoch, "kv": kv})
        return kv

    def residual_group(self, handles: List[PagedSeqHandle]) -> Tuple[np.ndarray, np.ndarray]:
        """FP16 residual rows gathered ``[G, hkv, r_max, d]``, zero-padded.

        Rows past a member's fill are zeroed (slots hold stale rows from
        earlier fills); the ragged residual kernel masks their score
        columns to ``-inf`` anyway, but the contract is that pad K *and*
        V rows are exact zeros.
        """
        res = [h.res_len for h in handles]
        r_max = max(res)
        slots = np.asarray([h.slot for h in handles])
        k = self.res_k[slots][:, :, :r_max].copy()
        v = self.res_v[slots][:, :, :r_max].copy()
        for g, r in enumerate(res):
            if r < r_max:
                k[g, :, r:] = 0
                v[g, :, r:] = 0
        return k, v

    # ------------------------------------------------------------ accounting

    @property
    def packed_nbytes(self) -> int:
        """Physical bytes of the packed-word pool (all pages)."""
        return self.k_words.nbytes + self.v_words.nbytes

    @property
    def meta_nbytes(self) -> int:
        """Physical bytes of the quantization-metadata pool."""
        k_meta = self.k_scale.nbytes + self.k_zero.nbytes
        return k_meta + self.v_scale.nbytes + self.v_zero.nbytes

    @property
    def residual_nbytes(self) -> int:
        """Physical bytes of the FP16 residual slots."""
        return self.res_k.nbytes + self.res_v.nbytes


@register_backend
class PagedBitBackend(AttentionBackend):
    """Quantized decode over the paged pool, behind per-sequence block tables.

    All handles of one cache geometry ``(hkv, head_dim)`` share a single
    lazily-created :class:`PagedBitKVCache` — releasing one handle's
    sequences really does recycle its packed pages for whichever handle
    is admitted next, which is the serving contract preemption relies on
    (and what the page-recycling tests exercise through this API).
    Sequences in a handle may have *different* lengths (ragged serving
    batches): decode partitions the batch into equal-shape groups
    (:meth:`_decode_groups`) and launches ONE batched kernel per group
    over a gathered ``[group, hkv, ...]`` SoA view — bit-identical to
    the retained per-sequence loop (:meth:`decode_step_looped`), because
    both run the very same :meth:`BitDecoding.decode` numeric path.
    """

    name = "paged-bit"

    def __init__(
        self,
        engine: Union[BitDecoding, BitDecodingConfig, None] = None,
        arch: Union[ArchSpec, str] = "a100",
        n_pages: int = 256,
        n_slots: int = 64,
    ):
        self.engine = coerce_engine(engine, arch)
        self.config = self.engine.config
        self.n_pages = n_pages
        self.n_slots = n_slots
        self._stores: dict = {}

    @property
    def attention_system(self) -> BitDecoding:
        return self.engine

    # ------------------------------------------------------------- numerics

    def store_for(self, hkv: int, head_dim: int) -> PagedBitKVCache:
        """The shared page pool of one cache geometry (created lazily)."""
        key = (hkv, head_dim)
        store = self._stores.get(key)
        if store is None:
            store = PagedBitKVCache(
                self.config, hkv, head_dim, n_pages=self.n_pages, n_slots=self.n_slots
            )
            self._stores[key] = store
        return store

    def new_handle(self, batch: int, hkv: int, head_dim: int) -> PagedBatchHandle:
        store = self.store_for(hkv, head_dim)
        return PagedBatchHandle(store, [store.add_sequence() for _ in range(batch)])

    def _context(self, seqh: PagedSeqHandle):
        """FP32 reconstruction of a sequence's cached context (pre-write)."""
        if seqh.seq_len == 0:
            return None, None
        store = seqh.store
        k_hat, v_hat = store.dequant_seq(seqh)
        k_res, v_res = store.residual_view(seqh)
        if k_res.shape[2]:
            k_hat = np.concatenate([k_hat, k_res.astype(np.float32)], axis=2)
            v_hat = np.concatenate([v_hat, v_res.astype(np.float32)], axis=2)
        return k_hat, v_hat

    def prefill(
        self,
        q: Optional[np.ndarray],
        kv: Tuple[np.ndarray, np.ndarray],
        block_table: KVCacheHandle,
    ) -> Optional[np.ndarray]:
        bt: PagedBatchHandle = block_table
        k, v = kv
        n = k.shape[2]
        if q is None:
            # Batched write path: reserve first (same page-id assignment
            # order as the per-sequence loop), then bulk-write every
            # block-aligned member through one batched flush.
            for seqh in bt.seqs:
                bt.store.reserve(seqh, n)
            aligned = [b for b, s in enumerate(bt.seqs) if s.res_len == 0]
            if len(aligned) > 1:
                bt.store.write_rows_group(
                    [bt.seqs[b] for b in aligned], k[aligned], v[aligned]
                )
            else:
                aligned = []
            for b, seqh in enumerate(bt.seqs):
                if b not in aligned:
                    bt.store.write_rows(seqh, k[b], v[b])
            return None
        outs = []
        for b, seqh in enumerate(bt.seqs):
            ctx_k, ctx_v = self._context(seqh)
            bt.store.reserve(seqh, n)
            bt.store.write_rows(seqh, k[b], v[b])
            out = chunked_causal_attention(
                q[b : b + 1], ctx_k, ctx_v, k[b : b + 1], v[b : b + 1]
            )
            outs.append(out)
        return np.concatenate(outs, axis=0)

    def append_kv(self, kv: Tuple[np.ndarray, np.ndarray], block_table: KVCacheHandle) -> None:
        bt: PagedBatchHandle = block_table
        k, v = kv
        for seqh in bt.seqs:
            bt.store.reserve(seqh, 1)
        bt.store.append_rows(bt.seqs, k, v)

    def _attend(self, q: np.ndarray, cache) -> np.ndarray:
        """Attention of ``q`` over one cache view (a sequence or a group).

        The single seam between the paged storage machinery and the
        kernel numerics: the tensor-parallel backend overrides exactly
        this to split the call across head slices of the same view.
        """
        return self.engine.decode(q, cache)

    def _decode_groups(self, seqs: List[PagedSeqHandle]) -> List[List[int]]:
        """Partition a ragged batch into equal-shape decode groups.

        The shape key is ``n_blocks`` — the packed tile walk must share
        its extent to batch into one ``run_numeric`` call — with ragged
        residual fills padded inside the group (tolerance-free contract in
        :func:`~repro.core.residual_kernel.attend_residual_grouped`).
        Configs on the broken non-cooperative softmax are
        partition-sensitive, so they group by exact ``(n_blocks,
        res_len)`` instead.  Group order is first occurrence in the batch,
        which fixes the fault_in order deterministically.
        """
        ragged_ok = self.config.use_coop_softmax or self.config.effective_wn == 1
        groups: dict = {}
        for b, seqh in enumerate(seqs):
            key = seqh.n_blocks if ragged_ok else (seqh.n_blocks, seqh.res_len)
            groups.setdefault(key, []).append(b)
        return list(groups.values())

    def decode_step(self, q: np.ndarray, block_table: KVCacheHandle) -> np.ndarray:
        bt: PagedBatchHandle = block_table
        tiers = bt.store.tiers
        groups = self._decode_groups(bt.seqs)
        bt.store.retire_groups([[bt.seqs[b] for b in idxs] for idxs in groups])
        if tiers is not None:
            # Overlap model at group granularity: while a group's batched
            # tile walk runs, the next group's non-resident pages stream
            # in.  Only the first group faults synchronously.
            tiers.fault_in([p for b in groups[0] for p in bt.seqs[b].block_ids])
        outs: List[Optional[np.ndarray]] = [None] * len(bt.seqs)
        for gi, idxs in enumerate(groups):
            if tiers is not None and gi + 1 < len(groups):
                tiers.fault_in(
                    [p for b in groups[gi + 1] for p in bt.seqs[b].block_ids], prefetch=True
                )
            if len(idxs) == 1:
                b = idxs[0]
                outs[b] = self._attend(q[b : b + 1], bt.seqs[b])
            else:
                view = bt.store.group_view([bt.seqs[b] for b in idxs])
                out = self._attend(q[idxs], view)
                for j, b in enumerate(idxs):
                    outs[b] = out[j : j + 1]
        return np.concatenate(outs, axis=0)

    def decode_step_looped(self, q: np.ndarray, block_table: KVCacheHandle) -> np.ndarray:
        """The pre-grouping reference path: one decode per sequence.

        Retained as the parity baseline (grouped decode must match it
        bit-for-bit) and as the bench's looped comparator.
        """
        bt: PagedBatchHandle = block_table
        tiers = bt.store.tiers
        if tiers is not None and bt.seqs:
            tiers.fault_in(bt.seqs[0].block_ids)
        outs = []
        for b, seqh in enumerate(bt.seqs):
            if tiers is not None and b + 1 < len(bt.seqs):
                tiers.fault_in(bt.seqs[b + 1].block_ids, prefetch=True)
            outs.append(self._attend(q[b : b + 1], seqh))
        return np.concatenate(outs, axis=0)

    def release(self, block_table: KVCacheHandle) -> None:
        bt: PagedBatchHandle = block_table
        for seqh in bt.seqs:
            bt.store.release(seqh)
        bt.seqs = []
