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

Storage is bit-identical to the contiguous cache, in every format
(integer and MXFP4/NVFP4): blocks are produced by the same
:func:`~repro.core.residual_kernel.flush_blocks`, stored as whatever
per-block tensors it returns, and read back through the same
:class:`~repro.core.residual_kernel.BlockBatch` dequant, and decode runs
the same walk over them, so a paged decode and a contiguous decode of the
same tokens agree bit for bit (the parity suite in ``tests/attn``
enforces it for every format).
"""

from __future__ import annotations

import itertools
import zlib
from functools import partial
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.attn.protocol import AttentionBackend, KVCacheHandle
from repro.attn.reference import chunked_causal_attention
from repro.core.attention import BitDecoding
from repro.core.config import BitDecodingConfig
from repro.core.residual_kernel import BlockBatch, flush_blocks, grow_reconstruction
from repro.gpu.arch import ArchSpec
from repro.pages.allocator import OutOfPagesError, PageAllocator
from repro.pages.page_table import PageTable
from repro.pages.tiers import TieredPageStore, TierObserver


def _group_key(handles) -> Tuple[int, ...]:
    """The member tuple of handle keys that keys a group's cached reads."""
    return tuple(h.key for h in handles)


class PagedSeqHandle(KVCacheHandle):
    """One sequence's block table and residual slot in a :class:`PagedBitKVCache`.

    Reads go through a group view (:meth:`PagedBitKVCache.group_view`),
    one sequence being a group of one.  ``key`` names this binding in the
    store's read memo: the store assigns it at bind time and never reuses
    it, unlike ``seq_id`` and ``slot``, which are both recycled.
    """

    seq_len = 0

    def __init__(self, store: "PagedBitKVCache", seq_id: int, slot: int, key: int):
        self.store = store
        self.seq_id = seq_id
        self.slot = slot
        self.key = key
        self.seq_len = 0

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
        return list(self.store.table.sequences[self.seq_id].pages[: self.n_blocks])


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

    The only read path over the pool, a single sequence included (a
    group of one).  Duck-types the cache interface
    :meth:`BitDecoding.decode` reads (``config`` / ``batch`` / ``hkv`` /
    ``head_dim`` / ``dequant_kv`` / ``residual_kv``) with
    ``batch == len(handles)``: ``dequant_kv`` gathers every member's
    packed pages into one ``[G, hkv, L, d]`` SoA tensor (memoized by the
    store) and ``residual_kv`` gathers the FP16 residual slots padded to
    the widest member, with ``residual_lengths`` carrying each member's
    true fill so the ragged residual kernel can stay tolerance-free.  One
    ``run_numeric`` call then covers the whole group.
    """

    def __init__(self, store: "PagedBitKVCache", handles: List[PagedSeqHandle]):
        if not handles:
            raise ValueError("a shape group needs at least one sequence")
        nb = handles[0].n_blocks
        if any(h.n_blocks != nb for h in handles):
            raise ValueError("group members must share n_blocks (the shape key)")
        self.store = store
        self.handles = list(handles)
        self.config = store.config
        self.batch = len(handles)
        self.hkv = store.hkv
        self.head_dim = store.head_dim
        self.residual_lengths = np.asarray([h.res_len for h in handles], dtype=np.int64)

    def dequant_kv(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.store.dequant_group(self.handles)

    def residual_kv(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.store.residual_group(self.handles)


class PagedBitKVCache(TierObserver):
    """Page-pool storage for one layer's packed low-bit K/V.

    :attr:`pools` mirror a flush's :attr:`BlockBatch.arrays` with the
    block axis promoted to a *physical page* axis: packed words and
    quantization metadata (or FP4 values and block scales) are each
    ``[n_pages, hkv, ...per-block shape...]``.  FP16 residual slots
    are ``[n_slots, hkv, N_r, d]`` pairs handed out per resident
    sequence by their own :class:`PageAllocator` (the serving memory
    model reserves residual buffers per batch slot, not per page).

    Every append — prefill context, decode token, swap-in's residual rows
    — goes through one write path, :meth:`_write`; :meth:`write_rows`,
    :meth:`append_rows` and :meth:`write_rows_group` are one-line
    delegations kept for the tracing seams.

    Pass ``table`` to share an externally scheduled
    :class:`~repro.pages.page_table.PageTable` (the serving engine's):
    page reservation then belongs to the scheduler and writes only fill
    what was reserved.  Without ``table`` the store owns its table and
    reserves pages as it writes.

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

        # One probe flush fixes every pool shape/dtype: each per-block
        # tensor depends only on (N_r, d, config), never on batch/hkv/block
        # count.  The probe also keeps the configuration reads rebuild
        # gathered pages with.
        zeros = np.zeros((1, 1, 1, nr, head_dim), np.float16)
        self._probe = flush_blocks(zeros, zeros, config)
        self.pools = tuple(
            np.zeros((n_pages, hkv) + a.shape[3:], a.dtype) for a in self._probe.arrays
        )
        self.slots = PageAllocator(n_slots)
        # FP16 residual values in FP32 slots (rounded once, at the write):
        # the residual numerics and the flush staging both read FP32.
        self.res_k = np.zeros((n_slots, hkv, nr, head_dim), np.float32)
        self.res_v = np.zeros((n_slots, hkv, nr, head_dim), np.float32)

        # The read memo: dequantized packed blocks per member tuple of
        # handle keys (see :meth:`dequant_group`).  Keys are never reused,
        # so binding and freeing slots invalidates nothing; ``free_slot``
        # just drops the freed handle's entries.  ``content_epoch``
        # advances where mapped page content changes (CoW remaps, page
        # clones, corruption) and invalidates every entry.  Tier moves
        # change frames, not content, and invalidate nothing: frames are
        # looked up fresh for the pages a read dequantizes.
        self.content_epoch = 0
        self._memos: dict = {}
        self._keys = itertools.count()

    def _frames(self, pages) -> np.ndarray:
        """Physical pool indices for logical page ids (identity untiered)."""
        if self.tiers is None:
            return np.asarray(pages)
        return self.tiers.frames_of(list(pages))

    # --------------------------------------------------- TierObserver hooks

    def copy_frame(self, src: int, dst: int) -> None:
        for pool in self.pools:
            pool[dst] = pool[src]

    def exchange_frames(self, a: int, b: int) -> None:
        for pool in self.pools:
            tmp = pool[a].copy()
            pool[a] = pool[b]
            pool[b] = tmp

    def frame_checksum(self, frame: int) -> int:
        """CRC32 over every pool's bytes for one frame (packed words and
        quantization metadata alike — rot in a scale is as fatal as rot in
        a word)."""
        digest = 0
        for pool in self.pools:
            digest = zlib.crc32(np.ascontiguousarray(pool[frame]).tobytes(), digest)
        return digest & 0xFFFFFFFF

    def corrupt_frame(self, frame: int, salt: int) -> None:
        """Deterministically flip bits in one frame of pool 0 (packed K
        words, or FP4 K values), viewed as unsigned integers.

        The mask is derived from ``salt`` and guaranteed nonzero, so the
        damage always changes the frame's checksum — injection can never
        silently miss.
        """
        self.content_epoch += 1
        pool = self.pools[0]
        flat = pool[frame].reshape(-1).view(f"u{pool.itemsize}")
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
        handle = PagedSeqHandle(self, seq_id, slot, next(self._keys))
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
        swap-out: the handle binds at the block-aligned length and writes
        them back through :meth:`_write`.
        """
        if seq_len > self.table.sequences[seq_id].length:
            raise ValueError("seq_len exceeds the sequence's reserved length")
        n_res = seq_len % self.block_tokens
        if n_res and (res_k is None or res_v is None):
            raise ValueError(
                f"seq_len ({seq_len}) implies {n_res} residual tokens; "
                "their FP16 rows must be supplied to reattach"
            )
        handle = self._bind(seq_id, seq_len - n_res)
        if n_res:
            self._write([handle], np.asarray(res_k)[None], np.asarray(res_v)[None])
        return handle

    def add_sequence(self) -> PagedSeqHandle:
        """Register a fresh empty sequence (store-owned table mode)."""
        return self.adopt(self.table.add_sequence(0))

    def free_slot(self, handle: PagedSeqHandle) -> None:
        """Return the residual slot and drop the reads memoized under the
        handle; the scheduler owns the pages."""
        self.slots.release(handle.slot)
        for key in [k for k in self._memos if handle.key in k]:
            del self._memos[key]

    def release(self, handle: PagedSeqHandle) -> None:
        """Free the sequence's pages and residual slot."""
        self.table.release_sequence(handle.seq_id)
        self.free_slot(handle)

    def reserve(self, handle: PagedSeqHandle, n_tokens: int) -> None:
        """Reserve pages for ``n_tokens`` more tokens (store-owned mode).

        With a shared (scheduler-owned) table this is a no-op: the engine
        reserved the pages when it admitted/extended the sequence, and
        :meth:`_write` enforces that the reservation exists.
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

    def _write(self, handles: List[PagedSeqHandle], k: np.ndarray, v: np.ndarray) -> None:
        """Append ``n`` rows to every handle (``[G, hkv, n, d]``), any fills.

        The one write path into the pool, the paper's two-part cache rule:
        each handle's rows land behind its residual fill, every block that
        reaches ``N_r`` — across all handles — is quantized and packed by
        one :func:`flush_blocks` call and written whole into its page, and
        the tail stays in the slot.  No quantization group or fragment
        crosses a block, so batching blocks from any mix of handles and
        fills is bit-identical to flushing each on its own.
        """
        k = np.asarray(k, np.float16)
        v = np.asarray(v, np.float16)
        want = (len(handles), self.hkv, *k.shape[2:3], self.head_dim)
        if k.shape != want or v.shape != want:
            raise ValueError(
                f"K rows {k.shape} and V rows {v.shape} must both be [G, hkv, n, d] = {want}"
            )
        n = k.shape[2]
        for handle in handles:
            self._check_reserved(handle, n)
        nr = self.block_tokens
        slots = np.asarray([h.slot for h in handles])
        fills = [h.seq_len % nr for h in handles]
        if max(fills, default=0) + n <= nr:
            # Every handle's rows fit in its slot (a decode step): one
            # scatter, and only the slots that just filled flush.
            cols = np.add.outer(fills, np.arange(n))
            self.res_k[slots[:, None], :, cols] = k.swapaxes(1, 2)
            self.res_v[slots[:, None], :, cols] = v.swapaxes(1, 2)
            full = [i for i, fill in enumerate(fills) if fill + n == nr]
            targets = [(handles[i], handles[i].n_blocks) for i in full]
            if targets:
                k_blocks, v_blocks = self.res_k[slots[full]], self.res_v[slots[full]]
        else:
            # Walk each handle's stream (slot rows, then new rows): complete
            # blocks go to the flush, the tail back into the slot.
            targets, parts = [], ([], [])
            for handle, slot, fill, *rows in zip(handles, slots, fills, k, v):
                nb, rem = divmod(fill + n, nr)
                shape = (self.hkv, nb, nr, self.head_dim)
                targets += [(handle, handle.n_blocks + i) for i in range(nb)]
                for res, stream, blocks in zip((self.res_k, self.res_v), rows, parts):
                    if fill:
                        stream = np.concatenate([res[slot, :, :fill], stream], axis=1)
                    blocks.append(stream[:, : nb * nr].reshape(shape).swapaxes(0, 1))
                    res[slot, :, :rem] = stream[:, nb * nr :]
            k_blocks, v_blocks = (np.concatenate(blocks) for blocks in parts)
        for handle in handles:
            handle.seq_len += n
        if targets:
            flushed = flush_blocks(k_blocks[:, :, None], v_blocks[:, :, None], self.config)
            self._store_blocks(targets, flushed)

    def _store_blocks(
        self, targets: List[Tuple[PagedSeqHandle, int]], flushed: BlockBatch
    ) -> None:
        """Write one flush (``[len(targets), hkv, 1, ...]``) into pages.

        Block ``i`` of the flush lands in the page holding block index
        ``targets[i][1]`` of handle ``targets[i][0]``.  Whole pages only,
        which makes the copy-on-write guard cheap: a target page mapped by
        more than one sequence (a forked clone) is swapped for a fresh
        exclusive page before the write, and since the page is overwritten
        whole no content copy is needed, just the remap.
        """
        pages: List[int] = []
        for handle, block in targets:
            page, copied_from = self.table.ensure_exclusive(handle.seq_id, block)
            if copied_from is not None:
                self.content_epoch += 1
            pages.append(page)
        idx = self._frames(pages)
        for pool, part in zip(self.pools, flushed.arrays):
            pool[idx] = part[:, :, 0]

    def write_rows(self, handle: PagedSeqHandle, k_rows: np.ndarray, v_rows: np.ndarray) -> None:
        """:meth:`_write` of ``[hkv, n, d]`` rows to one sequence, kept by
        name for the tracing seams (``benchmarks/e2e/tracing.py``)."""
        self._write([handle], k_rows[None], v_rows[None])

    def append_rows(self, handles: List[PagedSeqHandle], k_rows: np.ndarray, v_rows: np.ndarray) -> None:
        """:meth:`_write` of one token per handle (``[G, hkv, d]`` rows),
        kept by name for the tracing seams."""
        self._write(handles, k_rows[:, :, None], v_rows[:, :, None])

    def write_rows_group(
        self, handles: List[PagedSeqHandle], k_rows: np.ndarray, v_rows: np.ndarray
    ) -> None:
        """:meth:`_write` of ``[G, hkv, n, d]`` rows at any fills, kept by
        name for the tracing seams."""
        self._write(handles, k_rows, v_rows)

    def copy_pages(self, src: List[int], dst: List[int]) -> None:
        """Clone every pool's content between physical pages.

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
        for pool in self.pools:
            pool[d] = pool[s]

    # --------------------------------------------------------------- reads

    def _dequant_frames(self, fmap: np.ndarray, out=None) -> Tuple[np.ndarray, np.ndarray]:
        """Gather a ``[G, nb]`` frame map into a :class:`BlockBatch` and
        dequantize it to FP32 ``[G, hkv, nb * N_r, d]`` (into ``out`` when
        given).

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

        batch = self._probe.with_arrays([gather(pool) for pool in self.pools])
        return batch.dequant_kv(self.config, out=out)

    #: Bound on memoized group reads.  :meth:`retire_groups` drops
    #: superseded member tuples each step and :meth:`free_slot` a freed
    #: handle's; the cap just keeps pathological churn from hoarding
    #: memory.
    _MEMO_ENTRIES = 32

    def retire_groups(self, groups: List[List[PagedSeqHandle]]) -> None:
        """Drop the memoized reads this step's groups supersede.

        A sequence sits in exactly one decode group per step, so an entry
        that names one of ``groups``' handles under any other member tuple
        belongs to a composition that has moved on; ragged groups churn
        member tuples every time a member flushes.  Entries naming none of
        these handles (another batch's) are kept.
        """
        live = {_group_key(g) for g in groups}
        members = {member for g in groups for member in _group_key(g)}
        for key in [k for k in self._memos if k not in live and not members.isdisjoint(k)]:
            del self._memos[key]

    def group_view(self, handles: List[PagedSeqHandle]) -> PagedGroupView:
        """A batched read view over one equal-``n_blocks`` group."""
        return PagedGroupView(self, handles)

    def dequant_group(self, handles: List[PagedSeqHandle]) -> Tuple[np.ndarray, np.ndarray]:
        """FP32 ``[G, hkv, packed_len, d]`` group reconstruction, memoized.

        The memo is keyed by the member tuple of handle keys and guarded
        by ``content_epoch``; it holds views of a buffer with headroom on
        the token axis (:func:`~repro.core.residual_kernel.reserve`).
        Blocks are append-only for a live handle, so while the group holds,
        a read after flushes dequantizes just the new block columns
        (:func:`~repro.core.residual_kernel.grow_reconstruction`, the
        contiguous cache's rule too): frames are looked up for those pages
        only, after they fault in.  A cold read (new member tuple, or a
        moved epoch) fills a fresh buffer.
        """
        nb = handles[0].n_blocks
        if nb == 0:
            empty = np.zeros((len(handles), self.hkv, 0, self.head_dim), np.float32)
            return empty, empty
        key = _group_key(handles)
        memo = self._memos.get(key)
        have, bufs = 0, (None, None)
        if memo is not None and memo[0] == self.content_epoch:
            if memo[1] == nb:
                return memo[2]
            have, bufs = memo[1], memo[3]
        pages = [p for h in handles for p in self.table.sequences[h.seq_id].pages[have:nb]]
        if self.tiers is not None:
            # The measured fallback: pages still off-device fault in
            # synchronously (stall recorded) before the gather.
            self.tiers.fault_in(pages)
        nr = self.block_tokens
        fmap = self._frames(pages).reshape(len(handles), nb - have)
        shape = (len(handles), self.hkv, nb * nr, self.head_dim)
        kv, bufs = grow_reconstruction(bufs, have * nr, shape, partial(self._dequant_frames, fmap))
        self._memos.pop(key, None)
        self._memos[key] = (self.content_epoch, nb, kv, bufs)
        while len(self._memos) > self._MEMO_ENTRIES:
            self._memos.pop(next(iter(self._memos)))
        return kv

    def dequant_seq(self, handle: PagedSeqHandle) -> Tuple[np.ndarray, np.ndarray]:
        """``dequant_group([handle])``: one sequence is a group of one.

        Kept by name only because the end-to-end benchmark's tracing
        seams (``benchmarks/e2e/tracing.py``) resolve it.
        """
        return self.dequant_group([handle])

    def residual_group(self, handles: List[PagedSeqHandle]) -> Tuple[np.ndarray, np.ndarray]:
        """Residual rows gathered ``[G, hkv, r_max, d]`` (FP16 values in
        FP32), zero-padded.

        Rows past a member's fill are zeroed (slots hold stale rows from
        earlier fills); the ragged residual kernel masks their score
        columns to ``-inf`` anyway, but the contract is that pad K *and*
        V rows are exact zeros.
        """
        res = np.asarray([h.res_len for h in handles])
        r_max = int(res.max())
        slots = np.asarray([h.slot for h in handles])
        k = self.res_k[slots, :, :r_max]
        v = self.res_v[slots, :, :r_max]
        members, rows = np.nonzero(np.arange(r_max) >= res[:, None])
        k[members, :, rows] = 0
        v[members, :, rows] = 0
        return k, v


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
    decoding each sequence as a group of one, because both run the very
    same :meth:`BitDecoding.decode` numeric path.
    """

    #: Residual slots per pool: the most sequences it holds live at once.
    N_SLOTS = 64

    def __init__(
        self,
        engine: Union[BitDecoding, BitDecodingConfig, None] = None,
        arch: Union[ArchSpec, str] = "a100",
        n_pages: int = 256,
    ):
        if engine is None:
            engine = BitDecodingConfig()
        if isinstance(engine, BitDecodingConfig):
            engine = BitDecoding(engine, arch)
        self.engine = engine
        self.config = self.engine.config
        self.n_pages = n_pages
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
                self.config, hkv, head_dim, n_pages=self.n_pages, n_slots=self.N_SLOTS
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
        k_hat, v_hat = store.dequant_group([seqh])
        k_res, v_res = store.residual_group([seqh])
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
        # Every member's cached context is read before any write; then one
        # batched write covers the whole batch, whatever its fills.
        contexts = [] if q is None else [self._context(seqh) for seqh in bt.seqs]
        for seqh in bt.seqs:
            bt.store.reserve(seqh, k.shape[2])
        bt.store.write_rows_group(bt.seqs, k, v)
        if q is None:
            return None
        outs = [
            chunked_causal_attention(q[b : b + 1], ctx_k, ctx_v, k[b : b + 1], v[b : b + 1])
            for b, (ctx_k, ctx_v) in enumerate(contexts)
        ]
        return np.concatenate(outs, axis=0)

    def append_kv(self, kv: Tuple[np.ndarray, np.ndarray], block_table: KVCacheHandle) -> None:
        bt: PagedBatchHandle = block_table
        k, v = kv
        for seqh in bt.seqs:
            bt.store.reserve(seqh, 1)
        bt.store.append_rows(bt.seqs, k, v)

    def _attend(self, q: np.ndarray, cache) -> np.ndarray:
        """Attention of ``q`` over one group view.

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
            out = self._attend(q[idxs], bt.store.group_view([bt.seqs[b] for b in idxs]))
            for j, b in enumerate(idxs):
                outs[b] = out[j : j + 1]
        return np.concatenate(outs, axis=0)

    def release(self, block_table: KVCacheHandle) -> None:
        bt: PagedBatchHandle = block_table
        for seqh in bt.seqs:
            bt.store.release(seqh)
        bt.seqs = []
