"""Real token execution behind the serving engine's scheduler.

The :class:`ModelRunner` closes the loop the reproduction was missing:
the continuous-batching engine's admission / chunked-prefill / preemption
decisions act on a :class:`~repro.pages.page_table.PageTable`, and the
runner's per-layer :class:`~repro.attn.paged.PagedBitKVCache` pools are
indexed by *those same page ids* — one logical page is one packed block
of one sequence across every layer.  When the scheduler reserves pages,
the runner fills them with real packed words; when it preempts, the
freed pages really do contain a victim's quantized KV.

Requests carry lengths, not text, so the runner synthesizes a
deterministic input program per request: prompt embeddings seeded by the
request id, then each decode step feeds the previous step's hidden state
back in.  Preemption keeps the program (prompt + consumed decode inputs)
and drops the cache; re-admission re-prefills the recorded context —
recompute-style recovery over the real numeric path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.attn.paged import PagedBatchHandle, PagedBitBackend, PagedBitKVCache
from repro.model.transformer import CacheSession, TinyTransformer
from repro.pages.page_table import PageTable
from repro.pages.tiers import TieredPageStore


@dataclass
class _SequenceProgram:
    """One request's deterministic inputs and live decode state."""

    inputs: List[np.ndarray]
    session: Optional[CacheSession] = None
    written: int = 0
    pending: Optional[np.ndarray] = None
    handles: List[PagedBatchHandle] = field(default_factory=list)
    #: Swapped-out state: (seq_len, per-layer FP16 residual row stash).
    swap_state: Optional[Tuple[int, List[Tuple[np.ndarray, np.ndarray]]]] = None


class ModelRunner:
    """TinyTransformer + paged low-bit caches over the engine's page table."""

    def __init__(
        self,
        model,
        backend: PagedBitBackend,
        table: PageTable,
        n_slots: int,
        seed: int = 0,
        tiers: Optional[TieredPageStore] = None,
    ):
        if not isinstance(backend, PagedBitBackend):
            raise TypeError(
                "real execution shares the scheduler's page table, which "
                "only the paged-bit backend supports"
            )
        nr = backend.config.residual_block_size
        if table.page_size != nr:
            raise ValueError(
                f"execute mode needs page_size == N_r ({nr}) so one scheduler "
                f"page is one packed block; got page_size {table.page_size}"
            )
        self.backend = backend
        self.model = model
        self.tt = TinyTransformer(
            n_layers=model.n_layers,
            hq=model.hq,
            hkv=model.hkv,
            head_dim=model.head_dim,
            hidden=model.hidden,
            intermediate=model.intermediate,
            backend=backend,
            seed=seed,
        )
        self.stores = [
            PagedBitKVCache(
                backend.config, model.hkv, model.head_dim, n_slots=n_slots, table=table, tiers=tiers
            )
            for _ in range(model.n_layers)
        ]
        self.seed = seed
        self.executed_tokens = 0
        self._programs: Dict[int, _SequenceProgram] = {}
        #: Per-request decode hidden states, in generation order — the
        #: bit-exactness witness the prefix-sharing comparisons diff.
        self.decoded: Dict[int, List[np.ndarray]] = {}

    # ------------------------------------------------------------- lifecycle

    def _prompt_inputs(self, req) -> List[np.ndarray]:
        """Synthesize a request's prompt rows deterministically.

        The shared-prefix rows are seeded by the request's *prefix group*,
        not its id, so every request of the group really does feed the
        model identical leading tokens — the content the prefix cache is
        entitled to deduplicate.  The private remainder stays seeded by
        the request id (and for ``shared_prefix_len == 0`` the stream is
        exactly the pre-prefix-cache one).
        """
        req_id, prompt_len = req.req_id, req.prompt_len
        shared = req.shared_prefix_len
        parts = []
        if shared:
            group_rng = np.random.default_rng([self.seed, 1_000_003, req.prefix_group])
            parts.append(group_rng.standard_normal((shared, self.model.hidden)))
        if shared == 0:
            rng = np.random.default_rng([self.seed, req_id])
            parts.append(rng.standard_normal((prompt_len, self.model.hidden)))
        elif prompt_len > shared:
            rng = np.random.default_rng([self.seed, req_id])
            parts.append(rng.standard_normal((prompt_len - shared, self.model.hidden)))
        rows = (np.concatenate(parts, axis=0) * 0.25).astype(np.float32)
        return list(rows)

    def on_admit(self, lc, copy_from: Optional[List[int]] = None) -> None:
        """Bind a just-admitted sequence to pool slots and a fresh session.

        Re-admission after preemption reuses the recorded input program,
        so the recomputed context is exactly the one the scheduler's
        ``prefill_target`` promises (prompt plus generated-so-far).

        ``lc.cached_tokens`` leading tokens arrived via prefix-cache pages
        already mapped into the sequence's block table: the handles and
        the session cursor start there, so the next prefill chunk attends
        the shared pages' packed words as-is — bit-exact reuse with no
        recompute.  ``copy_from`` (the engine's ``prefix_share=False``
        diagnostic) instead clones those pages' content into the
        sequence's private pages in every layer store.
        """
        req = lc.request
        prog = self._programs.get(req.req_id)
        if prog is None:
            prog = _SequenceProgram(inputs=self._prompt_inputs(req))
            self._programs[req.req_id] = prog
        cached = lc.cached_tokens
        prog.handles = [
            PagedBatchHandle(s, [s.adopt(lc.seq_id, prefix_tokens=cached)])
            for s in self.stores
        ]
        if copy_from:
            dst = self.stores[0].table.sequences[lc.seq_id].pages[: len(copy_from)]
            for store in self.stores:
                store.copy_pages(copy_from, dst)
        prog.session = self.tt.new_session(prog.handles)
        prog.session.positions = cached
        prog.written = cached
        prog.pending = None

    def prefill(self, lc, n_tokens: int) -> None:
        """Run one prefill chunk through the model into reserved pages.

        Replay (re-admission after a preemption or a heal) is *bit-exact*:
        prompt rows go through ``prefill_chunk`` with the same chunk
        boundaries the original admission used, and consumed decode inputs
        beyond the prompt are re-decoded one token at a time through the
        quantized cache — the exact call sequence that produced them, so
        a recovered sequence's remaining decode outputs match the
        uninterrupted run bit for bit.
        """
        prog = self._programs[lc.request.req_id]
        end = prog.written + n_tokens
        prompt_len = lc.request.prompt_len
        last = None
        if prog.written < prompt_len:
            hi = min(end, prompt_len)
            x = np.stack(prog.inputs[prog.written : hi])[None]
            h = self.tt.prefill_chunk(x, prog.session)
            prog.written = hi
            last = h[0, -1]
        while prog.written < end:
            x = prog.inputs[prog.written]
            h = self.tt.decode_step(x[None], prog.session)
            prog.written += 1
            last = h[0]
        if prog.written >= lc.prefill_target:
            prog.pending = last

    def decode_batch(self, lcs) -> None:
        """Advance every decode-ready sequence by one token in ONE forward.

        All of the step's decoders, whatever their positions, share one
        ``decode_step``: RoPE takes a position per row, each projection
        is one GEMM over every row, and the per-layer batch handle lets
        the paged backend batch the cache writes and group the reads by
        ``n_blocks``.  A row's bits never depend on its batch (the GEMMs
        run at least ``_ROW_FLOOR`` rows, the grouped reads are
        bit-exact), so this equals ``decode_batch([lc])`` per sequence
        bit for bit.
        """
        if not lcs:
            return
        progs = [self._programs[lc.request.req_id] for lc in lcs]
        session = CacheSession(
            caches=[
                PagedBatchHandle(store, [prog.handles[i].seqs[0] for prog in progs])
                for i, store in enumerate(self.stores)
            ],
            positions=np.array([prog.session.positions for prog in progs]),
        )
        h = self.tt.decode_step(np.stack([prog.pending for prog in progs]), session)
        for lc, prog, row in zip(lcs, progs, h):
            prog.inputs.append(prog.pending)  # consumed input: part of the recompute context
            prog.pending = row
            prog.session.positions += 1
            self.decoded.setdefault(lc.request.req_id, []).append(np.array(row, np.float32))
            self.executed_tokens += 1

    def _free(self, prog: _SequenceProgram) -> None:
        for handle in prog.handles:
            for seqh in handle.seqs:
                handle.store.free_slot(seqh)
        prog.handles = []
        prog.session = None
        prog.written = 0
        prog.pending = None

    def on_preempt(self, lc) -> None:
        """Drop the cache binding; the scheduler frees the pages itself.

        Works on swapped victims too (a healed sequence can be preempted
        straight out of the swapped set): the stashed residual rows are
        discarded along with the handles, since recompute-style replay
        rebuilds everything from the input program.
        """
        prog = self._programs[lc.request.req_id]
        self._free(prog)
        prog.swap_state = None

    def on_abort(self, lc) -> None:
        """A request left the system without finishing (timed out, shed
        after admission, or failed): release whatever it still binds."""
        prog = self._programs.pop(lc.request.req_id, None)
        if prog is not None:
            self._free(prog)
            prog.swap_state = None

    def on_swap_out(self, lc) -> None:
        """Park a sequence whose pages survive off-device (swap preemption).

        The scheduler keeps the page-table sequence mapped and the tier
        store demotes its packed pages; all the runner must save is what
        lives outside the pages — each layer's partial FP16 residual rows
        — plus the decode cursor.  The session object (positions, pending
        input) stays on the program, unbound from any cache handle.
        """
        prog = self._programs[lc.request.req_id]
        seqh0 = prog.handles[0].seqs[0]
        seq_len, n_res = seqh0.seq_len, seqh0.res_len
        stash = []
        for handle in prog.handles:
            seqh = handle.seqs[0]
            store = handle.store
            stash.append(
                (
                    np.array(store.res_k[seqh.slot][:, :n_res]),
                    np.array(store.res_v[seqh.slot][:, :n_res]),
                )
            )
            store.free_slot(seqh)
        prog.swap_state = (seq_len, stash)
        prog.handles = []
        prog.session.caches = []

    def on_swap_in(self, lc) -> None:
        """Rebind a swapped sequence: same pages, restored residual rows.

        Packed pages were never unmapped, so the handles pick up exactly
        the words that were flushed before the swap — the bit-identity
        the swap parity suite asserts.
        """
        prog = self._programs[lc.request.req_id]
        seq_len, stash = prog.swap_state
        prog.handles = [
            PagedBatchHandle(store, [store.reattach(lc.seq_id, seq_len, rk, rv)])
            for store, (rk, rv) in zip(self.stores, stash)
        ]
        prog.session.caches = list(prog.handles)
        prog.swap_state = None

    def on_finish(self, lc) -> None:
        self._free(self._programs.pop(lc.request.req_id))
