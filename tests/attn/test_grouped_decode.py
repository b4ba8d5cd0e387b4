"""Grouped batched decode parity: one kernel launch must change nothing.

The batched-decode contract: ``PagedBitBackend.decode_step`` (equal-shape
sequences gathered into batched SoA views, one ``run_numeric`` launch per
group) is *bit-identical* to :func:`decode_looped` (one ``_attend`` per
sequence over its own one-member view, the per-sequence reference) —
across bit widths, granularities, numerics modes, ragged residual fills,
flush boundaries, swap preemption and copy-on-write forks.  Grouping
reorders nothing and rounds nothing: the padded-tail contract in
``attend_residual_grouped`` is tolerance-free, so any divergence at all
is a gather or invalidation bug.

The hypothesis property at the bottom drives the read memo (group
dequant memos keyed by never-reused handle keys, guarded by one content
epoch) through random append / flush / swap / fork / recycle schedules
and asserts it never serves stale words: every memoized read equals a
cold gather of each member's pages.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attn.paged import PagedBatchHandle, PagedBitBackend
from repro.core.config import BitDecodingConfig
from repro.core.residual_kernel import PackedBlockBatch
from repro.model.transformer import CacheSession, TinyTransformer
from tests.attn.test_page_reuse import fork

HKV, HQ, D = 2, 4, 16


def _ragged_batch(backend, lengths, rng, hkv=HKV, d=D):
    """Prefill one sequence per length into the backend's shared pool."""
    seqs = []
    for length in lengths:
        handle = backend.new_handle(1, hkv, d)
        if length:
            k = rng.standard_normal((1, hkv, length, d)).astype(np.float16)
            v = rng.standard_normal((1, hkv, length, d)).astype(np.float16)
            backend.prefill(None, (k, v), handle)
        seqs.append(handle.seqs[0])
    return PagedBatchHandle(backend.store_for(hkv, d), seqs)


def decode_looped(backend, q, bt):
    """The per-sequence oracle: each sequence decoded as a group of one.

    It reads through ``group_view([seqh])`` directly and never retires a
    group, so the grouped batch's memo stays warm across steps and grouped
    decode's incremental memo extension is diffed against a cold rebuild.
    """
    tiers = bt.store.tiers
    if tiers is not None and bt.seqs:
        tiers.fault_in(bt.seqs[0].block_ids)
    outs = []
    for b, seqh in enumerate(bt.seqs):
        if tiers is not None and b + 1 < len(bt.seqs):
            tiers.fault_in(bt.seqs[b + 1].block_ids, prefetch=True)
        outs.append(backend._attend(q[b : b + 1], bt.store.group_view([seqh])))
    return np.concatenate(outs, axis=0)


def _assert_grouped_matches_looped(backend, bt, rng, steps, hq=HQ, d=D):
    """Append/decode ``steps`` times, diffing grouped vs looped bitwise."""
    batch = len(bt.seqs)
    q = rng.standard_normal((batch, 1, hq, d)).astype(np.float32)
    np.testing.assert_array_equal(
        backend.decode_step(q, bt), decode_looped(backend, q, bt)
    )
    for _ in range(steps):
        k_new = rng.standard_normal((batch, HKV, d)).astype(np.float32)
        v_new = rng.standard_normal((batch, HKV, d)).astype(np.float32)
        backend.append_kv((k_new, v_new), bt)
        q = rng.standard_normal((batch, 1, hq, d)).astype(np.float32)
        np.testing.assert_array_equal(
            backend.decode_step(q, bt), decode_looped(backend, q, bt)
        )


class TestGroupedLoopedParity:
    @pytest.mark.parametrize(
        "bits, granularity, wn, coop",
        [
            (2, "channel", 1, True),
            (2, "token", 1, True),
            (4, "channel", 1, True),
            (4, "token", 1, True),
            # Cooperative softmax: ragged residual fills group together.
            (4, "channel", 4, True),
            # Broken non-cooperative softmax: partition-sensitive, so the
            # backend must fall back to exact-(n_blocks, res_len) groups.
            (4, "channel", 2, False),
        ],
    )
    def test_grouped_bit_identical_across_ragged_lengths(self, rng, bits, granularity, wn, coop):
        config = BitDecodingConfig(bits=bits, granularity=granularity, wn=wn, use_coop_softmax=coop)
        nr = config.residual_block_size
        # Ragged on purpose: equal shapes, near-full residuals (so flushes
        # land mid-run at different steps), an empty-packed sequence, and
        # an exactly block-aligned one (res_len == 0).
        lengths = [4 * nr - 3, 4 * nr - 3, 4 * nr - 9, nr - 1, 2 * nr - 5, 3 * nr]
        backend = PagedBitBackend(config, n_pages=64)
        bt = _ragged_batch(backend, lengths, rng)
        _assert_grouped_matches_looped(backend, bt, rng, steps=12)

    def test_grouped_parity_across_swap(self, rng):
        """Swap a member out (slot freed, pages kept) and back in: the
        reattached handle must group bit-identically — it carries a fresh
        key, so no memoized read of the retired binding can be served."""
        config = BitDecodingConfig(bits=4, wn=1)
        nr = config.residual_block_size
        backend = PagedBitBackend(config, n_pages=32)
        store = backend.store_for(HKV, D)
        bt = _ragged_batch(backend, [2 * nr + 5, 2 * nr + 5, 2 * nr + 9], rng)
        q = rng.standard_normal((3, 1, HQ, D)).astype(np.float32)
        np.testing.assert_array_equal(
            backend.decode_step(q, bt), decode_looped(backend, q, bt)
        )

        victim = bt.seqs[1]
        n_res = victim.res_len
        stash_k = np.array(store.res_k[victim.slot][:, :n_res])
        stash_v = np.array(store.res_v[victim.slot][:, :n_res])
        seq_id, seq_len = victim.seq_id, victim.seq_len
        store.free_slot(victim)
        bt.seqs[1] = store.reattach(seq_id, seq_len, stash_k, stash_v)
        _assert_grouped_matches_looped(backend, bt, rng, steps=3)

    def test_grouped_parity_across_cow_fork(self, rng):
        """Fork a sequence copy-on-write, flush the child onto the shared
        page (cloning it), and decode parent + child in one group."""
        config = BitDecodingConfig(bits=4, wn=1)
        nr = config.residual_block_size
        backend = PagedBitBackend(config, n_pages=32)
        store = backend.store_for(HKV, D)
        bt = _ragged_batch(backend, [nr + 5], rng)
        parent = bt.seqs[0]
        child = fork(store, parent)
        shared = list(parent.block_ids)
        bt.seqs.append(child)

        # Fill the child's residual to the flush boundary: the flush lands
        # on the page it still shares with the parent and must clone it.
        fill = nr - child.res_len
        store.reserve(child, fill)
        store.write_rows(
            child,
            rng.standard_normal((HKV, fill, D)).astype(np.float32),
            rng.standard_normal((HKV, fill, D)).astype(np.float32),
        )
        assert child.n_blocks == 2
        assert child.block_ids[1] not in shared  # the CoW really happened
        assert parent.block_ids == shared

        _assert_grouped_matches_looped(backend, bt, rng, steps=nr + 2)


class TestTransformerGroupedParity:
    def test_grouped_session_matches_sequential_decode(self, rng):
        """Same-position sequences decoded through one transient grouped
        ``CacheSession`` must emit the exact hidden states of
        per-sequence ``decode_step`` calls."""
        config = BitDecodingConfig(bits=4, wn=1)
        nr = config.residual_block_size
        dims = dict(n_layers=2, hq=HQ, hkv=HKV, head_dim=D, hidden=64, intermediate=128)
        seq_model = TinyTransformer(
            **dims, backend=PagedBitBackend(config, n_pages=64), seed=0
        )
        grp_model = TinyTransformer(
            **dims, backend=PagedBitBackend(config, n_pages=64), seed=0
        )
        prompts = [
            rng.standard_normal((1, nr + 5, 64)).astype(np.float32) * 0.5 for _ in range(3)
        ]
        seq_sessions = [seq_model.new_session() for _ in prompts]
        grp_sessions = [grp_model.new_session() for _ in prompts]
        for x, ss, gs in zip(prompts, seq_sessions, grp_sessions):
            seq_model.prefill_chunk(x.copy(), ss)
            grp_model.prefill_chunk(x.copy(), gs)

        for _ in range(3):
            xs = rng.standard_normal((3, 64)).astype(np.float32) * 0.5
            outs_seq = np.concatenate(
                [seq_model.decode_step(xs[g : g + 1].copy(), s) for g, s in enumerate(seq_sessions)]
            )
            gsession = CacheSession(
                caches=[
                    PagedBatchHandle(
                        grp_sessions[0].caches[layer].store,
                        [s.caches[layer].seqs[0] for s in grp_sessions],
                    )
                    for layer in range(dims["n_layers"])
                ],
                positions=grp_sessions[0].positions,
            )
            outs_grp = grp_model.decode_step(xs.copy(), gsession)
            for s in grp_sessions:
                s.positions += 1
            np.testing.assert_array_equal(outs_seq, outs_grp)


def _key(*seqs):
    return tuple(h.key for h in seqs)


def _cold(store, handle):
    """A sequence's packed K/V gathered and dequantized with no memo."""
    return store._dequant_frames(store._frames(handle.block_ids)[None])


class TestRetireGroups:
    def test_decode_drops_only_superseded_member_tuples(self, rng):
        """A step's groups retire every cached read that names one of its
        sequences under another member tuple; another batch's are kept."""
        config = BitDecodingConfig(bits=4, wn=1)
        nr = config.residual_block_size
        backend = PagedBitBackend(config, n_pages=64)
        bt = _ragged_batch(backend, [2 * nr + 1] * 3 + [nr + 1] * 2, rng)
        store = bt.store
        a, b, c, d, e = bt.seqs

        def decode(*seqs):
            q = rng.standard_normal((len(seqs), 1, HQ, D)).astype(np.float32)
            backend.decode_step(q, PagedBatchHandle(store, list(seqs)))

        decode(a, b, c)
        decode(d, e)
        assert set(store._memos) == {_key(a, b, c), _key(d, e)}
        decode(a, b)
        assert set(store._memos) == {_key(a, b), _key(d, e)}


class TestMemoRule:
    """One rule: reads are memoized per member tuple of handle keys, which
    are never reused; only page-content changes bump the epoch."""

    def test_recycled_seq_id_and_slot_read_fresh_values(self, rng):
        """A released member's ``seq_id`` and slot go to a new handle at the
        same length: the group it joins must read the new words."""
        config = BitDecodingConfig(bits=4, wn=1)
        nr = config.residual_block_size
        backend = PagedBitBackend(config, n_pages=32)
        bt = _ragged_batch(backend, [2 * nr + 3, 2 * nr + 3], rng)
        store, (a, b) = bt.store, bt.seqs
        store.dequant_group([a, b])
        store.release(b)
        c = _ragged_batch(backend, [2 * nr + 3], rng).seqs[0]
        assert (c.seq_id, c.slot) == (b.seq_id, b.slot) and c.key != b.key
        k, v = store.dequant_group([a, c])
        for g, h in enumerate((a, c)):
            k_ref, v_ref = _cold(store, h)
            np.testing.assert_array_equal(k[g], k_ref[0])
            np.testing.assert_array_equal(v[g], v_ref[0])

    def test_unrelated_admit_and_free_keeps_a_live_group_memo(self, rng, monkeypatch):
        """Slot churn of another sequence between two decode steps must not
        re-dequantize a live group's blocks."""
        config = BitDecodingConfig(bits=4, wn=1)
        nr = config.residual_block_size
        backend = PagedBitBackend(config, n_pages=32)
        bt = _ragged_batch(backend, [2 * nr + 3] * 3, rng)
        q = rng.standard_normal((3, 1, HQ, D)).astype(np.float32)
        first = backend.decode_step(q, bt)

        blocks = []
        dequant_kv = PackedBlockBatch.dequant_kv

        def counting(batch, cfg, out=None):
            blocks.append(batch.k_words.shape[0] * batch.k_words.shape[2])
            return dequant_kv(batch, cfg, out=out)

        monkeypatch.setattr(PackedBlockBatch, "dequant_kv", counting)
        other = _ragged_batch(backend, [nr + 5], rng)
        backend.release(other)
        np.testing.assert_array_equal(backend.decode_step(q, bt), first)
        assert sum(blocks) == 0

    def test_page_content_changes_invalidate_memoized_reads(self, rng):
        """``copy_pages`` and ``corrupt_frame`` rewrite mapped pages in
        place: the next read must see the new words."""
        config = BitDecodingConfig(bits=4, wn=1)
        nr = config.residual_block_size
        backend = PagedBitBackend(config, n_pages=32)
        bt = _ragged_batch(backend, [2 * nr + 3, 3 * nr], rng)
        store, (a, b) = bt.store, bt.seqs
        for change in (
            lambda: store.copy_pages(b.block_ids[:1], a.block_ids[:1]),
            lambda: store.corrupt_frame(a.block_ids[1], salt=12345),
        ):
            before = store.dequant_group([a])[0]
            change()
            k, v = store.dequant_group([a])
            assert not np.array_equal(k, before)
            k_ref, v_ref = _cold(store, a)
            np.testing.assert_array_equal(k, k_ref)
            np.testing.assert_array_equal(v, v_ref)

    def test_flushes_fill_the_memo_buffer_in_place_then_grow(self, rng):
        """A group memo takes each flush's block column into its buffer's
        headroom, past the rows it handed out, and moves to a grown buffer
        when that is full: every read equals a cold gather and no view
        handed out earlier changes."""
        config = BitDecodingConfig(bits=4, wn=1)
        nr = config.residual_block_size
        backend = PagedBitBackend(config, n_pages=64)
        bt = _ragged_batch(backend, [9 * nr + 1, 9 * nr + 5], rng)
        store, seqs = bt.store, bt.seqs
        handed_out, bases = [], []
        for _ in range(4):
            kv = store.dequant_group(seqs)
            for g, h in enumerate(seqs):
                for warm, cold in zip(kv, _cold(store, h)):
                    np.testing.assert_array_equal(warm[g], cold[0])
            for view, before in handed_out:
                np.testing.assert_array_equal(view, before)
            handed_out += [(view, view.copy()) for view in kv]
            bases.append(kv[0].base)
            for h in seqs:  # each to its next flush
                n = nr - h.res_len
                store.reserve(h, n)
                store.write_rows(h, *rng.standard_normal((2, HKV, n, D)).astype(np.float16))
        same = [a is b for a, b in zip(bases, bases[1:])]
        assert any(same) and not all(same)

    def test_free_slot_drops_the_freed_handles_entries(self, rng):
        config = BitDecodingConfig(bits=4, wn=1)
        nr = config.residual_block_size
        backend = PagedBitBackend(config, n_pages=32)
        bt = _ragged_batch(backend, [2 * nr + 3] * 3, rng)
        store, (a, b, c) = bt.store, bt.seqs
        for group in ([a, b], [c], [a]):
            store.dequant_group(group)
        store.free_slot(a)
        assert set(store._memos) == {_key(c)}


# --------------------------------------------------------------- property

_OPS = st.lists(
    st.tuples(
        st.sampled_from(["append", "block", "swap", "fork_flush", "recycle"]),
        st.integers(min_value=0, max_value=2),
    ),
    min_size=1,
    max_size=8,
)


class TestGatherCacheNeverStale:
    @settings(max_examples=25, deadline=None)
    @given(ops=_OPS, seed=st.integers(min_value=0, max_value=2**16))
    def test_group_reads_equal_cold_rebuild_and_reference(self, ops, seed):
        """Random op schedules must never let a memoized group read drift.

        After every mutation, every equal-``n_blocks`` group of live
        sequences is read through the memoized ``dequant_group`` and must
        equal a cold gather of each member's pages bitwise.  Swap, fork
        (CoW) and page recycling are the schedules that recycle ids and
        slots or move content under a memo; the memo rule must catch
        each one.
        """
        rng = np.random.default_rng(seed)
        config = BitDecodingConfig(bits=4, wn=1)
        nr = config.residual_block_size
        backend = PagedBitBackend(config, n_pages=96)
        store = backend.store_for(HKV, D)

        def rows(n):
            return (
                rng.standard_normal((HKV, n, D)).astype(np.float32),
                rng.standard_normal((HKV, n, D)).astype(np.float32),
            )

        seqs = []
        for length in (nr + 3, 2 * nr, nr - 1):
            handle = store.add_sequence()
            store.reserve(handle, length)
            k, v = rows(length)
            store.write_rows(handle, k, v)
            seqs.append(handle)

        def check():
            groups = {}
            for h in seqs:
                groups.setdefault(h.n_blocks, []).append(h)
            for nb, members in groups.items():
                if nb == 0:
                    continue
                warm = store.dequant_group(members)
                for g, h in enumerate(members):
                    k_ref, v_ref = _cold(store, h)
                    np.testing.assert_array_equal(warm[0][g], k_ref[0])
                    np.testing.assert_array_equal(warm[1][g], v_ref[0])

        check()
        for op, idx in ops:
            h = seqs[idx % len(seqs)]
            if op == "append":
                store.reserve(h, 1)
                k, v = rows(1)
                store.append_rows([h], k[None, :, 0], v[None, :, 0])
            elif op == "block":
                n = nr - h.res_len  # exactly to the flush boundary
                store.reserve(h, n)
                store.write_rows(h, *rows(n))
            elif op == "swap":
                n_res = h.res_len
                stash_k = np.array(store.res_k[h.slot][:, :n_res])
                stash_v = np.array(store.res_v[h.slot][:, :n_res])
                seq_id, seq_len = h.seq_id, h.seq_len
                store.free_slot(h)
                seqs[seqs.index(h)] = store.reattach(seq_id, seq_len, stash_k, stash_v)
            elif op == "fork_flush":
                child = fork(store, h)
                fill = nr - child.res_len
                if fill:
                    store.reserve(child, fill)
                    store.write_rows(child, *rows(fill))
                seqs.append(child)
            elif op == "recycle":
                # Free a sequence's pages, then land a fresh sequence in
                # the recycled frames — the classic stale-gather hazard.
                store.release(h)
                seqs.remove(h)
                fresh = store.add_sequence()
                store.reserve(fresh, nr)
                store.write_rows(fresh, *rows(nr))
                seqs.append(fresh)
            check()


class TestRunnerMixedPositions:
    def test_one_forward_over_ragged_positions_matches_per_sequence_decode(self):
        """``ModelRunner.decode_batch`` over sequences at different
        positions, with different ``n_blocks`` and some crossing an N_r
        flush mid-run, must emit the hidden states of per-sequence
        ``decode_batch([lc])`` bit for bit — whichever subset of them
        decodes together."""
        from repro.attn.runner import ModelRunner
        from repro.model.config import TINY
        from repro.pages.allocator import PageAllocator
        from repro.pages.page_table import PageTable
        from repro.serving.request import Request, RequestLifecycle

        config = BitDecodingConfig(bits=4, wn=1)
        nr = config.residual_block_size
        prompts = [nr - 2, nr - 1, 2 * nr + 3, 3 * nr - 1, 5, 5, 2 * nr]
        steps = nr + 3

        def admitted():
            table = PageTable(PageAllocator(64), page_size=nr)
            runner = ModelRunner(TINY, PagedBitBackend(config), table, n_slots=8, seed=4)
            lcs = []
            for i, prompt in enumerate(prompts):
                lc = RequestLifecycle(
                    Request(i, 0.0, prompt, steps),
                    seq_id=table.add_sequence(prompt),
                    prefill_target=prompt,
                )
                runner.on_admit(lc)
                runner.prefill(lc, prompt)
                lcs.append(lc)
            return table, runner, lcs

        grouped, looped = admitted(), admitted()
        rng = np.random.default_rng(9)
        for step in range(steps):
            # Everyone on the first and last step; random churn between.
            live = rng.random(len(prompts)) < 0.7 if 0 < step < steps - 1 else None
            for (table, runner, lcs), batched in ((grouped, True), (looped, False)):
                members = [lc for i, lc in enumerate(lcs) if live is None or live[i]]
                for lc in members:
                    table.append_token(lc.seq_id)
                if batched:
                    runner.decode_batch(members)
                else:
                    for lc in members:
                        runner.decode_batch([lc])
        lengths = {len(s.pages) for s in grouped[0].sequences}
        assert len(lengths) > 2  # members really had different n_blocks
        assert grouped[1].decoded.keys() == looped[1].decoded.keys()
        for req_id, rows in grouped[1].decoded.items():
            expected = looped[1].decoded[req_id]
            assert len(rows) == len(expected)
            for a, b in zip(rows, expected):
                assert a.tobytes() == b.tobytes(), f"request {req_id} diverged"
