"""The per-decoder scheduler step, retained as a slow reference.

Before a step grew its decoders in one page-table pass, it walked the
whole running list for in-flight prefills and then reserved each
decoder's token with its own ``_extend(lc, 1)`` call: one
``PageTable.extend_sequence`` per decoder, evicting the youngest resident
whenever the pool ran dry, and booked a decoder's new page when its old
context filled its last page exactly (``context_len % page_size == 0``).
:class:`PerDecoderEngine` keeps those two loops, so
``tests/serving/test_page_pressure_oracle.py`` can prove the one-pass
step hands out the same page ids and evicts the same requests in the same
order.  It runs analytical, untiered engines only, so the prefill walk
leaves out the swap and runner hooks.  Do not "optimize" this file — its
per-decoder calls are the point.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.serving.engine import ContinuousBatchingEngine
from repro.serving.request import RequestLifecycle


class PerDecoderEngine(ContinuousBatchingEngine):
    """The engine with the per-decoder prefill walk and token growth."""

    def _advance_prefills(self) -> List[Tuple[int, int]]:
        budget = self.config.prefill_chunk_tokens
        chunks: List[Tuple[int, int]] = []
        if budget is None:
            return chunks
        for lc in list(self.running.seqs):
            if budget <= 0:
                break
            if lc.seq_id is None or lc.prefill_done:
                continue
            take = min(budget, lc.prefill_target - lc.prefilled)
            if not self._extend(lc, take):
                continue
            chunks.append((lc.prefilled, take))
            lc.prefilled += take
            if lc.prefill_done:
                self.running.prefilled(lc)
            budget -= take
            self._register_prefix(lc)
        return chunks

    def _grow_decoders(
        self, ready: Sequence[RequestLifecycle]
    ) -> Tuple[List[RequestLifecycle], List[RequestLifecycle]]:
        for lc in ready:
            if lc.seq_id is None:
                continue  # preempted by a prefill extension or an earlier grow
            self._extend(lc, 1)
        decoders = [lc for lc in ready if lc.seq_id is not None]
        page_size = self.config.page_size
        return decoders, [lc for lc in decoders if lc.context_len % page_size == 0]
