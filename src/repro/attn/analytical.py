"""The analytical backend: the cost model as just another implementation.

Before the protocol existed, the serving engine called the latency
functions in :mod:`repro.model.inference` directly and could never run a
real token.  Demoting that cost model to one ``AttentionBackend`` among
three makes the engine's contract explicit: every backend prices steps;
numeric backends additionally execute them.  This one prices steps for
*any* duck-typed attention system (BitDecoding, FlashDecoding, KIVI,
QServe, ...) and raises loudly if asked for tokens.
"""

from __future__ import annotations

from typing import NoReturn, Optional, Tuple

import numpy as np

from repro.attn.protocol import AttentionBackend, KVCacheHandle


class AnalyticalBackend(AttentionBackend):
    """Step pricing over an :class:`~repro.model.inference.AttentionSystem`."""

    def __init__(self, attention):
        if not hasattr(attention, "decode_time_ms"):
            raise TypeError(
                "AnalyticalBackend needs an attention system exposing "
                "decode_time_ms(geom)"
            )
        self._attention = attention

    @property
    def attention_system(self):
        return self._attention

    def _no_tokens(self) -> NoReturn:
        raise NotImplementedError(
            "the analytical backend prices scheduler steps; it does not "
            "execute tokens — use the paged-bit or contiguous-bit backend"
        )

    def new_handle(self, batch: int, hkv: int, head_dim: int) -> KVCacheHandle:
        self._no_tokens()

    def prefill(
        self,
        q: Optional[np.ndarray],
        kv: Tuple[np.ndarray, np.ndarray],
        block_table: KVCacheHandle,
    ) -> Optional[np.ndarray]:
        self._no_tokens()

    def append_kv(self, kv: Tuple[np.ndarray, np.ndarray], block_table: KVCacheHandle) -> None:
        self._no_tokens()

    def decode_step(self, q: np.ndarray, block_table: KVCacheHandle) -> np.ndarray:
        self._no_tokens()
