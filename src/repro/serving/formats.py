"""The paper's serving stacks: cache format paired with attention system.

Each entry binds a :class:`~repro.model.memory.CacheFormat` to the
attention system that actually decodes from it, so a simulation differs
between formats exactly where the paper says it should: page-pool
capacity (bytes per cached token) and attention kernel time;
:func:`compare_formats` runs one trace through each stack.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.baselines.flash_decoding import FlashDecodingV2
from repro.core.attention import BitDecoding
from repro.core.config import BitDecodingConfig
from repro.gpu.arch import ArchSpec
from repro.model.config import ModelConfig
from repro.model.inference import AttentionSystem
from repro.model.memory import CacheFormat, fp16_format, int_format
from repro.serving.engine import ContinuousBatchingEngine, EngineConfig
from repro.serving.report import ServingReport
from repro.serving.request import Request


def paper_serving_stacks(
    model: ModelConfig,
    arch: ArchSpec,
    residual_window: int = 64,
) -> List[Tuple[CacheFormat, AttentionSystem]]:
    """FP16 / INT4 / INT2 stacks for the Fig. 13-style comparison.

    The low-bit formats carry an FP16 residual window per sequence
    (Sec. IV-A(2)): the newest tokens stay unquantized until a Tensor-Core
    aligned block fills, and the engine reserves that working set per
    batch slot before sizing the page pool.
    """
    return [
        (fp16_format(), FlashDecodingV2(arch)),
        (
            int_format(4, model, residual_window=residual_window),
            BitDecoding(BitDecodingConfig(bits=4), arch),
        ),
        (
            int_format(2, model, residual_window=residual_window),
            BitDecoding(BitDecodingConfig(bits=2), arch),
        ),
    ]


def compare_formats(
    model: ModelConfig,
    arch: ArchSpec,
    stacks: Sequence[Tuple[CacheFormat, AttentionSystem]],
    requests: Sequence[Request],
    page_size: int = 64,
    max_batch: int = 384,
    n_gpus: int = 1,
    max_steps: Optional[int] = None,
    prefill_chunk_tokens: Optional[int] = None,
    prefix_cache: bool = False,
) -> List[ServingReport]:
    """Run the same trace through several (format, attention) stacks.

    Every stack gets the page pool its format affords within the *same*
    device-memory budget — the lower-bit formats earn more pages, which is
    the whole serving argument of the paper.  ``prefill_chunk_tokens``
    switches every stack to chunked prefill so on/off comparisons stay
    apples-to-apples; ``prefix_cache`` likewise turns prefix caching on
    for every stack.
    """
    reports = []
    for fmt, attention in stacks:
        engine = ContinuousBatchingEngine(
            EngineConfig(
                model=model,
                arch=arch,
                fmt=fmt,
                attention=attention,
                page_size=page_size,
                max_batch=max_batch,
                n_gpus=n_gpus,
                max_steps=max_steps,
                prefill_chunk_tokens=prefill_chunk_tokens,
                prefix_cache=prefix_cache,
            ),
            requests,
        )
        reports.append(engine.run())
    return reports
