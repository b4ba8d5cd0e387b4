"""Continuous-batching serving engine over the paged low-bit KV cache.

The dynamic half of the paper's serving claim: a discrete-event scheduler
that admits Poisson request traffic into a physical page pool, interleaves
prefill with decode, preempts on page exhaustion, and times every step
with the end-to-end latency model.  Lower-bit cache formats earn more
pages from the same device memory, hold more resident sequences, and
sustain higher throughput at lower tail latency — the Figs. 12b/13 chain
of effects, end to end.

With ``prefill_chunk_tokens`` set, the scheduler switches from whole-prompt
admission to Sarathi/vLLM-style chunked prefill: prompts advance one token
quantum per step, batched with resident decode tokens into mixed steps, so
a 32k-token prompt no longer head-of-line blocks every in-flight decode.

With ``EngineConfig(execute=True)`` (CLI: ``serve-sim --execute``) the
engine additionally runs real tokens through TinyTransformer + the paged
low-bit cache each step — the scheduler's pages are the pages the
numerics read; see :mod:`repro.attn`.  :mod:`repro.serving.crosscheck`
(imported explicitly — it sits above :mod:`repro.cluster`) holds the
oracles that tie such executed runs back to the analytical schedule.

Quickstart::

    from repro.gpu.arch import get_arch
    from repro.model.config import LLAMA31_8B
    from repro.serving import compare_formats, paper_serving_stacks, poisson_trace

    trace = poisson_trace(96, rate_rps=32.0, prompt_len=8192, output_len=256)
    arch = get_arch("a100")
    reports = compare_formats(
        LLAMA31_8B, arch, paper_serving_stacks(LLAMA31_8B, arch), trace
    )

Or from the command line: ``python -m repro serve-sim``.
"""

from repro.serving.engine import (
    ContinuousBatchingEngine,
    EngineConfig,
    compare_formats,
)
from repro.serving.formats import paper_serving_stacks
from repro.serving.report import ServingReport
from repro.serving.request import (
    DeadlinePolicy,
    Phase,
    Request,
    RequestLifecycle,
    poisson_trace,
)

__all__ = [
    "ContinuousBatchingEngine",
    "DeadlinePolicy",
    "EngineConfig",
    "Phase",
    "Request",
    "RequestLifecycle",
    "ServingReport",
    "compare_formats",
    "paper_serving_stacks",
    "poisson_trace",
]
