"""Outside-in span tracer: per-layer host time without touching ``src/``.

The benchmark measures layers *from outside*: for the traced run only,
the public functions in :data:`SEAMS` are monkeypatched with a wrapper
that records one span per call — name, layer, start, end, the span that
caused it, and the scheduler step it happened in.  Spans stay in memory
(plain lists) and are written out once, when the run ends.  Every patch
is undone when :meth:`Tracer.installed` exits, including on exception.

A span's **self time** is its duration minus the part its child spans
cover; summed per layer it says where the timed region's wall time went.
Layer names are ``src/repro`` package names, and double as the prefix of
the per-layer metric names in ``BENCHMARK.json``.

A name is patched where it is *looked up*: ``run_numeric`` is imported
into ``repro.core.attention``, so that module's binding is the seam, not
``repro.core.packing_kernel``'s.  Methods are patched on the class that
defines them; a seam that moved makes :meth:`Tracer.installed` raise, so
a later PR cannot silently lose a layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

# Span fields, by position.
NAME, LAYER, START, END, PARENT, STEP, COUNT = range(7)
SPAN_FIELDS = ("name", "layer", "start", "end", "parent", "step", "count")


@dataclass(frozen=True)
class Seam:
    """One public function the traced run wraps.

    ``target`` is ``"module:function"`` or ``"module:Class.method"``.
    ``count`` maps the call's arguments to a number stored on the span
    (work done, measured where it happens).  ``keep_args`` keeps the
    call's arguments for later re-pricing.  ``step`` advances the
    tracer's step index when the span closes: ``"always"``, or
    ``"toplevel"`` only when nothing is on the span stack.
    """

    layer: str
    target: str
    count: Optional[Callable[..., float]] = None
    keep_args: bool = False
    step: Optional[str] = None


def _pool_share(table, *_args, **_kwargs) -> float:
    allocator = table.allocator
    return allocator.used_pages / allocator.n_pages


def _blocks(batch, *_args, **_kwargs) -> float:
    return batch.batch * batch.n_blocks


def _tokens(_model, x, *_args, **_kwargs) -> float:
    return len(x)


def _seams(layer: str, owner: str, names: str, **kwargs) -> List[Seam]:
    return [Seam(layer, f"{owner}{name}", **kwargs) for name in names.split()]


_ENGINE = "repro.serving.engine:ContinuousBatchingEngine."
_BACKEND = "repro.attn.protocol:AttentionBackend."
_PAGED_BACKEND = "repro.attn.paged:PagedBitBackend."
_PAGED_CACHE = "repro.attn.paged:PagedBitKVCache."
_TABLE = "repro.pages.page_table:PageTable."

SEAMS: Tuple[Seam, ...] = (
    *_seams("serving.sched", _ENGINE, "run advance_until submit finish"),
    *_seams("cluster.router", "repro.cluster.router:Router.", "run dispatch"),
    *_seams(
        "model.pricing",
        _BACKEND,
        "decode_step_ms mixed_step_ms",
        keep_args=True,
        step="always",
    ),
    Seam("model.pricing", _BACKEND + "prefill_time_ms"),
    Seam("core.model_launch", "repro.core.attention:BitDecoding.decode_time_ms"),
    Seam("gpu.simulate_kernel", "repro.core.attention:simulate_kernel"),
    Seam("model.transformer", "repro.model.transformer:TinyTransformer.prefill_chunk"),
    Seam("model.transformer", "repro.model.transformer:TinyTransformer.decode_step", count=_tokens),
    *_seams(
        "attn.runner",
        "repro.attn.runner:ModelRunner.",
        "on_admit prefill decode_batch on_preempt on_swap_out on_swap_in on_finish",
    ),
    Seam("attn.paged.decode", _PAGED_BACKEND + "decode_step"),
    *_seams(
        "attn.paged.decode", _PAGED_CACHE, "group_view dequant_group residual_group dequant_seq"
    ),
    *_seams("attn.paged.write", _PAGED_BACKEND, "prefill append_kv"),
    *_seams("attn.paged.write", _PAGED_CACHE, "write_rows append_rows write_rows_group copy_pages"),
    Seam("attn.reference.prefill_attn", "repro.attn.paged:chunked_causal_attention"),
    *_seams(
        "attn.tier_frames",
        _PAGED_CACHE,
        "copy_frame exchange_frames frame_checksum corrupt_frame",
    ),
    Seam("core.run_numeric", "repro.core.attention:run_numeric"),
    *_seams("core.residual", "repro.core.attention:", "attend_residual attend_residual_grouped"),
    Seam("core.decode", "repro.core.attention:BitDecoding.decode", step="toplevel"),
    Seam("core.dequant", "repro.core.residual_kernel:PackedBlockBatch.dequant_kv", count=_blocks),
    Seam("core.flush_blocks", "repro.core.attention:flush_blocks"),
    Seam("core.flush_blocks", "repro.attn.paged:flush_blocks"),
    Seam("core.cache_write", "repro.core.attention:BitDecoding.prefill"),
    Seam("core.cache_write", "repro.core.attention:BitKVCache.append_token"),
    *_seams("pages.table", _TABLE, "add_sequence extend_sequence", count=_pool_share),
    *_seams("pages.table", _TABLE, "append_token ensure_exclusive fork_sequence release_sequence"),
    *_seams(
        "pages.table", "repro.pages.allocator:PageAllocator.", "allocate_many release_many"
    ),
    *_seams("pages.prefix", "repro.pages.prefix_cache:PrefixCache.", "match insert"),
    *_seams(
        "pages.tiers",
        "repro.pages.tiers:TieredPageStore.",
        "start_step ensure_resident fault_in demote drain_bad_pages",
    ),
    Seam("faults.audit", "repro.faults.audit:InvariantAuditor.audit"),
    Seam("faults.audit", "repro.faults.plan:FaultPlan.transfer"),
)


def _resolve(target: str) -> Tuple[object, str]:
    """``(owner, attribute)`` of a seam; the owner's own dict must hold it."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise LookupError(f"seam {target} is not defined on {owner!r}; did it move?")
    return owner, attr


class Tracer:
    """Records spans around the seams while installed and recording.

    While recording, span fields go into flat per-field lists of numbers
    (no per-span container), so tracing adds no garbage-collector work to
    the program it measures; :attr:`spans` assembles them afterwards.
    """

    def __init__(self, seams: Tuple[Seam, ...] = SEAMS):
        self.seams = seams
        #: ``(span name, args, kwargs)`` of every ``keep_args`` call.
        self.kept: List[Tuple[str, tuple, dict]] = []
        self.step = 0
        self.recording = False
        self._stack: List[int] = []
        self._seam: List[int] = []
        self._start: List[float] = []
        self._end: List[float] = []
        self._parent: List[int] = []
        self._step: List[int] = []
        self._count: Dict[int, float] = {}

    @property
    def spans(self) -> List[list]:
        """One ``[name, layer, start, end, parent, step, count]`` per call."""
        names = [seam.target.partition(":")[2] for seam in self.seams]
        return [
            [names[s], self.seams[s].layer, t0, t1, parent, step, self._count.get(i, 0.0)]
            for i, (s, t0, t1, parent, step) in enumerate(
                zip(self._seam, self._start, self._end, self._parent, self._step)
            )
        ]

    def reset(self) -> None:
        # Cleared in place: the installed wrappers hold these very objects.
        fields = (self.kept, self._stack, self._seam, self._start, self._end)
        for field in (*fields, self._parent, self._step, self._count):
            field.clear()
        self.step = 0

    def _wrap(self, fn: Callable, seam_id: int) -> Callable:
        seam = self.seams[seam_id]
        name = seam.target.partition(":")[2]
        count, keep_args, step = seam.count, seam.keep_args, seam.step
        plain = count is None and not keep_args and step is None
        clock = time.perf_counter
        stack, ends = self._stack, self._end
        add_seam, add_start, add_end = self._seam.append, self._start.append, ends.append
        add_parent, add_step = self._parent.append, self._step.append

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(ends)
            add_seam(seam_id)
            add_parent(stack[-1] if stack else -1)
            add_step(self.step)
            add_end(0.0)
            stack.append(index)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if plain:
                return result
            if count is not None:
                self._count[index] = count(*args, **kwargs)
            if keep_args:
                self.kept.append((name, args, kwargs))
            if step == "always" or (step == "toplevel" and not stack):
                self.step += 1
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every seam; restore every original on exit, even on error."""
        originals: List[Tuple[object, str, object]] = []
        try:
            for seam_id, seam in enumerate(self.seams):
                owner, attr = _resolve(seam.target)
                original = vars(owner)[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, seam_id))
            yield self
        finally:
            self.recording = False
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def record(self) -> Iterator[None]:
        """Spans are kept only inside this block (the timed region)."""
        self.reset()
        self.recording = True
        try:
            yield
        finally:
            self.recording = False


def self_times(spans: List[list]) -> Dict[str, float]:
    """Seconds of self time per layer: duration minus child durations."""
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        duration = span[END] - span[START]
        totals[span[LAYER]] += duration
        if span[PARENT] >= 0:
            totals[spans[span[PARENT]][LAYER]] -= duration
    return dict(totals)


def span_records(spans: List[list], origin: float, **extra) -> Iterator[dict]:
    """JSON-ready span dicts with times relative to ``origin`` (seconds)."""
    for span in spans:
        record = dict(zip(SPAN_FIELDS, span))
        record["start"] = span[START] - origin
        record["end"] = span[END] - origin
        record.update(extra)
        yield record
