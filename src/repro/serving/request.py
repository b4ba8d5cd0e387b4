"""Request model, lifecycle state machine, and traffic traces.

A request is the unit the continuous-batching scheduler reasons about: it
arrives at a point in time, carries a prompt that must be prefilled, and
wants a fixed number of decoded tokens.  Its scheduler-side state
(:class:`RequestLifecycle`) is queued until admission, prefilling while
the prompt is being written into the page pool (whole-prompt admission
jumps through this in one step; chunked prefill walks it a scheduler
quantum at a time), decoding until the last output token, then finished
— with ``rejected`` terminal for requests that could never fit the pool.
Traces are generated with a seeded Poisson process so every simulation
is exactly reproducible.

Deadlines add three more terminal flags: ``shed`` (the deadline-aware
admission gate refused a request it predicted could not finish in time),
``timed_out`` (the deadline passed with the request queued, running or
swapped), and ``failed`` (fault recovery exhausted its heal budget).  How
aggressively the engine sheds is a :class:`DeadlinePolicy`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Deque, Hashable, Iterator, List, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class Request:
    """One serving request: arrival time plus prompt/output lengths.

    ``shared_prefix_len`` marks the leading tokens as a shared system
    prompt: every request with the same ``prefix_group`` has *identical*
    token content there (the runner synthesizes those rows from the group,
    not the request id), which is what the prefix cache deduplicates.

    ``deadline_s`` is the request's completion budget *relative to its
    arrival*: the last output token must be emitted by
    ``arrival_s + deadline_s`` for the request to count toward goodput.
    None means best-effort (always counts).
    """

    req_id: int
    arrival_s: float
    prompt_len: int
    output_len: int
    shared_prefix_len: int = 0
    prefix_group: int = 0
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ValueError("arrival_s must be non-negative")
        if self.prompt_len <= 0 or self.output_len <= 0:
            raise ValueError("prompt_len and output_len must be positive")
        if not 0 <= self.shared_prefix_len <= self.prompt_len:
            raise ValueError("shared_prefix_len must lie in [0, prompt_len]")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or None for best-effort)")

    @property
    def total_len(self) -> int:
        """Context length when the last output token has been decoded."""
        return self.prompt_len + self.output_len


def prefix_block_keys(
    request: Request, page_size: int, start: int, stop: int
) -> Iterator[Hashable]:
    """Content keys of a request's page-aligned blocks ``start .. stop - 1``.

    Requests carry lengths, not token ids, so a block's "content hash" is
    derived from its *token identity*.  A block fully inside the shared
    prefix is ``("prefix", prefix_group, i)`` — identical across every
    request of the group.  Any later block is private:
    ``("req", req_id, group, shared_blocks, i)``, where ``shared_blocks``
    counts the full blocks of the shared prefix and ``group`` is the
    prefix group, or None when no full block is shared.  Equal keys mean
    the entire token prefix up to that block matches, exactly like a
    radix-tree path: a private key names everything that precedes it, so
    no key has to embed the tags of the blocks before it, and every key
    has a constant size.  The tags are plain tuples, not salted
    ``hash()`` values, so they are stable across processes and runs.

    Lazy: a caller that stops at the first cache miss or registers only
    its new blocks builds no other key.
    """
    shared = request.shared_prefix_len // page_size
    group = request.prefix_group if shared else None
    for i in range(start, stop):
        if i < shared:
            yield ("prefix", request.prefix_group, i)
        else:
            yield ("req", request.req_id, group, shared, i)


@dataclass(frozen=True)
class DeadlinePolicy:
    """How the engine treats request deadlines.

    ``default_deadline_s`` applies to requests that carry none (None
    leaves them best-effort).  With ``shed_on_admission`` the FCFS head
    is *shed* — refused before consuming any pages — when the current
    clock plus an optimistic service estimate already overshoots its
    deadline.  Requests whose deadline passes while in the system are
    TIMED_OUT and their resources reclaimed after the step that crossed
    the line.
    """

    default_deadline_s: Optional[float] = None
    shed_on_admission: bool = True

    def __post_init__(self) -> None:
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise ValueError("default_deadline_s must be positive (or None)")


@dataclass(eq=False)
class RequestLifecycle:
    """Mutable scheduler-side state of one request.

    Equality is identity: the scheduler's sets find and remove a lifecycle
    by ``==``, and comparing field tuples cost ~1 µs per element passed.

    ``prefilled`` tracks how many context tokens have been written into
    the page pool toward ``prefill_target`` (set at admission to prompt
    plus any previously generated tokens, so a recompute re-admission
    re-prefills the full context).  Whole-prompt admission sets
    ``prefilled = prefill_target`` immediately; chunked prefill advances
    it one scheduler quantum per step.  Preemption clears ``seq_id`` and
    resets ``prefilled`` — the generated-token count survives, which is
    what makes recovery recompute-style rather than lossy.
    """

    request: Request
    seq_id: Optional[int] = None
    prefilled: int = 0
    prefill_target: int = 0
    generated: int = 0
    #: Leading tokens served from the prefix cache at this admission
    #: (block-aligned; their prefill compute was skipped).
    cached_tokens: int = 0
    #: Leading blocks of the current residency already registered with the
    #: prefix cache (so registration is incremental under chunked prefill).
    registered_blocks: int = 0
    admitted_s: Optional[float] = None
    first_token_s: Optional[float] = None
    last_token_s: Optional[float] = None
    finish_s: Optional[float] = None
    preemptions: int = 0
    rejected: bool = False
    #: Absolute completion deadline (arrival + deadline), resolved by the
    #: engine from the request and the deadline policy; None = best-effort.
    deadline_abs: Optional[float] = None
    shed: bool = False
    timed_out: bool = False
    failed: bool = False
    #: Recompute-style replays forced by lost/corrupt pages (distinct from
    #: capacity preemptions).
    heals: int = 0

    @property
    def context_len(self) -> int:
        """Tokens the KV cache must hold before the next decode step."""
        return self.request.prompt_len + self.generated

    @property
    def prefill_done(self) -> bool:
        """True once the resident context is fully written (decode-ready)."""
        return self.seq_id is not None and self.prefilled >= self.prefill_target

    @property
    def finished(self) -> bool:
        return self.finish_s is not None

    @property
    def met_deadline(self) -> bool:
        """Finished in time (best-effort requests always qualify)."""
        if not self.finished:
            return False
        return self.deadline_abs is None or self.finish_s <= self.deadline_abs


class RunningSet:
    """An engine's running sequences in admission order, with three books.

    ``seqs`` is the list the scheduler reads (iteration, ``len``, the
    youngest at ``[-1]``); ``parked`` holds, FCFS, the sequences a swap
    took off the device, still resident (empty untiered; the swap owner
    resumes one by popping it and calling :meth:`join`).  Every other
    change of membership goes through :meth:`join`, :meth:`leave` and
    :meth:`drop_parked`, a finished prefill through :meth:`prefilled` and
    a step's generated tokens through :meth:`advance`, so

    - ``committed_pages`` always equals
      ``sum(pages_for(lc.context_len) for lc in seqs)``, the budget
      chunked admission gates on,
    - ``ready`` always equals ``[lc for lc in seqs if lc.prefill_done]``,
      the decode order a step prices its groups in, and
    - ``prefilling`` always equals the rest of ``seqs``, in running
      order: the in-flight prefills a step spends its chunk budget on.

    The seq ids of ``seqs`` and ``parked`` are the sequences the page
    table must hold live; membership changes book them in the table
    (:meth:`PageTable.hold <repro.pages.page_table.PageTable.hold>`), which
    counts the ids the two sides disagree on.  Each book costs O(1) per
    step instead of a walk over the running set.  The recount
    (:meth:`check`) runs in :class:`~repro.faults.audit.InvariantAuditor`
    and once at ``finish()``.
    """

    def __init__(self, table):
        self.seqs: List[RequestLifecycle] = []
        self.ready: List[RequestLifecycle] = []
        self.prefilling: List[RequestLifecycle] = []
        self.parked: Deque[RequestLifecycle] = deque()
        self.committed_pages = 0
        self._table = table

    def join(self, lc: RequestLifecycle) -> None:
        """Add ``lc`` (mapped in the page table), fresh or popped from
        ``parked``."""
        self.seqs.append(lc)
        (self.ready if lc.prefill_done else self.prefilling).append(lc)
        self.committed_pages += self._table.pages_for(lc.context_len)
        self._table.hold(lc.seq_id)

    def leave(self, lc: RequestLifecycle, parked: bool = False) -> None:
        """Take ``lc`` out, while it is still mapped; with ``parked`` it
        joins ``parked`` and stays resident.  Raises ``ValueError`` (books
        untouched) when it is not running."""
        self.seqs.remove(lc)
        (self.ready if lc.prefill_done else self.prefilling).remove(lc)
        self.committed_pages -= self._table.pages_for(lc.context_len)
        if parked:
            self.parked.append(lc)
        else:
            self._table.unhold(lc.seq_id)

    def drop_parked(self, lc: RequestLifecycle) -> None:
        """Take parked ``lc`` out of the residents, while it is still
        mapped; raises ``ValueError`` (books untouched) when it is not
        parked."""
        self.parked.remove(lc)
        self._table.unhold(lc.seq_id)

    def prefilled(self, lc: RequestLifecycle) -> None:
        """``lc`` (running) just finished its prefill: it moves from
        ``prefilling`` to ``ready``, at its place in running order.  The two
        books split ``seqs`` in order, so the running sequences before
        ``lc`` that are not prefilling are the ready ones it goes after."""
        before = self.prefilling.index(lc)
        del self.prefilling[before]
        self.ready.insert(self.seqs.index(lc) - before, lc)

    def advance(self, decoders: Sequence[RequestLifecycle], crossed: int) -> None:
        """Each of ``decoders`` (running) gains one generated token;
        ``crossed`` of them had filled their last page exactly, so the
        commitment grows by that many pages."""
        for lc in decoders:
            lc.generated += 1
        self.committed_pages += crossed

    def check(self) -> Optional[str]:
        """What the recount finds wrong with the books, or None."""
        recount = sum(self._table.pages_for(lc.context_len) for lc in self.seqs)
        if recount != self.committed_pages:
            return (
                f"committed-pages book says {self.committed_pages}, the running set "
                f"recounts {recount}"
            )
        for name, book, recount in (
            ("decode-ready", self.ready, [lc for lc in self.seqs if lc.prefill_done]),
            ("prefilling", self.prefilling, [lc for lc in self.seqs if not lc.prefill_done]),
        ):
            if book != recount:
                return (
                    f"{name} book holds requests {[lc.request.req_id for lc in book]}, "
                    f"the running set filters to {[lc.request.req_id for lc in recount]}"
                )
        residents = {lc.seq_id for lc in chain(self.seqs, self.parked)}
        if residents != self._table.held_ids:
            return (
                f"resident-id book holds sequences {sorted(self._table.held_ids)}, the "
                f"running and parked sets hold {sorted(residents)}"
            )
        return None


def _jittered(rng: np.random.Generator, base: int, jitter: float) -> int:
    if jitter <= 0:
        return base
    return max(1, int(round(base * rng.uniform(1.0 - jitter, 1.0 + jitter))))


def poisson_trace(
    n_requests: int,
    rate_rps: float,
    prompt_len: int,
    output_len: int,
    seed: int = 0,
    prompt_jitter: float = 0.0,
    output_jitter: float = 0.0,
    shared_prefix_fraction: float = 0.0,
    prefix_groups: int = 1,
    deadline_s: Optional[float] = None,
) -> List[Request]:
    """Build a deterministic Poisson arrival trace.

    Inter-arrival gaps are exponential with mean ``1 / rate_rps``; prompt
    and output lengths are drawn uniformly within ``+-jitter`` (a fraction
    in ``[0, 1)``) of their base values (0 keeps them fixed).  The same
    seed always yields the same trace, which is what makes the engine
    tests and the FP16 vs INT4/INT2 comparisons apples-to-apples.

    ``shared_prefix_fraction`` models shared system prompts: that fraction
    of the *base* prompt length is a prefix whose token content is shared
    by every request assigned the same group (requests round-robin over
    ``prefix_groups`` groups).  The prefix length is fixed per trace — not
    jittered — so group members really do share it; jittered prompts are
    clamped to leave at least one private token after the prefix.

    ``deadline_s`` stamps every request with the same relative completion
    deadline (None leaves the trace best-effort).
    """
    if n_requests <= 0:
        raise ValueError("n_requests must be positive")
    if rate_rps <= 0:
        raise ValueError("rate_rps must be positive")
    for name, fraction in (
        ("prompt_jitter", prompt_jitter),
        ("output_jitter", output_jitter),
        ("shared_prefix_fraction", shared_prefix_fraction),
    ):
        if not 0.0 <= fraction < 1.0:
            raise ValueError(f"{name} must lie in [0, 1), got {fraction}")
    if prefix_groups <= 0:
        raise ValueError("prefix_groups must be positive")
    shared_len = int(prompt_len * shared_prefix_fraction)
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate_rps, n_requests)
    arrivals = np.cumsum(gaps)
    arrivals -= arrivals[0]  # first request lands at t=0
    return [
        Request(
            req_id=i,
            arrival_s=float(arrivals[i]),
            prompt_len=max(shared_len + 1, _jittered(rng, prompt_len, prompt_jitter)),
            output_len=_jittered(rng, output_len, output_jitter),
            shared_prefix_len=shared_len,
            prefix_group=i % prefix_groups,
            deadline_s=deadline_s,
        )
        for i in range(n_requests)
    ]
