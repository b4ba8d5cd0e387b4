"""Tiered physical page store: device pages backed by host (and disk) tiers.

The allocator's page-id space stays *logical* — block tables, the prefix
cache and the serving scheduler keep naming pages by id exactly as in a
single-tier pool.  This module adds the physical dimension: every page id
is bound to a **frame**, an index into the pool arrays the numerics
actually read, and frames are partitioned into a ``device`` range of
fixed capacity, a larger ``host`` range, and an analytically modeled
``disk`` range.  Migration moves page *contents* between frames (a
bijection is maintained: one page per frame, one frame per page), so a
page can be demoted to host and promoted back **bit-exactly** — the
contract the swap-preemption parity suite pins down.

Every migration is priced by :func:`~repro.model.memory.transfer_ms`
(PCIe for device <-> host, NVMe for host <-> disk, at the bandwidth and
latency constants beside it) and lands in one of two per-step buckets:

- ``prefetch`` — transfers the scheduler issued ahead of the compute
  that needs them (the next sequence's pages fetched during the current
  sequence's decode tile walk).  The engine overlaps this bucket with
  the step's compute: only ``max(0, prefetch - compute)`` surfaces as
  extra step time.
- ``fault`` — the measured fallback: a page accessed while non-resident
  is fetched synchronously, and the full transfer time is recorded as
  stall.

Physical content lives in observers (each per-layer
:class:`~repro.attn.paged.PagedBitKVCache` registers one): the store
tells them to ``copy_frame``/``exchange_frames`` and they move the packed
words and quantization metadata of every layer.  With no observers the
store is purely analytical — the same scheduling and pricing, no bytes.

The store is also an :class:`~repro.pages.allocator.EvictionPolicy`
observer on the allocator, which is how it learns that a page's content
died (released to the free list or evicted from the parked pool): dead
pages become *garbage* frames, the free lunch of victim selection — a
promotion may overwrite a garbage frame without paying to save its
contents.

**Faults and integrity.**  Construct the store with a
:class:`~repro.faults.plan.FaultPlan` and every priced leg consults it:
transient failures charge retry-with-backoff time straight into the
fault (stall) bucket, latency spikes multiply the leg, permanent
failures mark the page *lost*, and corruption events taint the payload
in flight (observers get :meth:`TierObserver.corrupt_frame` so executed
runs damage real bytes).  Under a plan, a live page leaving the device
tier also records a checksum (:meth:`TierObserver.frame_checksum`
combined across observers) that is verified when the content next lands
on device; mismatches — and, in analytical runs with no bytes to hash,
plan-tainted pages — are marked *corrupt*.  Lost and corrupt pages queue
in a bad-page ledger the engine drains (:meth:`drain_bad_pages`) to heal
the affected sequences before any numerics read them.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.model.memory import transfer_ms
from repro.pages.allocator import EvictionPolicy, PageAllocator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (faults -> pages)
    from repro.faults.plan import FaultPlan


class TierObserver:
    """Physical backing store hook: moves page content between frames."""

    def copy_frame(self, src: int, dst: int) -> None:
        """Overwrite frame ``dst`` with frame ``src``'s content."""
        raise NotImplementedError

    def exchange_frames(self, a: int, b: int) -> None:
        """Swap the contents of two frames (both survive, bit-exactly)."""
        raise NotImplementedError

    def frame_checksum(self, frame: int) -> int:
        """Checksum of frame ``frame``'s content (uint32 range)."""
        raise NotImplementedError

    def corrupt_frame(self, frame: int, salt: int) -> None:
        """Deterministically damage frame ``frame``'s content (never a no-op)."""
        raise NotImplementedError


class TieredPageStore(EvictionPolicy):
    """Page-id -> frame bijection over device / host / disk frame ranges.

    ``page_nbytes`` is the physical size of one page across every layer
    (the same accounting :func:`repro.model.memory.page_bytes` gives the
    serving engine), so migration pricing and the byte counters agree
    with the rest of the memory model.
    """

    def __init__(
        self,
        allocator: PageAllocator,
        device_pages: int,
        host_pages: int,
        disk_pages: int = 0,
        page_nbytes: float = 0.0,
        faults: Optional["FaultPlan"] = None,
    ):
        if device_pages <= 0 or host_pages < 0 or disk_pages < 0:
            raise ValueError("device_pages must be positive; host/disk non-negative")
        total = device_pages + host_pages + disk_pages
        if allocator.n_pages != total:
            raise ValueError(
                f"allocator pool ({allocator.n_pages} pages) must equal the "
                f"tier total ({device_pages} device + {host_pages} host + "
                f"{disk_pages} disk = {total})"
            )
        self.allocator = allocator
        self.device_pages = device_pages
        self.host_pages = host_pages
        self.disk_pages = disk_pages
        self.n_pages = total
        self.page_nbytes = float(page_nbytes)
        # Identity bijection at birth: page i occupies frame i.
        self._frame_of: List[int] = list(range(total))
        self._page_at: List[int] = list(range(total))
        self._observers: List[TierObserver] = []
        # Device-resident pages in recency order (oldest first).
        self._lru: "OrderedDict[int, None]" = OrderedDict()
        self._pins: set = set()
        self._step_prefetch_ms = 0.0
        self._step_fault_ms = 0.0
        # Cumulative traffic/stall counters the serving report surfaces.
        self.h2d_bytes = 0
        self.d2h_bytes = 0
        self.disk_bytes = 0
        self.faults = 0
        self.prefetched_pages = 0
        self.demoted_pages = 0
        self.fault_ms_total = 0.0
        self.prefetch_ms_total = 0.0
        # Fault injection + integrity state (all dormant when plan is None
        # — the clean path pays only None checks).
        self.fault_plan = faults
        self._checksums: Dict[int, int] = {}  # page -> digest when its content left device
        self._tainted: set = set()  # pages the plan corrupted in flight
        self._bad_pages: Dict[int, str] = {}  # page -> "lost" | "corrupt"
        self.transfer_retries = 0
        self.retry_backoff_ms_total = 0.0
        self.retry_stall_ms_total = 0.0
        self.lost_pages = 0
        self.injected_corruptions = 0
        self.checksum_failures = 0
        self.spiked_transfers = 0
        allocator.register(self)

    # ------------------------------------------------------------- geometry

    def add_observer(self, observer: TierObserver) -> None:
        self._observers.append(observer)

    def tier_of(self, page: int) -> str:
        return self._tier_of_frame(self._frame_of[page])

    def _tier_of_frame(self, frame: int) -> str:
        if frame < self.device_pages:
            return "device"
        if frame < self.device_pages + self.host_pages:
            return "host"
        return "disk"

    def frame_of(self, page: int) -> int:
        return self._frame_of[page]

    def frames_of(self, pages: Sequence[int]) -> np.ndarray:
        frame_of = self._frame_of
        return np.asarray([frame_of[p] for p in pages], dtype=np.intp)

    def resident(self, page: int) -> bool:
        return self._frame_of[page] < self.device_pages

    @property
    def resident_live_pages(self) -> int:
        """Device frames holding content that must survive (ref'd or parked)."""
        alloc = self.allocator
        return sum(
            1
            for frame in range(self.device_pages)
            if alloc.refcount(self._page_at[frame]) > 0
            or alloc.is_cached(self._page_at[frame])
        )

    # ------------------------------------------------------------ step state

    def start_step(self) -> None:
        """Reset the per-step transfer buckets and prefetch pins."""
        self._step_prefetch_ms = 0.0
        self._step_fault_ms = 0.0
        self.unpin_all()

    @property
    def step_prefetch_ms(self) -> float:
        """Transfer time issued ahead of compute this step (overlappable)."""
        return self._step_prefetch_ms

    @property
    def step_fault_ms(self) -> float:
        """Synchronous fault time this step (pure stall)."""
        return self._step_fault_ms

    def pin(self, pages: Iterable[int]) -> None:
        """Protect pages from victim selection until the step ends."""
        self._pins.update(pages)

    def unpin_all(self) -> None:
        """End a read phase inside a step: what it pinned may be victimized."""
        self._pins.clear()

    # ------------------------------------------------------------- migration

    def _garbage(self, page: int) -> bool:
        """Dead content: unreferenced and not parked for any policy."""
        return self.allocator.refcount(page) == 0 and not self.allocator.is_cached(page)

    def _leg(self, page: int, src_tier: str, dst_tier: str, live: bool) -> Tuple[float, bool]:
        """Price one leg transfer of ``page``'s content under the fault plan.

        Returns ``(ms, corrupt)``: the overlappable milliseconds of the
        successful attempt (zero when the content is lost) and whether the
        payload was corrupted in flight.  Retry attempts and backoff are
        booked directly as synchronous stall — a failed DMA always blocks
        the step, even when the transfer itself was issued as prefetch.
        """
        base = transfer_ms(self.page_nbytes, src_tier, dst_tier)
        plan = self.fault_plan
        if plan is None:
            self._account_bytes(src_tier, dst_tier)
            return base, False
        out = plan.transfer()
        if out.failures:
            stall = 0.0
            for attempt in range(out.failures):
                backoff = plan.backoff_ms(attempt)
                self.retry_backoff_ms_total += backoff
                stall += base + backoff
            self.transfer_retries += out.failures
            self.retry_stall_ms_total += stall
            self._step_fault_ms += stall
            self.fault_ms_total += stall
        if out.lost:
            self.lost_pages += 1
            if live:
                self._mark_bad(page, "lost")
            return 0.0, False
        if out.spike != 1.0:
            self.spiked_transfers += 1
        self._account_bytes(src_tier, dst_tier)
        if out.corrupt and live:
            self.injected_corruptions += 1
            self._tainted.add(page)
            return base * out.spike, True
        return base * out.spike, False

    def _move(self, page: int, target_frame: int) -> float:
        """Bind ``page`` to ``target_frame``, displacing its current holder.

        Returns the priced transfer milliseconds: the page's own leg plus,
        when the displaced page's content is still live, the leg saving it
        into the vacated frame.  Garbage holders are simply overwritten.

        Under a fault plan each leg may retry, spike, lose its payload, or
        corrupt it; the bijection always completes (the engine heals lost
        and corrupt pages before anything reads them).  Live content
        leaving the device tier records a checksum, and content arriving on
        device is verified against it.
        """
        src_frame = self._frame_of[page]
        if src_frame == target_frame:
            return 0.0
        displaced = self._page_at[target_frame]
        src_tier = self._tier_of_frame(src_frame)
        dst_tier = self._tier_of_frame(target_frame)
        displaced_garbage = self._garbage(displaced)
        page_live = not self._garbage(page)
        if self.fault_plan is not None:
            if page_live and src_tier == "device":
                self._record_checksum(page, src_frame)
            if not displaced_garbage and dst_tier == "device":
                self._record_checksum(displaced, target_frame)
        ms, page_corrupt = self._leg(page, src_tier, dst_tier, page_live)
        displaced_corrupt = False
        if displaced_garbage:
            for obs in self._observers:
                obs.copy_frame(src_frame, target_frame)
        else:
            leg_ms, displaced_corrupt = self._leg(displaced, dst_tier, src_tier, True)
            ms += leg_ms
            for obs in self._observers:
                obs.exchange_frames(src_frame, target_frame)
        self._frame_of[page], self._frame_of[displaced] = target_frame, src_frame
        self._page_at[target_frame], self._page_at[src_frame] = page, displaced
        if self._frame_of[displaced] >= self.device_pages:
            self._lru.pop(displaced, None)
        if page_corrupt:
            self._apply_corruption(page)
        if displaced_corrupt:
            self._apply_corruption(displaced)
        if self.fault_plan is not None:
            if dst_tier == "device" and page_live:
                self._verify_on_device(page)
            if src_tier == "device" and not displaced_garbage:
                self._verify_on_device(displaced)
        return ms

    # ------------------------------------------------------ integrity/faults

    def _mark_bad(self, page: int, kind: str) -> None:
        self._bad_pages.setdefault(page, kind)

    def _combined_checksum(self, frame: int) -> int:
        digest = 0
        for i, obs in enumerate(self._observers):
            digest ^= (obs.frame_checksum(frame) + 0x9E3779B9 * (i + 1)) & 0xFFFFFFFF
        return digest

    def _record_checksum(self, page: int, frame: int) -> None:
        """Snapshot a live page's digest as its content leaves device."""
        if self._observers:
            self._checksums[page] = self._combined_checksum(frame)

    def _apply_corruption(self, page: int) -> None:
        """Physically damage a plan-corrupted page (executed runs only)."""
        frame = self._frame_of[page]
        salt = (page * 0x9E3779B1 + self.injected_corruptions) & 0xFFFFFFFF
        for obs in self._observers:
            obs.corrupt_frame(frame, salt)

    def _verify_on_device(self, page: int) -> None:
        """Check content that just landed on device against its exit digest.

        Detection is taint-driven (identical in analytical and executed
        runs: both plans drew the same corruption events) and additionally
        byte-driven when observers exist — a frame damaged outside the
        plan is caught by the digest alone.
        """
        expected = self._checksums.pop(page, None)
        corrupt = page in self._tainted
        self._tainted.discard(page)
        if expected is not None and self._observers:
            if self._combined_checksum(self._frame_of[page]) != expected:
                corrupt = True
        if corrupt:
            self.checksum_failures += 1
            self._mark_bad(page, "corrupt")

    @property
    def has_bad_pages(self) -> bool:
        return bool(self._bad_pages)

    def drain_bad_pages(self) -> Dict[int, str]:
        """Hand the lost/corrupt ledger to the engine for healing."""
        bad, self._bad_pages = self._bad_pages, {}
        return bad

    def _account_bytes(self, src: str, dst: str) -> None:
        nbytes = int(self.page_nbytes)
        if (src, dst) == ("host", "device") or (src, dst) == ("disk", "device"):
            self.h2d_bytes += nbytes
        elif (src, dst) == ("device", "host") or (src, dst) == ("device", "disk"):
            self.d2h_bytes += nbytes
        if "disk" in (src, dst):
            self.disk_bytes += nbytes

    def _pick_device_victim(self) -> int:
        """Device frame a promotion may take over, cheapest claim first:
        garbage content, then parked (prefix-cache) pages, then the
        least-recently-used unpinned live page, then — pressure beyond the
        scheduler's working-set guarantees — the LRU pinned page."""
        parked = None
        for frame in range(self.device_pages):
            page = self._page_at[frame]
            if self._garbage(page):
                return frame
            if parked is None and self.allocator.is_cached(page) and page not in self._pins:
                parked = frame
        if parked is not None:
            return parked
        for page in self._lru:
            if page not in self._pins and self.resident(page):
                return self._frame_of[page]
        for frame in range(self.device_pages):
            if self._page_at[frame] not in self._pins:
                return frame
        for page in self._lru:
            if self.resident(page):
                return self._frame_of[page]
        return self.device_pages - 1  # everything pinned: take the last frame

    def _pick_eviction_frame(self, exclude: frozenset = frozenset()) -> int:
        """Non-device frame a demotion may take over: garbage first (host
        before disk, mirroring the transfer cost order), then parked, then
        any live holder (which rides the exchange back to device).
        ``exclude`` keeps a batch demotion from re-promoting pages it
        itself just moved out."""
        start, total = self.device_pages, self.n_pages
        parked = None
        live = None
        any_frame = None
        for frame in range(start, total):
            page = self._page_at[frame]
            if any_frame is None:
                any_frame = frame
            if page in exclude:
                continue
            if self._garbage(page):
                return frame
            if parked is None and self.allocator.is_cached(page):
                parked = frame
            if live is None:
                live = frame
        if parked is not None:
            return parked
        if live is not None:
            return live
        if any_frame is not None:
            return any_frame
        raise RuntimeError("tiered store has no host/disk frames to demote into")

    def touch(self, pages: Sequence[int]) -> None:
        """Record device-resident pages as just-used (LRU maintenance)."""
        for page in pages:
            if self.resident(page):
                self._lru[page] = None
                self._lru.move_to_end(page)

    def ensure_resident(self, pages: Sequence[int], prefetch: bool = False) -> float:
        """Promote every non-resident page; returns the priced milliseconds.

        ``prefetch=True`` books the transfers as issued ahead of compute
        (the engine overlaps them with the step's kernel time);
        ``prefetch=False`` is the synchronous fault fallback and books
        pure stall.  Either way the pages end up pinned for the step so a
        later promotion in the same step cannot victimize them.
        """
        self.pin(pages)
        ms = 0.0
        n_moved = 0
        for page in pages:
            if self.resident(page):
                continue
            ms += self._move(page, self._pick_device_victim())
            n_moved += 1
        self.touch(pages)
        if n_moved:
            self._book_promotions(ms, n_moved, prefetch)
        return ms

    def _book_promotions(self, ms: float, n_moved: int, prefetch: bool) -> None:
        """Book promotions as prefetch issued ahead of compute, or as
        synchronous fault stall."""
        if prefetch:
            self._step_prefetch_ms += ms
            self.prefetch_ms_total += ms
            self.prefetched_pages += n_moved
        else:
            self._step_fault_ms += ms
            self.fault_ms_total += ms
            self.faults += n_moved

    def absorb_prefetch(self, ms: float) -> None:
        """Mark ``ms`` of this step's prefetch bucket as already overlapped
        by compute the engine charged out-of-band (a whole-prompt prefill
        pass), so the step's closing overlap math cannot charge it twice."""
        self._step_prefetch_ms = max(0.0, self._step_prefetch_ms - ms)

    def fault_in(self, pages: Sequence[int], prefetch: bool = False) -> float:
        """Measured-path residency fallback for readers below the scheduler.

        Unlike :meth:`ensure_resident` this is a strict no-op when every
        page is already resident — no pins recorded, no LRU recency — so
        executed numerics re-checking pages the scheduler already promoted
        cannot perturb victim selection.  That is what keeps an analytical
        and an executed chaos run drawing identical fault outcomes: the
        engine issues every schedule-level transfer itself, and this
        fallback only ever acts on direct cache use outside an engine.
        """
        missing = [page for page in pages if not self.resident(page)]
        if not missing:
            return 0.0
        # The whole read set, not just ``missing``: promoting one page must
        # not victimize a resident page of the same request.
        self.pin(pages)
        ms = 0.0
        for page in missing:
            ms += self._move(page, self._pick_device_victim())
        self.touch(missing)
        self._book_promotions(ms, len(missing), prefetch)
        return ms

    def demote(self, pages: Sequence[int]) -> float:
        """Swap pages out of the device tier (preemption's cheap path).

        Transfers are booked as overlappable (the DMA out rides alongside
        the step's compute).  Returns the priced milliseconds.
        """
        ms = 0.0
        n_moved = 0
        exclude = frozenset(pages)
        for page in pages:
            if not self.resident(page):
                continue
            ms += self._move(page, self._pick_eviction_frame(exclude))
            self._lru.pop(page, None)
            self._pins.discard(page)
            n_moved += 1
        if n_moved:
            self._step_prefetch_ms += ms
            self.prefetch_ms_total += ms
            self.demoted_pages += n_moved
        return ms

    # --------------------------------------------------- EvictionPolicy hooks

    def page_released(self, page: int) -> None:
        """A page's refcount hit zero; unless parked, its frame is garbage."""
        if not self.allocator.is_cached(page):
            self._lru.pop(page, None)
            self._pins.discard(page)
            self._forget_content(page)

    def page_evicted(self, page: int) -> None:
        """A parked page was reclaimed: its old content is garbage now."""
        self._lru.pop(page, None)
        self._pins.discard(page)
        self._forget_content(page)

    def _forget_content(self, page: int) -> None:
        """Dead content needs no digest, carries no taint, heals nothing."""
        self._checksums.pop(page, None)
        self._tainted.discard(page)
        self._bad_pages.pop(page, None)
