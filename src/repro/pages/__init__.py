"""Paged KV-cache management (the paper's "Page" kernel setting).

A vLLM-style substrate: physical KV memory is carved into fixed-size pages,
sequences map logical token positions to (page, offset) through a page
table, and an allocator hands pages out / reclaims them.  BitDecoding and
the fused baselines (QServe, Atom) run on top of this for the
high-throughput serving benchmarks (Figs. 10, 11, 13).
"""

from repro.pages.allocator import EvictionPolicy, OutOfPagesError, PageAllocator
from repro.pages.page_table import PagedSequence, PageTable
from repro.pages.prefix_cache import PrefixCache
from repro.pages.tiers import TieredPageStore, TierObserver

__all__ = [
    "EvictionPolicy",
    "PageAllocator",
    "OutOfPagesError",
    "PageTable",
    "PagedSequence",
    "PrefixCache",
    "TieredPageStore",
    "TierObserver",
]
