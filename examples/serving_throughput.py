"""High-throughput serving: paged caches, memory-bounded batches.

The serving win of a low-bit KV cache is two-fold: the attention kernel
moves fewer bytes AND more sequences fit in device memory, so the weight
GEMMs amortize over a bigger batch.  This example reproduces that chain
for the Fig. 13 models through the AttentionBackend API: each serving
stack is a backend whose ``attention_system`` prices the decode kernel,
printing the max feasible batch and throughput per cache format, plus a
page-allocator view of one serving point.

Run:  python examples/serving_throughput.py
"""

from repro import AnalyticalBackend, BitDecodingConfig, ContiguousBitBackend, get_arch
from repro.baselines import FlashDecodingV2, QServe
from repro.model import (
    LLAMA2_7B,
    LLAMA31_8B,
    QWEN3_8B,
    fp16_format,
    int_format,
    max_batch_size,
    max_throughput_tokens_per_s,
    page_bytes,
    page_pool_size,
)
from repro.pages import OutOfPagesError, PageAllocator, PageTable

SEQ_LEN = 32768


def main() -> None:
    arch = get_arch("a100")
    print(f"pages-mode serving at {SEQ_LEN} tokens/sequence on {arch.name}\n")

    for model in (LLAMA2_7B, LLAMA31_8B, QWEN3_8B):
        fp16 = fp16_format()
        int4 = int_format(4, model)
        # Every stack is an AttentionBackend; the analytical backend wraps
        # the baseline cost models, the contiguous-bit backend carries the
        # real BitDecoding kernel stack.
        rows = [
            ("FP16 + FlashDecoding-v2", fp16, AnalyticalBackend(FlashDecodingV2(arch))),
            ("INT4 + QServe", int4, AnalyticalBackend(QServe(arch, 4))),
            (
                "INT4 + BitDecoding",
                int4,
                ContiguousBitBackend(BitDecodingConfig(bits=4), arch),
            ),
        ]
        print(f"{model.name} ({model.attention_variant}):")
        for label, fmt, backend in rows:
            batch = max_batch_size(model, arch, fmt, SEQ_LEN)
            tput = max_throughput_tokens_per_s(
                model, arch, fmt, backend.attention_system, SEQ_LEN
            )
            print(f"  {label:<26} max batch {batch:>3}   {tput:8.1f} tok/s")
        print()

    # A concrete paged-memory view: how many 32K sequences fit in the HBM
    # left after weights, at page granularity.  The byte accounting comes
    # from the CacheFormat — INT4 pages cost their true packed footprint
    # (words + metadata), not fp16 working arrays.
    model = LLAMA31_8B
    page_tokens = 64
    for fmt in (fp16_format(), int_format(4, model)):
        n_pages = page_pool_size(model, arch, fmt, page_size=page_tokens)
        allocator = PageAllocator(n_pages)
        table = PageTable(allocator, page_size=page_tokens)
        admitted = 0
        try:
            while True:
                table.add_sequence(initial_length=SEQ_LEN)
                admitted += 1
        except OutOfPagesError:
            pass
        # One KV head's share of one layer, over 1024 pages.
        per_head = 1024 * page_bytes(model, fmt, page_tokens) / (model.n_layers * model.hkv)
        print(
            f"{fmt.name}: {allocator.n_pages} pages of {page_tokens} tokens -> "
            f"{admitted} concurrent 32K sequences "
            f"(fragmentation {table.fragmentation():.1%}; "
            f"1024-page per-head store: {per_head / 1e6:.1f} MB physical)"
        )


if __name__ == "__main__":
    main()
