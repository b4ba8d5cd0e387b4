"""Design-choice ablations beyond the paper's Fig. 16 / Table III.

The README's reproduction contract calls out the tunables the paper
fixes by construction; these sweeps quantify each one on the
performance model:

- **warp width** ``Wn`` — Table III samples {1, 4}; the sweep shows the
  diminishing returns past the scheduler's hiding capacity and the Eq. 1
  residual-block growth that wider warps impose.
- **dequantization path** — lop3 vs ``static_cast`` per architecture.
- **tile size** ``T_n`` — smem footprint vs tiling efficiency.
- **page size** — paged-attention lookup overhead vs fragmentation.
- **key group size** — metadata traffic vs quantization error (the
  accuracy side uses the real quantizer, not the model).
- **cache bit width** — 8 bits down to the 1-bit frontier.
- **speculative verification** — draft tokens stacked on the MMA's M
  dimension; not a paper figure, an extension its query transform makes
  natural (Sec. V-A).

:data:`repro.bench.claims.CLAIMS` states what each sweep must show.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.flash_decoding import FlashDecodingV2
from repro.bench.harness import Experiment
from repro.core.attention import BitDecoding
from repro.core.config import AttentionGeometry, BitDecodingConfig
from repro.core.packing_kernel import build_packing_launch
from repro.core.quantization import QuantScheme, dequantize, quantize_key
from repro.gpu.arch import GPU_REGISTRY, get_arch
from repro.gpu.instructions import dequant_ops
from repro.gpu.kernel import KernelLaunch, simulate_kernel
from repro.gpu.profiler import profile_kernel
from repro.pages.allocator import PageAllocator
from repro.pages.page_table import PageTable


#: The decode point the A100 kernel sweeps price: bs=8 at 32K, hq=32, hkv=8.
_BATCHED_32K = AttentionGeometry(8, 32, 8, 32768, 128)


def warp_width_sweep() -> Experiment:
    """Latency / TC utilization / residual-block size across ``Wn`` (A100)."""
    arch = get_arch("a100")
    exp = Experiment(
        exp_id="ablation-warp-width-a100",
        title=f"Warp-width (Wn) sweep on {arch.name}",
        unit="ms | % | tokens",
    )
    for wn in (1, 2, 4, 8):
        config = BitDecodingConfig(bits=4, wn=wn)
        launch = build_packing_launch(_BATCHED_32K, config, arch)
        result = simulate_kernel(arch, launch)
        prof = profile_kernel(result)
        exp.series_for("Latency-ms").add(wn, result.time_ms)
        exp.series_for("TC-Utilization-pct").add(wn, prof.tensor_core_util_pct)
        exp.series_for("Residual-block-Nr").add(wn, config.residual_block_size)
    exp.note("latency falls steeply 1->4 then flattens; N_r grows linearly (Eq. 1)")
    return exp


#: Codes one dequant-only launch converts, 8192 per thread block.
_DEQUANT_VALUES = 1e7


def _dequant_only_us(device: str, bits: int, method: str) -> float:
    """Pipe time of a launch that only dequantizes: no loads, no MMA."""
    launch = KernelLaunch(
        name=f"dequant-{method}",
        trace=dequant_ops(_DEQUANT_VALUES, bits, method),
        grid_blocks=int(_DEQUANT_VALUES // 8192),
        warps_per_block=4,
        hide_factor=1.0,
    )
    return simulate_kernel(get_arch(device), launch).exec_time_s * 1e6


def dequant_path_sweep() -> Experiment:
    """lop3 vs static_cast dequantization: the whole Packing Kernel on the
    A100, RTX 4090 and H100, and the conversion alone on every registered
    device."""
    exp = Experiment(
        exp_id="ablation-dequant-path",
        title="Dequantization path: lop3 vs static_cast",
        unit="ms | us (dequant-only)",
    )
    for device in ("a100", "rtx4090", "h100"):
        arch = get_arch(device)
        for method in ("lop3", "cvt"):
            config = BitDecodingConfig(bits=4, dequant_method=method)
            t = simulate_kernel(arch, build_packing_launch(_BATCHED_32K, config, arch)).time_ms
            exp.series_for(method).add(device, t)
    for bits in (4, 2):
        for method in ("lop3", "cvt"):
            series = exp.series_for(f"dequant-only/{method}/INT{bits}")
            for device in GPU_REGISTRY:
                series.add(device, _dequant_only_us(device, bits, method))
    exp.note("the cvt pipe's low throughput makes naive casts strictly slower")
    return exp


def tile_size_sweep() -> Experiment:
    """Latency and shared-memory footprint across ``T_n`` (A100, bs=1 at 64K)."""
    arch = get_arch("a100")
    geom = AttentionGeometry(1, 32, 8, 65536, 128)
    exp = Experiment(
        exp_id="ablation-tile-size-a100",
        title=f"KV tile size (T_n) sweep on {arch.name}",
        unit="ms | KiB",
    )
    for tile_n in (32, 64, 128, 256):
        config = BitDecodingConfig(bits=4, tile_n=tile_n)
        launch = build_packing_launch(geom, config, arch)
        result = simulate_kernel(arch, launch)
        exp.series_for("Latency-ms").add(tile_n, result.time_ms)
        exp.series_for("SMEM-per-block-KiB").add(
            tile_n, launch.smem_per_block_bytes / 1024
        )
    return exp


def page_size_sweep() -> Experiment:
    """Paged-attention overhead vs allocation fragmentation per page size
    (A100, bs=16 at 32K; 64 sequence lengths drawn around 32K)."""
    arch = get_arch("a100")
    geom = AttentionGeometry(16, 32, 8, 32768, 128)
    exp = Experiment(
        exp_id="ablation-page-size-a100",
        title=f"Page-size sweep on {arch.name}",
        unit="ms | %",
    )
    rng = np.random.default_rng(0)
    lengths = rng.integers(16384, 49152, size=64)
    for page in (16, 32, 64, 128, 256):
        config = BitDecodingConfig(bits=4)
        launch = build_packing_launch(geom, config, arch, paged=True, page_size=page)
        result = simulate_kernel(arch, launch)
        exp.series_for("Latency-ms").add(page, result.time_ms)
        # Fragmentation of a realistic length distribution at this page size.
        table = PageTable(PageAllocator(1 << 22), page_size=page)
        for length in lengths:
            table.add_sequence(initial_length=int(length))
        exp.series_for("Fragmentation-pct").add(page, 100 * table.fragmentation())
    exp.note("small pages: more table lookups; large pages: more waste")
    return exp


def key_group_size_sweep() -> Experiment:
    """Metadata bytes vs reconstruction error across KC group sizes (INT2).

    The error side runs the *real* quantizer on an outlier-bearing key
    distribution (per-channel outliers, as KIVI reports for LLMs).
    """
    exp = Experiment(
        exp_id="ablation-key-group-size",
        title="Channel-wise key group-size sweep (INT2)",
        unit="bytes/token | mean abs error",
    )
    rng = np.random.default_rng(0)
    k = rng.standard_normal((512, 128)).astype(np.float32)
    k[:, rng.integers(0, 128, size=4)] *= 20.0  # outlier channels
    for group in (16, 32, 64, 128):
        codes, params = quantize_key(
            k, QuantScheme(2, "channel", group), seq_axis=0, channel_axis=1
        )
        err = float(np.abs(dequantize(codes, params) - k).mean())
        meta_per_token = params.nbytes / k.shape[0]
        exp.series_for("Meta-bytes-per-token").add(group, meta_per_token)
        exp.series_for("Mean-abs-error").add(group, err)
    exp.note("finer groups cost metadata bytes and buy reconstruction accuracy")
    return exp


def bit_width_sweep() -> Experiment:
    """Latency across cache bit widths, including the 1-bit frontier (RTX
    4090, bs=1 at 128K).

    The paper cites 1-bit caches as an emerging direction (Sec. I); the
    kernel supports it end to end — the accuracy side of 1-bit lives in
    the LongBench-proxy suite, where it visibly collapses.
    """
    arch = get_arch("rtx4090")
    geom = AttentionGeometry(1, 32, 8, 131072, 128)
    exp = Experiment(
        exp_id="ablation-bit-width-rtx4090",
        title=f"Cache bit-width sweep on {arch.name}",
        unit="ms",
    )
    fp16 = FlashDecodingV2(arch).decode_time_ms(geom)
    exp.series_for("Latency-ms").add("fp16", fp16)
    for bits in (8, 4, 2, 1):
        engine = BitDecoding(BitDecodingConfig(bits=bits), arch)
        exp.series_for("Latency-ms").add(f"int{bits}", engine.decode_time_ms(geom))
    return exp


def speculative_amortization() -> Experiment:
    """Verifying n draft tokens in one pass vs n single-token passes (A100,
    bs=1 at 32K).

    One pass streams the packed cache once and the n query rows ride the
    already-padded MMA tile, so per-token attention cost falls until the M
    dimension saturates.
    """
    arch = get_arch("a100")
    exp = Experiment(
        exp_id="speculative-amortization-a100",
        title=f"Speculative-verification amortization on {arch.name}",
        unit="ms | x",
    )
    engine = BitDecoding(BitDecodingConfig(bits=4), arch)
    single = engine.decode_time_ms(AttentionGeometry(1, 32, 8, 32768, 128))
    for n in (1, 2, 4, 8, 16):
        one_pass = engine.decode_time_ms(AttentionGeometry(1, 32, 8, 32768, 128, q_len=n))
        exp.series_for("One-pass-ms").add(n, one_pass)
        exp.series_for("N-singles-ms").add(n, n * single)
        exp.series_for("Gain").add(n, n * single / one_pass)
    return exp
