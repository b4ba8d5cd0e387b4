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

from typing import Iterable, Sequence

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


def warp_width_sweep(
    device: str = "a100",
    widths: Sequence[int] = (1, 2, 4, 8),
    geom: AttentionGeometry = None,
) -> Experiment:
    """Latency / TC utilization / residual-block size across ``Wn``."""
    arch = get_arch(device)
    geom = geom or AttentionGeometry(8, 32, 8, 32768, 128)
    exp = Experiment(
        exp_id=f"ablation-warp-width-{device}",
        title=f"Warp-width (Wn) sweep on {arch.name}",
        unit="ms | % | tokens",
    )
    for wn in widths:
        config = BitDecodingConfig(bits=4, wn=wn)
        launch = build_packing_launch(geom, config, arch)
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


def dequant_path_sweep(
    devices: Iterable[str] = ("a100", "rtx4090", "h100"),
    geom: AttentionGeometry = None,
) -> Experiment:
    """lop3 vs static_cast dequantization: the whole Packing Kernel on
    ``devices``, and the conversion alone on every registered device."""
    geom = geom or AttentionGeometry(8, 32, 8, 32768, 128)
    exp = Experiment(
        exp_id="ablation-dequant-path",
        title="Dequantization path: lop3 vs static_cast",
        unit="ms | us (dequant-only)",
    )
    for device in devices:
        arch = get_arch(device)
        for method in ("lop3", "cvt"):
            config = BitDecodingConfig(bits=4, dequant_method=method)
            t = simulate_kernel(arch, build_packing_launch(geom, config, arch)).time_ms
            exp.series_for(method).add(device, t)
    for bits in (4, 2):
        for method in ("lop3", "cvt"):
            series = exp.series_for(f"dequant-only/{method}/INT{bits}")
            for device in GPU_REGISTRY:
                series.add(device, _dequant_only_us(device, bits, method))
    exp.note("the cvt pipe's low throughput makes naive casts strictly slower")
    return exp


def tile_size_sweep(
    device: str = "a100",
    tiles: Sequence[int] = (32, 64, 128, 256),
    geom: AttentionGeometry = None,
) -> Experiment:
    """Latency and shared-memory footprint across ``T_n``."""
    arch = get_arch(device)
    geom = geom or AttentionGeometry(1, 32, 8, 65536, 128)
    exp = Experiment(
        exp_id=f"ablation-tile-size-{device}",
        title=f"KV tile size (T_n) sweep on {arch.name}",
        unit="ms | KiB",
    )
    for tile_n in tiles:
        config = BitDecodingConfig(bits=4, tile_n=tile_n)
        launch = build_packing_launch(geom, config, arch)
        result = simulate_kernel(arch, launch)
        exp.series_for("Latency-ms").add(tile_n, result.time_ms)
        exp.series_for("SMEM-per-block-KiB").add(
            tile_n, launch.smem_per_block_bytes / 1024
        )
    return exp


def page_size_sweep(
    device: str = "a100",
    page_sizes: Sequence[int] = (16, 32, 64, 128, 256),
    geom: AttentionGeometry = None,
    mean_seq_len: int = 32768,
) -> Experiment:
    """Paged-attention overhead vs allocation fragmentation per page size."""
    arch = get_arch(device)
    geom = geom or AttentionGeometry(16, 32, 8, 32768, 128)
    exp = Experiment(
        exp_id=f"ablation-page-size-{device}",
        title=f"Page-size sweep on {arch.name}",
        unit="ms | %",
    )
    rng = np.random.default_rng(0)
    lengths = rng.integers(mean_seq_len // 2, mean_seq_len * 3 // 2, size=64)
    for page in page_sizes:
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


def key_group_size_sweep(
    group_sizes: Sequence[int] = (16, 32, 64, 128),
    bits: int = 2,
    seed: int = 0,
) -> Experiment:
    """Metadata bytes vs reconstruction error across KC group sizes.

    The error side runs the *real* quantizer on an outlier-bearing key
    distribution (per-channel outliers, as KIVI reports for LLMs).
    """
    exp = Experiment(
        exp_id="ablation-key-group-size",
        title=f"Channel-wise key group-size sweep (INT{bits})",
        unit="bytes/token | mean abs error",
    )
    rng = np.random.default_rng(seed)
    k = rng.standard_normal((512, 128)).astype(np.float32)
    k[:, rng.integers(0, 128, size=4)] *= 20.0  # outlier channels
    for group in group_sizes:
        codes, params = quantize_key(
            k, QuantScheme(bits, "channel", group), seq_axis=0, channel_axis=1
        )
        err = float(np.abs(dequantize(codes, params) - k).mean())
        meta_per_token = params.nbytes / k.shape[0]
        exp.series_for("Meta-bytes-per-token").add(group, meta_per_token)
        exp.series_for("Mean-abs-error").add(group, err)
    exp.note("finer groups cost metadata bytes and buy reconstruction accuracy")
    return exp


def bit_width_sweep(
    device: str = "rtx4090",
    bit_widths: Sequence[int] = (8, 4, 2, 1),
    geom: AttentionGeometry = None,
) -> Experiment:
    """Latency across cache bit widths, including the 1-bit frontier.

    The paper cites 1-bit caches as an emerging direction (Sec. I); the
    kernel supports it end to end — the accuracy side of 1-bit lives in
    the LongBench-proxy suite, where it visibly collapses.
    """
    arch = get_arch(device)
    geom = geom or AttentionGeometry(1, 32, 8, 131072, 128)
    exp = Experiment(
        exp_id=f"ablation-bit-width-{device}",
        title=f"Cache bit-width sweep on {arch.name}",
        unit="ms",
    )
    fp16 = FlashDecodingV2(arch).decode_time_ms(geom)
    exp.series_for("Latency-ms").add("fp16", fp16)
    for bits in bit_widths:
        engine = BitDecoding(BitDecodingConfig(bits=bits), arch)
        exp.series_for("Latency-ms").add(f"int{bits}", engine.decode_time_ms(geom))
    return exp


def speculative_amortization(device: str = "a100", seq: int = 32768) -> Experiment:
    """Verifying n draft tokens in one pass vs n single-token passes.

    One pass streams the packed cache once and the n query rows ride the
    already-padded MMA tile, so per-token attention cost falls until the M
    dimension saturates.
    """
    arch = get_arch(device)
    exp = Experiment(
        exp_id=f"speculative-amortization-{device}",
        title=f"Speculative-verification amortization on {arch.name}",
        unit="ms | x",
    )
    engine = BitDecoding(BitDecodingConfig(bits=4), arch)
    single = engine.decode_time_ms(AttentionGeometry(1, 32, 8, seq, 128))
    for n in (1, 2, 4, 8, 16):
        one_pass = engine.decode_time_ms(AttentionGeometry(1, 32, 8, seq, 128, q_len=n))
        exp.series_for("One-pass-ms").add(n, one_pass)
        exp.series_for("N-singles-ms").add(n, n * single)
        exp.series_for("Gain").add(n, n * single / one_pass)
    return exp
