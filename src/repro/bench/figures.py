"""Experiment definitions: one function per paper table/figure.

Every function reproduces the corresponding evaluation artifact with the
exact workload parameters from the paper's captions, returning an
:class:`~repro.bench.harness.Experiment`.  Where the paper prints exact
numbers (Figs. 13/14, Tables I-III) they are attached as references; for
the sweep figures the paper's "up to" anchors are recorded as notes.
"""

from __future__ import annotations

import numpy as np

from repro.baselines import (
    Atom,
    ContinuousPacking,
    FlashDecodingV2,
    FlashDecodingV3,
    Kivi,
    QServe,
    ablation_config,
)
from repro.bench.harness import Experiment
from repro.core.attention import BitDecoding
from repro.core.config import AttentionGeometry, BitDecodingConfig
from repro.core.packing_kernel import build_packing_launch
from repro.core.residual_kernel import build_prefill_quant_launch
from repro.baselines.ladder import LadderTransform
from repro.baselines.marlin import MarlinRepack
from repro.gpu.arch import get_arch
from repro.gpu.kernel import simulate_kernel
from repro.gpu.profiler import dequant_overhead_fraction, profile_kernel
from repro.model import (
    LLAMA2_7B,
    LLAMA31_8B,
    LLAMA31_70B,
    QWEN3_14B,
    QWEN3_8B,
    cache_bytes_per_token,
    decode_throughput_tokens_per_s,
    fp16_format,
    int_format,
    max_throughput_tokens_per_s,
)


def _bd(arch, bits=4, granularity="channel", version="v2", **kw) -> BitDecoding:
    return BitDecoding(
        BitDecodingConfig(bits=bits, granularity=granularity, version=version, **kw),
        arch,
    )


def _speedups(exp, arch, panel, systems, points, paged=False) -> None:
    """Add ``ref / system.decode_time_ms(geom)`` at each ``(x, geom)`` of
    ``points`` to the ``panel/label`` series of every system, ``ref`` being
    FP16 FlashDecoding-v2 (over a paged cache if ``paged``) at ``geom``."""
    base = FlashDecodingV2(arch)
    for x, geom in points:
        ref = base.decode_time_ms(geom, paged=paged)
        for label, system in systems.items():
            exp.series_for(f"{panel}/{label}").add(x, ref / system.decode_time_ms(geom))


# ---------------------------------------------------------------------------
# Fig. 8 — Blackwell (RTX 5090 / RTX PRO 6000), native MXFP4
# ---------------------------------------------------------------------------


def fig8_blackwell(device: str = "rtx5090") -> Experiment:
    """Kernel speedups with native MXFP4 on a Blackwell part.

    Single: bs=1, hq=128, hkv=8, d=128 over 8k/32k/128k.
    Batches: len=8k, hq=32, hkv=8, bs in {8, 32, 128}.
    """
    arch = get_arch(device)
    exp = Experiment(
        exp_id=f"fig8-{device}",
        title=f"Kernel performance with mxfp4 on {arch.name} (Blackwell)",
    )
    systems = {
        "KIVI-4": Kivi(arch, 4),
        "BitDecoding-mxfp4": BitDecoding(
            BitDecodingConfig(version="fp4", fp4_format="mxfp4"), arch
        ),
    }
    single = [(seq, AttentionGeometry(1, 128, 8, seq, 128)) for seq in (8192, 32768, 131072)]
    batches = [(bs, AttentionGeometry(bs, 32, 8, 8192, 128)) for bs in (8, 32, 128)]
    _speedups(exp, arch, "Single", systems, single)
    _speedups(exp, arch, "Batches", systems, batches)
    exp.note(
        "paper anchors: RTX 5090 up to 8.6x batched, >4.3x single@128k; "
        "RTX PRO 6000 peaks at 6.5x"
    )
    return exp


# ---------------------------------------------------------------------------
# Fig. 9 — Hopper (H100), v2 vs v3 instruction paths
# ---------------------------------------------------------------------------


def fig9_hopper() -> Experiment:
    """H100: Single (bs=1, hq=128, hkv=32, 1k-100k) and Batches (32k)."""
    arch = get_arch("h100")
    exp = Experiment(exp_id="fig9-h100", title="Kernel performance on Hopper (H100)")
    systems = {
        "Flash-attn-v3": FlashDecodingV3(arch),
        "BitDecoding-KT-4 (v2)": _bd(arch, 4, "tensor", "v2"),
        "BitDecoding-KC-4 (v2)": _bd(arch, 4, "channel", "v2"),
        "BitDecoding-KC-2 (v2)": _bd(arch, 2, "channel", "v2"),
        "BitDecoding-KT-4 (v3)": _bd(arch, 4, "tensor", "v3"),
        "BitDecoding-KC-4 (v3)": _bd(arch, 4, "channel", "v3"),
        "BitDecoding-KC-2 (v3)": _bd(arch, 2, "channel", "v3"),
    }
    single = [(seq, AttentionGeometry(1, 128, 32, seq, 128)) for seq in (1024, 10240, 102400)]
    batches = [(bs, AttentionGeometry(bs, 128, 32, 32768, 128)) for bs in (8, 32, 128)]
    _speedups(exp, arch, "Single", systems, single)
    _speedups(exp, arch, "Batches", systems, batches)
    exp.note("paper anchors: BitDecoding-v2 up to 4.1x, v3 up to 8.0x")
    return exp


# ---------------------------------------------------------------------------
# Fig. 10 — RTX 4090: Single / Batches / Pages x MHA / GQA
# ---------------------------------------------------------------------------


def fig10_rtx4090() -> Experiment:
    """The six-panel Ada evaluation."""
    arch = get_arch("rtx4090")
    exp = Experiment(exp_id="fig10-rtx4090", title="Kernel performance on RTX 4090")
    bd = {
        "KT-4": _bd(arch, 4, "tensor"),
        "KC-4": _bd(arch, 4, "channel"),
        "KC-2": _bd(arch, 2, "channel"),
    }
    kivi = {"KIVI-4": Kivi(arch, 4), "KIVI-2": Kivi(arch, 2)}

    for hkv, variant in ((32, "MHA"), (8, "GQA")):
        # Single: bs=1, hq=32, seq sweep.
        single = [(seq, AttentionGeometry(1, 32, hkv, seq, 128)) for seq in (1024, 10240, 102400)]
        _speedups(exp, arch, f"Single-{variant}", {**kivi, **bd}, single)
        # Batches: len=4k, bs sweep.
        batches = [(bs, AttentionGeometry(bs, 32, hkv, 4096, 128)) for bs in (8, 32, 128)]
        _speedups(exp, arch, f"Batches-{variant}", {**kivi, **bd}, batches)
        # Pages: len=2k, bs 2..8, vs fused CUDA-core systems (Atom is MHA only).
        fused = {"QServe": QServe(arch, 4)}
        if variant == "MHA":
            fused["Atom"] = Atom(arch, 4)
        pages = [(bs, AttentionGeometry(bs, 32, hkv, 2048, 128)) for bs in (2, 4, 8)]
        _speedups(exp, arch, f"Pages-{variant}", {**fused, **bd}, pages, paged=True)
    exp.note(
        "paper anchors: ~4x (4-bit) / >7x (2-bit) in Single+Batches; Pages "
        "MHA BitDecoding >6x vs QServe 3.5x; Pages GQA 3x vs QServe 1.4x"
    )
    return exp


# ---------------------------------------------------------------------------
# Fig. 11 — A100
# ---------------------------------------------------------------------------


def fig11_a100() -> Experiment:
    """A100: Single (hq=128, hkv=16), Batches (32k), Pages (2k, GQA)."""
    arch = get_arch("a100")
    exp = Experiment(exp_id="fig11-a100", title="Kernel performance on A100")
    bd = {
        "KT-4": _bd(arch, 4, "tensor"),
        "KC-4": _bd(arch, 4, "channel"),
        "KC-2": _bd(arch, 2, "channel"),
    }
    kivi = {"KIVI-4": Kivi(arch, 4), "KIVI-2": Kivi(arch, 2)}

    single = [(seq, AttentionGeometry(1, 128, 16, seq, 128)) for seq in (1024, 10240, 102400)]
    batches = [(bs, AttentionGeometry(bs, 128, 16, 32768, 128)) for bs in (8, 32, 128)]
    pages = [(bs, AttentionGeometry(bs, 32, 8, 2048, 128)) for bs in (8, 16, 32, 64)]
    _speedups(exp, arch, "Single", {**kivi, **bd}, single)
    _speedups(exp, arch, "Batches", {**kivi, **bd}, batches)
    _speedups(exp, arch, "Pages", {"QServe": QServe(arch, 4), **bd}, pages, paged=True)
    exp.note(
        "paper anchors: BitDecoding up to 3x; KIVI/QServe can fall below the "
        "FP16 baseline; the 4-bit vs 2-bit gap narrows vs RTX 4090"
    )
    return exp


# ---------------------------------------------------------------------------
# Fig. 12 — end-to-end vs KIVI (LLaMA-3.1-8B on A100)
# ---------------------------------------------------------------------------


def fig12_e2e_kivi() -> Experiment:
    """(a) Single-batch latency speedup at 32K/64K/128K; (b) batched
    decoding throughput at seq 4k."""
    arch = get_arch("a100")
    model = LLAMA31_8B
    exp = Experiment(
        exp_id="fig12-e2e-kivi",
        title="End-to-end vs non-fused attention (LLaMA-3.1-8B, A100)",
        unit="latency speedup (a) / tokens-s (b)",
    )
    from repro.model.inference import decode_step_ms

    fd = FlashDecodingV2(arch)
    systems = {
        "Kivi-4": Kivi(arch, 4),
        "Kivi-2": Kivi(arch, 2),
        "BitDecoding-KC-4": _bd(arch, 4),
        "BitDecoding-KC-2": _bd(arch, 2),
    }
    budget = arch.memory_gb * (1024 ** 3) * 0.9
    for seq in (32768, 65536, 131072):
        ref = decode_step_ms(model, arch, fd, batch=1, seq_len=seq)
        for label, system in systems.items():
            if label.startswith("Kivi"):
                # KIVI's non-tiled prefill materializes an LxL score tile
                # per concurrently-processed head (two in flight).
                workspace = 2.0 * float(seq) ** 2 * 2.0
                kivi_fmt = int_format(int(label[-1]), model, group_size=32)
                resident = (
                    model.weights_bytes()
                    + seq * cache_bytes_per_token(model, kivi_fmt)
                    + workspace
                )
                if resident > budget:
                    exp.series_for(f"Single/{label}").add(seq, float("nan"))
                    exp.note(f"{label} OOM at seq {seq} (paper: Kivi OOM at 128K)")
                    continue
            t = decode_step_ms(model, arch, system, batch=1, seq_len=seq)
            exp.series_for(f"Single/{label}").add(seq, ref / t)
    for bs in (10, 20, 30, 40, 50):
        for label, system in [("FlashDecoding-v2", fd)] + list(systems.items()):
            tput = decode_throughput_tokens_per_s(model, arch, system, bs, 4096)
            exp.series_for(f"Batches/{label}").add(bs, tput)
    exp.note(
        "paper anchors: up to 3.3x single-batch speedup at 128K; BD-KC-4 ~900 "
        "and KC-2 ~1200 tok/s vs KIVI < 700"
    )
    return exp


# ---------------------------------------------------------------------------
# Fig. 13 — serving throughput vs QServe across models
# ---------------------------------------------------------------------------

#: Paper-reported tokens/s (Fig. 13): model -> (FDv2, QServe, BitDecoding).
FIG13_PAPER = {
    "llama-2-7B": (13.92, 59.71, 130.00),
    "llama-3.1-8B": (48.50, 32.81, 147.21),
    "llama-3.1-70B": (11.12, 8.05, 28.23),
    "Qwen3-8B": (51.14, 45.19, 128.39),
    "Qwen3-14B": (43.95, 32.74, 99.52),
}


def fig13_e2e_qserve() -> Experiment:
    """Pages-mode max throughput (seq 32k) across the five models."""
    arch = get_arch("a100")
    exp = Experiment(
        exp_id="fig13-e2e-qserve",
        title="Serving throughput vs QServe (pages, seq 32k)",
        unit="tokens/s",
    )
    for model, n_gpus in (
        (LLAMA2_7B, 1),
        (LLAMA31_8B, 1),
        (LLAMA31_70B, 8),
        (QWEN3_8B, 1),
        (QWEN3_14B, 1),
    ):
        paper = FIG13_PAPER[model.name]
        fd_tput = max_throughput_tokens_per_s(
            model, arch, fp16_format(), FlashDecodingV2(arch), 32768, n_gpus
        )
        qs_tput = max_throughput_tokens_per_s(
            model, arch, int_format(4, model), QServe(arch, 4), 32768, n_gpus
        )
        bd_tput = max_throughput_tokens_per_s(
            model, arch, int_format(4, model), _bd(arch, 4), 32768, n_gpus
        )
        exp.series_for("FlashDecoding-v2").add(model.name, fd_tput, paper=paper[0])
        exp.series_for("Qserve").add(model.name, qs_tput, paper=paper[1])
        exp.series_for("Bitdecoding").add(model.name, bd_tput, paper=paper[2])
    exp.note("paper: QServe wins only on the MHA model (LLaMA-2-7B); BD >2x QServe")
    return exp


# ---------------------------------------------------------------------------
# Fig. 14 — residual-cache runtime overhead
# ---------------------------------------------------------------------------

#: Paper latencies (ms) on the LLaMA-3.1-8B geometry: seq -> (fp16, int4
#: without residual, int4 with residual).
FIG14_PAPER = {
    4096: (0.087, 0.041, 0.057),
    16384: (0.220, 0.094, 0.112),
    32768: (0.400, 0.162, 0.180),
    65536: (0.764, 0.291, 0.309),
    131072: (1.487, 0.555, 0.572),
}


def fig14_residual_overhead() -> Experiment:
    """Latency of FP16 vs INT4 without/with the residual kernel."""
    arch = get_arch("a100")
    exp = Experiment(
        exp_id="fig14-residual",
        title="Runtime overhead of the residual KV cache (A100)",
        unit="latency ms",
    )
    base = FlashDecodingV2(arch)
    engine = _bd(arch, 4)
    for seq, paper in FIG14_PAPER.items():
        geom = AttentionGeometry(1, 32, 8, seq, 128)
        fp16 = base.decode_time_ms(geom)
        # W/O residual: the idealized packed-only kernel over the full cache.
        launch = build_packing_launch(geom, engine.config, arch, packed_len=seq)
        wo = simulate_kernel(arch, launch).time_ms
        w = engine.decode_time_ms(geom)
        exp.series_for("FP16 FlashDecoding-v2").add(seq, fp16, paper=paper[0])
        exp.series_for("INT4 W/O Residual").add(seq, wo, paper=paper[1])
        exp.series_for("INT4 W/ Residual").add(seq, w, paper=paper[2])
    exp.note("the W/ - W/O gap is a near-constant extra launch (paper ~17us)")
    return exp


# ---------------------------------------------------------------------------
# Fig. 15 — dequantization overhead + micro analysis
# ---------------------------------------------------------------------------

#: Paper values per series: (a) dequant share of kernel time, (b) pipe %.
FIG15_PAPER = {
    "DequantFraction": {
        "Atom": 0.48, "Qserve": 0.45, "B-KT-4": 0.13, "B-KC-4": 0.14, "B-KC-2": 0.33,
    },
    "Micro/Atom": {"Mem. T.": 72.24, "Tensor Core": 0.0, "FMA": 19.0, "ALU": 32.5},
    "Micro/BitDecoding": {"Mem. T.": 88.31, "Tensor Core": 24.0, "FMA": 13.0, "ALU": 12.5},
}


def fig15_dequant_overhead() -> Experiment:
    """(a) dequant fraction per system; (b) Atom-vs-BD pipe utilization."""
    arch = get_arch("rtx4090")
    exp = Experiment(
        exp_id="fig15-dequant",
        title="Dequantization overhead analysis (RTX 4090, MHA, bs=8, 4k)",
        unit="fraction of kernel time / pipe %",
    )
    geom = AttentionGeometry(8, 32, 32, 4096, 128)

    systems = {
        "Atom": Atom(arch, 4).decode_result(geom),
        "Qserve": QServe(arch, 4).decode_result(geom, paged=False),
        "B-KT-4": _bd(arch, 4, "tensor").decode_results(geom)[0],
        "B-KC-4": _bd(arch, 4, "channel").decode_results(geom)[0],
        "B-KC-2": _bd(arch, 2, "channel").decode_results(geom)[0],
    }
    for label, result in systems.items():
        exp.series_for("DequantFraction").add(
            label, dequant_overhead_fraction(result), paper=FIG15_PAPER["DequantFraction"][label]
        )

    for label, result in (("Atom", systems["Atom"]), ("BitDecoding", systems["B-KC-4"])):
        prof = profile_kernel(result)
        micro = {
            "Mem. T.": prof.memory_throughput_pct,
            "Tensor Core": prof.tensor_core_util_pct,
            "FMA": prof.fma_pct,
            "ALU": prof.alu_pct,
        }
        for metric, value in micro.items():
            exp.series_for(f"Micro/{label}").add(
                metric, value, paper=FIG15_PAPER[f"Micro/{label}"][metric]
            )
    return exp


# ---------------------------------------------------------------------------
# Fig. 16 — optimization breakdown
# ---------------------------------------------------------------------------


def fig16_breakdown() -> Experiment:
    """Continuous packing -> +Layout -> +Warps -> +Pipeline across devices."""
    exp = Experiment(
        exp_id="fig16-breakdown",
        title="Breakdown of BitDecoding optimizations",
        unit="speedup vs FP16 FlashDecoding-v2",
    )
    stages = [
        ("Baseline (Continuous Packing)", dict(layout=False, warps=False, pipeline=False)),
        ("Layout", dict(layout=True, warps=False, pipeline=False)),
        ("Layout + Warps", dict(layout=True, warps=True, pipeline=False)),
        ("Layout + Warps + Pipeline", dict(layout=True, warps=True, pipeline=True)),
    ]
    for device, version in (("a100", "v2"), ("h100", "v3"), ("rtx5090", "fp4")):
        arch = get_arch(device)
        geom = AttentionGeometry(8, 32, 8, 8192, 128)
        ref = FlashDecodingV2(arch).decode_time_ms(geom)
        base_cfg = BitDecodingConfig(bits=4, version=version)
        for label, flags in stages:
            cfg = ablation_config(base_cfg, **flags)
            if label.startswith("Baseline"):
                system = ContinuousPacking(arch, base_cfg)
                t = system.decode_time_ms(geom)
            else:
                engine = BitDecoding(cfg, arch)
                t = engine.decode_time_ms(geom)
            exp.series_for(label).add(device, ref / t)
    exp.note("every optimization stage must add speedup on every device")
    return exp


# ---------------------------------------------------------------------------
# Table I — efficiency / accuracy trade-off
# ---------------------------------------------------------------------------

TABLE1_PAPER = {
    "FP16": (49.25, 48.25),
    "INT4": (147.21, 48.16),
    "INT2": (209.48, 47.38),
}


def table1_accuracy() -> Experiment:
    """Throughput (A100 serving model) + LongBench-proxy accuracy."""
    from repro.model.longbench import run_suite

    arch = get_arch("a100")
    model = LLAMA31_8B
    exp = Experiment(
        exp_id="table1-accuracy",
        title="Efficiency and accuracy trade-off (LLaMA-3.1-8B, 32K)",
        unit="tokens/s | proxy accuracy %",
    )
    fd_tput = max_throughput_tokens_per_s(
        model, arch, fp16_format(), FlashDecodingV2(arch), 32768
    )
    exp.series_for("Throughput").add("FP16", fd_tput, paper=TABLE1_PAPER["FP16"][0])
    acc_fp16 = run_suite(None)["average"]
    exp.series_for("Accuracy").add("FP16", 100 * acc_fp16, paper=TABLE1_PAPER["FP16"][1])

    for bits in (4, 2):
        engine = _bd(arch, bits)
        tput = max_throughput_tokens_per_s(
            model, arch, int_format(bits, model), engine, 32768
        )
        acc = run_suite(engine)["average"]
        exp.series_for("Throughput").add(
            f"INT{bits}", tput, paper=TABLE1_PAPER[f"INT{bits}"][0]
        )
        exp.series_for("Accuracy").add(
            f"INT{bits}", 100 * acc, paper=TABLE1_PAPER[f"INT{bits}"][1]
        )
    exp.note("paper: INT4 +2.98x throughput at -0.2% acc; INT2 +4.25x at -2.7%")
    return exp


# ---------------------------------------------------------------------------
# Table II — quantization + packing latency
# ---------------------------------------------------------------------------

TABLE2_PAPER = {
    "Marlin": (58.02, 0.41),
    "Ladder": (4.79, 0.65),
    "BitDecoding": (0.0599, 0.008),
}


def table2_quantpack() -> Experiment:
    """Quant+pack latency at 128K: Marlin vs Ladder vs fused BitDecoding."""
    arch = get_arch("a100")
    geom = AttentionGeometry(1, 32, 8, 131072, 128)
    exp = Experiment(
        exp_id="table2-quantpack",
        title="Quantization and packing latency during inference (128K)",
        unit="latency ms",
    )
    marlin = MarlinRepack(arch)
    ladder = LadderTransform(arch)
    exp.series_for("Marlin").add("Prefill", marlin.prefill_latency_ms(geom), paper=TABLE2_PAPER["Marlin"][0])
    exp.series_for("Marlin").add("Decode", marlin.decode_latency_ms(geom), paper=TABLE2_PAPER["Marlin"][1])
    exp.series_for("Ladder").add("Prefill", ladder.prefill_latency_ms(geom), paper=TABLE2_PAPER["Ladder"][0])
    exp.series_for("Ladder").add("Decode", ladder.decode_latency_ms(geom), paper=TABLE2_PAPER["Ladder"][1])

    config = BitDecodingConfig(bits=4)
    prefill = simulate_kernel(arch, build_prefill_quant_launch(geom, config, arch)).time_ms
    # Decode: quantization+packing is fused into the Residual Kernel's flush
    # (once per N_r tokens, no extra launch); its cost is the time delta of
    # a flushing vs non-flushing residual pass.
    from repro.core.residual_kernel import build_residual_launch

    flush = simulate_kernel(arch, build_residual_launch(geom, config, arch, flush=True))
    noflush = simulate_kernel(arch, build_residual_launch(geom, config, arch, flush=False))
    decode_cost = max(flush.time_ms - noflush.time_ms, 1e-5)
    exp.series_for("BitDecoding").add("Prefill", prefill, paper=TABLE2_PAPER["BitDecoding"][0])
    exp.series_for("BitDecoding").add("Decode", decode_cost, paper=TABLE2_PAPER["BitDecoding"][1])
    exp.note("BitDecoding decode cost = fused flush work once per N_r tokens")
    return exp


# ---------------------------------------------------------------------------
# Table III — warps + cooperative softmax
# ---------------------------------------------------------------------------

#: Paper rows: (Wn, cooperative softmax) -> (latency ms, TC util %, valid).
TABLE3_PAPER = {
    ("1", "off"): (3.746, 10.91, True),
    ("4", "off"): (0.610, 19.71, False),
    ("4", "on"): (0.613, 19.66, True),
}


def table3_coop_softmax() -> Experiment:
    """Wn / cooperative-softmax ablation: latency, TC util, validity."""
    arch = get_arch("a100")
    geom = AttentionGeometry(8, 32, 8, 32768, 128)
    exp = Experiment(
        exp_id="table3-coop-softmax",
        title="Impact of cooperative softmax and warps",
        unit="ms | % | bool",
    )
    rng = np.random.default_rng(7)
    k = rng.standard_normal((1, 2, 512, 64)).astype(np.float16)
    v = rng.standard_normal((1, 2, 512, 64)).astype(np.float16)
    q = (rng.standard_normal((1, 1, 8, 64)) * 3.0).astype(np.float16)

    for wn, coop in ((1, False), (4, False), (4, True)):
        config = BitDecodingConfig(
            bits=4, wn=4, use_warp_parallel=(wn > 1), use_coop_softmax=coop
        )
        launch = build_packing_launch(geom, config, arch)
        result = simulate_kernel(arch, launch)
        prof = profile_kernel(result)

        # Validity from real numerics against the exact reference.
        engine = BitDecoding(config, arch)
        cache = engine.prefill(k, v)
        out = engine.decode(q, cache)
        ref_engine = BitDecoding(
            BitDecodingConfig(bits=4, wn=4, use_warp_parallel=(wn > 1), use_coop_softmax=True),
            arch,
        )
        ref = ref_engine.decode(q, cache)
        valid = bool(np.allclose(out, ref, atol=1e-3))

        key = (str(wn), "on" if coop else "off")
        paper = TABLE3_PAPER[key]
        exp.series_for("Latency-ms").add(key, result.time_ms, paper=paper[0])
        exp.series_for("TC-Utilization-pct").add(key, prof.tensor_core_util_pct, paper=paper[1])
        exp.series_for("Valid").add(key, float(valid), paper=float(paper[2]))
    exp.note("Wn=4 without cooperative softmax must be FAST but WRONG")
    return exp


# ---------------------------------------------------------------------------
# Fig. 4b — motivation: dequant under the original warp design
# ---------------------------------------------------------------------------


def fig4_motivation() -> Experiment:
    """Micro profile of the original (Wn=1) warp layout with/without DQ.

    Both bars run the *same* low-bit kernel under FlashAttention's original
    single-warp-along-N layout; "W/O Dequant" removes only the
    dequantization instructions (a what-if the profiler supports via trace
    subtraction), isolating DQ's effect exactly as the paper's Nsight
    comparison does.
    """
    arch = get_arch("rtx4090")
    geom = AttentionGeometry(8, 32, 8, 8192, 128)
    exp = Experiment(
        exp_id="fig4-motivation",
        title="Original warp design with and without dequantization",
        unit="percent",
    )
    config = BitDecodingConfig(bits=4, use_warp_parallel=False, use_pipeline=False)
    launch = build_packing_launch(geom, config, arch)
    with_dq = simulate_kernel(arch, launch)

    stripped = build_packing_launch(geom, config, arch)
    stripped.trace = stripped.trace.without(stripped.subtraces["dequant"])
    stripped.subtraces = {}
    without_dq = simulate_kernel(arch, stripped)

    for label, result in (("W/O Dequant", without_dq), ("W/ Dequant", with_dq)):
        prof = profile_kernel(result)
        exp.series_for(label).add("Com. Throughput", prof.compute_throughput_pct)
        exp.series_for(label).add("TCs utilization", prof.tensor_core_util_pct)
        exp.series_for(label).add("Memory Stalls", prof.serialization_stall_pct)
    exp.note("adding DQ under Wn=1 must cut compute throughput / TC util and raise stalls")
    return exp
