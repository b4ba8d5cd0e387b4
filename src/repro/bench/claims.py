"""The reproduction's contract, stated once.

``EXPERIMENTS`` names every experiment the repo can run; ``CLAIMS`` says,
per experiment, what it must show, as rows of one uniform shape::

    Claim(text, measure, lo=-inf, hi=inf, paper=None)

``measure(get)`` reads one float out of the experiments — ``get()`` is the
row's own :class:`~repro.bench.harness.Experiment`, ``get("fig10")``
another one; each runs at most once per :func:`evaluate`.  A row holds iff
``lo <= measured <= hi`` (so a NaN never holds); an exact-value claim has
``lo == hi``.  ``paper`` is the paper's value for the same quantity where
it prints one.

Tier-1 (``tests/bench/test_claims.py``), ``python -m repro experiment``,
``EXPERIMENTS.md`` and ``eval/claims.json`` are all derived from these two
tables: to add a claim, add a row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional

from repro.bench import ablations, figures, serving
from repro.bench.figures import (
    FIG13_PAPER,
    FIG14_PAPER,
    FIG15_PAPER,
    TABLE1_PAPER,
    TABLE2_PAPER,
    TABLE3_PAPER,
)
from repro.bench.harness import Experiment
from repro.gpu.arch import GPU_REGISTRY

#: ``get()`` -> the row's own experiment, ``get(name)`` -> a named one.
Get = Callable[..., Experiment]
Measure = Callable[[Get], float]

EXPERIMENTS: Dict[str, Callable[[], Experiment]] = {
    "fig4": figures.fig4_motivation,
    "fig8": figures.fig8_blackwell,
    "fig8-pro6000": partial(figures.fig8_blackwell, "rtx_pro_6000"),
    "fig9": figures.fig9_hopper,
    "fig10": figures.fig10_rtx4090,
    "fig11": figures.fig11_a100,
    "fig12": figures.fig12_e2e_kivi,
    "fig13": figures.fig13_e2e_qserve,
    "fig14": figures.fig14_residual_overhead,
    "fig15": figures.fig15_dequant_overhead,
    "fig16": figures.fig16_breakdown,
    "table1": figures.table1_accuracy,
    "table2": figures.table2_quantpack,
    "table3": figures.table3_coop_softmax,
    "ablation-warp-width": ablations.warp_width_sweep,
    "ablation-dequant-path": ablations.dequant_path_sweep,
    "ablation-tile-size": ablations.tile_size_sweep,
    "ablation-page-size": ablations.page_size_sweep,
    "ablation-key-group-size": ablations.key_group_size_sweep,
    "ablation-bit-width": ablations.bit_width_sweep,
    "speculative-amortization": ablations.speculative_amortization,
    "serving-formats": serving.serving_formats,
    "serving-prefix-cache": serving.serving_prefix_cache,
    "serving-offload": serving.serving_offload,
    "serving-chaos": serving.serving_chaos,
    "serving-cluster": serving.serving_cluster,
}


@dataclass(frozen=True)
class Claim:
    """One row of the contract: a measured number and its accepted band."""

    text: str
    measure: Measure
    lo: float = -math.inf
    hi: float = math.inf
    paper: Optional[float] = None


@dataclass(frozen=True)
class Verdict:
    """One evaluated row (``claim`` is the row's text)."""

    experiment: str
    claim: str
    paper: Optional[float]
    measured: float
    lo: float
    hi: float
    ok: bool

    def __str__(self) -> str:
        paper = "" if self.paper is None else f" (paper {self.paper:.4g})"
        return (
            f"{self.claim}: {self.measured:.4g} in [{self.lo:g}, {self.hi:g}]"
            f"{paper} — {'ok' if self.ok else 'VIOLATED'}"
        )


def evaluate(
    names: Optional[Iterable[str]] = None,
    experiments: Optional[Dict[str, Experiment]] = None,
) -> List[Verdict]:
    """Evaluate the rows of ``names`` (default: every experiment), in order.

    ``experiments`` is the run cache: pass a dict to keep the
    :class:`Experiment` objects or to share runs across calls.  A name that
    is not in ``EXPERIMENTS`` — asked for, or read by a row — raises
    ``KeyError``.
    """
    cache = {} if experiments is None else experiments

    def run(name: str) -> Experiment:
        if name not in cache:
            cache[name] = EXPERIMENTS[name]()
        return cache[name]

    verdicts = []
    for name in EXPERIMENTS if names is None else names:
        run(name)

        def get(other: Optional[str] = None, own: str = name) -> Experiment:
            return run(other or own)

        for claim in CLAIMS[name]:
            measured = float(claim.measure(get))
            ok = claim.lo <= measured <= claim.hi
            verdicts.append(
                Verdict(name, claim.text, claim.paper, measured, claim.lo, claim.hi, ok)
            )
    return verdicts


# ------------------------------------------------------------------ measures


def at(series: str, x: object, exp: Optional[str] = None) -> Measure:
    """One point of a series."""
    return lambda get: get(exp).series[series].value_at(x)


def ratio(num: Measure, den: Measure) -> Measure:
    return lambda get: num(get) / den(get)


def minus(a: Measure, b: Measure) -> Measure:
    return lambda get: a(get) - b(get)


def vs(a: str, b: str, x: object) -> Measure:
    """Series ``a`` over series ``b`` at the same point."""
    return ratio(at(a, x), at(b, x))


def across(series: str, x_num: object, x_den: object) -> Measure:
    """One series at ``x_num`` over the same series at ``x_den``."""
    return ratio(at(series, x_num), at(series, x_den))


def _min_ratio(vals: List[float]) -> float:
    return min(b / a for a, b in zip(vals, vals[1:]))


def min_step(points: Iterable[Measure]) -> Measure:
    """Minimum consecutive ratio along ``points``: >= 1 means they rise."""
    points = list(points)
    return lambda get: _min_ratio([point(get) for point in points])


def rises(series: str) -> Measure:
    """Minimum consecutive ratio along a series' own x axis."""
    return lambda get: _min_ratio(get().series[series].values())


def isnan(measure: Measure) -> Measure:
    return lambda get: float(math.isnan(measure(get)))


# -------------------------------------------------------------------- claims

_INF = math.inf
_SEQS, _BATCHES, _FP4_SEQS = (1024, 10240, 102400), (8, 32, 128), (8192, 32768, 131072)
_PANELS = (("Single", _SEQS), ("Batches", _BATCHES))
_FP4 = {"Single": "Single/BitDecoding-mxfp4", "Batches": "Batches/BitDecoding-mxfp4"}
_FP16, _WITH_RES, _WO_RES = "FP16 FlashDecoding-v2", "INT4 W/ Residual", "INT4 W/O Residual"
_STAGES = (
    "Baseline (Continuous Packing)",
    "Layout",
    "Layout + Warps",
    "Layout + Warps + Pipeline",
)
_DEVICES = ("a100", "h100", "rtx5090")
_WN1, _WN4_OFF, _WN4_ON = ("1", "off"), ("4", "off"), ("4", "on")
_BITS = ("fp16", "int8", "int4", "int2", "int1")
_DQ, _DQ_PAPER = "DequantFraction", FIG15_PAPER["DequantFraction"]
_LAT, _TC = "Latency-ms", "TC-Utilization-pct"
_FORMATS, _CHUNK = ("FP16", "INT4", "INT2"), f"/{serving.PREFILL_CHUNK}"
_TOK_S, _TOKENS, _PEAK = "sustained_tokens_per_s", "total_generated_tokens", "peak_resident_batch"
_RR, _AFFINITY, _GROUPS = "round_robin", "prefix_affinity", float(serving.CLUSTER_GROUPS)
_CHAOS_VERDICTS = (
    "schedule_match", "all_damage_healed", "outputs_bit_exact_after_recovery",
    "exercised_retry", "exercised_heal", "exercised_shed",
)  # fmt: skip


def _residual_ms(seq: int) -> Measure:
    """Fig. 14's W/ minus W/O residual latency: the extra launch."""
    return minus(at(_WITH_RES, seq), at(_WO_RES, seq))


def _residual_ms_spread(get: Get) -> float:
    gaps = [_residual_ms(seq)(get) for seq in FIG14_PAPER]
    return max(gaps) / min(gaps)


def _residual_share(seq: int) -> Measure:
    return ratio(_residual_ms(seq), at(_WITH_RES, seq))


def _cuda_pipes(series: str) -> Measure:
    """Fig. 15b's FMA + ALU pipe pressure."""
    return lambda get: at(series, "FMA")(get) + at(series, "ALU")(get)


def _best_latency(get: Get) -> float:
    return min(get().series[_LAT].values())


# fmt: off
CLAIMS: Dict[str, List[Claim]] = {
    # Fig. 4b: adding dequantization under the original Wn=1 layout hurts.
    "fig4": [
        Claim("Tensor-Core utilization, with / without dequant",
              vs("W/ Dequant", "W/O Dequant", "TCs utilization"), hi=1.0),
        Claim("compute throughput, with / without dequant",
              vs("W/ Dequant", "W/O Dequant", "Com. Throughput"), hi=1.0),
        Claim("memory stalls, with / without dequant",
              vs("W/ Dequant", "W/O Dequant", "Memory Stalls"), lo=1.0),
    ],
    # Fig. 8: RTX 5090 up to 8.6x batched and >4.3x single @ 128K ...
    "fig8": [
        Claim("mxfp4 speedup rises with context", rises(_FP4["Single"]), lo=0.98),
        Claim("mxfp4 speedup rises with batch", rises(_FP4["Batches"]), lo=0.98),
        Claim("mxfp4 speedup, single @ 131072", at(_FP4["Single"], 131072), 3.0, 9.0, paper=4.3),
        Claim("mxfp4 speedup, batches @ 128", at(_FP4["Batches"], 128), 4.0, 10.0, paper=8.6),
        *[Claim(f"mxfp4 over KIVI-4, {panel.lower()} @ {x}",
                vs(_FP4[panel], f"{panel}/KIVI-4", x), lo=2.0)
          for panel, xs in (("Single", _FP4_SEQS), ("Batches", _BATCHES)) for x in xs],
    ],
    # ... the RTX PRO 6000 peaks at 6.5x with large batches.
    "fig8-pro6000": [
        Claim("mxfp4 speedup rises with context", rises(_FP4["Single"]), lo=0.98),
        Claim("mxfp4 speedup, batches @ 128", at(_FP4["Batches"], 128), 3.5, 9.5, paper=6.5),
    ],
    # Fig. 9: FA-3 beats FA-2, every v3 build beats its v2 counterpart (35%
    # legacy penalty + wgmma/TMA overlap); v2 up to 4.1x, v3 up to 8.0x.
    "fig9": [
        *[Claim(f"Flash-attn-v3 over Flash-attn-v2, batches @ {bs}",
                at("Batches/Flash-attn-v3", bs), 1.2, 2.5)
          for bs in _BATCHES],
        *[Claim(f"{cfg} v3 build over its v2 build, {panel.lower()} @ {x}",
                vs(f"{panel}/BitDecoding-{cfg} (v3)", f"{panel}/BitDecoding-{cfg} (v2)", x), lo=1.0)
          for panel, xs in _PANELS for x in xs for cfg in ("KT-4", "KC-4", "KC-2")],
        Claim("KC-4 (v2) speedup, single @ 102400",
              at("Single/BitDecoding-KC-4 (v2)", 102400), 2.5, 7.0, paper=4.1),
        Claim("KC-2 (v3) speedup, single @ 102400",
              at("Single/BitDecoding-KC-2 (v3)", 102400), 5.0, 12.0, paper=8.0),
        Claim("KC-2 (v3) speedup, batches @ 128",
              at("Batches/BitDecoding-KC-2 (v3)", 128), 5.0, 13.0, paper=8.0),
        Claim("2-bit over 4-bit (v2), single @ 102400",
              vs("Single/BitDecoding-KC-2 (v2)", "Single/BitDecoding-KC-4 (v2)", 102400), lo=1.0),
    ],
    # Fig. 10: ~4x at 4-bit and >7x at 2-bit; GQA collapses KIVI and QServe
    # (paper: QServe 3.5x on MHA pages, 1.4x on GQA) but not BitDecoding.
    "fig10": [
        Claim("KC-4 speedup rises with context", rises("Single-MHA/KC-4"), lo=0.98),
        Claim("KC-2 speedup rises with context", rises("Single-MHA/KC-2"), lo=0.98),
        Claim("KC-4 speedup, single MHA @ 102400",
              at("Single-MHA/KC-4", 102400), 2.5, 6.5, paper=4.0),
        Claim("KC-2 speedup, single MHA @ 102400",
              at("Single-MHA/KC-2", 102400), 4.5, 10.0, paper=7.0),
        Claim("2-bit over 4-bit, single MHA @ 102400",
              vs("Single-MHA/KC-2", "Single-MHA/KC-4", 102400), lo=1.0),
        *[Claim(f"KC-{bits} over KIVI-{bits}, single MHA @ {seq}",
                vs(f"Single-MHA/KC-{bits}", f"Single-MHA/KIVI-{bits}", seq), lo=1.0)
          for seq in (10240, 102400) for bits in (4, 2)],
        Claim("KIVI-4 speedup, GQA / MHA, single @ 102400",
              vs("Single-GQA/KIVI-4", "Single-MHA/KIVI-4", 102400), hi=0.6),
        Claim("KC-4 speedup, single GQA @ 102400", at("Single-GQA/KC-4", 102400), lo=2.0),
        *[Claim(f"KC-4 over {other}, pages {variant} @ {bs}",
                vs(f"Pages-{variant}/KC-4", f"Pages-{variant}/{other}", bs), lo=1.0)
          for bs in (2, 4, 8)
          for variant, other in (("MHA", "QServe"), ("GQA", "QServe"), ("MHA", "Atom"))],
        Claim("QServe speedup, GQA / MHA, pages @ 8",
              vs("Pages-GQA/QServe", "Pages-MHA/QServe", 8), hi=0.8, paper=1.4 / 3.5),
        Claim("QServe speedup, pages MHA @ 8", at("Pages-MHA/QServe", 8), lo=2.0, paper=3.5),
    ],
    # Fig. 11: BitDecoding up to ~3x; KIVI / QServe hover at or below the
    # FP16 baseline; 2-bit's edge over 4-bit is narrower than on the RTX
    # 4090 because abundant bandwidth shifts kernels compute-side.
    "fig11": [
        *[Claim(f"KC-4 over KIVI-4, single @ {seq}",
                vs("Single/KC-4", "Single/KIVI-4", seq), lo=1.5)
          for seq in (10240, 102400)],
        Claim("KC-4 speedup, single @ 102400", at("Single/KC-4", 102400), 2.0, 6.0, paper=3.0),
        Claim("KIVI-4 speedup, single @ 102400", at("Single/KIVI-4", 102400), hi=1.2),
        Claim("KIVI-4 speedup, batches @ 32", at("Batches/KIVI-4", 32), hi=1.2),
        *[Claim(f"QServe speedup, pages @ {bs}", at("Pages/QServe", bs), hi=1.6)
          for bs in (8, 16, 32, 64)],
        *[Claim(f"KC-4 over QServe, pages @ {bs}", vs("Pages/KC-4", "Pages/QServe", bs), lo=2.0)
          for bs in (8, 16, 32, 64)],
        Claim("2-bit over 4-bit @ 102400, A100 / RTX 4090",
              ratio(vs("Single/KC-2", "Single/KC-4", 102400),
                    ratio(at("Single-MHA/KC-2", 102400, "fig10"),
                          at("Single-MHA/KC-4", 102400, "fig10"))), hi=1.0),
    ],
    # Fig. 12: latency speedup grows with context, KIVI's non-tiled prefill
    # OOMs at 128K (NaN bar), throughput orders KC-2 > KC-4 > KIVI > FP16.
    "fig12": [
        Claim("KC-4 latency speedup rises with context",
              rises("Single/BitDecoding-KC-4"), lo=0.98),
        Claim("KC-4 latency speedup, single @ 131072",
              at("Single/BitDecoding-KC-4", 131072), lo=1.5),
        Claim("KIVI-4 out of memory, single @ 131072",
              isnan(at("Single/Kivi-4", 131072)), 1.0, 1.0),
        Claim("KIVI-4 out of memory, single @ 65536", isnan(at("Single/Kivi-4", 65536)), 0.0, 0.0),
        *[Claim(f"tokens/s, {a} over {b}, batches @ {bs}",
                vs(f"Batches/{a}", f"Batches/{b}", bs), lo=1.0)
          for bs in (10, 30, 50)
          for a, b in (("BitDecoding-KC-2", "BitDecoding-KC-4"), ("BitDecoding-KC-4", "Kivi-4"),
                       ("Kivi-2", "FlashDecoding-v2"))],
        Claim("KC-4 tokens/s rises with batch", rises("Batches/BitDecoding-KC-4"), lo=0.98),
    ],
    # Fig. 13: QServe beats FP16 only on the MHA model (LLaMA-2-7B);
    # BitDecoding delivers more than 2x QServe everywhere.
    "fig13": [
        *[Claim(f"QServe over FlashDecoding-v2, {model}", vs("Qserve", "FlashDecoding-v2", model),
                *((1.0, _INF) if model == "llama-2-7B" else (-_INF, 1.0)), paper=qs / fd)
          for model, (fd, qs, _) in FIG13_PAPER.items()],
        *[Claim(f"BitDecoding over QServe, {model}", vs("Bitdecoding", "Qserve", model),
                lo=2.0, paper=bd / qs)
          for model, (_, qs, bd) in FIG13_PAPER.items()],
        *[Claim(f"BitDecoding over FlashDecoding-v2, {model}",
                vs("Bitdecoding", "FlashDecoding-v2", model), lo=1.0, paper=bd / fd)
          for model, (fd, _, bd) in FIG13_PAPER.items()],
        Claim("BitDecoding tokens/s, llama-3.1-70B / llama-3.1-8B",
              across("Bitdecoding", "llama-3.1-70B", "llama-3.1-8B"), hi=1.0,
              paper=FIG13_PAPER["llama-3.1-70B"][2] / FIG13_PAPER["llama-3.1-8B"][2]),
    ],
    # Fig. 14: the residual kernel is a near-constant extra launch (paper
    # ~17us) whose share of the step vanishes with context; launch overhead
    # compresses the FP16 ratio at 4K.
    "fig14": [
        *[Claim(f"FP16 over INT4 with residual @ {seq}", vs(_FP16, _WITH_RES, seq),
                lo=1.1 if seq == 4096 else 2.0, hi=7.0 if seq == 131072 else _INF,
                paper=fp16 / with_res)
          for seq, (fp16, _, with_res) in FIG14_PAPER.items()],
        *[Claim(f"INT4 with over without residual @ {seq}", vs(_WITH_RES, _WO_RES, seq),
                lo=1.0, paper=with_res / without)
          for seq, (_, without, with_res) in FIG14_PAPER.items()],
        Claim("residual overhead ms, largest / smallest across lengths",
              _residual_ms_spread, 1.0, 2.0),
        Claim("residual overhead share of the step, 131072 / 4096",
              ratio(_residual_share(131072), _residual_share(4096)), hi=0.5),
    ],
    # Fig. 15: CUDA-core systems burn their time dequantizing, BitDecoding
    # hides it under Tensor-Core MMAs (paper: <15% at 4-bit, <35% at 2-bit).
    "fig15": [
        *[Claim(f"dequant fraction, {label} / B-KC-4", across(_DQ, label, "B-KC-4"), lo=lo,
                paper=_DQ_PAPER[label] / _DQ_PAPER["B-KC-4"])
          for label, lo in (("Atom", 2.0), ("Qserve", 1.5), ("B-KC-2", 1.0))],
        *[Claim(f"dequant fraction, {label}", at(_DQ, label), hi=hi, paper=_DQ_PAPER[label])
          for label, hi in (("B-KT-4", 0.20), ("B-KC-4", 0.20), ("B-KC-2", 0.40))],
        Claim("Tensor-Core activity pct, Atom", at("Micro/Atom", "Tensor Core"), 0.0, 0.0,
              paper=FIG15_PAPER["Micro/Atom"]["Tensor Core"]),
        Claim("Tensor-Core activity pct, BitDecoding", at("Micro/BitDecoding", "Tensor Core"),
              lo=10.0, paper=FIG15_PAPER["Micro/BitDecoding"]["Tensor Core"]),
        Claim("FMA + ALU pipe pct, Atom over BitDecoding",
              ratio(_cuda_pipes("Micro/Atom"), _cuda_pipes("Micro/BitDecoding")), lo=1.0),
    ],
    # Fig. 16: layout -> +warps -> +pipeline each add speedup on the A100
    # (v2), H100 (v3) and RTX 5090 (fp4) paths; newer generations gain more.
    "fig16": [
        *[Claim(f"smallest gain of a stage over the previous one, {device}",
                min_step(at(stage, device) for stage in _STAGES), lo=1.0)
          for device in _DEVICES],
        *[Claim(f"full stack over continuous packing, {device}",
                vs(_STAGES[-1], _STAGES[0], device), lo=2.5)
          for device in _DEVICES],
        *[Claim(f"full-stack speedup, {device} / a100", across(_STAGES[-1], device, "a100"), lo=1.0)
          for device in ("h100", "rtx5090")],
    ],
    # Table I: INT4 ~3x and INT2 ~4.3x FP16's throughput at a small accuracy
    # cost; accuracy here is the LongBench-proxy suite, in points.
    "table1": [
        *[Claim(f"throughput, {fmt} / FP16", across("Throughput", fmt, "FP16"), lo, hi,
                paper=TABLE1_PAPER[fmt][0] / TABLE1_PAPER["FP16"][0])
          for fmt, lo, hi in (("INT4", 2.0, 6.5), ("INT2", 3.0, 9.0))],
        Claim("throughput, INT2 / INT4", across("Throughput", "INT2", "INT4"), lo=1.0,
              paper=TABLE1_PAPER["INT2"][0] / TABLE1_PAPER["INT4"][0]),
        *[Claim(f"accuracy points, {fmt} minus {ref}",
                minus(at("Accuracy", fmt), at("Accuracy", ref)), lo, hi,
                paper=TABLE1_PAPER[fmt][1] - TABLE1_PAPER[ref][1])
          for fmt, ref, lo, hi in (("INT4", "FP16", -3.0, _INF), ("INT2", "FP16", -12.0, _INF),
                                   ("INT2", "INT4", -_INF, 1.0))],
    ],
    # Table II: weight-oriented repacking (host round trips, static-shape
    # transforms) costs orders of magnitude more than the fused
    # in-register quantize+pack; the decode-time flush is near-free.
    "table2": [
        *[Claim(f"prefill ms, {a} / {b}", vs(a, b, "Prefill"), lo=5.0,
                paper=TABLE2_PAPER[a][0] / TABLE2_PAPER[b][0])
          for a, b in (("Marlin", "Ladder"), ("Ladder", "BitDecoding"))],
        *[Claim(f"{phase.lower()} ms, {system}", at(system, phase), lo, hi,
                paper=TABLE2_PAPER[system][phase == "Decode"])
          for phase, system, lo, hi in (
              ("Prefill", "Marlin", 30.0, 120.0), ("Prefill", "Ladder", 1.5, 10.0),
              ("Prefill", "BitDecoding", -_INF, 0.3), ("Decode", "Marlin", 0.1, 1.0),
              ("Decode", "Ladder", 0.1, 1.5), ("Decode", "BitDecoding", -_INF, 0.01))],
    ],
    # Table III: Wn=1 is slow but valid; Wn=4 without the cooperative
    # softmax is FAST but WRONG (validity is executed numerics, not theory);
    # Algorithm 1 restores correctness at ~0.5% cost.
    "table3": [
        Claim("latency, Wn=1 / Wn=4 cooperative", across(_LAT, _WN1, _WN4_ON), lo=2.0,
              paper=TABLE3_PAPER[_WN1][0] / TABLE3_PAPER[_WN4_ON][0]),
        Claim("latency, Wn=4 cooperative / non-cooperative", across(_LAT, _WN4_ON, _WN4_OFF),
              0.95, 1.05, paper=TABLE3_PAPER[_WN4_ON][0] / TABLE3_PAPER[_WN4_OFF][0]),
        Claim("Tensor-Core utilization, Wn=4 cooperative / Wn=1", across(_TC, _WN4_ON, _WN1),
              lo=1.5, paper=TABLE3_PAPER[_WN4_ON][1] / TABLE3_PAPER[_WN1][1]),
        *[Claim(f"valid, Wn={wn} cooperative softmax {coop}", at("Valid", (wn, coop)),
                float(valid), float(valid), paper=float(valid))
          for (wn, coop), (_, _, valid) in TABLE3_PAPER.items()],
    ],
    # Extension sweeps over the tunables the paper fixes by construction.
    "ablation-warp-width": [
        Claim("latency, Wn=1 / Wn=4", across(_LAT, 1, 4), lo=1.5),
        Claim("latency, Wn=4 / Wn=8 (returns diminish)", across(_LAT, 4, 8), hi=1.3),
        Claim("Tensor-Core utilization, Wn=4 / Wn=1", across(_TC, 4, 1), lo=1.0),
        # Eq. 1: the residual block grows linearly with Wn.
        Claim("N_r(8) / N_r(4)", across("Residual-block-Nr", 8, 4), 2.0, 2.0),
        Claim("N_r(4) / N_r(2)", across("Residual-block-Nr", 4, 2), 2.0, 2.0),
    ],
    # The 75316420 remap exists because the cvt pipe is slow (Sec. IV-A(3)):
    # on the conversion alone lop3 wins by > 1.5x on every device.
    "ablation-dequant-path": [
        *[Claim(f"latency, static_cast over lop3, {device}", vs("cvt", "lop3", device), lo=1.0)
          for device in ("a100", "rtx4090", "h100")],
        *[Claim(f"dequant-only time, static_cast over lop3, INT{bits}, {device}",
                vs(f"dequant-only/cvt/INT{bits}", f"dequant-only/lop3/INT{bits}", device), lo=lo)
          for bits, devices, lo in ((4, GPU_REGISTRY, 1.5), (2, ("a100",), 1.0))
          for device in devices],
    ],
    "ablation-tile-size": [
        Claim("shared memory per block, T_n=256 / T_n=32",
              across("SMEM-per-block-KiB", 256, 32), lo=1.0),
        Claim("latency, default T_n=128 / best in sweep",
              ratio(at(_LAT, 128), _best_latency), hi=1.25),
    ],
    "ablation-page-size": [
        Claim("latency, page 16 / page 256 (lookups)", across(_LAT, 16, 256), lo=1.0),
        Claim("fragmentation, page 256 / page 16 (waste)",
              across("Fragmentation-pct", 256, 16), lo=1.0),
    ],
    "ablation-key-group-size": [
        Claim("metadata bytes per token, group 16 / group 128",
              across("Meta-bytes-per-token", 16, 128), lo=1.0),
        Claim("mean abs error, group 128 / group 16", across("Mean-abs-error", 128, 16), lo=1.0),
    ],
    "ablation-bit-width": [
        Claim(f"latency, {narrow} / {wide}", across(_LAT, narrow, wide), hi=1.0)
        for wide, narrow in zip(_BITS, _BITS[1:])
    ],
    # One n-token verification pass streams the packed cache once and the
    # draft rows ride the already-padded MMA tile.
    "speculative-amortization": [
        *[Claim(f"n single-token passes over one {n}-token pass", at("Gain", n), lo=1.0)
          for n in (2, 4, 8, 16)],
        Claim("gain, 4 drafts / 2 drafts", across("Gain", 4, 2), lo=1.0),
        Claim("gain, 16 drafts / 4 drafts", across("Gain", 16, 4), lo=1.0),
        Claim("one-pass ms, 16 drafts / 1 draft", across("One-pass-ms", 16, 1), hi=2.0),
    ],
    # The serving experiments run seeded traces on the modeled clock, so their
    # measured values are pinned exactly by the committed eval/claims.json
    # (tests/bench/test_claims.py); the bands are the shape.  Bands are
    # inclusive, so a strict ordering of two floats carries a margin.
    #
    # One trace, one memory budget: lower bits -> more pages -> more resident
    # sequences -> more tokens/s; chunked prefill collapses the worst
    # inter-token stall at identical token totals; one batch-8 launch beats
    # eight batch-1 launches on the engine's own price.
    "serving-formats": [
        *[Claim(f"tokens/s, {fmt}, chunked", at(_TOK_S, fmt + _CHUNK), lo=lo)
          for fmt, lo in zip(_FORMATS, (28.6, 29.1, 29.1))],
        Claim("pages, INT4 / FP16", across("n_pages", "INT4", "FP16"), lo=3.01),
        Claim("pages, INT2 / INT4", across("n_pages", "INT2", "INT4"), lo=1.5),
        *[Claim(f"peak resident batch, {a} minus {b}, {mode}",
                minus(at(_PEAK, a + suffix), at(_PEAK, b + suffix)), lo=lo)
          for mode, suffix in (("whole-prompt", ""), ("chunked", _CHUNK))
          for a, b, lo in (("INT4", "FP16", 1.0), ("INT2", "INT4", 0.0))],
        Claim("tokens/s, INT4 / FP16, whole-prompt", across(_TOK_S, "INT4", "FP16"), lo=1.01),
        Claim("tokens/s, INT2 / INT4, whole-prompt", across(_TOK_S, "INT2", "INT4"), lo=1.0),
        *[Claim(f"{what}, {fmt}, {mode}", at(series, fmt + suffix), count, count)
          for mode, suffix in (("whole-prompt", ""), ("chunked", _CHUNK))
          for what, series, count in (("completed", "completed", 80.0),
                                      ("rejected", "rejected", 0.0))
          for fmt in _FORMATS],
        *[Claim(f"generated tokens, chunked minus whole-prompt, {fmt}",
                minus(at(_TOKENS, fmt + _CHUNK), at(_TOKENS, fmt)), 0.0, 0.0)
          for fmt in _FORMATS],
        *[Claim(f"mixed prefill+decode steps, {fmt}, chunked", at("mixed_steps", fmt + _CHUNK),
                lo=1.0)
          for fmt in _FORMATS],
        *[Claim(f"max TBT, chunked / whole-prompt, {fmt}",
                across("max_tbt_s", fmt + _CHUNK, fmt), hi=0.5)
          for fmt in _FORMATS],
        # FP16 is page-constrained, so its admissions spread through the decode
        # phase and the stalls land inside the p99, not just the max.
        Claim("p99 TBT, chunked / whole-prompt, FP16",
              across("p99_tbt_s", "FP16" + _CHUNK, "FP16"), hi=0.5),
        Claim("priced decode step, 8 x batch 1 / 1 x batch 8 @ 16384",
              across("decode_step_ms", "8 x batch 1", "1 x batch 8"), lo=5.0),
    ],
    # Hits only remove prefill work, and shared pages stretch the pool; on/off
    # is a scheduling change, not a workload change.
    "serving-prefix-cache": [
        Claim("prefix hit rate, cache on", at("prefix_hit_rate", "on"), lo=0.25),
        Claim("tokens/s, cache on / off", across(_TOK_S, "on", "off"), lo=1.0),
        Claim("effective capacity minus pool pages, cache on",
              minus(at("effective_capacity_pages", "on"), at("n_pages", "on")), lo=1.0),
        *[Claim(f"{what}, cache on minus off", minus(at(series, "on"), at(series, "off")), 0.0, 0.0)
          for what, series in (("generated tokens", _TOKENS), ("completed", "completed"))],
    ],
    # Real pressure, real swaps, and PCIe traffic beats replaying prefills on
    # the same device page budget; both disciplines finish the same workload.
    "serving-offload": [
        Claim("swap-outs, swap", at("swap_outs", "swap"), lo=1.0),
        Claim("preemptions, recompute", at("preemptions", "recompute"), lo=1.0),
        Claim("tokens/s, swap / recompute", across(_TOK_S, "swap", "recompute"), lo=1.01),
        *[Claim(f"{what}, swap minus recompute",
                minus(at(series, "swap"), at(series, "recompute")), 0.0, 0.0)
          for what, series in (("generated tokens", _TOKENS), ("completed", "completed"))],
        Claim("executed minus generated tokens, swap",
              minus(at("executed_tokens", "swap"), at(_TOKENS, "swap")), 0.0, 0.0),
    ],
    # The plan bites (retry, heal, shed), recovery holds (nothing FAILED,
    # every crosscheck() verdict True), and goodput stays a bounded fraction
    # of the fault-free run's throughput.
    "serving-chaos": [
        Claim("transfer retries", at("transfer_retries", "chaos"), lo=1.0),
        Claim("healed pages", at("healed_pages", "chaos"), lo=1.0),
        Claim("failed requests", at("failed", "chaos"), 0.0, 0.0),
        Claim("goodput / fault-free tokens/s",
              ratio(at("goodput_tokens_per_s", "chaos"), at(_TOK_S, "fault_free")), lo=0.40),
        Claim("completed, fault-free", at("completed", "fault_free"), 8.0, 8.0),
        Claim("crosscheck verdicts", at("checks", "chaos"),
              float(len(_CHAOS_VERDICTS)), float(len(_CHAOS_VERDICTS))),
        *[Claim(f"check {name}", at(f"check {name}", "chaos"), 1.0, 1.0)
          for name in _CHAOS_VERDICTS],
    ],
    # Affinity keeps every prefix group home and beats round-robin, which
    # splits all 15; tp=2 shards the attention kernel and pays the interconnect.
    "serving-cluster": [
        Claim("tokens/s, prefix_affinity / round_robin", across(_TOK_S, _AFFINITY, _RR), lo=1.10),
        Claim("prefix hit rate, prefix_affinity / round_robin",
              across("prefix_hit_rate", _AFFINITY, _RR), lo=1.01),
        Claim("cross-replica prefix misses, prefix_affinity",
              at("cross_replica_prefix_misses", _AFFINITY), 0.0, 0.0),
        Claim("cross-replica prefix misses, round_robin",
              at("cross_replica_prefix_misses", _RR), lo=_GROUPS),
        Claim("prefix groups split, prefix_affinity",
              at("prefix_groups_split", _AFFINITY), 0.0, 0.0),
        Claim("prefix groups split, round_robin", at("prefix_groups_split", _RR), _GROUPS, _GROUPS),
        *[Claim(f"completed, {policy}", at("completed", policy), 45.0, 45.0)
          for policy in (_RR, "least_loaded", _AFFINITY)],
        Claim("all-reduce tax ms, tp=2", at("comm_ms", "tp=2"), lo=0.01),
        Claim("attention ms, tp=2 rank / tp=1", across("attention_ms", "tp=2", "tp=1"), hi=0.99),
        Claim("decode step ms, tp=2 / tp=1", across("total_ms", "tp=2", "tp=1"), hi=0.99),
    ],
}
# fmt: on
