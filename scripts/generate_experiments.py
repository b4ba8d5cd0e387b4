"""Regenerate EXPERIMENTS.md by running every paper experiment.

Usage:  python scripts/generate_experiments.py [--quick]

``--quick`` shrinks the accuracy suite (Table I) for fast iteration.
"""

import argparse
import sys
import time
from pathlib import Path

from repro.bench import figures

HEADER = """\
# EXPERIMENTS — paper vs. measured

Generated by `python scripts/generate_experiments.py`; every table below is
the live output of the corresponding experiment in `repro.bench.figures`
(also exercised by `benchmarks/`).  Values in parentheses are the paper's
reported numbers where the paper prints exact values; the sweep figures
record the paper's "up to" anchors as notes instead.

**Reading guide.**  The substrate is a performance *model* (README),
not the authors' testbed: absolute milliseconds and tokens/s differ
(our baselines run closer to their rooflines than the paper's measured
kernels, so several speedup ratios run ~1.3-2x hot).  The reproduction
contract is the *shape*: who wins, the ordering of variants, where GQA
collapses a baseline, which ablation knob contributes what, and the
validity flags.  Each section lists the shape checks its benchmark
asserts; `pytest benchmarks/ --benchmark-only` must pass them all.

"""

SECTIONS = [
    (
        "Fig. 8 — Blackwell kernel performance (native MXFP4)",
        [("fig8_blackwell", ("rtx5090",)), ("fig8_blackwell", ("rtx_pro_6000",))],
        [
            "BitDecoding-mxfp4 speedup rises with context and batch",
            "reaches 3-9x single@128K (paper >4.3x) and 4-10x batched (paper 8.6x)",
            "beats KIVI-4 by >2x everywhere",
        ],
    ),
    (
        "Fig. 9 — Hopper (H100): v2 vs v3 instruction paths",
        [("fig9_hopper", ())],
        [
            "Flash-attn-v3 beats Flash-attn-v2 by 1.2-2.5x",
            "every BitDecoding v3 build beats its v2 counterpart (35% legacy penalty + wgmma/TMA overlap)",
            "KC-2 (v3) lands 5-13x (paper: up to 8.0x); KC-4 (v2) 2.5-7x (paper: up to 4.1x)",
        ],
    ),
    (
        "Fig. 10 — RTX 4090: Single / Batches / Pages x MHA / GQA",
        [("fig10_rtx4090", ())],
        [
            "~4x at 4-bit and >7x at 2-bit anchors hold within band (2.5-6.5 / 4.5-10)",
            "KIVI collapses under GQA (<60% of its MHA speedup); BitDecoding holds >2x",
            "Pages: BitDecoding beats QServe and Atom at every batch; QServe's GQA collapse reproduced",
        ],
    ),
    (
        "Fig. 11 — A100: high bandwidth exposes compute weaknesses",
        [("fig11_a100", ())],
        [
            "KIVI and QServe hover at or below the FP16 baseline (paper: 'even performing worse')",
            "BitDecoding 2-6x (paper: up to 3x)",
            "the 2-bit-over-4-bit gap is narrower than on the RTX 4090 (paper's closing observation)",
        ],
    ),
    (
        "Fig. 12 — end-to-end vs KIVI (LLaMA-3.1-8B, A100)",
        [("fig12_e2e_kivi", ())],
        [
            "single-batch speedup grows with context (paper: up to 3.3x; ours ~2.0-2.2x — see note)",
            "KIVI-4/2 OOM at 128K from the non-tiled prefill score matrix (NaN bars)",
            "batched throughput ordering KC-2 > KC-4 > KIVI > FDv2 at every batch size",
        ],
    ),
    (
        "Fig. 13 — serving throughput vs QServe (pages, 32K)",
        [("fig13_e2e_qserve", ())],
        [
            "QServe beats FlashDecoding-v2 only on the MHA model (LLaMA-2-7B)",
            "QServe loses to FP16 on every GQA model",
            "BitDecoding >2x QServe on all five models (absolute tok/s run ~3-7x the paper's stack — their serving layer carries overheads our model omits)",
        ],
    ),
    (
        "Fig. 14 — residual-cache runtime overhead",
        [("fig14_residual_overhead", ())],
        [
            "W/ minus W/O residual is a near-constant extra launch (~8-10us here; paper ~17us)",
            "overhead fraction vanishes as context grows",
            "INT4 beats FP16 by >2x from 16K upward (paper: 2.6x at 128K)",
        ],
    ),
    (
        "Fig. 15 — dequantization overhead + micro analysis",
        [("fig15_dequant_overhead", ())],
        [
            "Atom/QServe burn multiples of BitDecoding's dequant share",
            "B-KC-2 > B-KC-4 dequant fraction; both under the paper's 15%/35% ceilings x model tolerance",
            "micro: Atom shows zero Tensor-Core activity and higher FMA+ALU pressure than BitDecoding",
        ],
    ),
    (
        "Fig. 16 — optimization breakdown",
        [("fig16_breakdown", ())],
        [
            "Layout -> +Warps -> +Pipeline is a monotone ladder on A100, H100 and RTX 5090",
            "full stack is >2.5x the continuous-packing baseline everywhere",
            "newer generations gain more (Hopper/Blackwell paths unlock further)",
        ],
    ),
    (
        "Table I — efficiency/accuracy trade-off",
        [("table1_accuracy", ())],
        [
            "throughput: INT4 ~2-6.5x and INT2 ~3-9x over FP16 (paper: 2.98x / 4.25x)",
            "accuracy (LongBench-proxy): INT4 within noise of FP16 (paper -0.2%); INT2 a few points lower (paper -2.7%)",
        ],
    ),
    (
        "Table II — quantization + packing latency (128K)",
        [("table2_quantpack", ())],
        [
            "Marlin (host-side repack) >> Ladder (GPU re-transform) >> BitDecoding (fused), each >5x",
            "all three land in the paper's decade",
            "BitDecoding decode-time quant+pack is ~negligible (fused flush once per N_r tokens)",
        ],
    ),
    (
        "Table III — cooperative softmax and warps",
        [("table3_coop_softmax", ())],
        [
            "Wn=4 much faster than Wn=1; cooperative softmax costs <5% (paper: 0.5%)",
            "TC utilization rises with the wide warp layout",
            "validity measured numerically: Wn=4 without Algorithm 1 is FAST but WRONG",
        ],
    ),
    (
        "Fig. 4b — motivation: DQ under the original warp layout",
        [("fig4_motivation", ())],
        [
            "adding dequantization under Wn=1 cuts compute throughput and TC utilization and raises stall exposure",
        ],
    ),
]


ABLATION_HEADER = """\
## Extension ablations (beyond the paper's own)

Design-choice sweeps, asserted by
`benchmarks/bench_ablations.py` and `benchmarks/bench_speculative.py`:
"""


def _ablation_sections():
    from repro.bench import ablations

    return [
        ablations.warp_width_sweep("a100"),
        ablations.dequant_path_sweep(),
        ablations.tile_size_sweep("a100"),
        ablations.page_size_sweep("a100"),
        ablations.key_group_size_sweep(),
        ablations.bit_width_sweep("rtx4090"),
    ]


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--quick", action="store_true")
    parser.add_argument(
        "--output", default=str(Path(__file__).resolve().parent.parent / "EXPERIMENTS.md")
    )
    args = parser.parse_args()

    parts = [HEADER]
    for title, runs, checks in SECTIONS:
        parts.append(f"## {title}\n")
        for fn_name, fn_args in runs:
            fn = getattr(figures, fn_name)
            t0 = time.time()
            if fn_name == "table1_accuracy":
                exp = fn(quick=args.quick)
            else:
                exp = fn(*fn_args)
            elapsed = time.time() - t0
            print(f"ran {exp.exp_id} in {elapsed:.1f}s", file=sys.stderr)
            parts.append("```text")
            parts.append(exp.render())
            parts.append("```\n")
        parts.append("Shape checks asserted by the benchmark:\n")
        for check in checks:
            parts.append(f"- {check}")
        parts.append("")

    parts.append(ABLATION_HEADER)
    for exp in _ablation_sections():
        print(f"ran {exp.exp_id}", file=sys.stderr)
        parts.append("```text")
        parts.append(exp.render())
        parts.append("```\n")

    Path(args.output).write_text("\n".join(parts) + "\n")
    print(f"wrote {args.output}", file=sys.stderr)


if __name__ == "__main__":
    main()
