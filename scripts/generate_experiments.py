"""Regenerate EXPERIMENTS.md and eval/claims.json from ``repro.bench.claims``.

Usage:  python scripts/generate_experiments.py [--output EXPERIMENTS.md]

``eval/claims.json`` (one verdict row per line, ``inf`` as ``null``) is
written beside the document.  Exits 1 if any row is violated, after
writing both.
"""

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from repro.bench.claims import EXPERIMENTS, evaluate

HEADER = """\
# EXPERIMENTS — paper vs. measured

Generated by `python scripts/generate_experiments.py` from the `EXPERIMENTS`
and `CLAIMS` tables in `src/repro/bench/claims.py`; nothing here is edited
by hand.  Each section is the live table of one experiment (paper values in
parentheses where the paper prints exact numbers) followed by one line per
claim row: `text: measured in [lo, hi] (paper p) — ok`.

The substrate is a performance *model* (README), not the authors' testbed:
absolute milliseconds and tokens/s differ, so the reproduction contract is
the *shape* — who wins, the ordering of variants, where GQA collapses a
baseline, which knob contributes what, the validity flags — and each row's
band says how much of it is accepted.  `python -m repro experiment all`
evaluates the same rows and exits 1 on a violated one.
"""


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output", default=str(Path(__file__).resolve().parent.parent / "EXPERIMENTS.md")
    )
    output = Path(parser.parse_args(argv).output)

    claims = output.parent / "eval" / "claims.json"
    claims.parent.mkdir(parents=True, exist_ok=True)

    experiments = {}
    verdicts = evaluate(experiments=experiments)
    parts = [HEADER]
    for name in EXPERIMENTS:
        parts += [f"## {name}\n", "```text", experiments[name].render(), "```\n"]
        parts += [f"- {verdict}" for verdict in verdicts if verdict.experiment == name]
        parts.append("")
    output.write_text("\n".join(parts))

    rows = [
        {k: v if not isinstance(v, float) or math.isfinite(v) else None for k, v in row.items()}
        for row in map(asdict, verdicts)
    ]
    claims.write_text("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
    held = sum(row["ok"] for row in rows)
    print(f"wrote {output} and {claims}: {held}/{len(rows)} rows hold")
    if held < len(rows):
        sys.exit(1)


if __name__ == "__main__":
    main()
