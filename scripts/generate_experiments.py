"""Regenerate EXPERIMENTS.md and eval/claims.json from ``repro.bench.claims``.

Usage:  python scripts/generate_experiments.py [--output EXPERIMENTS.md] [--check]

``eval/claims.json`` (one verdict row per line, ``inf`` as ``null``) is
written beside the document.  Exits 1 if any row is violated, after
writing both.

``--check`` writes nothing in the repo: it regenerates into a temporary
directory, prints every row whose ``measured`` differs from the committed
``eval/claims.json`` as ``experiment / claim: old -> new``, and exits 1 if
any row moved or is violated.
"""

import argparse
import json
import math
import sys
import tempfile
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


REPO = Path(__file__).resolve().parent.parent


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=str(REPO / "EXPERIMENTS.md"))
    parser.add_argument(
        "--check", action="store_true", help="report moved rows of the committed ledger"
    )
    args = parser.parse_args(argv)
    if args.check:
        with tempfile.TemporaryDirectory() as tmp:
            held = write(Path(tmp) / "EXPERIMENTS.md")
            fresh = json.loads((Path(tmp) / "eval" / "claims.json").read_text())
        moved = moved_rows(json.loads((REPO / "eval" / "claims.json").read_text()), fresh)
        print("\n".join(moved) or "no row of eval/claims.json moved")
        ok = held and not moved
    else:
        ok = write(Path(args.output))
    if not ok:
        sys.exit(1)


def moved_rows(committed, fresh) -> list:
    """``experiment / claim: old -> new`` for every row whose measured value
    differs between two ledgers (``None`` for a row one of them lacks)."""
    old = {(r["experiment"], r["claim"]): r["measured"] for r in committed}
    new = {(r["experiment"], r["claim"]): r["measured"] for r in fresh}
    return [
        f"{key[0]} / {key[1]}: {old.get(key)} -> {new.get(key)}"
        for key in {**old, **new}
        if old.get(key) != new.get(key)
    ]


def write(output: Path) -> bool:
    """Write ``output`` and the ledger beside it; True iff every row holds."""
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
    return held == len(rows)


if __name__ == "__main__":
    main()
