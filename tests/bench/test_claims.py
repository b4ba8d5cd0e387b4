"""The paper-claims table: every row holds, and the ledger matches it."""

import json
import math
from pathlib import Path

import pytest

from repro.bench import claims
from repro.bench.claims import CLAIMS, EXPERIMENTS, Claim, evaluate
from repro.bench.harness import Experiment

REPO = Path(__file__).resolve().parents[2]
ROWS = [(name, claim) for name, rows in CLAIMS.items() for claim in rows]
IDS = [f"{name}: {claim.text}" for name, claim in ROWS]


@pytest.fixture(scope="session")
def verdicts():
    """Every experiment run once, every row evaluated once."""
    return {f"{v.experiment}: {v.claim}": v for v in evaluate()}


@pytest.mark.parametrize("row_id", IDS)
def test_claim_holds(verdicts, row_id):
    assert verdicts[row_id].ok, str(verdicts[row_id])


class TestEvaluate:
    @pytest.fixture
    def toy(self, monkeypatch):
        """A one-point experiment ``toy`` measuring 2.0; returns its row setter."""
        exp = Experiment("toy", "toy")
        exp.series_for("s").add(1, 2.0)
        monkeypatch.setitem(EXPERIMENTS, "toy", lambda: exp)
        return lambda *rows: monkeypatch.setitem(CLAIMS, "toy", list(rows))

    def test_row_holds_inside_its_inclusive_band(self, toy):
        toy(Claim("point", claims.at("s", 1), 2.0, 2.0, paper=3.0))
        (verdict,) = evaluate(["toy"])
        assert verdict.ok and verdict.measured == 2.0 and verdict.paper == 3.0
        assert str(verdict) == "point: 2 in [2, 2] (paper 3) — ok"

    def test_row_violated_outside_its_band(self, toy):
        toy(Claim("point", claims.at("s", 1), lo=2.5))
        (verdict,) = evaluate(["toy"])
        assert not verdict.ok
        assert str(verdict) == "point: 2 in [2.5, inf] — VIOLATED"

    def test_nan_measure_is_a_violation(self, toy):
        toy(Claim("nan", lambda get: math.nan))
        assert not evaluate(["toy"])[0].ok

    def test_row_reading_an_unregistered_experiment_raises(self, toy):
        toy(Claim("elsewhere", claims.at("s", 1, "nowhere")))
        with pytest.raises(KeyError, match="nowhere"):
            evaluate(["toy"])
        with pytest.raises(KeyError, match="fig99"):
            evaluate(["fig99"])

    def test_experiments_run_once_and_are_handed_back(self, toy, monkeypatch):
        runs, make = [], EXPERIMENTS["toy"]
        monkeypatch.setitem(EXPERIMENTS, "toy", lambda: runs.append(1) or make())
        toy(Claim("own", claims.at("s", 1)), Claim("named", claims.at("s", 1, "toy")))
        experiments = {}
        evaluate(["toy", "toy"], experiments)
        assert runs == [1] and list(experiments) == ["toy"]


class TestTable:
    def test_every_experiment_has_a_row_and_every_row_an_experiment(self):
        assert list(CLAIMS) == list(EXPERIMENTS)
        assert all(CLAIMS.values())

    def test_ids_are_unique(self):
        assert len(set(IDS)) == len(IDS)

    def test_the_thirteen_cli_names_are_registered(self):
        names = [f"fig{n}" for n in (4, 8, 9, 10, 11, 12, 13, 14, 15, 16)]
        assert set(names + ["table1", "table2", "table3"]) <= set(EXPERIMENTS)


class TestCommittedLedger:
    """``eval/claims.json`` and ``EXPERIMENTS.md`` are regenerated, not edited.

    The rows, papers and bands must be exactly the table's.  Measured values
    are informational for the paper experiments (Table I, Table III validity
    and the key-group ablation go through NumPy RNG + BLAS) and exact for the
    ``serving-*`` rows: seeded traces on the modeled clock, so an intentional
    behaviour change shows its moved numbers as the ledger's ``git diff``.
    """

    @pytest.fixture
    def ledger(self):
        return json.loads((REPO / "eval" / "claims.json").read_text())

    def test_claims_json_is_the_table(self, ledger):
        def finite(x):
            return x if math.isfinite(x) else None

        assert [(r["experiment"], r["claim"], r["paper"], r["lo"], r["hi"]) for r in ledger] == [
            (name, claim.text, claim.paper, finite(claim.lo), finite(claim.hi))
            for name, claim in ROWS
        ], "stale: rerun python scripts/generate_experiments.py"
        assert all(r["ok"] for r in ledger)

    def test_serving_measured_values_are_the_committed_ones(self, ledger, verdicts):
        committed = {
            f"{r['experiment']}: {r['claim']}": r["measured"]
            for r in ledger
            if r["experiment"].startswith("serving-")
        }
        assert committed, "stale: rerun python scripts/generate_experiments.py"
        for row_id, measured in committed.items():
            assert verdicts[row_id].measured == pytest.approx(measured, rel=1e-9, abs=0), (
                f"{row_id} moved: rerun python scripts/generate_experiments.py"
            )

    def test_experiments_md_has_a_verdict_line_per_row(self):
        lines = (REPO / "EXPERIMENTS.md").read_text().splitlines()
        bullets = [line for line in lines if line.startswith("- ")]
        assert len(bullets) == len(ROWS)
        for bullet, (_, claim) in zip(bullets, ROWS):
            assert bullet.startswith(f"- {claim.text}: ") and bullet.endswith(" — ok")
