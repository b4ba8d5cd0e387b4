"""Experiment container and table rendering."""

import pytest

from repro.bench.harness import Experiment, Series


def _experiment():
    exp = Experiment(exp_id="t", title="test")
    exp.series_for("fast").add(1, 2.0)
    exp.series_for("fast").add(2, 3.0)
    exp.series_for("slow").add(1, 1.0)
    exp.series_for("slow").add(2, 0.9)
    return exp


class TestSeries:
    def test_value_at(self):
        s = Series("x", [(1, 2.0), (2, 4.0)])
        assert s.value_at(2) == 4.0
        with pytest.raises(KeyError):
            s.value_at(3)

    def test_paper_alignment(self):
        s = Series("x")
        s.add(1, 2.0)
        s.add(2, 4.0, paper=4.1)
        assert s.paper == [None, 4.1]


class TestExperiment:
    def test_series_for_creates_once(self):
        exp = Experiment("e", "t")
        a = exp.series_for("s")
        assert exp.series_for("s") is a

    def test_render_contains_values_and_paper(self):
        exp = Experiment("e", "t")
        exp.series_for("s").add("x", 2.5, paper=3.0)
        text = exp.render()
        assert "2.50(3)" in text
        assert "e: t" in text

    def test_render_handles_missing_points(self):
        text = _experiment().render()
        assert "-" not in text.split("\n")[0]  # header clean

    def test_notes_rendered(self):
        exp = _experiment()
        exp.note("hello")
        assert "note: hello" in exp.render()
