"""Experiment harness: structured results + paper-vs-measured reporting.

Every figure/table module in :mod:`repro.bench.figures` returns an
:class:`Experiment` — a set of labelled series with optional paper
reference values, rendered as an aligned table.  The qualitative *shape*
the README's reproduction contract asks of them (orderings, monotonicity,
crossovers) is stated as rows of :data:`repro.bench.claims.CLAIMS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class Series:
    """One labelled line/bar group of an experiment."""

    label: str
    #: (x, value) points; x may be a sequence position, batch size, etc.
    points: List[Tuple[object, float]] = field(default_factory=list)
    #: Optional paper-reported values aligned with ``points``.
    paper: Optional[List[Optional[float]]] = None

    def add(self, x: object, value: float, paper: Optional[float] = None) -> None:
        self.points.append((x, value))
        if paper is not None or self.paper is not None:
            if self.paper is None:
                self.paper = [None] * (len(self.points) - 1)
            self.paper.append(paper)

    def values(self) -> List[float]:
        return [v for _, v in self.points]

    def value_at(self, x: object) -> float:
        for px, v in self.points:
            if px == x:
                return v
        raise KeyError(f"series {self.label!r} has no point at {x!r}")


@dataclass
class Experiment:
    """A complete figure/table reproduction."""

    exp_id: str
    title: str
    unit: str = "speedup vs baseline"
    series: Dict[str, Series] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def series_for(self, label: str) -> Series:
        if label not in self.series:
            self.series[label] = Series(label=label)
        return self.series[label]

    def note(self, text: str) -> None:
        self.notes.append(text)

    # -------------------------------------------------------------- reporting

    def render(self) -> str:
        """Aligned text table, paper values in parentheses when known."""
        lines = [f"== {self.exp_id}: {self.title} ==", f"   unit: {self.unit}"]
        xs: List[object] = []
        for s in self.series.values():
            for x, _ in s.points:
                if x not in xs:
                    xs.append(x)
        label_w = max((len(s.label) for s in self.series.values()), default=8)
        widths = [max(12, len(str(x))) for x in xs]
        header = " " * (label_w + 2) + "  ".join(f"{str(x):>{w}}" for x, w in zip(xs, widths))
        lines.append(header)
        for s in self.series.values():
            cells = []
            for x, w in zip(xs, widths):
                try:
                    v = s.value_at(x)
                except KeyError:
                    cells.append(f"{'-':>{w}}")
                    continue
                paper = None
                if s.paper is not None:
                    idx = [px for px, _ in s.points].index(x)
                    paper = s.paper[idx] if idx < len(s.paper) else None
                if abs(v) >= 1e4:
                    cell = f"{v:.3g}"
                elif abs(v) < 0.1:
                    cell = f"{v:.3g}"
                else:
                    cell = f"{v:.2f}"
                if paper is not None:
                    cell += f"({paper:g})"
                cells.append(f"{cell:>{w}}")
            lines.append(f"{s.label:<{label_w}}  " + "  ".join(cells))
        for note in self.notes:
            lines.append(f"   note: {note}")
        return "\n".join(lines)

    def show(self) -> None:
        print("\n" + self.render())
