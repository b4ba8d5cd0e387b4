"""Benchmark harness: experiment definitions, paper claims, reporting.

``repro.bench.figures`` holds one function per evaluation artifact
(Figs. 4/8-16, Tables I-III) and ``repro.bench.ablations`` the extension
sweeps; ``repro.bench.harness`` holds the result containers and table
rendering; ``repro.bench.claims`` names every experiment and states what
each must show (imported on demand: it pulls in every baseline).
"""

from repro.bench.harness import Experiment, Series

__all__ = ["Experiment", "Series"]
