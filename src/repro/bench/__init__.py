"""Benchmark harness: experiment definitions, paper claims, reporting.

``repro.bench.figures`` holds one function per evaluation artifact
(Figs. 4/8-16, Tables I-III), ``repro.bench.ablations`` the extension
sweeps and ``repro.bench.serving`` the seeded engine / router runs;
``repro.bench.harness`` holds the result containers and table rendering;
``repro.bench.claims`` names every experiment and states what each must
show (``claims`` and ``serving`` are imported on demand: they pull in
every baseline and the whole serving stack).
"""

from repro.bench.harness import Experiment, Series

__all__ = ["Experiment", "Series"]
