"""Reproducible benchmark run directories under ``eval/results/``.

A host-clock benchmark run (``benchmarks/bench_kernel_hotpath.py``, the
``benchmarks/e2e`` ledger) persists its exact configuration and full
payload in its own directory::

    eval/results/<name>-<digest>/
        manifest.json   # name + the exact config (flags, seeds) of the run
        summary.json    # everything the run measured

``<digest>`` is a content hash of the canonical config JSON, so the same
configuration always maps to the same directory (re-runs overwrite, a
changed flag or seed forks a new directory) and two machines running the
same benchmark land on identical paths.  Nothing under ``eval/results/``
is committed.  Modeled numbers do not come through here: they are rows of
:data:`repro.bench.claims.CLAIMS`, committed as ``eval/claims.json``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional


def _canonical(config: dict) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)


def run_digest(config: dict) -> str:
    """Stable 10-hex-digit digest of a run configuration."""
    return hashlib.sha256(_canonical(config).encode()).hexdigest()[:10]


def write_run(
    name: str,
    config: dict,
    summary: dict,
    root: Optional[Path] = None,
) -> Path:
    """Persist one benchmark run under ``eval/results/`` and return its dir.

    ``config`` must hold everything needed to reproduce the run (model,
    geometry, trace shape, seeds); ``summary`` is what it measured.
    """
    base = Path(root) if root is not None else Path("eval") / "results"
    run_dir = base / f"{name}-{run_digest(config)}"
    run_dir.mkdir(parents=True, exist_ok=True)
    manifest = {"name": name, "digest": run_digest(config), "config": config}
    (run_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, default=str) + "\n")
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=2, default=str) + "\n")
    return run_dir
