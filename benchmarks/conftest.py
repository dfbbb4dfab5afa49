"""Shared fixtures for the benchmarks.

Every benchmark regenerates one table from the paper's §7 (or an
ablation) and both prints it and writes it to
``benchmarks/results/<name>.txt`` so the output survives pytest's
capture.  Durations are scaled down from the paper's 30-second runs to
sub-second simulated windows; the simulator is deterministic, so short
windows are stable.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def report():
    """Callable: report(name, text) prints and persists a table."""

    def emit(name: str, text: str) -> None:
        print()
        print(text)
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return emit
