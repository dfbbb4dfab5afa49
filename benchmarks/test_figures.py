"""Every §7 figure at scale 1.0, with its paper claims asserted.

The sweeps and claims live in the figure registry
(:mod:`repro.bench.figures`); this module only runs each figure under
pytest-benchmark, writes its table to ``benchmarks/results/<name>.txt``
and fails on any claim that does not hold.
"""

import pytest

from repro.bench.figures import FIGURES, run_figure


@pytest.mark.parametrize("name", list(FIGURES))
def test_figure(benchmark, report, name):
    run = benchmark.pedantic(run_figure, args=(name,), rounds=1,
                             iterations=1)
    report(name, run.text)
    assert not run.failed, f"{name}: claims failed: {run.failed}"
