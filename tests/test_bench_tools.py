"""Tests for the benchmark tooling: report rendering, harness, CLI."""

import dataclasses

import pytest

from repro.bench.figures import FIGURES, Claim, Figure, generate, run_figure
from repro.bench.harness import run_dfaster_experiment, run_dredis_experiment
from repro.bench.report import format_latency_histogram, format_table
from repro.cluster.dredis import RedisMode


class TestFormatTable:
    def test_basic_rendering(self):
        text = format_table(
            [{"a": 1, "b": 2.5}, {"a": 10, "b": None}],
            title="T",
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert "N/A" in text
        assert "2.50" in text

    def test_empty_rows(self):
        assert "(no rows)" in format_table([], title="T")

    def test_column_selection(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_alignment(self):
        text = format_table([{"col": 1}, {"col": 1000}])
        body = text.splitlines()[2:]
        assert body[0].endswith("1")
        assert body[1].endswith("1000")


class TestHistogram:
    def test_bins_and_counts(self):
        text = format_latency_histogram([1.0, 1.1, 5.0, 9.9], "H", bins=3)
        assert text.startswith("H")
        assert text.count("|") == 3
        assert "2" in text  # the two low samples share a bin

    def test_empty(self):
        assert "(no samples)" in format_latency_histogram([], "H")

    def test_single_value(self):
        text = format_latency_histogram([3.0, 3.0], "H", bins=2)
        assert "2" in text


class TestHarness:
    def test_dfaster_result_fields(self):
        result = run_dfaster_experiment(
            "t", duration=0.15, warmup=0.05,
            n_workers=2, vcpus=2, n_client_machines=1,
            client_threads=1, batch_size=64,
        )
        assert result.throughput_mops > 0
        assert result.operation_latency["p50"] > 0
        row = result.row()
        assert set(row) >= {"label", "tput_mops", "op_p50_ms"}

    def test_dredis_result_fields(self):
        result = run_dredis_experiment(
            "t", duration=0.15, warmup=0.05,
            n_shards=2, mode=RedisMode.PLAIN, batch_size=64,
            n_client_machines=1, client_threads=1,
        )
        assert result.throughput_mops > 0

    def test_failures_injected(self):
        result = run_dfaster_experiment(
            "t", duration=0.4, warmup=0.05,
            n_workers=2, vcpus=2, n_client_machines=1,
            client_threads=1, batch_size=64,
            checkpoint_interval=0.05,
            failures=(0.2,),
        )
        assert result.stats.aborted.total() > 0


class TestFiguresModule:
    def test_registry_covers_all_figures(self):
        expected = ({f"fig{n}" for n in range(10, 20)}
                    | {"elastic", "openloop", "replication"})
        assert set(FIGURES) == expected

    def test_unknown_figure_rejected(self):
        with pytest.raises(KeyError):
            generate("fig99")

    def test_generate_small_figure(self):
        # fig18 is the cheapest figure; a scaled-down run keeps this fast.
        text = generate("fig18", scale=0.5)
        assert "Figure 18" in text
        assert "d-redis" in text


class TestClaims:
    def test_claim_names_unique_within_each_figure(self):
        for name, figure in FIGURES.items():
            names = [claim.name for claim in figure.claims]
            assert len(names) == len(set(names)), name

    def test_every_claim_is_checked_at_full_scale(self):
        # benchmarks/test_figures.py runs at scale 1.0 and asserts every
        # claim; a min_scale above 1.0 would skip it there silently.
        for figure in FIGURES.values():
            for claim in figure.claims:
                assert 0.0 < claim.min_scale <= 1.0, claim.name

    def test_claims_above_the_scale_are_skipped_not_passed(self,
                                                          monkeypatch):
        calls = []
        stub = Figure("Stub", lambda scale: [{"x": 1}], (
            Claim("holds", lambda rows, results: True, min_scale=0.5),
            Claim("full scale only",
                  lambda rows, results: calls.append(1), min_scale=1.0),
        ))
        monkeypatch.setitem(FIGURES, "stub", stub)
        run = run_figure("stub", scale=0.5)
        assert run.verdicts == {"holds": True, "full scale only": None}
        assert run.failed == [] and calls == []
        assert "pass  holds" in run.text
        assert "skip  full scale only (checked from scale 1)" in run.text

    def test_cli_exits_1_and_names_the_failing_claim(self, monkeypatch,
                                                     capsys):
        from repro.bench.__main__ import main
        failing = Claim("d-redis is free", lambda rows, results: False,
                        min_scale=0.5)
        monkeypatch.setitem(FIGURES, "fig18", dataclasses.replace(
            FIGURES["fig18"], claims=FIGURES["fig18"].claims + (failing,)))
        assert main(["fig18", "--scale", "0.5"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  d-redis is free" in out
        assert "CLAIM FAILED: fig18: d-redis is free" in out


class TestCli:
    def test_main_runs(self, capsys, tmp_path):
        from repro.bench.__main__ import main
        output = tmp_path / "out.txt"
        code = main(["fig18", "--scale", "0.5", "-o", str(output)])
        assert code == 0
        assert "Figure 18" in capsys.readouterr().out
        assert "Figure 18" in output.read_text()

    def test_cli_rejects_unknown(self):
        from repro.bench.__main__ import main
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_budget_rejects_profile(self, capsys):
        """--budget gates unprofiled time only: cProfile inflates the
        array core ~2.5x, so the combination is a usage error rather
        than a gate that always fails (docs/PERFORMANCE.md)."""
        from repro.bench.__main__ import main
        with pytest.raises(SystemExit):
            main(["fig18", "--scale", "0.5", "--profile", "--budget", "60"])
        assert "2.5x" in capsys.readouterr().err

    def test_profile_output_flags_inflation(self, capsys, tmp_path):
        """The per-experiment breakdown must carry the inflation caveat
        so profiled deltas are never mistaken for budget-able numbers."""
        from repro.bench.__main__ import main
        code = main(["fig18", "--scale", "0.5", "--profile",
                     "--profile-out", str(tmp_path / "p.prof")])
        assert code == 0
        out = capsys.readouterr().out
        assert "inflated" in out
        assert (tmp_path / "p.prof").exists()

    def test_gc_reenabled_after_experiment(self):
        """The harness pauses cyclic GC per experiment; a crash-free run
        must hand the interpreter back with GC on."""
        import gc
        from repro.bench.harness import run_dfaster_experiment
        from repro.workloads import YCSB_A
        assert gc.isenabled()
        run_dfaster_experiment("gc probe", duration=0.02, warmup=0.01,
                               n_workers=1, n_client_machines=1,
                               workload=YCSB_A)
        assert gc.isenabled()
