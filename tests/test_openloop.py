"""Tests for the open-loop fleet driver and its admission stack."""

import random

import pytest

from repro.cluster import DFasterCluster, DFasterConfig
from repro.cluster.dredis import DRedisCluster, DRedisConfig
from repro.obs import Tracer
from repro.workloads import (
    DEFAULT_SCENARIO,
    ScenarioError,
    SessionTable,
    TokenBucket,
    attach_open_loop,
    poisson_draw,
    slo_report,
    validate_scenario,
)
from repro.workloads.openloop import ACKED, FREE, QUEUED


def run_openloop(config_cls, cluster_cls, scenario, duration=0.4,
                 warmup=0.1, **config_kwargs):
    cluster = cluster_cls(config_cls(n_client_machines=0, **config_kwargs))
    driver = attach_open_loop(cluster, scenario=scenario)
    cluster.run(duration, warmup=warmup)
    return cluster, driver


def run_dfaster(scenario, duration=0.4, **config_kwargs):
    config_kwargs.setdefault("n_workers", 2)
    config_kwargs.setdefault("vcpus", 4)
    config_kwargs.setdefault("seed", 7)
    return run_openloop(DFasterConfig, DFasterCluster, scenario,
                        duration=duration, **config_kwargs)


class TestScenarioValidation:
    def test_defaults_round_trip(self):
        merged = validate_scenario(None)
        assert merged["arrival"]["process"] == "poisson"
        assert merged["session"]["ops"] == DEFAULT_SCENARIO["session"]["ops"]

    def test_overrides_deep_merge(self):
        merged = validate_scenario(
            {"name": "burst", "arrival": {"rate": 1e6}})
        assert merged["name"] == "burst"
        assert merged["arrival"]["rate"] == 1e6
        # Untouched keys keep their defaults.
        assert merged["arrival"]["tick"] == DEFAULT_SCENARIO["arrival"]["tick"]
        # The shared default dict is not mutated.
        assert DEFAULT_SCENARIO["arrival"]["rate"] != 1e6

    def test_unknown_section_rejected(self):
        with pytest.raises(ScenarioError, match="arrivals"):
            validate_scenario({"arrivals": {"rate": 1e6}})

    def test_unknown_key_names_the_path(self):
        with pytest.raises(ScenarioError, match="arrival.rat"):
            validate_scenario({"arrival": {"rat": 1e6}})

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ScenarioError, match="arrival.process"):
            validate_scenario({"arrival": {"process": "uniform"}})
        with pytest.raises(ScenarioError, match="arrival.rate"):
            validate_scenario({"arrival": {"rate": 0}})
        with pytest.raises(ScenarioError, match="write_fraction"):
            validate_scenario({"session": {"write_fraction": 1.5}})
        with pytest.raises(ScenarioError, match="admission.policy"):
            validate_scenario({"admission": {"policy": "drop-newest"}})


class TestPrimitives:
    def test_poisson_draw_mean_tracks_lambda(self):
        rng = random.Random(3)
        for lam in (0.5, 4.0, 200.0):  # Knuth and normal-approx regimes
            draws = [poisson_draw(rng, lam) for _ in range(4000)]
            assert all(d >= 0 for d in draws)
            mean = sum(draws) / len(draws)
            assert mean == pytest.approx(lam, rel=0.1)

    def test_poisson_draw_zero_rate(self):
        assert poisson_draw(random.Random(1), 0.0) == 0

    def test_token_bucket_refills_to_burst(self):
        bucket = TokenBucket(rate=100.0, burst=50.0, now=0.0)
        assert bucket.take(50.0)
        assert not bucket.take(1.0)
        bucket.refill(0.25)  # 25 tokens back
        assert bucket.take(25.0)
        bucket.refill(10.0)  # caps at burst, not rate * 10
        assert bucket.take(50.0)
        assert not bucket.take(1.0)

    def test_session_table_allocates_runs(self):
        table = SessionTable()
        first = table.alloc(1.0, 2, 2)
        second = table.alloc(2.0, 1, 1)
        assert (first, second) == (range(0, 2), range(2, 3))
        assert list(table.state) == [QUEUED] * 3
        assert list(table.arrival) == [1.0, 1.0, 2.0]
        assert (table.live, table.peak_live) == (3, 3)
        table.mark(second, ACKED)
        table.release(first)
        assert list(table.state) == [FREE, FREE, ACKED]
        assert table.live == 1
        # Handles are not reused.  Five arrive into two free admission
        # slots: each past the second is shed before the next arrives,
        # so at most three of them (two slots plus one) are live at once.
        third = table.alloc(3.0, 5, 3)
        assert third == range(3, 8)
        assert list(table.arrivals(third)) == [3.0] * 5
        assert (table.live, table.peak_live) == (6, 4)
        assert table.allocated == 8

    def test_session_table_trims_retired_prefix(self):
        table = SessionTable()
        previous = table.alloc(0.0, 100, 100)
        for tick in range(1, 500):
            run = table.alloc(float(tick), 100, 100)
            table.release(previous)
            previous = run
        # 50k sessions offered, 200 ever live: the rows follow the live
        # span, and handles still resolve after the prefix is cut.
        assert table.allocated == 50_000
        assert table.base > 0
        assert len(table.state) == len(table.arrival) <= \
            SessionTable.TRIM_FLOOR + 100
        assert list(table.arrivals(previous)) == [499.0] * 100


SMALL_SCENARIO = {
    "arrival": {"rate": 50_000.0},
    "admission": {"queue_capacity": 20_000},
}

OVERLOAD_SCENARIO = {
    "arrival": {"rate": 2_000_000.0},
    "session": {"coalesce": 256},
    "admission": {"queue_capacity": 50_000, "max_inflight": 16},
}


class TestOpenLoopDriver:
    def test_sessions_commit_against_dfaster(self):
        _, driver = run_dfaster(SMALL_SCENARIO)
        report = slo_report(driver)
        assert report["committed_sessions"] > 0
        assert report["commit_latency"]["count"] == \
            report["committed_sessions"]
        assert 0 < report["commit_latency"]["p50"] <= \
            report["commit_latency"]["p99"] <= \
            report["commit_latency"]["p999"]

    def test_sessions_commit_against_dredis(self):
        _, driver = run_openloop(
            DRedisConfig, DRedisCluster, SMALL_SCENARIO,
            n_shards=2, seed=7, checkpoint_interval=0.05)
        assert slo_report(driver)["committed_sessions"] > 0

    def test_same_seed_reproduces_report(self):
        first = slo_report(run_dfaster(SMALL_SCENARIO)[1])
        second = slo_report(run_dfaster(SMALL_SCENARIO)[1])
        assert first == second

    def test_session_conservation(self):
        # Every offered session is accounted for exactly once:
        # shed, committed, aborted, or still live at the end.
        report = slo_report(run_dfaster(OVERLOAD_SCENARIO)[1])
        assert report["offered_sessions"] == (
            report["shed_sessions"] + report["committed_sessions"]
            + report["aborted_sessions"] + report["live_sessions"])

    def test_overload_sheds_and_bounds_the_backlog(self):
        tracer = Tracer()
        cluster, driver = run_dfaster(OVERLOAD_SCENARIO, tracer=tracer)
        report = slo_report(driver)
        assert report["shed_sessions"] > 0
        assert driver.admit.shed_items == report["shed_sessions"]
        # The admission queue never exceeded its bound (the watermark
        # is recorded on every enqueue) and the shed counter surfaced.
        key = "queue.admit:openloop-0"
        assert tracer.queue_high_watermarks[key] <= \
            driver.admit.capacity
        assert tracer.counters[key + ".shed"] == report["shed_sessions"]
        # Post-run the depth gauge reflects the live backlog.
        assert tracer.queue_depths[key] == len(driver.admit)

    def test_token_bucket_caps_admitted_throughput(self):
        rate_limited = dict(SMALL_SCENARIO,
                            admission={"queue_capacity": 100_000,
                                       "token_rate": 40_000.0})
        _, driver = run_dfaster(rate_limited)
        report = slo_report(driver)
        # 40k ops/s over 0.4s at 8 ops/session admits ~2k sessions.
        dispatched = report["completed_sessions"] + report["aborted_sessions"]
        ops = driver._ops
        assert dispatched * ops <= 40_000.0 * 0.4 + driver.bucket.burst

    def test_crash_preserves_prefix_recoverability(self):
        # A mid-run crash rolls the world line forward: sessions beyond
        # the recovered cut abort, committed ones stay committed, and
        # the driver keeps committing on the new world line.
        cluster = DFasterCluster(DFasterConfig(
            n_workers=3, vcpus=2, n_client_machines=0, seed=7,
            checkpoint_interval=0.05))
        cluster.schedule_crash(worker_index=1, at_time=0.3)
        driver = attach_open_loop(cluster, scenario=SMALL_SCENARIO)
        committed_at_crash = {}

        def probe():
            yield 0.3
            committed_at_crash["count"] = driver.committed_sessions

        cluster.env.process(probe(), name="probe")
        cluster.run(1.0, warmup=0.05)
        report = slo_report(driver)
        assert driver.world_line >= 1
        assert report["aborted_sessions"] > 0
        # No committed session was lost to the rollback, and commits
        # resumed on the new world line.
        assert report["committed_sessions"] > committed_at_crash["count"] > 0
        assert report["offered_sessions"] == (
            report["shed_sessions"] + report["committed_sessions"]
            + report["aborted_sessions"] + report["live_sessions"])

    def test_session_table_stays_within_live_span(self):
        # A long run below the knee offers many times more sessions than
        # are ever live; the table must track the live ones.
        scenario = {
            "arrival": {"rate": 100_000.0},
            "session": {"coalesce": 256},
            "admission": {"queue_capacity": 200_000, "max_inflight": 16},
        }
        _, driver = run_dfaster(scenario, duration=2.0)
        table = driver.table
        assert table.allocated >= 10 * table.peak_live
        assert len(table.state) <= 3 * table.peak_live

    def test_smoke_sustains_100k_concurrent_sessions(self):
        # The flagship scale documented in docs/OPENLOOP.md is 1M
        # concurrent; the CI smoke asserts a tenth of that.
        scenario = {
            "arrival": {"rate": 2_000_000.0},
            "session": {"coalesce": 256},
            "admission": {"queue_capacity": 200_000, "max_inflight": 16},
        }
        _, driver = run_dfaster(scenario)
        assert driver.table.peak_live >= 100_000
