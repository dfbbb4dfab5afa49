"""The benchmark's three workloads, their sim metrics and their checks.

Each workload drives the program from outside, through the same
harness entry points figure generation uses
(``repro.bench.harness.run_dfaster_experiment`` /
``run_dredis_experiment``), so the program's own tracer and the
per-experiment GC pause are part of what gets measured.  The workload
seed goes in as the cluster config ``seed``; reader RNGs are derived
from it.

A workload function returns an :class:`Outcome`: sim metrics (pure
functions of the seed), the host-time split between set-up and running,
diagnostic lines, and the list of failed correctness checks.  See
``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.bench import harness
from repro.cluster.client import ReplicaReadClient
from repro.cluster.dredis import RedisMode
from repro.core.audit import InvariantViolation, audit_deployment
from repro.obs import interpolated_percentile
from repro.sim.rand import make_rng, spawn
from repro.sim.storage import StorageKind
from repro.workloads import YCSB_A_ZIPFIAN, YCSB_B, attach_open_loop, slo_report
from repro.workloads.openloop import ACKED, FREE

#: Open-loop commit-latency limit; later sessions count as misses.
LIMIT_S = 0.150
#: A percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10

CLOSED_WINDOW = (0.6, 0.1)        # (duration, warmup), sim seconds
OPENLOOP_WINDOW = (0.5, 0.1)
REPLICATED_WINDOW = (0.6, 0.1)
REPLICATED_CHECKPOINT = 0.05
#: Offered open-loop rates, sessions per second; brackets the knee.
LADDER = (250e3, 500e3, 750e3, 1e6, 2e6)
#: The rung whose latencies are the workload's headline numbers.
REPORT_RATE = 500e3
READERS = 16
READ_KEYS = 8


@dataclass
class Outcome:
    """What one repeat of a workload produced."""

    sim: Dict[str, float] = field(default_factory=dict)
    #: Sample counts behind the sim percentiles, by metric name.
    samples: Dict[str, int] = field(default_factory=dict)
    diag: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    experiments: int = 0
    setup_s: float = 0.0
    run_s: float = 0.0
    #: Host time from each ``env.run`` return to the harness return.
    teardown_s: float = 0.0
    #: Called with (cluster, ExperimentResult, extra) as each experiment
    #: finishes; the traced run reads its per-layer counts here.  Only
    #: numbers are kept, so no cluster outlives its experiment.
    inspect: Optional[Callable[[object, object, Dict], None]] = None
    #: Index, in run order, of the experiment whose stages are reported.
    report_index: int = 0

    def finished(self, cluster, result, **extra) -> None:
        if self.inspect is not None:
            self.inspect(cluster, result, extra)


class Timer:
    """Splits host time into set-up (up to ``env.run``) and running.

    The first experiment's set-up starts at ``t0``, taken before the
    program is imported, so imports are part of ``setup_s``.
    """

    def __init__(self, outcome: Outcome, t0: float,
                 run_end: Optional[Callable[[], float]] = None):
        self.outcome = outcome
        self.start = t0
        #: Host time the last ``env.run`` returned (traced runs only).
        self.run_end = run_end

    def run(self, runner: Callable, label: str, setup=None, **kwargs):
        start = self.start if self.start is not None else time.perf_counter()
        self.start = None
        marks: Dict[str, object] = {}

        def hook(cluster):
            if setup is not None:
                setup(cluster)
            marks["cluster"] = cluster
            marks["ready"] = time.perf_counter()

        result = runner(label, setup=hook, **kwargs)
        done = time.perf_counter()
        self.outcome.setup_s += marks["ready"] - start
        self.outcome.run_s += done - marks["ready"]
        if self.run_end is not None:
            self.outcome.teardown_s += done - self.run_end()
        self.outcome.experiments += 1
        return result, marks["cluster"]


# -- checks ------------------------------------------------------------------


def _audit(outcome: Outcome, label: str, cluster, shards) -> None:
    """The four §4.3 audits, plus: a DPR run must commit something."""
    try:
        audit_deployment(cluster.finder,
                         {shard.address: shard.engine for shard in shards})
    except InvariantViolation as exc:
        outcome.failures.append(f"{label}: audit failed: {exc}")
    if cluster.stats.committed.total() <= 0:
        outcome.failures.append(f"{label}: DPR run committed nothing")


def _closed_loop_metrics(outcome: Outcome, result) -> None:
    sim = outcome.sim
    stats = result.stats
    sim["tput_mops"] = result.throughput_mops
    sim["commit_tput_mops"] = result.commit_throughput_mops
    sim["op_p50_ms"] = result.operation_latency["p50"] * 1e3
    sim["op_p99_ms"] = result.operation_latency["p99"] * 1e3
    sim["commit_p50_ms"] = result.commit_latency["p50"] * 1e3
    sim["commit_p99_ms"] = result.commit_latency["p99"] * 1e3
    # Reservoir percentiles: p999 needs TAIL_SAMPLES samples past it.
    sampled = min(stats.commit_latency.count, stats.commit_latency.capacity)
    outcome.samples["op"] = result.operation_latency["count"]
    outcome.samples["commit"] = result.commit_latency["count"]
    if sampled * 0.001 >= TAIL_SAMPLES:
        sim["commit_p999_ms"] = result.commit_latency["p999"] * 1e3
    else:
        outcome.diag.append(
            f"commit_p999_ms not reported: {sampled} samples, "
            f"needs {TAIL_SAMPLES * 1000}")


# -- closed-dfaster ----------------------------------------------------------


def closed_dfaster(seed: int, timer: Timer) -> Outcome:
    """Saturated D-FASTER steady state (paper Fig 10/12)."""
    outcome = timer.outcome
    duration, warmup = CLOSED_WINDOW
    result, cluster = timer.run(
        harness.run_dfaster_experiment, "closed-dfaster",
        duration=duration, warmup=warmup, seed=seed,
        n_workers=4, vcpus=16, n_client_machines=4, client_threads=4,
        workload=YCSB_A_ZIPFIAN, batch_size=1024, window=16 * 1024,
        storage=StorageKind.LOCAL_SSD, checkpoint_interval=0.1,
        finder="approximate")
    outcome.finished(cluster, result)
    _audit(outcome, "closed-dfaster", cluster, cluster.workers)
    _closed_loop_metrics(outcome, result)
    stats = result.stats
    completed, aborted = stats.completed.total(), stats.aborted.total()
    outcome.sim["failed_frac"] = aborted / max(1.0, completed + aborted)
    return outcome


# -- openloop-knee -----------------------------------------------------------


def miss_percentile(percentile: Callable[[float], float], represented: int,
                    misses: int, q: float) -> Optional[float]:
    """Percentile ``q`` over ``represented + misses`` sessions.

    ``percentile`` gives percentiles of the ``represented`` observed
    latencies (exactly, or from a uniform reservoir sample); misses
    rank above every observation.  Returns None when the percentile
    lands among the misses.
    """
    population = represented + misses
    if represented == 0:
        return None
    rank = q / 100.0 * (population - 1)
    if math.ceil(rank) > represented - 1:
        return None
    if represented == 1:
        return percentile(0.0)
    return percentile(100.0 * rank / (represented - 1))


def _ms(value: Optional[float]) -> str:
    return "miss" if value is None else f"{value * 1e3:.3f}"


def _rung(outcome: Outcome, rate: float, seed: int, timer: Timer):
    duration, warmup = OPENLOOP_WINDOW
    scenario = {
        "arrival": {"rate": rate},
        "session": {"ops": 8, "coalesce": 256},
        "admission": {"queue_capacity": 200_000, "policy": "shed-oldest",
                      "max_inflight": 16},
    }
    drivers: list = []
    depth: Dict[str, int] = {}

    def setup(cluster):
        driver = attach_open_loop(cluster, scenario)
        drivers.append(driver)

        def sample_mid(_arg):
            depth["mid"] = len(driver.admit)
        cluster.env.call_later(duration / 2, sample_mid)

    label = f"openloop-knee rate={rate:g}"
    result, cluster = timer.run(
        harness.run_dfaster_experiment, label,
        duration=duration, warmup=warmup, seed=seed, setup=setup,
        n_workers=2, vcpus=4, n_client_machines=0)
    driver = drivers[0]
    depth["end"] = len(driver.admit)
    report = slo_report(driver)
    _audit(outcome, label, cluster, cluster.workers)
    ledger = (report["shed_sessions"] + report["committed_sessions"]
              + report["aborted_sessions"] + report["live_sessions"])
    if ledger != report["offered_sessions"]:
        outcome.failures.append(
            f"{label}: session ledger does not balance: offered "
            f"{report['offered_sessions']} != shed+committed+aborted+live "
            f"{ledger}")

    # Live sessions older than the limit are misses; younger ones are
    # right-censored (they may still make it).
    table = driver.table
    state, arrival = table.state, table.arrival
    horizon = duration - LIMIT_S
    old_live = young_live = old_unacked = 0
    for handle in range(len(state)):
        status = state[handle]
        if status == FREE:
            continue
        if arrival[handle] >= horizon:
            young_live += 1
            continue
        old_live += 1
        if status != ACKED:
            old_unacked += 1
    lost = report["shed_sessions"] + report["aborted_sessions"]
    commits = sorted(driver.commit_latencies)
    commit_misses = lost + old_live
    acks = result.stats.operation_latency
    ack_misses = lost + old_unacked
    rung = {
        "rate": rate,
        "tput_mops": result.throughput_mops,
        "commit_tput_mops": result.commit_throughput_mops,
        "report": report,
        "depth": depth,
        "commit_count": len(commits) + commit_misses,
        "op_count": acks.count + ack_misses,
        "failed": lost,
    }
    for q, name in ((50, "p50"), (99, "p99"), (99.9, "p999")):
        rung["commit_" + name] = miss_percentile(
            lambda p: interpolated_percentile(commits, p), len(commits),
            commit_misses, q)
        rung["op_" + name] = miss_percentile(
            acks.percentile, acks.count, ack_misses, q)
    rung["tail_ok"] = (len(commits) + commit_misses) * 0.001 >= TAIL_SAMPLES
    rung["slo_ok"] = (rung["commit_p99"] is not None
                      and rung["commit_p99"] <= LIMIT_S
                      and depth["end"] <= depth["mid"])
    latency = report["commit_latency"]
    offered = max(1, report["offered_sessions"])
    outcome.diag.append(
        f"rung {rate / 1e3:g}k sess/s: offered={report['offered_sessions']} "
        f"shed={100.0 * report['shed_sessions'] / offered:.2f}% "
        f"commit p50/p99 with misses={_ms(rung['commit_p50'])}/"
        f"{_ms(rung['commit_p99'])} ms "
        f"(n={rung['commit_count']}, censored={young_live}); "
        f"slo_report p50/p99 without shed={latency['p50'] * 1e3:.3f}/"
        f"{latency['p99'] * 1e3:.3f} ms; admission depth mid/end="
        f"{depth['mid']}/{depth['end']}; "
        f"{'meets' if rung['slo_ok'] else 'misses'} SLO")
    outcome.finished(cluster, result, driver=driver)
    return rung


def openloop_knee(seed: int, timer: Timer) -> Outcome:
    """Open-loop D-FASTER on a fixed ladder of offered rates."""
    outcome = timer.outcome
    rungs = [_rung(outcome, rate, seed, timer) for rate in LADDER]
    sim = outcome.sim
    passing = [r["rate"] for r in rungs if r["slo_ok"]]
    sim["slo_rate_ksess"] = max(passing) / 1e3 if passing else 0.0
    outcome.report_index = LADDER.index(REPORT_RATE)
    report = rungs[outcome.report_index]
    for name in ("op_p50", "op_p99", "commit_p50", "commit_p99",
                 "commit_p999"):
        value = report[name]
        if name == "commit_p999" and not report["tail_ok"]:
            outcome.diag.append("commit_p999_ms not reported: fewer than "
                                f"{TAIL_SAMPLES * 1000} sessions")
            continue
        if value is None:
            outcome.failures.append(
                f"{name}_ms at the {REPORT_RATE / 1e3:g}k rung is a miss")
            continue
        sim[name + "_ms"] = value * 1e3
    outcome.samples["op"] = report["op_count"]
    outcome.samples["commit"] = report["commit_count"]
    sim["tput_mops"] = rungs[-1]["tput_mops"]
    sim["commit_tput_mops"] = rungs[-1]["commit_tput_mops"]
    offered = sum(r["report"]["offered_sessions"] for r in rungs)
    sim["failed_frac"] = sum(r["failed"] for r in rungs) / max(1, offered)
    return outcome


# -- replicated-failover -----------------------------------------------------


def replicated_failover(seed: int, timer: Timer) -> Outcome:
    """Replicated D-Redis: writes, replica reads and one recovery."""
    outcome = timer.outcome
    duration, warmup = REPLICATED_WINDOW
    # Mid-window, shifted half a checkpoint interval off the checkpoint
    # grid: on the grid, whether the failure lands just before or just
    # after a commit turns on sub-millisecond timing, and the loss
    # (and so the commit metrics) flip between two values by seed.
    failure_at = (warmup + (duration - warmup) / 2
                  + REPLICATED_CHECKPOINT / 2)
    readers: List[ReplicaReadClient] = []

    def setup(cluster):
        rng = make_rng(seed)
        primaries = sorted(cluster.replication.chains)
        for index in range(READERS):
            address = f"bench-reader-{index}"
            reader = ReplicaReadClient(
                cluster.env, cluster.net, address, cluster.metadata,
                primaries, rng=spawn(rng, address))
            cluster.replication.register_client(reader)
            readers.append(reader)
            cluster.env.process(
                reader.run_closed_loop(batch_keys=READ_KEYS), name=address)
        cluster.schedule_failure(failure_at)

    label = "replicated-failover"
    result, cluster = timer.run(
        harness.run_dredis_experiment, label,
        duration=duration, warmup=warmup, seed=seed, setup=setup,
        n_shards=2, n_client_machines=2, mode=RedisMode.DPR,
        workload=YCSB_B, batch_size=64,
        checkpoint_interval=REPLICATED_CHECKPOINT,
        replication_factor=2, replica_vcpus=1)
    outcome.finished(cluster, result, readers=readers)
    _audit(outcome, label, cluster, cluster.proxies)
    _closed_loop_metrics(outcome, result)

    recoveries = cluster.manager.recoveries
    finished = [r for r in recoveries if r["finished_at"] is not None]
    if len(finished) != 1 or len(recoveries) != 1:
        outcome.failures.append(
            f"{label}: expected one finished recovery, got "
            f"{len(finished)} of {len(recoveries)}")
    if finished:
        outcome.sim["recovery_ms"] = max(
            r["finished_at"] - r["started_at"] for r in finished) * 1e3
    reads_ok = sum(reader.reads_completed for reader in readers)
    reads_failed = sum(reader.reads_failed for reader in readers)
    if reads_ok == 0:
        outcome.failures.append(f"{label}: readers completed no reads")
    window_keys = sum(count for reader in readers
                      for stamp, _primary, _durable, count in reader.read_log
                      if stamp >= warmup)
    outcome.sim["read_mops"] = window_keys / (duration - warmup) / 1e6
    stats = result.stats
    completed, aborted = stats.completed.total(), stats.aborted.total()
    attempted = completed + aborted + (reads_ok + reads_failed) * READ_KEYS
    failed = aborted + reads_failed * READ_KEYS
    outcome.sim["failed_frac"] = failed / max(1.0, attempted)
    outcome.diag.append(
        f"reads completed={reads_ok} gave up={reads_failed}; "
        f"ops completed={completed:g} aborted={aborted:g}; "
        f"failure at {failure_at * 1e3:g} ms sim")
    return outcome


WORKLOADS: Dict[str, Callable[[int, Timer], Outcome]] = {
    "closed-dfaster": closed_dfaster,
    "openloop-knee": openloop_knee,
    "replicated-failover": replicated_failover,
}
