"""The figure registry: each §7 figure defined once.

A :class:`Figure` holds a figure's sweep (a function of ``scale`` that
runs its experiments and returns its table rows), optional extra text
(histograms, reference lines), and its §7 claims: named predicates over
``(rows, results)``, where ``results`` is every ExperimentResult the
sweep produced, each checked only at scales >= its ``min_scale``.

The CLI (``python -m repro.bench fig10 --scale 0.35``) renders a
figure, checks its claims at that scale and exits 1 if one fails, so
CI's bench-smoke run gates them; ``benchmarks/test_figures.py`` runs
every figure at scale 1.0 and asserts every claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines import RecoverabilityLevel, run_recoverability_matrix
from repro.bench.artifacts import build_artifact
from repro.bench.harness import (
    ExperimentResult,
    collect_results,
    run_dfaster_experiment,
    run_dredis_experiment,
)
from repro.bench.report import format_latency_histogram, format_table
from repro.cluster.client import ReplicaReadClient
from repro.cluster.dredis import RedisMode
from repro.sim.storage import StorageKind
from repro.workloads import (
    YCSB_A,
    YCSB_A_ZIPFIAN,
    YCSB_B,
    attach_open_loop,
    slo_report,
)

Rows = List[Dict]
Results = Sequence[ExperimentResult]


@dataclass(frozen=True)
class Claim:
    """One §7 shape claim, checked at every scale >= ``min_scale``."""

    name: str
    check: Callable[[Rows, Results], bool]
    min_scale: float = 1.0


@dataclass(frozen=True)
class Figure:
    """One figure: its table title, sweep, claims and extra text."""

    title: str
    sweep: Callable[[float], Rows]
    claims: Tuple[Claim, ...] = ()
    extra: Optional[Callable[[Rows, Results], str]] = None


# -- sweeps ----------------------------------------------------------------


def _window(scale: float, base_duration: float = 0.3,
            base_warmup: float = 0.1) -> Tuple[float, float]:
    return max(0.1, base_duration * scale), max(0.05, base_warmup * scale)


def fig10(scale: float) -> Rows:
    duration, warmup = _window(scale)
    backends = [
        ("no-chkpt", dict(checkpoints_enabled=False, dpr_enabled=False)),
        ("null", dict(storage=StorageKind.NULL)),
        ("local-ssd", dict(storage=StorageKind.LOCAL_SSD)),
        ("cloud-ssd", dict(storage=StorageKind.CLOUD_SSD)),
    ]
    rows = []
    for workload in (YCSB_A, YCSB_A_ZIPFIAN):
        for n_vms in (2, 4, 8):
            row = {"workload": workload.name, "#VM": n_vms}
            for name, overrides in backends:
                row[name] = run_dfaster_experiment(
                    f"fig10 {name}", duration=duration, warmup=warmup,
                    n_workers=n_vms, n_client_machines=n_vms,
                    workload=workload, **overrides,
                ).throughput_mops
            rows.append(row)
    return rows


def fig11(scale: float) -> Rows:
    duration, warmup = _window(scale)
    configs = [
        ("no-chkpt", dict(checkpoints_enabled=False, dpr_enabled=False)),
        ("no-dpr", dict(dpr_enabled=False)),
        ("dpr", dict()),
    ]
    rows = []
    for workload in (YCSB_A, YCSB_A_ZIPFIAN):
        for vcpus in (4, 8, 16):
            row = {"workload": workload.name, "#vCPU": vcpus}
            for name, overrides in configs:
                row[name] = run_dfaster_experiment(
                    f"fig11 {name}", duration=duration, warmup=warmup,
                    vcpus=vcpus, workload=workload, **overrides,
                ).throughput_mops
            rows.append(row)
    return rows


def fig12(scale: float) -> Rows:
    duration, warmup = _window(scale, 0.6, 0.2)
    rows = []
    for batch in (1024, 64):
        result = run_dfaster_experiment(
            f"fig12 b={batch}", duration=duration, warmup=warmup,
            batch_size=batch, workload=YCSB_A_ZIPFIAN,
        )
        rows.append({
            "config": f"b={batch}",
            "tput_mops": result.throughput_mops,
            "op_p50_ms": result.operation_latency["p50"] * 1e3,
            "op_p95_ms": result.operation_latency["p95"] * 1e3,
            "commit_p50_ms": result.commit_latency["p50"] * 1e3,
            "commit_p95_ms": result.commit_latency["p95"] * 1e3,
        })
    return rows


def fig13(scale: float) -> Rows:
    rows = []
    # Small batches generate enormous event counts; shrink their windows.
    for batch in (1, 4, 16, 64, 256, 512, 1024):
        duration, warmup = _window(scale, 0.15 if batch < 16 else 0.3,
                                   0.05 if batch < 16 else 0.1)
        result = run_dfaster_experiment(
            f"fig13 b={batch}", duration=duration, warmup=warmup,
            batch_size=batch, workload=YCSB_A_ZIPFIAN,
            n_client_machines=4 if batch < 16 else 8,
        )
        rows.append({"b": batch, "w": 16 * batch,
                     "tput_mops": result.throughput_mops,
                     "op_p50_ms": result.operation_latency["p50"] * 1e3})
    return rows


def fig14(scale: float) -> Rows:
    rows = []
    for interval in (0.5, 0.25, 0.1, 0.05, 0.025):
        duration = max(0.6, 4 * interval) * max(scale, 0.5)
        row = {"interval_ms": int(interval * 1e3)}
        for name, kind in [("null", StorageKind.NULL),
                           ("local-ssd", StorageKind.LOCAL_SSD),
                           ("cloud-ssd", StorageKind.CLOUD_SSD)]:
            row[name] = run_dfaster_experiment(
                f"fig14 {name}", duration=duration, warmup=0.2,
                checkpoint_interval=interval, storage=kind,
                workload=YCSB_A_ZIPFIAN,
            ).throughput_mops
        rows.append(row)
    return rows


def fig15(scale: float) -> Rows:
    duration, warmup = _window(scale, 0.2, 0.05)
    rows = []
    for remote in (0.0, 0.25, 0.5, 0.75, 1.0):
        row = {"remote%": int(remote * 100)}
        for batch in (1, 16, 1024):
            row[f"b={batch}"] = run_dfaster_experiment(
                f"fig15 p={remote} b={batch}",
                duration=duration, warmup=warmup,
                colocated=True, colocation_local_fraction=1.0 - remote,
                batch_size=batch, workload=YCSB_A_ZIPFIAN,
            ).throughput_mops
        rows.append(row)
    duration, warmup = _window(scale)
    run_dfaster_experiment("fig15 dedicated ref", duration=duration,
                           warmup=warmup, workload=YCSB_A_ZIPFIAN)
    return rows


def _series(result: ExperimentResult) -> Tuple[Dict, Dict, Dict]:
    """Completed, committed and aborted ops per 250 ms bucket."""
    stats = result.stats
    return tuple(dict(counter.series(0.25)) for counter in
                 (stats.completed, stats.committed, stats.aborted))


def fig16(scale: float) -> Rows:
    duration = 45.0 * scale
    failures = tuple(t * scale for t in (15.0, 30.0, 30.05))
    result = run_dfaster_experiment(
        "fig16", duration=duration, warmup=0.25,
        workload=YCSB_A_ZIPFIAN, failures=failures,
    )
    completed, committed, aborted = _series(result)
    return [
        {"t_s": bucket,
         "completed_mops": completed.get(bucket, 0.0) / 1e6,
         "committed_mops": committed.get(bucket, 0.0) / 1e6,
         "aborted_mops": aborted.get(bucket, 0.0) / 1e6}
        for bucket in sorted(completed)
        if any(abs(bucket - f) < 2.0 for f in failures)
    ]


_REDIS_MODES = [("redis", RedisMode.PLAIN),
                ("redis+proxy", RedisMode.PROXY),
                ("d-redis", RedisMode.DPR)]


def fig17(scale: float) -> Rows:
    rows = []
    for regime, batch, window, duration, warmup in [
        ("saturated", 1024, 8192, 0.4, 0.1),
        ("unsaturated", 16, 1024, 0.2, 0.05),
    ]:
        for shards in (2, 4, 8):
            row = {"regime": regime, "#shard": shards}
            for name, mode in _REDIS_MODES:
                row[name] = run_dredis_experiment(
                    f"fig17 {name}", duration=duration * max(scale, 0.5),
                    warmup=warmup,
                    n_shards=shards, mode=mode, batch_size=batch,
                    window=window, n_client_machines=shards,
                ).throughput_mops
            rows.append(row)
    return rows


def fig18(scale: float) -> Rows:
    duration, warmup = _window(scale, 0.2, 0.05)
    rows = []
    for name, mode in _REDIS_MODES:
        result = run_dredis_experiment(
            f"fig18 {name}", duration=duration, warmup=warmup,
            mode=mode, batch_size=16, window=64, client_threads=2,
        )
        rows.append({"config": name,
                     "p50_ms": result.operation_latency["p50"] * 1e3,
                     "p95_ms": result.operation_latency["p95"] * 1e3,
                     "p99_ms": result.operation_latency["p99"] * 1e3})
    return rows


def fig19(scale: float) -> Rows:
    duration, warmup = _window(scale)
    matrix = run_recoverability_matrix(duration=duration, warmup=warmup)
    levels = [RecoverabilityLevel.SYNC, RecoverabilityLevel.DPR,
              RecoverabilityLevel.EVENTUAL, RecoverabilityLevel.NONE]
    return [
        {"system": system,
         **{level.value: (None if row[level] is None else row[level] / 1e6)
            for level in levels}}
        for system, row in matrix.items()
    ]



def elastic(scale: float) -> Rows:
    """Throughput timeline across a mid-run scale-out (§5.3).

    Both systems start with two nodes; halfway through, a third node
    joins and the coordinator live-migrates it a fair share of
    partitions at checkpoint boundaries.  The timeline shows the
    transfer windows costing bounded throughput, not availability.
    """
    duration = max(0.4, 1.2 * scale)
    warmup = 0.05
    grow_at = duration * 0.5
    bucket = duration / 8

    def grow_plan(cluster, add_node):
        coordinator = cluster.enable_elasticity(
            partition_count=32, lease_duration=duration)

        def grow():
            yield grow_at
            node = add_node()
            yield from coordinator.scale_out(node)

        cluster.env.process(grow(), name="elastic-grow")

    results = [
        ("d-faster", run_dfaster_experiment(
            "elastic d-faster", duration=duration, warmup=warmup,
            n_workers=2, n_client_machines=2, workload=YCSB_A,
            setup=lambda cluster: grow_plan(cluster, cluster.add_worker))),
        ("d-redis", run_dredis_experiment(
            "elastic d-redis", duration=duration, warmup=warmup,
            n_shards=2, n_client_machines=2, mode=RedisMode.DPR,
            setup=lambda cluster: grow_plan(cluster, cluster.add_shard))),
    ]
    rows = []
    for system, result in results:
        completed = dict(result.stats.completed.series(bucket))
        for t_s in sorted(completed):
            rows.append({
                "system": system,
                "t_s": t_s,
                "phase": "pre" if t_s < grow_at else "post",
                "completed_mops": completed[t_s] / 1e6,
            })
    return rows


def replication(scale: float) -> Rows:
    """Recoverable-prefix read scale-out across replica counts.

    YCSB-B writers drive the primaries — paying the chain's reply
    gating, so write throughput dips slightly as chains deepen — while
    closed-loop readers issue recoverable-prefix GETs against the
    chains.  Any replica caught up to the guaranteed cut may serve, so
    read throughput scales with chain depth on both systems.
    """
    duration, warmup = _window(scale)
    window = duration - warmup

    def read_mops(readers):
        ops = sum(count for reader in readers
                  for stamp, _primary, _durable, count in reader.read_log
                  if stamp >= warmup)
        return ops / window / 1e6

    def attach_readers(cluster, readers, seed_base):
        # Enough closed-loop readers to saturate the replicas' read
        # servers (single-threaded here, see replica_vcpus below), so
        # throughput tracks chain depth rather than round-trip latency.
        primaries = sorted(cluster.replication.chains)
        for index in range(32):
            reader = ReplicaReadClient(
                cluster.env, cluster.net, f"bench-reader-{index}",
                cluster.metadata, primaries, rng=seed_base + index)
            cluster.replication.register_client(reader)
            readers.append(reader)
            cluster.env.process(reader.run_closed_loop(),
                                name=f"bench-reader-{index}")

    rows = []
    for factor in (1, 2, 3):
        faster_readers: list = []
        faster = run_dfaster_experiment(
            f"replication d-faster r={factor}",
            duration=duration, warmup=warmup,
            n_workers=2, n_client_machines=2, workload=YCSB_B,
            checkpoint_interval=0.05, replication_factor=factor,
            replica_vcpus=1,
            setup=lambda cluster, readers=faster_readers:
                attach_readers(cluster, readers, 11))
        redis_readers: list = []
        redis = run_dredis_experiment(
            f"replication d-redis r={factor}",
            duration=duration, warmup=warmup,
            n_shards=2, n_client_machines=2, mode=RedisMode.DPR,
            workload=YCSB_B, checkpoint_interval=0.05,
            replication_factor=factor, replica_vcpus=1,
            setup=lambda cluster, readers=redis_readers:
                attach_readers(cluster, readers, 23))
        rows.append({
            "replicas": factor,
            "d-faster reads": read_mops(faster_readers),
            "d-faster writes": faster.throughput_mops,
            "d-redis reads": read_mops(redis_readers),
            "d-redis writes": redis.throughput_mops,
        })
    return rows


def openloop(scale: float) -> Rows:
    """SLO knee curve: commit latency vs offered open-loop load.

    Sessions arrive at a fixed offered rate whether or not the cluster
    keeps up (no closed-loop coordinated omission), pass the admission
    stack, and their arrival-to-cut commit latency is reported as exact
    percentiles.  Sweeping the rate traces the knee: flat latency while
    capacity holds, then the admission queue fills, sheds absorb the
    overload, and the tail walks out to the queue bound
    (docs/OPENLOOP.md).
    """
    duration, warmup = _window(scale)
    rates = (100e3, 250e3, 500e3, 1e6, 2e6)
    rows = []
    for rate in rates:
        scenario = {
            "arrival": {"rate": rate},
            "session": {"coalesce": 256},
            "admission": {"queue_capacity": 200_000, "max_inflight": 16},
        }
        row = {"offered ksess/s": rate / 1e3}
        for system, runner, overrides in (
            ("d-faster", run_dfaster_experiment,
             dict(n_workers=2, vcpus=4)),
            ("d-redis", run_dredis_experiment,
             dict(n_shards=2, mode=RedisMode.DPR,
                  checkpoint_interval=0.05)),
        ):
            drivers: list = []
            runner(f"openloop {system} rate={rate:g}",
                   duration=duration, warmup=warmup,
                   n_client_machines=0,
                   setup=lambda cluster, drivers=drivers: drivers.append(
                       attach_open_loop(cluster, scenario)),
                   **overrides)
            report = slo_report(drivers[0])
            latency = report["commit_latency"]
            offered = max(1, report["offered_sessions"])
            row[f"{system} p50ms"] = latency["p50"] * 1e3
            row[f"{system} p99ms"] = latency["p99"] * 1e3
            row[f"{system} p999ms"] = latency["p999"] * 1e3
            row[f"{system} shed%"] = 100.0 * report["shed_sessions"] / offered
        rows.append(row)
    return rows


# -- extra text ------------------------------------------------------------


def _runs(_rows: Rows, results: Results) -> Dict[str, ExperimentResult]:
    """The sweep's experiments by label (a claim view)."""
    return {result.label: result for result in results}


def _histograms(*panels) -> Callable[[Rows, Results], str]:
    """Latency histograms, one per ``(label, latency, title)`` panel."""
    def render(rows, results):
        runs = _runs(rows, results)
        return "\n\n".join(format_latency_histogram(
            [v * 1e3 for v in getattr(runs[label].stats, latency)._samples],
            title) for label, latency, title in panels)
    return render


def _fig15_dedicated(rows: Rows, results: Results) -> str:
    dedicated = _runs(rows, results)["fig15 dedicated ref"].throughput_mops
    return f"(dedicated-server reference at b=1024: {dedicated:.1f} Mops/s)"


# -- claims ----------------------------------------------------------------


def _claims(view: Callable, *specs) -> Tuple[Claim, ...]:
    """Claims from ``(name, holds[, min_scale])`` specs, each checking
    ``holds(view(rows, results))``."""
    return tuple(
        Claim(name, lambda rows, results, holds=holds:
              holds(view(rows, results)), *min_scale)
        for name, holds, *min_scale in specs)


def _grid(*keys: str) -> Callable[[Rows, Results], Dict]:
    """A view indexing rows by their ``keys`` columns."""
    def view(rows, _results):
        return {tuple(row[key] for key in keys) if len(keys) > 1
                else row[keys[0]]: row for row in rows}
    return view


def _fig16_view(rows: Rows, results: Results) -> SimpleNamespace:
    completed, committed, aborted = _series(results[0])
    # Steady state averaged over 10-14 s: commits arrive in bursts at
    # cut publishes, so single buckets are spiky.
    window = [t for t in completed if 10.0 <= t < 14.0]
    return SimpleNamespace(
        completed=completed, committed=committed, aborted=aborted,
        steady=sum(completed[t] for t in window) / len(window),
        steady_commit=sum(committed.get(t, 0.0) for t in window)
        / len(window))


_U, _Z = YCSB_A.name, YCSB_A_ZIPFIAN.name


def _p50(run: ExperimentResult) -> float:
    return run.operation_latency["p50"]


# -- the registry ----------------------------------------------------------


FIGURES: Dict[str, Figure] = {
    # §7.2: near-linear scale-out; checkpoints cost, cloud SSD most;
    # Zipfian wins (hot keys are re-copied once, then updated in place).
    "fig10": Figure(
        "Figure 10: scaling out D-FASTER (Mops/s)", fig10, _claims(
            _grid("workload", "#VM"),
            ("uniform local-ssd: n=8 > 3.0x n=2",
             lambda v: v[_U, 8]["local-ssd"] > 3.0 * v[_U, 2]["local-ssd"],
             0.35),
            ("uniform, every n: no-chkpt > null >= local-ssd > cloud-ssd",
             lambda v: all(r["no-chkpt"] > r["null"] >= r["local-ssd"]
                           > r["cloud-ssd"] for (w, _), r in v.items()
                           if w == _U)),
            ("n=8 local-ssd: zipfian > 1.1x uniform",
             lambda v: v[_Z, 8]["local-ssd"] > 1.1 * v[_U, 8]["local-ssd"],
             0.35))),
    # §7.2: scales with cores (more so under Zipfian); checkpoints
    # cost, DPR on top of them is nearly free.
    "fig11": Figure(
        "Figure 11: scaling up D-FASTER (Mops/s)", fig11, _claims(
            _grid("workload", "#vCPU"),
            ("uniform dpr: 16 vCPU > 3.0x 4 vCPU",
             lambda v: v[_U, 16]["dpr"] > 3.0 * v[_U, 4]["dpr"]),
            ("uniform, every vCPU count: no-chkpt > no-dpr",
             lambda v: all(r["no-chkpt"] > r["no-dpr"]
                           for (w, _), r in v.items() if w == _U)),
            ("uniform, every vCPU count: dpr > 0.95x no-dpr",
             lambda v: all(r["dpr"] > 0.95 * r["no-dpr"]
                           for (w, _), r in v.items() if w == _U)),
            ("zipfian dpr: 16 vCPU > 3.2x 4 vCPU",
             lambda v: v[_Z, 16]["dpr"] > 3.2 * v[_Z, 4]["dpr"]))),
    # §7.2: commits wait about a checkpoint interval plus flush and DPR
    # propagation; completions take ms at b=1024, under one at b=64.
    "fig12": Figure(
        "Figure 12: D-FASTER latency summary", fig12, _claims(
            lambda rows, results: (_runs(rows, results)["fig12 b=1024"],
                                   _runs(rows, results)["fig12 b=64"]),
            ("b=1024 commit p50 in (30, 300) ms",
             lambda v: 0.03 < v[0].commit_latency["p50"] < 0.3),
            ("b=1024 commit p95 > 100 ms",
             lambda v: v[0].commit_latency["p95"] > 0.1),
            ("b=1024 op p50 < commit p50 / 5",
             lambda v: _p50(v[0]) < v[0].commit_latency["p50"] / 5),
            ("op p50: b=64 < b=1024", lambda v: _p50(v[1]) < _p50(v[0])),
            ("b=64 op p50 < 2 ms", lambda v: _p50(v[1]) < 2e-3)),
        _histograms(
            ("fig12 b=1024", "operation_latency",
             "Figure 12c: operation latency, b=1024"),
            ("fig12 b=64", "operation_latency",
             "Figure 12d: operation latency, b=64"),
            ("fig12 b=1024", "commit_latency",
             "Figure 12a: commit latency, b=1024"),
            ("fig12 b=64", "commit_latency",
             "Figure 12b: commit latency, b=64"))),
    # §7.2: throughput climbs with batch size until saturation, then
    # only latency grows; the sweet spot is near-peak at about 1 ms.
    "fig13": Figure(
        "Figure 13: throughput-latency trade-off (w = 16b)", fig13, _claims(
            lambda rows, results: {
                row["b"]: run for row, run in zip(rows, results)},
            ("tput: b=1024 > 10x b=1", lambda v: v[1024].throughput_mops
             > 10 * v[1].throughput_mops),
            ("tput: b=1024 < 1.5x b=256", lambda v: v[1024].throughput_mops
             < 1.5 * v[256].throughput_mops),
            ("op p50: b=1024 > 1.5x b=64",
             lambda v: _p50(v[1024]) > 1.5 * _p50(v[64])),
            ("tput: b=64 > 0.3x b=1024", lambda v: v[64].throughput_mops
             > 0.3 * v[1024].throughput_mops),
            ("b=64 op p50 < 3 ms", lambda v: _p50(v[64]) < 3e-3))),
    # §7.2: backends sit close at long intervals; shorter ones widen the
    # gap until cloud SSD thrashes, while null degrades gracefully.
    "fig14": Figure(
        "Figure 14: storage backend vs checkpoint interval (Mops/s)",
        fig14, _claims(
            _grid("interval_ms"),
            ("500 ms: cloud-ssd > 0.75x null",
             lambda v: v[500]["cloud-ssd"] > 0.75 * v[500]["null"]),
            ("25 ms: cloud-ssd < 0.7x null",
             lambda v: v[25]["cloud-ssd"] < 0.7 * v[25]["null"]),
            ("null: 25 ms > 0.55x 500 ms",
             lambda v: v[25]["null"] > 0.55 * v[500]["null"]),
            ("cloud-ssd / null falls: 500 > 100 > 25 ms",
             lambda v: v[500]["cloud-ssd"] / v[500]["null"]
             > v[100]["cloud-ssd"] / v[100]["null"]
             > v[25]["cloud-ssd"] / v[25]["null"]),
            ("every backend: 25 ms <= 1.05x 500 ms",
             lambda v: all(v[25][name] <= v[500][name] * 1.05
                           for name in ("null", "local-ssd", "cloud-ssd"))))),
    # §7.3: all-local co-location beats dedicated servers at any batch
    # size; remote operations cost, catastrophically for small batches.
    "fig15": Figure(
        "Figure 15: co-located throughput vs remote fraction (Mops/s)",
        fig15, _claims(
            lambda rows, results: {
                **_grid("remote%")(rows, results),
                "dedicated": _runs(rows, results)[
                    "fig15 dedicated ref"].throughput_mops},
            ("0% remote: |b=1 - b=1024| < 0.15x b=1024",
             lambda v: abs(v[0]["b=1"] - v[0]["b=1024"])
             < 0.15 * v[0]["b=1024"]),
            ("0% remote b=1024 > dedicated",
             lambda v: v[0]["b=1024"] > v["dedicated"]),
            ("every batch: 100% remote < 0% remote",
             lambda v: all(v[100][key] < v[0][key]
                           for key in ("b=1", "b=16", "b=1024"))),
            ("b=1: 75% remote < 0.15x 0% remote",
             lambda v: v[75]["b=1"] < 0.15 * v[0]["b=1"]),
            ("b=1024: 100% remote > 0.2x 0% remote",
             lambda v: v[100]["b=1024"] > 0.2 * v[0]["b=1024"])),
        _fig15_dedicated),
    # §7.4: completions barely dip, commits halt and catch up, aborts
    # come only at the failures (timeline of the full 45 s run), and
    # recovery takes under 200 ms.
    "fig16": Figure(
        "Figure 16: recovery timeline (250ms buckets)", fig16, _claims(
            _fig16_view,
            ("completed at 15 s > 0.5x steady",
             lambda v: v.completed[15.0] > 0.5 * v.steady),
            ("completed at 16 s > 0.9x steady",
             lambda v: v.completed[16.0] > 0.9 * v.steady),
            ("committed at 15 s < 0.9x steady",
             lambda v: v.committed[15.0] < 0.9 * v.steady_commit),
            ("committed at 17 s > 0.85x steady",
             lambda v: v.committed[17.0] > 0.85 * v.steady_commit),
            ("aborts at 15 s and 30 s, none at 10 s or 40 s",
             lambda v: v.aborted.get(15.0, 0.0) > 0
             and v.aborted.get(30.0, 0.0) > 0
             and v.aborted.get(10.0, 0.0) == 0
             and v.aborted.get(40.0, 0.0) == 0),
        ) + _claims(
            lambda _rows, results: results[0].phases["recovery"],
            ("3 recoveries, each < 200 ms",
             lambda v: v["count"] == 3 and v["max"] < 0.2, 0.05))),
    # §7.5: D-Redis keeps Redis's throughput and shard scalability.
    "fig17": Figure(
        "Figure 17: D-Redis vs Redis throughput (Mops/s)", fig17, _claims(
            _grid("regime", "#shard"),
            ("saturated redis: 8 shards > 3.0x 2", lambda v:
             v["saturated", 8]["redis"] > 3.0 * v["saturated", 2]["redis"]),
            ("saturated d-redis: 8 shards > 3.0x 2", lambda v:
             v["saturated", 8]["d-redis"]
             > 3.0 * v["saturated", 2]["d-redis"]),
            ("saturated, every shard count: d-redis > 0.9x redis",
             lambda v: all(r["d-redis"] > 0.9 * r["redis"]
                           for (regime, _), r in v.items()
                           if regime == "saturated")),
            ("unsaturated d-redis: 8 shards > 2.5x 2", lambda v:
             v["unsaturated", 8]["d-redis"]
             > 2.5 * v["unsaturated", 2]["d-redis"]),
            ("unsaturated, every shard count: d-redis > 0.9x redis+proxy",
             lambda v: all(r["d-redis"] > 0.9 * r["redis+proxy"]
                           for (regime, _), r in v.items()
                           if regime == "unsaturated")))),
    # §7.5: D-Redis adds latency, but no more than a pass-through
    # proxy: the extra hop, not DPR, is the cost.
    "fig18": Figure(
        "Figure 18: D-Redis latency, unsaturated", fig18, _claims(
            _runs,
            ("p50: d-redis > 1.1x redis", lambda v:
             _p50(v["fig18 d-redis"]) > 1.1 * _p50(v["fig18 redis"])),
            ("p50: d-redis < 1.15x redis+proxy", lambda v:
             _p50(v["fig18 d-redis"]) < 1.15 * _p50(v["fig18 redis+proxy"]))),
        _histograms(*((f"fig18 {name}", "operation_latency",
                       f"latency distribution: {name}")
                      for name, _mode in _REDIS_MODES))),
    # §7.6: DPR costs about what eventual recoverability does, sync far
    # more; the support matrix matches the paper's N/A cells.
    "fig19": Figure(
        "Figure 19: recoverability levels (Mops/s; N/A = unsupported)",
        fig19, _claims(
            _grid("system"),
            ("d-redis: dpr > 0.85x eventual", lambda v:
             v["d-redis"]["dpr"] > 0.85 * v["d-redis"]["eventual"]),
            ("d-faster: dpr > 0.85x eventual", lambda v:
             v["d-faster"]["dpr"] > 0.85 * v["d-faster"]["eventual"]),
            ("d-redis: sync < 0.3x dpr",
             lambda v: v["d-redis"]["sync"] < 0.3 * v["d-redis"]["dpr"]),
            ("cassandra: sync < 0.7x eventual", lambda v:
             v["cassandra"]["sync"] < 0.7 * v["cassandra"]["eventual"]),
            ("N/A: cassandra dpr and none, d-faster sync",
             lambda v: v["cassandra"]["dpr"] is None
             and v["cassandra"]["none"] is None
             and v["d-faster"]["sync"] is None))),
    "elastic": Figure(
        "Elasticity: throughput across a mid-run scale-out (Mops/s)",
        elastic),
    "openloop": Figure(
        "Open-loop SLO knee: commit latency vs offered load "
        "(exact percentiles)", openloop),
    "replication": Figure(
        "Replication: recoverable-prefix read scale-out (Mops/s)",
        replication),
}


# -- running ---------------------------------------------------------------


@dataclass
class FigureRun:
    """One figure at one scale: its text, experiments and claim verdicts
    (True, False, or None when skipped for a ``min_scale`` above it)."""

    text: str
    results: List[ExperimentResult]
    verdicts: Dict[str, Optional[bool]]

    @property
    def failed(self) -> List[str]:
        return [name for name, ok in self.verdicts.items() if ok is False]


def run_figure(name: str, scale: float = 1.0) -> FigureRun:
    """Run one figure's sweep, render it and check its claims."""
    if name not in FIGURES:
        known = ", ".join(sorted(FIGURES))
        raise KeyError(f"unknown figure {name!r}; known: {known}")
    figure = FIGURES[name]
    with collect_results() as results:
        rows = figure.sweep(scale)
    parts = [format_table(rows, title=figure.title)]
    if figure.extra is not None:
        parts.append(figure.extra(rows, results))
    verdicts = {claim.name: bool(claim.check(rows, results))
                if claim.min_scale <= scale else None
                for claim in figure.claims}
    if verdicts:
        parts.append("\n".join([f"claims at scale {scale:g}:"] + [
            f"  skip  {claim.name} (checked from scale {claim.min_scale:g})"
            if verdicts[claim.name] is None else
            f"  {'pass' if verdicts[claim.name] else 'FAIL'}  {claim.name}"
            for claim in figure.claims]))
    return FigureRun("\n\n".join(parts), list(results), verdicts)


def generate(name: str, scale: float = 1.0) -> str:
    """Render one figure to text, claim verdicts included."""
    return run_figure(name, scale).text


def generate_artifact(name: str, scale: float = 1.0):
    """Render one figure and build its ``BENCH_<figure>.json`` payload.

    Returns ``(text, artifact)``.  The artifact carries every
    experiment the sweep ran plus merged per-phase trace aggregates.
    """
    run = run_figure(name, scale)
    return run.text, build_artifact(name, scale, run.results)
