"""Per-layer tracing for the benchmark's traced run.

Each layer is a module of the program.  Its entry points are wrapped at
class level before the cluster is built (sink handlers and hoisted
locals bind methods at construction time, so instance-level wrapping
would miss them) and restored afterwards.  A plain method is timed per
call; a process body — a method returning the generator the kernel
drives — is timed per resumption.

Spans are aggregated in memory, never stored one by one: per
(entry point, calling layer) the wrapper adds one call and its self
time, which is its duration minus the time spent in wrapped callees,
less the wrapper's own per-call cost as calibrated at install time.
The wrappers read only ``time.perf_counter``: they draw no RNG and
schedule nothing, so the traced run's sim metrics must equal the
untraced run's exactly.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from time import perf_counter
from typing import Dict, List, Tuple

CLOSED, OPEN, REPL = "closed-dfaster", "openloop-knee", "replicated-failover"
ALL = (CLOSED, OPEN, REPL)

CALL, GEN = "call", "gen"

#: (layer, "module:Class.method", kind, workloads that must call it).
#: An entry point with zero calls on a workload named here fails the
#: traced run: a rename or a newly hoisted local would otherwise zero
#: its layer silently.
ENTRY_POINTS: List[Tuple[str, str, str, Tuple[str, ...]]] = [
    ("kernel", "repro.sim.kernel:Environment.run", CALL, ALL),
    ("network", "repro.sim.network:Network.send", CALL, ALL),
    ("network", "repro.sim.network:Network._deliver", CALL, ALL),
    ("queues", "repro.sim.queues:Queue.put", CALL, ALL),
    ("queues", "repro.sim.queues:Queue.try_get", CALL, (OPEN,)),
    ("queues", "repro.sim.queues:BoundedQueue.put", CALL, (OPEN,)),
    ("storage", "repro.sim.storage:StorageDevice.write", CALL, ALL),
    ("openloop", "repro.workloads.openloop:OpenLoopDriver._arrival_pump",
     GEN, (OPEN,)),
    ("openloop", "repro.workloads.openloop:OpenLoopDriver._on_reply",
     CALL, (OPEN,)),
    ("ycsb", "repro.workloads.ycsb:WorkloadSpec.batch_write_count",
     CALL, (CLOSED, REPL)),
    ("client", "repro.cluster.client:BatchSession.new_batch",
     CALL, (CLOSED, REPL)),
    ("client", "repro.cluster.client:BatchSession.complete",
     CALL, (CLOSED, REPL)),
    ("client", "repro.cluster.client:ClientMachine._issue_loop",
     GEN, (CLOSED, REPL)),
    ("client", "repro.cluster.client:ClientMachine._on_reply",
     CALL, (CLOSED, REPL)),
    ("client", "repro.cluster.client:ClientMachine._timeout_sweeper",
     GEN, (CLOSED, REPL)),
    ("client", "repro.cluster.client:ReplicaReadClient.run_closed_loop",
     GEN, (REPL,)),
    ("client", "repro.cluster.client:ReplicaReadClient._read_watchdog",
     GEN, (REPL,)),
    ("worker", "repro.cluster.worker:DFasterWorker._dispatch",
     CALL, (CLOSED,)),
    ("worker", "repro.cluster.worker:DFasterWorker._server_thread",
     GEN, (CLOSED,)),
    ("worker", "repro.cluster.worker:DFasterWorker._flusher",
     GEN, (CLOSED,)),
    ("worker", "repro.cluster.worker:DFasterWorker._checkpoint_loop",
     GEN, (CLOSED,)),
    ("worker", "repro.cluster.worker:DFasterWorker._run_checkpoint",
     GEN, (CLOSED,)),
    ("worker", "repro.cluster.worker:DFasterWorker._heartbeat_loop",
     GEN, (CLOSED,)),
    ("worker", "repro.cluster.worker:DFasterWorker._handle_rollback",
     GEN, ()),
    ("proxy", "repro.cluster.dredis:_DRedisProxy._receive_loop",
     GEN, (REPL,)),
    ("proxy", "repro.cluster.dredis:_DRedisProxy._make_responder",
     CALL, (REPL,)),
    ("proxy", "repro.cluster.dredis:_DRedisProxy._egress_loop",
     GEN, (REPL,)),
    ("proxy", "repro.cluster.dredis:_DRedisProxy._commit_loop",
     GEN, (REPL,)),
    ("proxy", "repro.cluster.dredis:_DRedisProxy._commit_once",
     GEN, (REPL,)),
    ("proxy", "repro.cluster.dredis:_DRedisProxy._handle_rollback",
     GEN, (REPL,)),
    ("proxy", "repro.cluster.dredis:_RedisInstance._loop", GEN, (REPL,)),
    ("replication",
     "repro.cluster.replication:ReplicationSource.hold_and_send",
     CALL, (REPL,)),
    ("replication", "repro.cluster.replication:ReplicationSource.handle_ack",
     CALL, (REPL,)),
    ("replication", "repro.cluster.replication:ReplicationSource.log_seal",
     CALL, (REPL,)),
    ("replication",
     "repro.cluster.replication:ReplicationSource.log_persist",
     CALL, (REPL,)),
    ("replication",
     "repro.cluster.replication:ReplicationSource._retransmit_loop",
     GEN, (REPL,)),
    ("replication", "repro.cluster.replication:ReplicaNode._dispatch",
     CALL, (REPL,)),
    ("replication", "repro.cluster.replication:ReplicaNode._read_server",
     GEN, (REPL,)),
    ("replication", "repro.cluster.replication:ReplicaNode._publish_loop",
     GEN, (REPL,)),
    ("finder", "repro.cluster.services:FinderService._on_report", CALL, ALL),
    ("finder", "repro.cluster.services:FinderService._tick_loop", GEN, ALL),
    ("finder", "repro.core.finder.base:DprFinder.tick", CALL, ALL),
    ("manager", "repro.cluster.services:ClusterManager._on_message",
     CALL, ALL),
    ("manager", "repro.cluster.services:ClusterManager._monitor_loop",
     GEN, ALL),
    ("manager", "repro.cluster.services:ClusterManager._recover",
     GEN, (REPL,)),
    ("manager", "repro.cluster.services:ClusterManager._retransmit_loop",
     GEN, (REPL,)),
    ("costmodel", "repro.cluster.costmodel:CostModel.server_batch_time",
     CALL, (CLOSED,)),
    ("costmodel", "repro.cluster.costmodel:CostModel.rcu_probability",
     CALL, ()),
    ("costmodel", "repro.cluster.costmodel:CostModel.redis_batch_time",
     CALL, (REPL,)),
    ("costmodel", "repro.cluster.costmodel:CostModel.proxy_time",
     CALL, (REPL,)),
    ("stats", "repro.cluster.stats:Reservoir.add", CALL, ALL),
    ("stats", "repro.cluster.stats:TimeSeries.add", CALL, ALL),
    ("tracer", "repro.obs.tracer:Tracer.counter", CALL, ALL),
    ("tracer", "repro.obs.tracer:Tracer.gauge", CALL, ()),
    ("tracer", "repro.obs.tracer:Tracer.queue_depth", CALL, ALL),
    ("tracer", "repro.obs.tracer:Tracer.event", CALL, ()),
    ("tracer", "repro.obs.tracer:Tracer.span", CALL, ALL),
    ("tracer", "repro.obs.tracer:Tracer.begin_span", CALL, ALL),
    ("tracer", "repro.obs.tracer:Tracer.end_span", CALL, ()),
    ("tracer", "repro.obs.tracer:Tracer.end_spans", CALL, ALL),
]

LAYERS = sorted({layer for layer, _name, _kind, _needs in ENTRY_POINTS})
#: Pseudo-layer of calls made by the benchmark and harness themselves.
OUTSIDE = "bench"


class Aggregate:
    """Per-(entry point, calling layer) call counts and self time.

    Slot ``[caller]`` of an entry point's two lists holds the calls
    made from layer ``LAYERS[caller]``; the last slot is the benchmark
    itself (calls from outside every layer).
    """

    def __init__(self) -> None:
        width = len(LAYERS) + 1
        self.calls = [[0] * width for _entry in ENTRY_POINTS]
        self.self_s = [[0.0] * width for _entry in ENTRY_POINTS]
        #: Host time at which the last ``Environment.run`` returned.
        self.run_end = 0.0
        #: Distinct cuts returned by ``DprFinder.tick``, per finder.
        self.cuts = 0
        #: Last cut per finder of the running experiment; cleared as
        #: each experiment finishes, so no finder outlives its cluster.
        self._last_cut: Dict[object, object] = {}

    def slots(self, entry: int):
        return self.calls[entry], self.self_s[entry]

    def items(self):
        """(entry, caller, calls, self_s) for every slot with calls."""
        for entry, row in enumerate(self.calls):
            for caller, calls in enumerate(row):
                if calls:
                    yield entry, caller, calls, self.self_s[entry][caller]

    def note_cut(self, finder, cut) -> None:
        versions = cut.versions
        if self._last_cut.get(finder) != versions:
            self._last_cut[finder] = dict(versions)
            self.cuts += 1

    def forget_cuts(self) -> None:
        self._last_cut.clear()


class Instrumentation:
    """Installs and removes the class-level wrappers."""

    def __init__(self) -> None:
        self.aggregate = Aggregate()
        self._entry_layer = [LAYERS.index(layer)
                             for layer, _n, _k, _w in ENTRY_POINTS]
        #: Layer of each open span, over a sentinel for the benchmark.
        self._layers: List[int] = [len(LAYERS)]
        #: Time each open span spent in wrapped callees (same depth).
        self._child: List[float] = [0.0]
        self._restore: List[Tuple[type, str, object]] = []
        #: Host seconds a wrapper adds around each call outside its own
        #: timed window, and inside it; both are taken out of self time.
        self.outer_s = 0.0
        self.inner_s = 0.0
        #: Per-layer numbers read from the finished experiments' clusters
        #: (see ``inspect``), summed over experiments.
        self.sums: Dict[str, float] = {}
        self.handle_peaks: List[int] = []
        #: Sim-time stage p50s, ms, one dict per experiment in run order.
        self.stages: List[Dict[str, float]] = []

    # -- wrapping ----------------------------------------------------------

    def install(self) -> List[str]:
        """Wrap every entry point; returns those that no longer exist."""
        self.outer_s, self.inner_s = self._calibrate()
        missing = []
        for index, (_layer, name, kind, _needs) in enumerate(ENTRY_POINTS):
            module_name, qualname = name.split(":")
            class_name, method = qualname.split(".")
            cls = getattr(importlib.import_module(module_name), class_name,
                          None)
            original = None if cls is None else cls.__dict__.get(method)
            if original is None:
                missing.append(f"traced run: entry point {name} is not "
                               f"defined; update perfbench/layers.py")
                continue
            self._restore.append((cls, method, original))
            setattr(cls, method, self._wrap(index, kind, original))
        return missing

    def remove(self) -> None:
        for cls, method, original in reversed(self._restore):
            setattr(cls, method, original)
        self._restore.clear()

    def _calibrate(self, rounds: int = 5,
                   count: int = 20000) -> Tuple[float, float]:
        """Median per-call wrapper cost outside and inside the window.

        Times a loop of wrapped no-op calls against the same loop of
        plain calls.  What the no-op spans measured is the cost inside
        the window; the rest of the difference is what each wrapper
        adds to its caller (the profile module's calibration, per run).
        """
        def noop():
            return None

        width = len(LAYERS) + 1
        outer, inner = [], []
        for _round in range(rounds):
            calls, self_s = [0] * width, [0.0] * width
            call = self._make_call(
                self._timer_for(0, calls, self_s, 0.0, 0.0), noop)
            start = perf_counter()
            for _ in range(count):
                noop()
            plain = perf_counter() - start
            start = perf_counter()
            for _ in range(count):
                call()
            wrapped = perf_counter() - start
            outer.append((wrapped - plain - sum(self_s)) / count)
            inner.append(sum(self_s) / count)
        return (max(0.0, statistics.median(outer)),
                max(0.0, statistics.median(inner)))

    def _timer(self, entry: int):
        calls, self_s = self.aggregate.slots(entry)
        return self._timer_for(self._entry_layer[entry], calls, self_s,
                               self.outer_s, self.inner_s)

    def _timer_for(self, layer: int, calls: List[int], self_s: List[float],
                   outer: float, inner_cost: float):
        """A function calling ``fn(*args, **kwargs)`` as one span.

        The hot path of the traced run: flat per-caller slots instead
        of tuple-keyed dicts, and two parallel stacks.
        """
        layers, child = self._layers, self._child
        clock = perf_counter

        def timed(fn, *args, **kwargs):
            caller = layers[-1]
            layers.append(layer)
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                layers.pop()
                inner = child.pop()
                child[-1] += elapsed + outer
                calls[caller] += 1
                self_s[caller] += elapsed - inner - inner_cost
        return timed

    def _wrap(self, entry: int, kind: str, original):
        timed = self._timer(entry)
        aggregate = self.aggregate
        if kind == GEN:
            @functools.wraps(original)
            def process(*args, **kwargs):
                return _TimedGenerator(original(*args, **kwargs), timed)
            return process
        name = ENTRY_POINTS[entry][1]
        if name.endswith("Environment.run"):
            @functools.wraps(original)
            def run(*args, **kwargs):
                try:
                    return timed(original, *args, **kwargs)
                finally:
                    aggregate.run_end = perf_counter()
            return run
        if name.endswith("DprFinder.tick"):
            @functools.wraps(original)
            def tick(finder):
                cut = timed(original, finder)
                aggregate.note_cut(finder, cut)
                return cut
            return tick

        return self._make_call(timed, original)

    @staticmethod
    def _make_call(timed, original):
        @functools.wraps(original)
        def call(*args, **kwargs):
            return timed(original, *args, **kwargs)
        return call

    # -- reading -----------------------------------------------------------

    def layer_self_s(self) -> Dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for entry, _caller, _calls, self_s in self.aggregate.items():
            totals[ENTRY_POINTS[entry][0]] += self_s
        return totals

    def entry_calls(self, external: bool = False) -> Dict[str, int]:
        """Calls per entry point; ``external`` drops same-layer calls."""
        counts = {name: 0 for _l, name, _k, _w in ENTRY_POINTS}
        for entry, caller, calls, _self_s in self.aggregate.items():
            if external and caller == self._entry_layer[entry]:
                continue
            counts[ENTRY_POINTS[entry][1]] += calls
        return counts

    def calls_from(self, entry_name: str, caller: str) -> int:
        """Calls of one entry point made from layer ``caller``."""
        entry = next(i for i, row in enumerate(ENTRY_POINTS)
                     if row[1] == entry_name)
        return self.aggregate.calls[entry][LAYERS.index(caller)]

    def caller_matrix(self) -> List[Dict[str, object]]:
        """The aggregates, one row per (entry point, calling layer)."""
        return [{
            "layer": ENTRY_POINTS[entry][0],
            "entry": ENTRY_POINTS[entry][1],
            "caller": LAYERS[caller] if caller < len(LAYERS) else OUTSIDE,
            "calls": calls,
            "self_s": self_s,
        } for entry, caller, calls, self_s in self.aggregate.items()]

    def zero_call_failures(self, workload: str) -> List[str]:
        calls = self.entry_calls()
        return [f"traced run: entry point {name} recorded zero calls on "
                f"{workload}"
                for _layer, name, _kind, needs in ENTRY_POINTS
                if workload in needs and calls[name] == 0]


class _TimedGenerator:
    """Generator proxy timing each resumption of a process body.

    The kernel drives processes through ``send``/``throw`` only, and
    ``yield from`` accepts any iterator with those methods, so the
    proxy stands in for the generator everywhere.
    """

    __slots__ = ("_generator", "_timed", "__name__")

    def __init__(self, generator, timed):
        self._generator = generator
        self._timed = timed
        self.__name__ = generator.__name__

    def __iter__(self):
        return self

    def __next__(self):
        return self._timed(self._generator.send, None)

    def send(self, value):
        return self._timed(self._generator.send, value)

    def throw(self, *exc_info):
        return self._timed(self._generator.throw, *exc_info)

    def close(self) -> None:
        self._generator.close()


STAGES = ("net.delivery", "worker.batch_service", "worker.flush",
          "worker.persist_lag", "dpr.cut_lag", "finder.tick")


def inspect(inst: Instrumentation, cluster, result, extra) -> None:
    """Add one finished experiment's per-layer numbers to ``inst``.

    Called as each experiment ends, so the benchmark keeps numbers and
    lets the cluster go before the next experiment starts.
    """
    sums = inst.sums

    def add(name: str, value: float) -> None:
        sums[name] = sums.get(name, 0) + value

    env = cluster.env
    add("kernel.events", env.handles_scheduled)
    inst.handle_peaks.append(env.live_handle_high_watermark)
    devices = [w.device for w in getattr(cluster, "workers", [])]
    devices += [p.device for p in getattr(cluster, "proxies", [])]
    chains = ({} if cluster.replication is None
              else cluster.replication.chains)
    devices += [node.device for chain in chains.values() for node in chain]
    add("storage.bytes", sum(d.bytes_written for d in devices))

    driver = extra.get("driver")
    if driver is not None:
        admit, offered = driver.admit, driver.table.allocated
        lost = admit.shed_items + admit.rejected_items
        add("queues.shed", lost)
        add("openloop.offered", offered)
        add("openloop.admitted", offered - lost - len(admit))
    if cluster.clients:
        add("client.committed", sum(client.total_committed()
                                    for client in cluster.clients))
        add("client.completed", cluster.stats.completed.total())
    readers = extra.get("readers", ())
    reads_ok = sum(reader.reads_completed for reader in readers)
    add("client.reads_ok", reads_ok)
    add("client.reads", reads_ok + sum(reader.reads_failed
                                       for reader in readers))

    workers = getattr(cluster, "workers", [])
    add("worker.batches", sum(w.batches_served for w in workers))
    add("worker.checkpoints", sum(w.checkpoints_taken for w in workers))
    if cluster.replication is not None:
        add("replication.appends", sum(
            source.appends_sent
            for source in cluster.replication.sources.values()))
        add("replication.reads_served", sum(
            node.reads_served for chain in chains.values()
            for node in chain))
    add("manager.recoveries", len(cluster.manager.recoveries))
    inst.stages.append({
        stage: result.phases[stage]["p50"] * 1e3
        if result.phases.get(stage) else 0.0 for stage in STAGES})
    inst.aggregate.forget_cuts()


def layer_metrics(inst: Instrumentation, outcome) -> Dict[str, float]:
    """Every per-layer metric of one traced repeat.

    Counts and self times are summed over the workload's experiments;
    ``stage.*`` are sim-time p50s of the reported experiment.
    """
    self_s = inst.layer_self_s()
    calls = inst.entry_calls()
    external = inst.entry_calls(external=True)
    sums = inst.sums
    metrics: Dict[str, float] = {}

    scheduled = sums["kernel.events"]
    metrics["kernel.events"] = scheduled
    metrics["kernel.live_handles_peak"] = max(inst.handle_peaks)
    metrics["kernel.handle_reuse"] = (
        1.0 - sum(inst.handle_peaks) / max(1, scheduled))
    metrics["network.sends"] = calls["repro.sim.network:Network.send"]
    metrics["queues.puts"] = (external["repro.sim.queues:Queue.put"]
                              + external["repro.sim.queues:BoundedQueue.put"])
    metrics["queues.shed"] = sums.get("queues.shed", 0)
    metrics["storage.writes"] = calls["repro.sim.storage:StorageDevice.write"]
    metrics["storage.bytes"] = sums["storage.bytes"]

    offered = sums.get("openloop.offered", 0)
    metrics["openloop.sessions"] = offered
    metrics["openloop.batches"] = inst.calls_from(
        "repro.sim.network:Network.send", "openloop")
    metrics["openloop.admit_ratio"] = (
        sums["openloop.admitted"] / offered if offered else 0.0)

    metrics["client.batches"] = calls[
        "repro.cluster.client:BatchSession.new_batch"]
    completed = sums.get("client.completed", 0)
    metrics["client.commit_ratio"] = (
        sums["client.committed"] / completed if completed else 0.0)
    reads = sums["client.reads"]
    metrics["client.reads"] = reads
    metrics["client.read_ratio"] = (
        sums["client.reads_ok"] / reads if reads else 0.0)

    metrics["worker.batches"] = sums["worker.batches"]
    metrics["worker.checkpoints"] = sums["worker.checkpoints"]
    metrics["proxy.batches"] = calls[
        "repro.cluster.dredis:_DRedisProxy._make_responder"]
    metrics["replication.appends"] = sums.get("replication.appends", 0)
    metrics["replication.reads_served"] = sums.get(
        "replication.reads_served", 0)
    metrics["finder.ticks"] = calls["repro.core.finder.base:DprFinder.tick"]
    metrics["finder.cuts"] = inst.aggregate.cuts
    metrics["manager.recoveries"] = sums["manager.recoveries"]
    metrics["costmodel.calls"] = sum(
        count for name, count in calls.items()
        if name.startswith("repro.cluster.costmodel:"))
    metrics["stats.samples"] = (calls["repro.cluster.stats:Reservoir.add"]
                                + calls["repro.cluster.stats:TimeSeries.add"])
    metrics["tracer.records"] = sum(
        count for name, count in calls.items()
        if name.startswith("repro.obs.tracer:"))
    for layer in LAYERS:
        metrics[layer + ".self_s"] = self_s[layer]
    metrics["harness.teardown_s"] = outcome.teardown_s

    for stage, p50_ms in inst.stages[outcome.report_index].items():
        metrics[f"stage.{stage}_p50_ms"] = p50_ms
    return metrics
