"""Open-loop fleet traffic with an admission-control stack.

Closed-loop clients (:mod:`repro.cluster.client`) measure *capacity*:
each thread waits for its window before issuing more, so offered load
collapses to whatever the cluster sustains and queueing delay hides
inside the think loop — the coordinated-omission trap.  This module
measures *latency under offered load*: sessions arrive on their own
schedule whether or not the cluster keeps up, which is what an SLO
knee curve needs (docs/OPENLOOP.md).

The pieces, front to back:

- **Arrival process** — a generator samples how many sessions arrive
  each tick from a Poisson process (or a log-normal doubly-stochastic
  one for bursty fleets) and stamps them into the session table as
  one *run*, a ``range`` of handles.
- **Session table** — per-session state is a handful of bytes in flat
  :mod:`array` columns keyed by integer handles (the array-kernel
  idiom), so a million concurrent sessions cost megabytes, not a
  million objects.
- **Admission stack** — arrivals land in a
  :class:`repro.sim.queues.BoundedQueue` (shed-oldest or reject), pass
  an optional token bucket, and dispatch is capped at ``max_inflight``
  batches per target: queue-based load leveling in front of the
  cluster, observable through the queue's depth gauge, watermark, and
  shed counters (docs/OBSERVABILITY.md).
- **DPR driver** — admitted sessions coalesce into
  :class:`~repro.cluster.messages.BatchRequest`\\ s on real DPR
  sessions (one per target): Vs headers, dependency tokens, commit
  tracking against piggybacked cuts, and world-line rollback handling,
  so commit latency here means the same thing it means for the
  closed-loop clients.

Scenarios are declarative dicts validated up front
(:func:`validate_scenario`): a typo'd key or out-of-range value fails
before the run, not as a silent default forty minutes in.  Everything
is driven by one seeded RNG stream, so a scenario re-runs
byte-identically across processes and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import math
import random
from array import array
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.messages import BatchRequest
from repro.cluster.stats import ClusterStats
from repro.core.cuts import DprCut
from repro.core.versioning import Token
from repro.obs import interpolated_percentile
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.queues import BoundedQueue
from repro.sim.rand import make_rng, spawn


class ScenarioError(ValueError):
    """A scenario dict failed validation; the message names the path."""


#: The reference scenario.  Overrides deep-merge into this, so a
#: scenario dict only states what it changes.
DEFAULT_SCENARIO: Dict[str, Any] = {
    "name": "openloop",
    "arrival": {
        #: "poisson" or "lognormal" (doubly stochastic: each tick's
        #: Poisson intensity is scaled by a unit-mean log-normal draw).
        "process": "poisson",
        #: Offered load, sessions per second.
        "rate": 200_000.0,
        #: Log-normal burstiness (sigma of the intensity multiplier).
        "sigma": 0.6,
        #: Generator wake interval; arrivals within a tick share a
        #: timestamp, so this bounds arrival-time granularity.
        "tick": 1e-3,
    },
    "session": {
        #: Operations one session performs (a single batch's share).
        "ops": 8,
        #: Fraction of those ops that are blind updates.
        "write_fraction": 0.5,
        #: Sessions coalesced into one BatchRequest.
        "coalesce": 64,
        #: Pause after a world-line rollback before re-dispatching.
        "recovery_pause": 20e-3,
        #: Base RETRY backoff and its cap (exponential with jitter).
        "retry_delay": 2e-3,
        "retry_backoff_cap": 0.1,
    },
    "admission": {
        #: Backlog bound of the admission queue, in sessions.
        "queue_capacity": 200_000,
        #: "shed-oldest" or "reject" (see BoundedQueue).
        "policy": "shed-oldest",
        #: Token-bucket throttle in ops/second; 0 disables it.
        "token_rate": 0.0,
        #: Bucket depth in ops; 0 with a rate means one batch's worth.
        "token_burst": 0.0,
        #: Batches in flight per target.
        "max_inflight": 8,
    },
}

_RANGES = {
    ("arrival", "process"): ("poisson", "lognormal"),
    ("admission", "policy"): BoundedQueue.POLICIES,
}
_POSITIVE = {
    ("arrival", "rate"), ("arrival", "tick"), ("session", "ops"),
    ("session", "coalesce"), ("session", "retry_delay"),
    ("session", "retry_backoff_cap"), ("admission", "queue_capacity"),
    ("admission", "max_inflight"),
}
_NON_NEGATIVE = {
    ("arrival", "sigma"), ("session", "write_fraction"),
    ("session", "recovery_pause"), ("admission", "token_rate"),
    ("admission", "token_burst"),
}


def validate_scenario(overrides: Optional[Dict[str, Any]] = None
                      ) -> Dict[str, Any]:
    """Deep-merge ``overrides`` into :data:`DEFAULT_SCENARIO`.

    Unknown keys and out-of-range values raise :class:`ScenarioError`
    naming the offending path, so scenario typos fail before the run
    instead of silently meaning the default.
    """
    merged: Dict[str, Any] = {"name": DEFAULT_SCENARIO["name"]}
    for section, defaults in DEFAULT_SCENARIO.items():
        if section != "name":
            merged[section] = dict(defaults)
    for section, value in (overrides or {}).items():
        if section == "name":
            if not isinstance(value, str) or not value:
                raise ScenarioError("scenario name must be a non-empty string")
            merged["name"] = value
            continue
        if section not in merged:
            raise ScenarioError(
                f"unknown scenario section {section!r}; expected one of "
                f"{sorted(k for k in DEFAULT_SCENARIO if k != 'name')}")
        if not isinstance(value, dict):
            raise ScenarioError(f"scenario section {section!r} must be a dict")
        for key, item in value.items():
            if key not in merged[section]:
                raise ScenarioError(
                    f"unknown scenario key {section}.{key}; expected one of "
                    f"{sorted(DEFAULT_SCENARIO[section])}")
            merged[section][key] = item
    for (section, key), allowed in _RANGES.items():
        if merged[section][key] not in allowed:
            raise ScenarioError(
                f"{section}.{key} must be one of {allowed}, "
                f"got {merged[section][key]!r}")
    for section, key in _POSITIVE:
        if not merged[section][key] > 0:
            raise ScenarioError(
                f"{section}.{key} must be > 0, got {merged[section][key]!r}")
    for section, key in _NON_NEGATIVE:
        if not merged[section][key] >= 0:
            raise ScenarioError(
                f"{section}.{key} must be >= 0, got {merged[section][key]!r}")
    if merged["session"]["write_fraction"] > 1:
        raise ScenarioError("session.write_fraction must be <= 1")
    return merged


def poisson_draw(rng: random.Random, lam: float) -> int:
    """One Poisson(``lam``) sample.

    Knuth's product method below λ=30; the rounded-normal
    approximation above (the per-tick arrival counts this feeds are in
    the hundreds, where the two are indistinguishable and the exact
    method costs O(λ) uniform draws per tick).
    """
    if lam <= 0:
        return 0
    if lam < 30.0:
        bound = math.exp(-lam)
        product = rng.random()
        count = 0
        while product > bound:
            product *= rng.random()
            count += 1
        return count
    draw = round(rng.gauss(lam, math.sqrt(lam)))
    return draw if draw > 0 else 0


class TokenBucket:
    """Deterministic token-bucket throttle (ops-granular)."""

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate: float, burst: float, now: float = 0.0):
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.stamp = now

    def refill(self, now: float) -> None:
        if now > self.stamp:
            self.tokens = min(self.burst,
                              self.tokens + (now - self.stamp) * self.rate)
            self.stamp = now

    def take(self, amount: float) -> bool:
        if self.tokens >= amount:
            self.tokens -= amount
            return True
        return False


#: Session lifecycle states (the ``state`` column of the table).
FREE, QUEUED, INFLIGHT, ACKED = 0, 1, 2, 3


class SessionTable:
    """Per-session state as flat array columns, written a run at a time.

    A session is one byte of state plus one double of arrival time
    (docs/PERFORMANCE.md's array-kernel idiom applied to workload
    state).  Handles are issued in arrival order and never reused, so
    a tick's sessions are one ``range`` and run writes are slice
    assignments; handle ``h`` is row ``h - base``.  Whenever the rows
    double, the retired prefix is cut off, so memory follows the live
    span, not the sessions ever offered (docs/OPENLOOP.md).
    """

    __slots__ = ("state", "arrival", "base", "live", "peak_live",
                 "allocated", "_trim_at")

    #: Rows held before the first retired-prefix trim.
    TRIM_FLOOR = 4096

    def __init__(self) -> None:
        self.state = array("b")
        self.arrival = array("d")
        self.base = 0
        self.live = 0
        self.peak_live = 0
        self.allocated = 0
        self._trim_at = self.TRIM_FLOOR

    def alloc(self, now: float, count: int, at_once: int) -> range:
        """Stamp ``count`` QUEUED sessions arriving at ``now``; returns
        their run.  ``at_once`` of them count toward ``peak_live``."""
        state = self.state
        if len(state) >= self._trim_at:
            self._trim()
        first = self.base + len(state)
        state.extend(array("b", (QUEUED,)) * count)
        self.arrival.extend(array("d", (now,)) * count)
        self.allocated += count
        if self.live + at_once > self.peak_live:
            self.peak_live = self.live + at_once
        self.live += count
        return range(first, first + count)

    def mark(self, run: range, status: int) -> None:
        """Set every session of ``run`` to ``status``."""
        start = run.start - self.base
        self.state[start:start + len(run)] = array("b", (status,)) * len(run)

    def arrivals(self, run: range) -> array:
        """The arrival times of ``run``'s sessions."""
        start = run.start - self.base
        return self.arrival[start:start + len(run)]

    def release(self, run: range) -> None:
        """Retire every session of ``run``."""
        self.mark(run, FREE)
        self.live -= len(run)

    def _trim(self) -> None:
        raw = self.state.tobytes()
        retired = len(raw) - len(raw.lstrip(bytes((FREE,))))
        if retired:
            del self.state[:retired]
            del self.arrival[:retired]
            self.base += retired
        self._trim_at = max(self.TRIM_FLOOR, 2 * len(self.state))


class OpenLoopDriver:
    """Open-loop session generator + admission stack for one cluster.

    Registers one network endpoint and speaks real DPR sessions (one
    per target address) at batch granularity.  Attach to a cluster
    built with ``n_client_machines=0`` via :func:`attach_open_loop`.
    """

    def __init__(
        self,
        env: Environment,
        net: Network,
        address: str,
        targets: List[str],
        scenario: Optional[Dict[str, Any]] = None,
        stats: Optional[ClusterStats] = None,
        rng: Optional[random.Random] = None,
    ):
        if not targets:
            raise ValueError("open-loop driver needs at least one target")
        self.env = env
        self.net = net
        self.address = address
        self.targets = list(targets)
        self.scenario = validate_scenario(scenario)
        self.stats = stats if stats is not None else ClusterStats()
        self._rng = make_rng(rng)
        self.table = SessionTable()

        session = self.scenario["session"]
        admission = self.scenario["admission"]
        self._ops: int = session["ops"]
        self._coalesce: int = session["coalesce"]
        self._write_count = round(self._ops * session["write_fraction"])
        self.recovery_pause: float = session["recovery_pause"]
        self.retry_delay: float = session["retry_delay"]
        self.retry_backoff_cap: float = session["retry_backoff_cap"]
        self._max_inflight: int = admission["max_inflight"]

        #: The admission queue holds runs of QUEUED sessions; a shed run
        #: never ran, so its sessions are simply retired.
        self.admit = BoundedQueue(
            env, admission["queue_capacity"], name=f"admit:{address}",
            policy=admission["policy"], on_shed=self.table.release)
        if admission["token_rate"] > 0:
            burst = admission["token_burst"] or self._coalesce * self._ops
            self.bucket: Optional[TokenBucket] = TokenBucket(
                admission["token_rate"], burst, env.now)
        else:
            self.bucket = None

        # DPR bookkeeping, driver-wide (§3.2 at batch granularity).
        self.world_line = 0
        self.version_scalar = 0
        # Driver-local batch ids (like client.BatchIds, which is not
        # imported here: repro.cluster.client imports repro.workloads,
        # so depending on it from this package would be circular).
        self._next_batch = 0
        self._session_ids = [f"{address}/{t}" for t in self.targets]
        self._next_seqno = [1] * len(self.targets)
        self._inflight = [0] * len(self.targets)
        self._rr = 0
        #: batch_id -> (target index, run tuple) for in-flight batches.
        self._batches: Dict[int, Tuple[int, Tuple[range, ...]]] = {}
        #: object_id -> deque of (version, run tuple), completed but
        #: not yet covered by a cut; insertion-ordered and versions are
        #: monotone per object, so commit absorption pops from the left.
        self._uncommitted: Dict[str, deque] = {}
        #: Completions since the last send become the next batch's deps.
        self._recent: Dict[str, int] = {}
        self._last_cut_seen: Optional[Dict[str, int]] = None
        self.retry_attempts = 0
        self.paused_until = 0.0

        #: Exact per-session commit latencies (the SLO report computes
        #: exact percentiles; the shared stats reservoir still samples).
        self.commit_latencies = array("d")
        self.completed_sessions = 0
        self.committed_sessions = 0
        self.aborted_sessions = 0

        self.running = True
        self.endpoint = net.register(address)
        self.endpoint.inbox.set_handler(self._on_reply)
        env.process(self._arrival_pump(), name=f"openloop:{address}")

    # -- generating -------------------------------------------------------------

    def _arrival_pump(self):
        """Sample arrivals each tick, admit them, and dispatch."""
        env = self.env
        arrival = self.scenario["arrival"]
        tick: float = arrival["tick"]
        lam = arrival["rate"] * tick
        lognormal = arrival["process"] == "lognormal"
        sigma: float = arrival["sigma"]
        mu = -0.5 * sigma * sigma  # unit-mean intensity multiplier
        rng = self._rng
        alloc = self.table.alloc
        admit = self.admit
        capacity = admit.capacity
        while self.running:
            if lognormal:
                count = poisson_draw(rng, lam * rng.lognormvariate(mu, sigma))
            else:
                count = poisson_draw(rng, lam)
            # Each arrival past the free room is shed before the next
            # arrives, so at most room + 1 of them are live at once.
            room = capacity - len(admit)
            admit.put(alloc(env.now, count, min(count, room + 1)))
            self._dispatch()
            yield tick
            if not self.running:
                break

    def _dispatch(self) -> None:
        """Drain the admission queue into per-target batches.

        Round-robin over targets with in-flight room, up to
        ``coalesce`` sessions per batch, gated by the token bucket.
        """
        env = self.env
        now = env.now
        if now < self.paused_until:
            return
        admit = self.admit
        if not len(admit):
            return
        bucket = self.bucket
        if bucket is not None:
            bucket.refill(now)
        ops = self._ops
        coalesce = self._coalesce
        max_inflight = self._max_inflight
        inflight = self._inflight
        n_targets = len(self.targets)
        mark = self.table.mark
        try_get = admit.try_get
        send = self.net.send
        address = self.address
        while len(admit):
            # Next target with in-flight room, starting at the cursor.
            target_idx = -1
            for step in range(n_targets):
                candidate = (self._rr + step) % n_targets
                if inflight[candidate] < max_inflight:
                    target_idx = candidate
                    break
            if target_idx < 0:
                return  # every target is at its cap; replies re-dispatch
            count = min(coalesce, len(admit))
            if bucket is not None:
                affordable = int(bucket.tokens // ops)
                if affordable < count:
                    count = affordable
                if count <= 0:
                    return  # throttled; the next tick refills
                bucket.take(count * ops)
            runs, need = [], count
            while need:
                runs.append(try_get(None, need))
                mark(runs[-1], INFLIGHT)
                need -= len(runs[-1])
            self._rr = (target_idx + 1) % n_targets
            inflight[target_idx] += 1
            self._send_batch(target_idx, tuple(runs), count, now, send,
                             address)

    def _send_batch(self, target_idx: int, runs: Tuple[range, ...],
                    sessions: int, now: float, send, address: str) -> None:
        recent = self._recent
        if recent:
            deps = tuple(Token(obj, ver) for obj, ver in recent.items())
            recent.clear()
        else:
            deps = ()
        op_count = sessions * self._ops
        write_count = sessions * self._write_count
        self._next_batch += 1
        batch_id = self._next_batch
        first_seqno = self._next_seqno[target_idx]
        self._next_seqno[target_idx] = first_seqno + op_count
        request = BatchRequest(
            batch_id, self._session_ids[target_idx], address,
            self.world_line, self.version_scalar, first_seqno, op_count,
            write_count, deps, now, None, None)
        self._batches[batch_id] = (target_idx, runs)
        send(address, self.targets[target_idx], request, size_ops=op_count)

    # -- receiving --------------------------------------------------------------

    def _on_reply(self, message) -> None:
        """Inbox sink handler: fold one reply into the driver."""
        env = self.env
        reply = message.payload
        now = env.now
        status = reply.status
        if status == "rolled_back":
            self._handle_rollback(reply.world_line, reply.cut, now)
            return
        entry = self._batches.pop(reply.batch_id, None)
        if entry is None:
            return  # straggler from before a rollback, or a duplicate
        target_idx, runs = entry
        self._inflight[target_idx] -= 1
        if status == "ok":
            self._complete(reply, runs, now)
        else:
            # "retry" / "not_owner": the ops never ran.  Back off and
            # push the sessions back through admission — under pressure
            # they compete with fresh arrivals and may be shed, which
            # is exactly what an admission stack is for.
            exponent = min(self.retry_attempts, 6)
            self.retry_attempts += 1
            backoff = min(self.retry_delay * (2 ** exponent),
                          self.retry_backoff_cap)
            backoff *= 0.5 + 0.5 * self._rng.random()
            self.paused_until = max(self.paused_until, now + backoff)
            for run in runs:
                self.table.mark(run, QUEUED)
                self.admit.put(run)
        self._dispatch()

    def _complete(self, reply, runs: Tuple[range, ...], now: float) -> None:
        self.retry_attempts = 0
        version = reply.version
        object_id = reply.object_id
        if version > self.version_scalar:
            self.version_scalar = version
        if version > self._recent.get(object_id, 0):
            self._recent[object_id] = version
        table = self.table
        op_latency = self.stats.operation_latency.add
        for run in runs:
            table.mark(run, ACKED)
            for arrived in table.arrivals(run):
                op_latency(now - arrived)
            self.completed_sessions += len(run)
        self.stats.completed.add(now, reply.op_count)
        pending = self._uncommitted.get(object_id)
        if pending is None:
            pending = self._uncommitted[object_id] = deque()
        pending.append((version, runs))
        cut = reply.cut
        if cut is not None and cut.versions != self._last_cut_seen:
            self._absorb_cut(cut, now)

    def _absorb_cut(self, cut: DprCut, now: float) -> None:
        """Retire ACKED sessions the cut covers; their commit latency
        is arrival-to-cut, the open-loop number a knee curve plots."""
        self._last_cut_seen = dict(cut.versions)
        table = self.table
        lat_append = self.commit_latencies.append
        commit_lat = self.stats.commit_latency.add
        committed = self.stats.committed
        ops = self._ops
        version_of = cut.version_of
        for object_id, pending in self._uncommitted.items():
            cover = version_of(object_id)
            while pending and pending[0][0] <= cover:
                _, runs = pending.popleft()
                for run in runs:
                    for arrived in table.arrivals(run):
                        latency = now - arrived
                        lat_append(latency)
                        commit_lat(latency)
                sessions = self._release(runs)
                committed.add(now, sessions * ops)
                self.committed_sessions += sessions

    def _handle_rollback(self, new_world_line: int, cut: Optional[DprCut],
                         now: float) -> None:
        """World-line bump: commit what the cut covers, abort the rest,
        pause dispatch for the recovery window."""
        if new_world_line <= self.world_line:
            return  # duplicate notification
        self.world_line = new_world_line
        self._absorb_cut(cut if cut is not None else DprCut(), now)
        for pending in self._uncommitted.values():
            while pending:
                self._abort(pending.popleft()[1], now)
        # In-flight batches died with the old world-line; their
        # straggling replies describe rolled-back effects.
        inflight = self._inflight
        for batch_id in sorted(self._batches):
            target_idx, runs = self._batches[batch_id]
            inflight[target_idx] -= 1
            self._abort(runs, now)
        self._batches.clear()
        self._recent.clear()
        self._last_cut_seen = None
        self.retry_attempts = 0
        self.paused_until = now + self.recovery_pause

    def _release(self, runs: Tuple[range, ...]) -> int:
        """Retire ``runs``; returns how many sessions they held."""
        for run in runs:
            self.table.release(run)
        return sum(len(run) for run in runs)

    def _abort(self, runs: Tuple[range, ...], now: float) -> None:
        sessions = self._release(runs)
        self.stats.aborted.add(now, sessions * self._ops)
        self.aborted_sessions += sessions

    # -- control ----------------------------------------------------------------

    def stop(self) -> None:
        self.running = False


def slo_report(driver: OpenLoopDriver) -> Dict[str, Any]:
    """Summarize a finished run for the knee curve.

    Percentiles are exact (computed over *every* commit latency, not a
    reservoir sample): an open-loop p999 from 1k sampled points is
    noise, and exactness is what makes the report byte-identical
    across reruns.
    """
    ordered = sorted(driver.commit_latencies)
    if ordered:
        latency = {
            "count": len(ordered),
            "p50": interpolated_percentile(ordered, 50),
            "p99": interpolated_percentile(ordered, 99),
            "p999": interpolated_percentile(ordered, 99.9),
        }
    else:
        latency = {"count": 0, "p50": 0.0, "p99": 0.0, "p999": 0.0}
    admit = driver.admit
    return {
        "scenario": driver.scenario["name"],
        "offered_sessions": driver.table.allocated,
        "shed_sessions": admit.shed_items + admit.rejected_items,
        "completed_sessions": driver.completed_sessions,
        "committed_sessions": driver.committed_sessions,
        "aborted_sessions": driver.aborted_sessions,
        "live_sessions": driver.table.live,
        "peak_live_sessions": driver.table.peak_live,
        "commit_latency": latency,
    }


def attach_open_loop(cluster, scenario: Optional[Dict[str, Any]] = None,
                     address: str = "openloop-0") -> OpenLoopDriver:
    """Attach a driver to a cluster built with ``n_client_machines=0``.

    Targets come from the cluster's ``client_targets`` (D-Redis
    proxies) or, failing that, its worker addresses (D-FASTER).  The
    driver's RNG is spawned from the cluster's seed stream, so one
    config seed still reproduces the whole run.
    """
    targets = getattr(cluster, "client_targets", None)
    if targets is None:
        targets = [worker.address for worker in cluster.workers]
    return OpenLoopDriver(
        cluster.env, cluster.net, address, list(targets),
        scenario=scenario, stats=cluster.stats,
        rng=spawn(cluster._rng, address))
