"""Deterministic kernel budgets + byte-identity anchors for the array core.

Two families of regression guard live here:

**Budgets** hold the array-structured kernel (docs/KERNEL.md) to the
numbers that make it fast: the dispatch count of the fig10 smoke cell
is exactly reproducible and pinned; the heap and the live-handle pool
must scale with in-flight work (windows x clients), never run length;
and the free-list must be recycling nearly every handle (a reuse-rate
collapse means handles are leaking and the arrays are growing without
bound).

**Byte-identity anchors** pin sha256 digests of full trace streams
captured *before* the array-core refactor landed.  The refactor's
contract (docs/PERFORMANCE.md) is that every fast path consumes exactly
one kernel sequence number where the Event-based form consumed one, so
event order, RNG draw order, and therefore every simulated result are
bit-for-bit unchanged.  These tests hold future kernel work to the same
contract: if one fails, the change reordered events — compare
per-counter with Tracer.counters and per-phase with phase_summary() to
localize, and only re-pin if the reordering was an intentional protocol
change, never to absorb an accidental one.

If a *budget* fails after an intentional protocol change (more messages
per batch, a new background loop), re-measure and move the budget with
the change — the point is that event-count growth is a *decision*,
never an accident of a refactor.
"""

import hashlib
import json

from repro.bench.harness import run_dfaster_experiment
from repro.cluster import DFasterCluster, DFasterConfig
from repro.obs import Tracer
from repro.workloads import YCSB_A

#: Exact dispatch count of the smoke cell below, as of the array-core
#: refactor.  (It was 13_679 before: converting six message-router
#: generators to sink handlers removed their six start events; every
#: per-message event is unchanged.)  The assertion allows 5% headroom so
#: byte-level-neutral refactors that legitimately reshuffle a few
#: control events (e.g. a changed shutdown order) don't trip it.
SMOKE_DISPATCH_BASELINE = 13_673
SMOKE_DISPATCH_BUDGET = int(SMOKE_DISPATCH_BASELINE * 1.05)

#: The heap should stay shallow: depth scales with in-flight work
#: (windows x clients), not with run length.
SMOKE_HEAP_DEPTH_BUDGET = 160

#: The live-handle pool is bounded by heap depth plus the entry being
#: dispatched, so the same in-flight-work bound applies (measured: 81
#: for this cell).  Growth here with run length means handles leak.
SMOKE_LIVE_HANDLE_BUDGET = 160

#: Nearly every schedule should recycle a freed handle once the pool
#: warms up (measured: 99.4% for this cell).
SMOKE_FREE_LIST_REUSE_MIN = 0.95

#: sha256 of Tracer.serialize() for the smoke cell, captured on the
#: object-per-event kernel immediately before the array core replaced
#: it.  Every span, counter bucket, and gauge in emission order — if
#: the array core (or any future kernel change) perturbs event order
#: or RNG draw order, this digest moves.
SMOKE_TRACE_SHA = \
    "89d4b77b6523a44f14afb7462acf80a6f2fb524577876779b9f868685adefff8"

#: Pre-refactor digests of the full chaos and replication scenario
#: fingerprints from tests/test_determinism_hashseed.py — protocol
#: outcomes (commits, aborts, injected faults, world-lines, cuts) plus
#: the serialized trace, across crash/recovery and promotion paths the
#: smoke cell never exercises.
CHAOS_SCENARIO_SHA = \
    "e7276d2772d7bd0f4c515a6e15f8195cffde745e687b0fb21c9b0f1f39a5d760"
REPLICATION_SCENARIO_SHA = \
    "8475dcd0c7d78192fc98312dd8fdd70fe2b183decde64e356518f18985c48fee"

#: Digest of the open-loop scenario's output (its ``slo_report`` plus
#: the trace SHA-256), captured on the per-session admission path
#: before runs replaced it: log-normal arrivals, a token bucket,
#: shed-oldest admission and a crash, so sheds and rollback aborts
#: both feed the fingerprint.
OPENLOOP_SCENARIO_SHA = \
    "d150c7d61091bd7201732cc22f197f15c5b1ec9d0dfd8d7aef4176dd8d381e32"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run_smoke() -> Tracer:
    tracer = Tracer()
    run_dfaster_experiment(
        "fig10 smoke", duration=0.1, warmup=0.05,
        n_workers=2, n_client_machines=2, workload=YCSB_A,
        tracer=tracer)
    return tracer


def _run_smoke_cluster():
    """The same smoke cell, built directly so the Environment (and its
    array-core introspection) stays reachable after the run."""
    tracer = Tracer()
    cluster = DFasterCluster(DFasterConfig(
        n_workers=2, n_client_machines=2, workload=YCSB_A, tracer=tracer))
    cluster.run(0.1, warmup=0.05)
    return cluster, tracer


class TestKernelEventBudget:
    def test_dispatch_count_within_budget(self):
        tracer = _run_smoke()
        dispatched = tracer.counters["kernel.dispatched"]
        # A collapsed counter (or a tracer that stopped seeing the
        # kernel) would pass a bare <=; require the real workload too.
        assert dispatched > SMOKE_DISPATCH_BASELINE * 0.5
        assert dispatched <= SMOKE_DISPATCH_BUDGET, (
            f"kernel dispatched {dispatched:.0f} events, budget is "
            f"{SMOKE_DISPATCH_BUDGET} — see tests/test_perf_budget.py "
            f"for how to move the budget deliberately")

    def test_dispatch_count_is_deterministic(self):
        first = _run_smoke().counters["kernel.dispatched"]
        second = _run_smoke().counters["kernel.dispatched"]
        assert first == second

    def test_heap_depth_within_budget(self):
        tracer = _run_smoke()
        depth = tracer.queue_high_watermarks["kernel.heap"]
        assert 0 < depth <= SMOKE_HEAP_DEPTH_BUDGET


class TestArrayCoreBudget:
    """The array core's handle pool must track in-flight work."""

    def test_live_handle_high_watermark(self):
        cluster, tracer = _run_smoke_cluster()
        env = cluster.env
        watermark = env.live_handle_high_watermark
        # Guard both directions: zero means the core stopped using
        # handles (introspection went stale), growth past the budget
        # means handles leak instead of recycling.
        assert 0 < watermark <= SMOKE_LIVE_HANDLE_BUDGET, (
            f"live-handle high-watermark {watermark} outside "
            f"(0, {SMOKE_LIVE_HANDLE_BUDGET}] — the free-list is "
            f"leaking handles if this grew")
        # The pool is bounded by heap depth + the entry in dispatch.
        heap_peak = tracer.queue_high_watermarks["kernel.heap"]
        assert watermark <= heap_peak + 1

    def test_free_list_reuse_rate(self):
        cluster, _ = _run_smoke_cluster()
        env = cluster.env
        assert env.handles_scheduled > SMOKE_DISPATCH_BASELINE * 0.5
        assert env.free_list_reuse_rate >= SMOKE_FREE_LIST_REUSE_MIN, (
            f"free-list reuse rate {env.free_list_reuse_rate:.4f} below "
            f"{SMOKE_FREE_LIST_REUSE_MIN} — schedules are growing the "
            f"arrays instead of recycling handles")


class TestByteIdentity:
    """Pre-refactor trace digests must keep matching the shipped core."""

    def test_smoke_trace_fingerprint_unchanged(self):
        tracer = _run_smoke()
        assert _sha(tracer.serialize()) == SMOKE_TRACE_SHA, (
            "fig10-smoke trace stream diverged from the pre-array-core "
            "capture: a kernel fast path is consuming a different number "
            "of sequence numbers (see docs/PERFORMANCE.md, rule 1)")

    def test_chaos_scenario_fingerprint_unchanged(self):
        from test_determinism_hashseed import CHAOS_SCENARIO, run_with_hashseed
        assert _sha(run_with_hashseed(0, CHAOS_SCENARIO)) == \
            CHAOS_SCENARIO_SHA, (
            "chaos-scenario fingerprint diverged from the pre-array-core "
            "capture: event order changed on the crash/recovery path")

    def test_replication_scenario_fingerprint_unchanged(self):
        from test_determinism_hashseed import (
            REPLICATION_SCENARIO, run_with_hashseed)
        assert _sha(run_with_hashseed(0, REPLICATION_SCENARIO)) == \
            REPLICATION_SCENARIO_SHA, (
            "replication-scenario fingerprint diverged from the "
            "pre-array-core capture: event order changed on the "
            "chain/promotion path")

    def test_openloop_scenario_fingerprint_unchanged(self):
        from test_determinism_hashseed import (
            OPENLOOP_SCENARIO, run_with_hashseed)
        assert _sha(run_with_hashseed(0, OPENLOOP_SCENARIO)) == \
            OPENLOOP_SCENARIO_SHA, (
            "open-loop scenario fingerprint diverged from the per-session "
            "admission capture: the run-structured driver must shed, "
            "dispatch and commit exactly the sessions it did")
