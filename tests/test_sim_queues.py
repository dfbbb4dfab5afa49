"""Tests for the FIFO queue primitive."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import Tracer
from repro.sim.kernel import Environment
from repro.sim.queues import EMPTY, BoundedQueue, Queue, QueueClosed


def traced_env():
    tracer = Tracer()
    return Environment(tracer=tracer), tracer


class TestQueueBasics:
    def test_put_then_get(self, env):
        queue = Queue(env)
        queue.put("a")
        queue.put("b")
        got = []

        def consumer():
            got.append((yield queue.get()))
            got.append((yield queue.get()))

        env.process(consumer())
        env.run()
        assert got == ["a", "b"]

    def test_get_blocks_until_put(self, env):
        queue = Queue(env)
        got = []

        def consumer():
            got.append(((yield queue.get()), env.now))

        def producer():
            yield env.timeout(5)
            queue.put("late")

        env.process(consumer())
        env.process(producer())
        env.run()
        assert got == [("late", 5.0)]

    def test_fifo_across_getters(self, env):
        queue = Queue(env)
        got = []

        def consumer(label):
            item = yield queue.get()
            got.append((label, item))

        env.process(consumer("first"))
        env.process(consumer("second"))

        def producer():
            yield env.timeout(1)
            queue.put(1)
            queue.put(2)

        env.process(producer())
        env.run()
        assert got == [("first", 1), ("second", 2)]

    def test_len_tracks_items(self, env):
        queue = Queue(env)
        assert len(queue) == 0
        queue.put("x")
        assert len(queue) == 1

    def test_try_get(self, env):
        queue = Queue(env)
        assert queue.try_get() is None
        queue.put(7)
        assert queue.try_get() == 7
        assert queue.try_get() is None

    def test_drain(self, env):
        queue = Queue(env)
        for item in range(3):
            queue.put(item)
        assert queue.drain() == [0, 1, 2]
        assert len(queue) == 0


class TestQueueWatermarks:
    """The queue depth gauge must track both enqueue and dequeue:
    recording only on put() leaves the current-depth gauge stale-high
    forever (the PR-10 watermark bug)."""

    def test_depth_gauge_decays_after_drain(self):
        env, tracer = traced_env()
        queue = Queue(env, name="jobs")
        for item in range(3):
            queue.put(item)
        assert tracer.queue_depths["queue.jobs"] == 3
        assert queue.drain() == [0, 1, 2]
        assert tracer.queue_depths["queue.jobs"] == 0
        # The high watermark still remembers the peak.
        assert tracer.queue_high_watermarks["queue.jobs"] == 3

    def test_depth_gauge_decays_on_get(self):
        env, tracer = traced_env()
        queue = Queue(env, name="jobs")
        queue.put("a")
        queue.put("b")

        def consumer():
            yield queue.get()
            yield queue.get()

        env.process(consumer())
        env.run()
        assert tracer.queue_depths["queue.jobs"] == 0
        assert tracer.queue_high_watermarks["queue.jobs"] == 2

    def test_depth_gauge_decays_on_try_get(self):
        env, tracer = traced_env()
        queue = Queue(env, name="jobs")
        queue.put("a")
        assert queue.try_get() == "a"
        assert tracer.queue_depths["queue.jobs"] == 0

    def test_depth_gauge_decays_on_channel_wait(self):
        env, tracer = traced_env()
        queue = Queue(env, name="jobs")
        queue.put("a")
        queue.put("b")
        got = []

        def consumer():
            got.append((yield queue))
            got.append((yield queue))

        env.process(consumer())
        env.run()
        assert got == ["a", "b"]
        assert tracer.queue_depths["queue.jobs"] == 0

    def test_depth_gauge_decays_on_sink_pump(self):
        env, tracer = traced_env()
        queue = Queue(env, name="jobs")
        got = []
        queue.set_handler(got.append)
        # First put dispatches straight to the handler; the rest land in
        # the backlog while the pump is in flight.
        for item in range(4):
            queue.put(item)
        assert tracer.queue_depths["queue.jobs"] == 3
        env.run()
        assert got == [0, 1, 2, 3]
        assert tracer.queue_depths["queue.jobs"] == 0
        assert tracer.queue_high_watermarks["queue.jobs"] == 3


class TestTryGetSentinel:
    def test_try_get_distinguishes_enqueued_none(self, env):
        queue = Queue(env)
        queue.put(None)
        assert queue.try_get(EMPTY) is None  # the enqueued None itself
        assert queue.try_get(EMPTY) is EMPTY  # now genuinely empty

    def test_try_get_drains_then_fails_when_closed(self, env):
        queue = Queue(env)
        queue.put(1)
        queue.close()
        assert queue.try_get() == 1  # backlog still served after close
        with pytest.raises(QueueClosed):
            queue.try_get()


class TestBoundedQueue:
    def test_shed_oldest_never_exceeds_capacity(self, env):
        shed = []
        queue = BoundedQueue(env, capacity=3, name="adm",
                             on_shed=shed.append)
        for item in range(10):
            queue.put(item)
            assert len(queue) <= 3
        assert queue.drain() == [7, 8, 9]
        assert shed == [0, 1, 2, 3, 4, 5, 6]
        assert queue.shed_items == 7
        assert queue.rejected_items == 0

    def test_reject_refuses_newcomers(self, env):
        rejected = []
        queue = BoundedQueue(env, capacity=2, policy="reject",
                             on_shed=rejected.append)
        queue.put("a")
        queue.put("b")
        queue.put("c")
        assert queue.drain() == ["a", "b"]
        assert rejected == ["c"]
        assert queue.rejected_items == 1
        assert queue.shed_items == 0

    def test_sheds_are_counted_in_tracer(self):
        env, tracer = traced_env()
        queue = BoundedQueue(env, capacity=1, name="adm")
        queue.put(1)
        queue.put(2)
        assert tracer.counters["queue.adm.shed"] == 1

    def test_sink_backlog_respects_capacity(self):
        env, tracer = traced_env()
        got = []
        queue = BoundedQueue(env, capacity=2, name="adm",
                             on_shed=lambda item: None)
        queue.set_handler(got.append)
        for item in range(6):
            queue.put(item)
            assert len(queue) <= 2
        env.run()
        # 0 pumped directly; 1-3 shed as 4 and 5 arrived; 4, 5 served.
        assert got == [0, 4, 5]
        assert queue.shed_items == 3

    def test_invalid_arguments_rejected(self, env):
        with pytest.raises(ValueError):
            BoundedQueue(env, capacity=0)
        with pytest.raises(ValueError):
            BoundedQueue(env, capacity=4, policy="drop-newest")


def _elements(item):
    """What a backlog item stands for: a run's elements, or itself."""
    return list(item) if item.__class__ is range else [item]


def _observed(queue, tracer, victims):
    key = "queue.adm"
    return (len(queue), queue.shed_items, queue.rejected_items,
            list(victims), tracer.queue_depths.get(key),
            tracer.queue_high_watermarks.get(key),
            tracer.counters.get(key + ".shed"),
            tracer.counters.get(key + ".rejected"))


_run_ops = st.lists(st.one_of(
    st.tuples(st.just("put"), st.integers(0, 30)),
    st.tuples(st.just("take"), st.integers(1, 15))), max_size=40)


class TestBoundedQueueRuns:
    """A put run observes exactly what putting its elements does."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(policy=st.sampled_from(BoundedQueue.POLICIES),
           capacity=st.integers(1, 20), ops=_run_ops)
    def test_run_equals_its_elements(self, policy, capacity, ops):
        run_env, run_tracer = traced_env()
        one_env, one_tracer = traced_env()
        run_victims, one_victims = [], []
        runs = BoundedQueue(
            run_env, capacity, name="adm", policy=policy,
            on_shed=lambda item: run_victims.extend(_elements(item)))
        ones = BoundedQueue(one_env, capacity, name="adm", policy=policy,
                            on_shed=one_victims.append)
        next_handle = 0
        for op, size in ops:
            if op == "put":
                run = range(next_handle, next_handle + size)
                next_handle += size
                runs.put(run)
                for element in run:
                    ones.put(element)
            else:
                taken, need = [], size
                while need and len(runs):
                    item = runs.try_get(limit=need)
                    assert len(_elements(item)) <= need
                    taken.extend(_elements(item))
                    need -= len(_elements(item))
                expected = [ones.try_get()
                            for _ in range(min(size, len(ones)))]
                assert taken == expected
            assert _observed(runs, run_tracer, run_victims) == \
                _observed(ones, one_tracer, one_victims)
            assert len(runs) <= capacity
        drained = [e for item in runs.drain() for e in _elements(item)]
        assert drained == ones.drain()
        assert _observed(runs, run_tracer, run_victims) == \
            _observed(ones, one_tracer, one_victims)

    def test_try_get_without_limit_takes_a_whole_run(self, env):
        queue = BoundedQueue(env, capacity=10)
        queue.put(range(3, 7))
        queue.put("x")
        assert len(queue) == 5
        assert queue.try_get(limit=3) == range(3, 6)
        assert queue.try_get() == range(6, 7)
        assert queue.try_get(limit=3) == "x"
        assert len(queue) == 0


class TestQueueClose:
    def test_put_after_close_rejected(self, env):
        queue = Queue(env)
        queue.close()
        with pytest.raises(QueueClosed):
            queue.put("x")

    def test_close_fails_waiting_getter(self, env):
        queue = Queue(env)
        caught = []

        def consumer():
            try:
                yield queue.get()
            except QueueClosed:
                caught.append(True)

        env.process(consumer())

        def closer():
            yield env.timeout(1)
            queue.close()

        env.process(closer())
        env.run()
        assert caught == [True]

    def test_get_after_close_fails(self, env):
        queue = Queue(env)
        queue.close()
        caught = []

        def consumer():
            try:
                yield queue.get()
            except QueueClosed:
                caught.append(True)

        env.process(consumer())
        env.run()
        assert caught == [True]

    def test_double_close_is_noop(self, env):
        queue = Queue(env)
        queue.close()
        queue.close()
        assert queue.closed

    def test_get_drains_backlog_then_fails(self, env):
        """Drain-then-fail: close() never discards accepted items."""
        queue = Queue(env)
        queue.put(1)
        queue.put(2)
        queue.close()
        got, caught = [], []

        def consumer():
            got.append((yield queue.get()))
            got.append((yield queue.get()))
            try:
                yield queue.get()
            except QueueClosed:
                caught.append(True)

        env.process(consumer())
        env.run()
        assert got == [1, 2]
        assert caught == [True]

    def test_set_handler_pumps_existing_backlog(self):
        """A handler installed after items were enqueued must still see
        them (pre-fix the backlog was stranded in sink mode)."""
        env = Environment()
        queue = Queue(env, name="late-sink")
        queue.put(1)
        queue.put(2)
        got = []
        queue.set_handler(got.append)
        env.run()
        assert got == [1, 2]

    def test_close_does_not_strand_sink_backlog(self):
        """Closing a sink-mode queue lets the in-flight pump finish the
        backlog: every accepted item reaches the handler."""
        env = Environment()
        queue = Queue(env, name="sink")
        got = []
        queue.set_handler(got.append)
        for item in range(3):
            queue.put(item)
        queue.close()
        with pytest.raises(QueueClosed):
            queue.put(99)
        env.run()
        assert got == [0, 1, 2]
