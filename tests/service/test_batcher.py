"""Batcher semantics: coalescing, dispatch on idle, backpressure, drain."""

import asyncio

import pytest

from repro.service.batcher import (
    CircuitBreaker,
    CircuitOpen,
    DeadlineExceeded,
    MicroBatcher,
    Overloaded,
    WorkerCrashed,
)


class RecordingDispatch:
    """Dispatch double: records batches, optionally gated or failing."""

    def __init__(self, gate: "asyncio.Event | None" = None, fail: bool = False):
        self.batches = []
        self.gate = gate
        self.fail = fail

    async def __call__(self, items):
        self.batches.append(list(items))
        if self.gate is not None:
            await self.gate.wait()
        if self.fail:
            raise RuntimeError("solver exploded")
        return {key: f"solved:{key}" for key, _payload in items}


def run(coro):
    return asyncio.run(coro)


class TestSingleFlight:
    def test_concurrent_same_key_costs_one_solve(self):
        async def scenario():
            dispatch = RecordingDispatch()
            batcher = MicroBatcher(dispatch)
            results = await asyncio.gather(
                *(batcher.submit("k", i) for i in range(16))
            )
            return dispatch, batcher, results

        dispatch, batcher, results = run(scenario())
        assert results == ["solved:k"] * 16
        assert len(dispatch.batches) == 1
        assert len(dispatch.batches[0]) == 1
        assert batcher.coalesced == 15
        assert batcher.items_dispatched == 1

    def test_waiter_cancellation_does_not_poison_others(self):
        async def scenario():
            gate = asyncio.Event()
            dispatch = RecordingDispatch(gate=gate)
            batcher = MicroBatcher(dispatch)
            first = asyncio.ensure_future(batcher.submit("k", 0))
            await asyncio.sleep(0.01)  # batch dispatched, parked on gate
            second = asyncio.ensure_future(batcher.submit("k", 1))
            await asyncio.sleep(0.01)
            first.cancel()
            gate.set()
            return await second

        assert run(scenario()) == "solved:k"


async def hold_the_slot(batcher):
    """Occupy the batcher's only slot with a batch parked on the gate."""
    holder = asyncio.ensure_future(batcher.submit("hold", -1))
    await asyncio.sleep(0.01)
    assert batcher.saturated
    return holder


class TestBatching:
    def test_idle_slot_dispatches_at_once(self):
        async def scenario():
            dispatch = RecordingDispatch(gate=asyncio.Event())
            batcher = MicroBatcher(dispatch)
            waiter = asyncio.ensure_future(batcher.submit("k", 0))
            await asyncio.sleep(0)  # submit runs and starts the batch
            await asyncio.sleep(0)  # the batch task calls dispatch
            dispatched = list(dispatch.batches)
            dispatch.gate.set()
            return dispatched, await waiter

        dispatched, result = run(scenario())
        assert dispatched == [[("k", 0)]]  # no timer held the key back
        assert result == "solved:k"

    def test_distinct_keys_in_window_form_one_batch(self):
        async def scenario():
            gate = asyncio.Event()
            dispatch = RecordingDispatch(gate=gate)
            batcher = MicroBatcher(dispatch, max_batch=64)
            holder = await hold_the_slot(batcher)
            waiters = [
                asyncio.ensure_future(batcher.submit(f"k{i}", i)) for i in range(8)
            ]
            await asyncio.sleep(0.01)  # all eight queue behind the holder
            gate.set()
            results = await asyncio.gather(*waiters)
            await holder
            return dispatch, results

        dispatch, results = run(scenario())
        assert results == [f"solved:k{i}" for i in range(8)]
        queued = dispatch.batches[1:]  # after the holder's own batch
        assert len(queued) == 1
        assert len(queued[0]) == 8

    def test_max_batch_flushes_early(self):
        async def scenario():
            gate = asyncio.Event()
            dispatch = RecordingDispatch(gate=gate)
            batcher = MicroBatcher(dispatch, max_batch=4)
            holder = await hold_the_slot(batcher)
            waiters = [
                asyncio.ensure_future(batcher.submit(f"k{i}", i)) for i in range(8)
            ]
            await asyncio.sleep(0.01)
            gate.set()
            await asyncio.gather(holder, *waiters)
            return dispatch

        dispatch = run(scenario())
        # Eight queued keys leave as batches of at most max_batch.
        queued = dispatch.batches[1:]
        assert len(queued) == 2
        assert all(len(b) == 4 for b in queued)

    def test_slots_bound_the_batches_in_flight(self):
        async def scenario():
            gate = asyncio.Event()
            dispatch = RecordingDispatch(gate=gate)
            batcher = MicroBatcher(dispatch, slots=2)
            waiters = [
                asyncio.ensure_future(batcher.submit(f"k{i}", i)) for i in range(3)
            ]
            await asyncio.sleep(0.01)
            in_flight = [list(b) for b in dispatch.batches]
            saturated = batcher.saturated
            gate.set()
            results = await asyncio.gather(*waiters)
            return in_flight, saturated, dispatch, results

        in_flight, saturated, dispatch, results = run(scenario())
        assert in_flight == [[("k0", 0)], [("k1", 1)]]  # k2 waited for a slot
        assert saturated
        assert dispatch.batches[2] == [("k2", 2)]
        assert results == ["solved:k0", "solved:k1", "solved:k2"]


class TestBackpressure:
    def test_overloaded_beyond_max_pending(self):
        async def scenario():
            gate = asyncio.Event()
            dispatch = RecordingDispatch(gate=gate)
            batcher = MicroBatcher(dispatch, max_pending=2)
            first = asyncio.ensure_future(batcher.submit("k1", 0))
            second = asyncio.ensure_future(batcher.submit("k2", 0))
            await asyncio.sleep(0.01)
            assert batcher.pending == 2
            with pytest.raises(Overloaded) as exc_info:
                await batcher.submit("k3", 0)
            # Joining an in-flight key never rejects.
            third = asyncio.ensure_future(batcher.submit("k1", 0))
            await asyncio.sleep(0)
            gate.set()
            results = await asyncio.gather(first, second, third)
            return exc_info.value, results

        overloaded, results = run(scenario())
        assert overloaded.pending == 2
        assert overloaded.retry_after > 0
        assert results == ["solved:k1", "solved:k2", "solved:k1"]


class TestFailure:
    def test_dispatch_error_reaches_every_waiter(self):
        async def scenario():
            dispatch = RecordingDispatch(fail=True)
            batcher = MicroBatcher(dispatch)
            results = await asyncio.gather(
                batcher.submit("k", 0),
                batcher.submit("k", 1),
                return_exceptions=True,
            )
            return batcher, results

        batcher, results = run(scenario())
        assert all(isinstance(r, RuntimeError) for r in results)
        assert batcher.pending == 0  # failed keys are not stuck in flight

    def test_missing_result_is_an_error(self):
        async def scenario():
            async def dispatch(items):
                return {}  # dispatch "forgot" the key

            batcher = MicroBatcher(dispatch)
            with pytest.raises(RuntimeError, match="no result"):
                await batcher.submit("k", 0)

        run(scenario())


class TestDrain:
    def test_drain_flushes_and_waits(self):
        async def scenario():
            gate = asyncio.Event()
            dispatch = RecordingDispatch(gate=gate)
            batcher = MicroBatcher(dispatch)
            holder = await hold_the_slot(batcher)
            waiter = asyncio.ensure_future(batcher.submit("k", 0))
            await asyncio.sleep(0.01)  # queued behind the gated batch
            assert not waiter.done()
            asyncio.get_running_loop().call_later(0.01, gate.set)
            await batcher.drain()
            assert waiter.done() and holder.done()
            return await waiter

        assert run(scenario()) == "solved:k"


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class CrashingDispatch:
    """Raises WorkerCrashed for the first ``crashes`` calls, then solves."""

    def __init__(self, crashes):
        self.crashes = crashes
        self.calls = 0

    async def __call__(self, items):
        self.calls += 1
        if self.calls <= self.crashes:
            raise WorkerCrashed(f"boom #{self.calls}")
        return {key: f"solved:{key}" for key, _payload in items}


class CancelledDispatch:
    """Its first ``cancels`` calls end cancelled, as an executor call does
    when the executor is shut down with ``cancel_futures=True``."""

    def __init__(self, cancels):
        self.cancels = cancels
        self.calls = 0

    async def __call__(self, items):
        self.calls += 1
        if self.calls <= self.cancels:
            raise asyncio.CancelledError()
        return {key: f"solved:{key}" for key, _payload in items}


class TestRequeue:
    def test_one_crash_is_requeued_after_recovery(self):
        async def scenario():
            dispatch = CrashingDispatch(crashes=1)
            recoveries = []

            async def recover(exc):
                recoveries.append(exc)

            batcher = MicroBatcher(dispatch, recover=recover, requeue_limit=1)
            result = await batcher.submit("k", 0)
            return dispatch, recoveries, batcher, result

        dispatch, recoveries, batcher, result = run(scenario())
        assert result == "solved:k"
        assert dispatch.calls == 2
        assert batcher.requeues == 1
        assert len(recoveries) == 1 and isinstance(recoveries[0], WorkerCrashed)

    def test_requeues_exhausted_fail_every_waiter(self):
        async def scenario():
            dispatch = CrashingDispatch(crashes=99)
            batcher = MicroBatcher(dispatch, requeue_limit=1)
            with pytest.raises(WorkerCrashed):
                await batcher.submit("k", 0)
            return dispatch, batcher

        dispatch, batcher = run(scenario())
        assert dispatch.calls == 2  # original + the single requeue
        assert batcher.requeues == 1
        assert batcher.pending == 0

    def test_recovery_runs_even_when_no_requeue_remains(self):
        """The next batch must not inherit a wedged executor: recovery
        happens on every pool-health failure, requeue or not."""
        async def scenario():
            dispatch = CrashingDispatch(crashes=1)
            recoveries = []

            async def recover(exc):
                recoveries.append(exc)

            batcher = MicroBatcher(dispatch, recover=recover, requeue_limit=0)
            with pytest.raises(WorkerCrashed):
                await batcher.submit("k", 0)
            return recoveries

        assert len(run(scenario())) == 1

    def test_cancelled_dispatch_is_a_crash_and_requeued(self):
        """Another batch's pool rebuild cancels this batch's executor
        call: that is a pool failure, recovered and requeued."""
        async def scenario():
            dispatch = CancelledDispatch(cancels=1)
            recoveries = []

            async def recover(exc):
                recoveries.append(exc)

            batcher = MicroBatcher(dispatch, recover=recover, requeue_limit=1)
            result = await asyncio.wait_for(batcher.submit("k", 0), timeout=5)
            return dispatch, recoveries, batcher, result

        dispatch, recoveries, batcher, result = run(scenario())
        assert result == "solved:k"
        assert dispatch.calls == 2
        assert batcher.requeues == 1
        assert len(recoveries) == 1 and isinstance(recoveries[0], WorkerCrashed)
        assert batcher.pending == 0

    def test_cancelled_dispatch_past_the_requeues_fails_waiters(self):
        async def scenario():
            batcher = MicroBatcher(CancelledDispatch(cancels=99), requeue_limit=1)
            with pytest.raises(WorkerCrashed, match="cancelled"):
                await asyncio.wait_for(batcher.submit("k", 0), timeout=5)
            return batcher

        batcher = run(scenario())
        assert batcher.requeues == 1
        assert batcher.pending == 0  # the key is not left to be joined

    def test_cancelled_batch_task_cancels_its_waiters(self):
        async def scenario():
            dispatch = RecordingDispatch(gate=asyncio.Event())  # never set
            batcher = MicroBatcher(dispatch)
            waiter = asyncio.ensure_future(batcher.submit("k", 0))
            queued = asyncio.ensure_future(batcher.submit("q", 1))
            await asyncio.sleep(0.01)
            for task in list(batcher._tasks):
                task.cancel()
            outcomes = await asyncio.wait_for(
                asyncio.gather(waiter, queued, return_exceptions=True), timeout=5
            )
            return batcher, outcomes

        batcher, outcomes = run(scenario())
        assert all(isinstance(o, asyncio.CancelledError) for o in outcomes)
        assert batcher.pending == 0

    def test_deterministic_errors_are_not_requeued(self):
        """A bad payload raising inside the solver is a pure function of
        its input: retrying cannot help and must not happen."""
        async def scenario():
            dispatch = RecordingDispatch(fail=True)
            batcher = MicroBatcher(dispatch, requeue_limit=3)
            with pytest.raises(RuntimeError, match="solver exploded"):
                await batcher.submit("k", 0)
            return dispatch, batcher

        dispatch, batcher = run(scenario())
        assert len(dispatch.batches) == 1  # exactly one attempt
        assert batcher.requeues == 0


class TestDeadline:
    def test_overrunning_dispatch_is_abandoned(self):
        async def scenario():
            gate = asyncio.Event()  # never set: the dispatch hangs
            dispatch = RecordingDispatch(gate=gate)
            batcher = MicroBatcher(dispatch, deadline=0.05, requeue_limit=0)
            with pytest.raises(DeadlineExceeded) as excinfo:
                await batcher.submit("k", 0)
            return batcher, excinfo.value

        batcher, exc = run(scenario())
        assert exc.keys == ["k"]
        assert batcher.deadline_timeouts == 1

    def test_zero_deadline_means_unbounded(self):
        async def scenario():
            dispatch = RecordingDispatch()
            batcher = MicroBatcher(dispatch, deadline=0.0)
            return await batcher.submit("k", 0)

        assert run(scenario()) == "solved:k"


class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=3, reset_after=1.0, clock=clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.opened_total == 1
        assert 0.0 < breaker.retry_after() <= 1.0

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED  # streak broken

    def test_half_open_probe_then_close_or_reopen(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, reset_after=1.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(1.0)
        assert breaker.allow()  # the probe is admitted
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_failure()  # probe failed: snap back open
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opened_total == 2
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.state_code == 0

    def test_open_breaker_sheds_new_keys_but_not_joins(self):
        async def scenario():
            gate = asyncio.Event()
            dispatch = RecordingDispatch(gate=gate)
            clock = FakeClock()
            breaker = CircuitBreaker(threshold=1, reset_after=10.0, clock=clock)
            batcher = MicroBatcher(dispatch, breaker=breaker, requeue_limit=0)
            waiter = asyncio.ensure_future(batcher.submit("k", 0))
            await asyncio.sleep(0.01)  # "k" is in flight, parked on the gate
            breaker.record_failure()  # force the breaker open
            with pytest.raises(CircuitOpen) as excinfo:
                await batcher.submit("fresh", 1)
            assert excinfo.value.retry_after > 0
            join = asyncio.ensure_future(batcher.submit("k", 0))
            await asyncio.sleep(0.01)
            assert not join.done()  # joined the in-flight key, not shed
            gate.set()
            await batcher.drain()
            return await waiter, await join

        assert run(scenario()) == ("solved:k", "solved:k")

    def test_successful_dispatch_closes_the_breaker(self):
        async def scenario():
            dispatch = CrashingDispatch(crashes=1)
            clock = FakeClock()
            breaker = CircuitBreaker(threshold=5, clock=clock)
            batcher = MicroBatcher(dispatch, breaker=breaker, requeue_limit=1)
            await batcher.submit("k", 0)  # crash → requeue → success
            return breaker

        breaker = run(scenario())
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.failures == 0  # the requeued success wiped the slate
