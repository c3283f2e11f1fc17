"""Single-flight, dispatch-on-idle batcher for cache-miss solves.

Solves are CPU-bound (an O(n³) blossom matching per hierarchy level)
and go to a process pool.  The batcher sits between the request
handlers and that pool:

* **Single-flight** — concurrent requests for the same canonical key
  share one future; N identical cache misses cost exactly one solve.
* **Dispatch on idle** — at most ``slots`` batches are in flight (the
  owner passes its pool size).  A key submitted while a slot is free
  leaves at once; keys submitted while every slot is busy queue up and
  leave together, up to ``max_batch`` per batch, as soon as a slot
  frees.  No timer ever holds a key back: batching happens only where
  waiting was unavoidable anyway.
* **Backpressure** — at most ``max_pending`` keys may be in flight;
  beyond that :class:`Overloaded` is raised for the HTTP layer to turn
  into ``429 Retry-After``.

Fault tolerance (chaos-tested in ``tests/faults``):

* **Deadline** — a dispatch that overruns ``deadline`` seconds is
  abandoned (:class:`DeadlineExceeded`); a hung worker must never wedge
  the whole service.  Queued keys do not start their clock until their
  batch is dispatched.
* **Requeue** — a crashed (:class:`WorkerCrashed`) or timed-out batch
  is re-dispatched up to ``requeue_limit`` times after the ``recover``
  hook (the owner's pool rebuild) runs; past the limit every waiter
  sees the failure.  A dispatch cancelled under a batch that is itself
  still running (the rebuild shut its executor down) counts as a crash.
  Deterministic *batch* errors — a bad payload raising inside the
  solver — are not requeued: retrying a pure function on the same
  input cannot change the answer.
* **Circuit breaker** — consecutive dispatch failures open the
  :class:`CircuitBreaker`; while open, *new* keys are shed instantly
  with :class:`CircuitOpen` (the HTTP layer's 503 + Retry-After)
  instead of piling onto a broken pool.  After ``reset_after`` seconds
  one probe batch is admitted (half-open): success closes the breaker,
  failure reopens it.

The batcher is event-loop-confined: all bookkeeping happens on the
loop, only the dispatch awaitable (an executor call) leaves it.  Every
exit from a batch resolves all of its waiters.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Awaitable, Callable, Dict, List, Optional, Set, Tuple

from repro.obs.trace import Tracer

#: One queued solve: (canonical key, opaque payload handed to dispatch).
Item = Tuple[str, Any]
#: Dispatch callable: a batch of items in, {key: result} out.
Dispatch = Callable[[List[Item]], Awaitable[Dict[str, Any]]]
#: Recovery hook: called with the failure before a requeue is attempted.
Recover = Callable[[BaseException], Awaitable[None]]


class Overloaded(Exception):
    """The pending-solve queue is full; the caller should retry later."""

    def __init__(self, pending: int, retry_after: float = 1.0):
        super().__init__(f"solve queue full ({pending} pending)")
        self.pending = pending
        self.retry_after = retry_after


class WorkerCrashed(Exception):
    """The executor died mid-batch (real ``BrokenProcessPool`` or an
    injected crash); the batch is a candidate for one requeue on the
    rebuilt pool."""


class DeadlineExceeded(Exception):
    """A dispatch overran the per-batch solve deadline and was abandoned."""

    def __init__(self, deadline: float, keys: List[str]):
        super().__init__(
            f"batch of {len(keys)} item(s) overran the {deadline:.3f}s "
            "solve deadline"
        )
        self.deadline = deadline
        self.keys = keys


class CircuitOpen(Exception):
    """The breaker is open: load is shed without touching the pool."""

    def __init__(self, retry_after: float):
        super().__init__(
            f"circuit breaker open; retry in {retry_after:.3f}s"
        )
        self.retry_after = retry_after


class CircuitBreaker:
    """Consecutive-failure breaker with an injected monotonic clock.

    States: *closed* (normal), *open* (shedding until ``reset_after``
    elapses), *half-open* (one probe admitted).  The clock is injected
    — the breaker never reads wall time itself — so tests drive state
    transitions deterministically.
    """

    CLOSED = "closed"
    HALF_OPEN = "half-open"
    OPEN = "open"

    def __init__(
        self,
        threshold: int = 3,
        reset_after: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.threshold = max(1, threshold)
        self.reset_after = max(0.0, reset_after)
        self.clock = clock
        self.state = self.CLOSED
        #: Consecutive failures observed while closed.
        self.failures = 0
        #: Times the breaker tripped open (a /metrics counter).
        self.opened_total = 0
        self._opened_at = 0.0

    @property
    def state_code(self) -> int:
        """Numeric gauge form: 0 closed, 1 half-open, 2 open."""
        return {self.CLOSED: 0, self.HALF_OPEN: 1, self.OPEN: 2}[self.state]

    def allow(self) -> bool:
        """May a new dispatch proceed right now?  (Open → maybe probe.)"""
        if self.state == self.OPEN:
            if self.clock() - self._opened_at >= self.reset_after:
                self.state = self.HALF_OPEN
                return True
            return False
        return True

    def retry_after(self) -> float:
        """Seconds until the open breaker will admit a probe (0 if not open)."""
        if self.state != self.OPEN:
            return 0.0
        return max(0.0, self.reset_after - (self.clock() - self._opened_at))

    def record_success(self) -> None:
        """A dispatch completed: close fully and forget failures."""
        self.state = self.CLOSED
        self.failures = 0

    def record_failure(self) -> None:
        """A dispatch failed terminally: count it; trip when warranted."""
        self.failures += 1
        if self.state == self.HALF_OPEN or self.failures >= self.threshold:
            self._trip()

    def _trip(self) -> None:
        self.state = self.OPEN
        self.opened_total += 1
        self._opened_at = self.clock()
        self.failures = 0


class MicroBatcher:
    """Single-flight solve batches, dispatched whenever a slot is idle."""

    def __init__(
        self,
        dispatch: Dispatch,
        max_batch: int = 64,
        max_pending: int = 256,
        slots: int = 1,
        deadline: float = 0.0,
        breaker: Optional[CircuitBreaker] = None,
        recover: Optional[Recover] = None,
        requeue_limit: int = 1,
        tracer: Optional[Tracer] = None,
        span_parents: Optional[Dict[str, int]] = None,
    ):
        self._dispatch = dispatch
        #: Optional injected tracer; one span per batch run when enabled.
        self._tracer = tracer
        #: Optional shared map of canonical key → requesting span id,
        #: maintained by the owner while a submit is in flight.  When a
        #: batch contains such a key, its ``batch.run`` span is parented
        #: under that request's span instead of floating at the root.
        self._span_parents = span_parents
        self.max_batch = max(1, max_batch)
        self.max_pending = max(1, max_pending)
        #: Batches allowed in flight at once (the owner's pool size).
        self.slots = max(1, slots)
        #: Per-batch dispatch deadline in seconds (0 disables).
        self.deadline = max(0.0, deadline)
        self.breaker = breaker
        self._recover = recover
        self.requeue_limit = max(0, requeue_limit)
        self._inflight: Dict[str, "asyncio.Future[Any]"] = {}
        self._queue: List[Item] = []
        self._tasks: Set["asyncio.Task[None]"] = set()
        self.batches_dispatched = 0
        self.items_dispatched = 0
        self.coalesced = 0
        #: Batches re-dispatched after a crash/deadline (a /metrics counter).
        self.requeues = 0
        #: Dispatches abandoned at the deadline (a /metrics counter).
        self.deadline_timeouts = 0

    @property
    def pending(self) -> int:
        """Keys currently queued or being solved."""
        return len(self._inflight)

    @property
    def saturated(self) -> bool:
        """True while every slot holds a batch, so a new key would queue."""
        return len(self._tasks) >= self.slots

    def in_flight(self, key: str) -> bool:
        """Is ``key`` queued or being solved (a submit would join it)?"""
        return key in self._inflight

    async def submit(self, key: str, payload: Any) -> Any:
        """Result for ``key``, solving at most once per in-flight key.

        Raises :class:`CircuitOpen` while the breaker sheds load and
        :class:`Overloaded` when ``max_pending`` distinct keys are
        already in flight (joining an existing key never rejects).
        """
        existing = self._inflight.get(key)
        if existing is not None:
            self.coalesced += 1
            return await _wait(existing)
        if self.breaker is not None and not self.breaker.allow():
            raise CircuitOpen(self.breaker.retry_after())
        if len(self._inflight) >= self.max_pending:
            raise Overloaded(len(self._inflight))
        future: "asyncio.Future[Any]" = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        self._queue.append((key, payload))
        self._pump()
        return await _wait(future)

    def _pump(self) -> None:
        """Start queued items on every idle slot, ``max_batch`` per batch."""
        while self._queue and len(self._tasks) < self.slots:
            items = self._queue[: self.max_batch]
            del self._queue[: self.max_batch]
            task = asyncio.get_running_loop().create_task(self._run_batch(items))
            self._tasks.add(task)
            task.add_done_callback(self._slot_freed)

    def _slot_freed(self, task: "asyncio.Task[None]") -> None:
        self._tasks.discard(task)
        if task.cancelled():
            # Only loop teardown cancels a batch task; the queue goes too.
            items, self._queue = self._queue, []
            self._fail(items, None)
            return
        self._pump()

    async def _dispatch_once(self, items: List[Item]) -> Dict[str, Any]:
        """One dispatch attempt, bounded by the solve deadline."""
        deadline = self.deadline
        if deadline > 0:
            try:
                return await asyncio.wait_for(
                    self._dispatch(items), timeout=deadline
                )
            except asyncio.TimeoutError:
                self.deadline_timeouts += 1
                raise DeadlineExceeded(
                    deadline, [key for key, _payload in items]
                ) from None
        return await self._dispatch(items)

    async def _run_batch(self, items: List[Item]) -> None:
        tracer = self._tracer
        if tracer is None or not tracer.enabled:
            await self._run_batch_inner(items)
            return
        parent = 0
        if self._span_parents is not None:
            for key, _payload in items:
                parent = self._span_parents.get(key, 0)
                if parent:
                    break
        kwargs: Dict[str, Any] = {"parent": parent} if parent else {}
        span = tracer.begin(
            "batch.run",
            cat="service.batch",
            args={"items": len(items)},
            nest=False,
            **kwargs,
        )
        requeues_before = self.requeues
        try:
            await self._run_batch_inner(items)
        finally:
            tracer.end(span, args={"requeues": self.requeues - requeues_before})

    async def _run_batch_inner(self, items: List[Item]) -> None:
        """Count and solve one batch; every exit resolves its waiters."""
        self.batches_dispatched += 1
        self.items_dispatched += len(items)
        try:
            await self._solve_batch(items)
        finally:
            # Only a cancelled batch task gets here with waiters left;
            # they are cancelled with it rather than left hanging.
            self._fail(items, None)

    async def _solve_batch(self, items: List[Item]) -> None:
        """The dispatch/requeue loop behind :meth:`_run_batch_inner`."""
        requeues_left = self.requeue_limit
        while True:
            try:
                results = await self._dispatch_once(items)
                break
            except asyncio.CancelledError:
                if _cancelling():
                    raise
                # The dispatch was cancelled under a live batch: another
                # batch's pool rebuild shut the executor down.
                failure: Exception = WorkerCrashed(
                    "dispatch cancelled: its executor was shut down"
                )
            except (WorkerCrashed, DeadlineExceeded) as exc:
                failure = exc
            except Exception as exc:  # noqa: BLE001 — fan the failure out to waiters
                # Deterministic batch errors (bad payloads) say nothing
                # about pool health, so they bypass the breaker.
                self._fail(items, exc)
                return
            # Pool-health failure.  Recovery (the owner's pool rebuild)
            # runs even when no requeue remains: the NEXT batch must not
            # inherit a wedged executor.
            if self._recover is not None:
                try:
                    await self._recover(failure)
                except Exception as rexc:  # noqa: BLE001 — surfaced to waiters
                    self._fail(items, rexc)
                    self._record_failure()
                    return
            if requeues_left > 0:
                requeues_left -= 1
                self.requeues += 1
                continue
            self._fail(items, failure)
            self._record_failure()
            return
        if self.breaker is not None:
            self.breaker.record_success()
        for key, _payload in items:
            future = self._inflight.pop(key, None)
            if future is None or future.done():
                continue
            if key in results:
                future.set_result(results[key])
            else:
                future.set_exception(
                    RuntimeError(f"dispatch returned no result for key {key}")
                )

    def _fail(self, items: List[Item], exc: Optional[BaseException]) -> None:
        """Resolve every waiter in the batch: ``exc``, or cancel if None."""
        for key, _payload in items:
            future = self._inflight.pop(key, None)
            if future is None or future.done():
                continue
            if exc is None:
                future.cancel()
            else:
                future.set_exception(exc)

    def _record_failure(self) -> None:
        if self.breaker is not None:
            self.breaker.record_failure()

    async def drain(self) -> None:
        """Wait until every queued key is dispatched and every batch done."""
        self._pump()
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)


def _cancelling() -> bool:
    """Is the running task itself being cancelled?

    ``Task.cancelling`` (Python 3.11+) tells a cancellation of this task
    apart from a cancelled future it awaited; without it, assume the
    former, which cancels the batch's waiters instead of requeueing.
    """
    task = asyncio.current_task()
    cancelling = getattr(task, "cancelling", None)
    return cancelling is None or cancelling() > 0


async def _wait(future: "asyncio.Future[Any]") -> Any:
    """Await a shared future without cancelling it if *this* waiter dies."""
    return await asyncio.shield(future)
