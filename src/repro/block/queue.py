"""The block request queue and multi-queue (blk-mq style) dispatch engine.

Requests pulled from the installed elevator are served on the device by
a set of *dispatch slots* — one serve process per slot, up to
``queue_depth`` of them — so a device with internal parallelism (an SSD
with several flash channels, NCQ-style tagged queuing) overlaps
requests while a single-channel disk serializes.  The effective slot
count is ``min(queue_depth, device.channels)``: tags beyond the
device's channels buy nothing in this model because the elevator is
consulted at dispatch time anyway (see DESIGN.md §6).  At the default
``queue_depth=1`` the engine is a single slot running exactly the
classic one-request-at-a-time dispatch loop, event for event.

Completion triggers the request's ``done`` event, cleans the pages a
write carried, performs per-cause byte accounting, and informs the
scheduler.

Failure handling mirrors the kernel block layer and is *per slot*: a
retryable :class:`~repro.devices.base.DeviceError` from the device
model is retried with exponential backoff on the slot that owns the
request; an attempt whose service time exceeds the per-request timeout
is aborted and retried; and once retries are exhausted the request
completes *failed* — its pages are re-dirtied instead of cleaned, the
scheduler is told via ``request_failed``, and waiters observe
``request.failed`` (the filesystem turns that into ``EIO`` at the
syscall layer).  The ``done`` event always succeeds so kernel daemons
survive I/O errors.  Each slot keeps its own error/retry/timeout
counters (surfaced by ``fault_summary`` when more than one slot exists)
so concurrent retries are never conflated; the queue-level totals are
their sums.

Hedged dispatch (opt-in, multi-slot only): when an attempt's service
time exceeds an adaptive deadline — a latency percentile from the
attached :class:`~repro.health.HealthMonitor`, falling back to the
static ``request_timeout`` — the request is speculatively re-issued on
a free slot.  First completion wins the race; the loser's timer is
cancelled, so a fail-slow channel costs one deadline's worth of
latency instead of the full degraded service time.  Scheduler billing
needs no change: the wall-clock-union ``service_charge`` already
charges exactly the interval the request occupied the device,
whichever attempt finished it.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, List, Optional

from repro.block.request import BlockRequest
from repro.devices.base import DeviceError
from repro.obs.bus import (
    BlockAdd,
    BlockComplete,
    BlockDispatch,
    DeviceStart,
    StackBus,
)
from repro.units import PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from repro.block.elevator import BlockScheduler
    from repro.devices.base import Device
    from repro.proc import ProcessTable
    from repro.sim.core import Environment


class RequestTimeout(DeviceError):
    """An attempt exceeded the block layer's per-request timeout."""

    retryable = True


class _CompletionListeners:
    """List-like shim mapping the legacy ``completion_listeners`` API
    onto :class:`~repro.obs.bus.BlockComplete` subscriptions.

    Callers historically did ``queue.completion_listeners.append(fn)``
    with ``fn(request)``; each append now subscribes an adapter on the
    stack bus, so legacy observers and new bus subscribers share one
    dispatch path (and one ordering).
    """

    __slots__ = ("_bus", "_entries")

    def __init__(self, bus: StackBus):
        self._bus = bus
        self._entries: List[tuple] = []  # (fn, unsubscribe)

    def append(self, fn: Callable[[BlockRequest], None]) -> None:
        unsub = self._bus.subscribe(BlockComplete, lambda event: fn(event.request))
        self._entries.append((fn, unsub))

    def remove(self, fn: Callable[[BlockRequest], None]) -> None:
        for i, (listener, unsub) in enumerate(self._entries):
            if listener == fn:
                unsub()
                del self._entries[i]
                return
        raise ValueError(f"{fn!r} is not a registered completion listener")

    def __iter__(self):
        return iter(fn for fn, _ in self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)


class _HedgeState:
    """The race between a slow primary attempt and its hedge clone.

    One shared ``race`` event settles exactly once with the winner's
    name; whichever side finishes first cancels the loser's completion
    timer (the model of an NVMe abort), so the losing attempt neither
    completes the request a second time nor holds its channel.
    """

    __slots__ = ("request", "race", "primary_timer", "hedge_timer")

    def __init__(self, env: "Environment", request: BlockRequest):
        self.request = request
        self.race = env.event()
        self.primary_timer = None
        self.hedge_timer = None

    @property
    def settled(self) -> bool:
        return self.race.triggered

    def _primary_done(self, _event) -> None:
        if not self.race.triggered:
            self.race.succeed("primary")
            if self.hedge_timer is not None:
                self.hedge_timer.cancel()

    def _hedge_done(self, _event) -> None:
        if not self.race.triggered:
            self.race.succeed("hedge")
            if self.primary_timer is not None:
                self.primary_timer.cancel()


class DispatchSlot:
    """One hardware-queue slot: state and counters of one serve process.

    A slot is either idle (sleeping on its ``kick_event``) or serving
    exactly one request (``request`` is set).  Counters are per-slot so
    fault statistics stay attributable when several requests retry
    concurrently; the :class:`BlockQueue` totals are the sums.
    """

    __slots__ = (
        "index",
        "request",
        "kick_event",
        "seen_seq",
        "served",
        "errors",
        "retries",
        "timeouts",
        "failed",
        "hedges",
        "hedge_wins",
    )

    def __init__(self, index: int, env: "Environment"):
        self.index = index
        self.request: Optional[BlockRequest] = None
        self.kick_event = env.event()
        #: Queue kick counter value this slot last synchronised with; a
        #: mismatch against BlockQueue.kick_seq means a kick arrived
        #: since the slot started its current poll.
        self.seen_seq = 0
        self.served = 0  # requests fully completed on this slot
        self.errors = 0  # device errors observed (per attempt)
        self.retries = 0  # retry attempts issued
        self.timeouts = 0  # attempts aborted by the request timeout
        self.failed = 0  # requests failed permanently
        self.hedges = 0  # hedge attempts served on this slot
        self.hedge_wins = 0  # hedge attempts that won their race here

    def summary(self) -> dict:
        """Per-slot counters in ``fault_summary`` shape."""
        return {
            "slot": self.index,
            "served": self.served,
            "failed": self.failed,
            "device_errors": self.errors,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
        }


def _slot_index(slot: DispatchSlot) -> int:
    """Sort key: kicks wake sleeping slots in slot-index order."""
    return slot.index


class BlockQueue:
    """Request queue between the elevator and a device.

    ``queue_depth`` is the NCQ-style tag count: how many requests may be
    outstanding at the device simultaneously.  The effective concurrency
    is capped by the device's ``channels`` attribute (1 for mechanical
    disks), so raising the depth over an HDD changes nothing — exactly
    the degenerate single-slot engine the classic dispatch loop was.
    """

    def __init__(
        self,
        env: "Environment",
        device: "Device",
        scheduler: "BlockScheduler",
        process_table: Optional["ProcessTable"] = None,
        max_retries: int = 3,
        retry_backoff: float = 0.01,
        request_timeout: Optional[float] = 30.0,
        bus: Optional[StackBus] = None,
        queue_depth: int = 1,
        hedge: bool = False,
        health=None,
    ):
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        self.env = env
        self.device = device
        self.scheduler = scheduler
        self.process_table = process_table
        #: Attempts after the first before a request fails permanently.
        self.max_retries = max_retries
        #: First backoff delay; doubles per retry (exponential).
        self.retry_backoff = retry_backoff
        #: Abort an attempt whose service time exceeds this (None = off).
        self.request_timeout = request_timeout
        #: The stack event bus (shared when assembled by the OS).
        self.bus = bus if bus is not None else StackBus()
        self._sub_add = self.bus.listeners(BlockAdd)
        self._sub_dispatch = self.bus.listeners(BlockDispatch)
        self._sub_complete = self.bus.listeners(BlockComplete)
        self._sub_devstart = self.bus.listeners(DeviceStart)
        attach = getattr(device, "attach_bus", None)
        if attach is not None:
            attach(self.bus, env)
        scheduler.attach(self)
        #: Requested tag count (NCQ depth).
        self.queue_depth = queue_depth
        #: Effective concurrency: tags beyond the device's channels
        #: cannot overlap, so we do not spin up slots for them.
        self.nslots = max(1, min(queue_depth, getattr(device, "channels", 1)))
        #: Hedged dispatch needs a spare slot to race on; at one slot
        #: the flag is inert, keeping depth-1 runs byte-identical.
        self.hedge = bool(hedge) and self.nslots > 1
        #: The device's HealthMonitor (None = no adaptive deadline;
        #: hedging then falls back to the static request_timeout).
        self.health = health
        self._pending_hedges: Deque[_HedgeState] = deque()
        self.hedges_issued = 0  # races started (primary passed deadline)
        self.hedge_wins = 0  # races the hedge clone won
        self.hedge_losses = 0  # races the primary won anyway
        #: Monotonic kick counter: bumped by every kick(); slots compare
        #: their seen_seq against it to detect kicks that raced a poll.
        self.kick_seq = 0
        #: Slots currently parked on their kick_event, in sleep order.
        self._sleeping: List[DispatchSlot] = []
        #: Cached device.serve (async device models); the device never
        #: changes after construction, so don't getattr per request.
        self._device_serve = getattr(device, "serve", None)
        self.slots = [DispatchSlot(i, env) for i in range(self.nslots)]
        #: Requests dispatched and not yet completed, in dispatch order.
        self.outstanding: List[BlockRequest] = []
        self._dispatchers = [
            env.process(
                self._slot_loop(slot),
                name="block-dispatcher"
                if self.nslots == 1
                else f"block-dispatcher/{slot.index}",
            )
            for slot in self.slots
        ]
        #: Observers called with each completed request (metrics etc.),
        #: including permanently-failed ones (check ``request.failed``).
        #: A legacy shim over BlockComplete bus subscriptions.
        self.completion_listeners = _CompletionListeners(self.bus)
        #: BlockTracers attached to this queue (for drop reporting in
        #: fault_summary; tracers register themselves).
        self.tracers: List = []
        self.submitted = 0
        self.completed = 0
        # Failure counters (totals across slots; per-slot breakdowns
        # live on the DispatchSlot objects).
        self.errors = 0  # device errors observed (per attempt)
        self.retries = 0  # retry attempts issued
        self.timeouts = 0  # attempts aborted by the request timeout
        self.failed = 0  # requests failed permanently

    @property
    def in_flight(self) -> Optional[BlockRequest]:
        """The oldest outstanding request (legacy single-slot view).

        With one slot this is exactly the classic ``in_flight``
        attribute; with several it is the longest-dispatched request —
        callers needing the full set should read :attr:`outstanding`.
        """
        return self.outstanding[0] if self.outstanding else None

    @property
    def inflight_count(self) -> int:
        """How many requests are dispatched and not yet completed."""
        return len(self.outstanding)

    def submit(self, request: BlockRequest):
        """Enter *request* into the block layer; returns its done event."""
        request.submit_time = self.env.now
        request.done = self.env.event()
        self.submitted += 1
        if self._sub_add:
            self.bus.publish(BlockAdd(self.env.now, request))
        self.scheduler.add_request(request)
        self.kick()
        return request.done

    def kick(self) -> None:
        """Wake the dispatch slots (new request, or scheduler willing).

        Sequence-counted: the kick bumps :attr:`kick_seq` and wakes the
        parked slots (in slot-index order, matching the historical
        broadcast).  Busy slots are not touched at all — they re-sync
        with the counter when their current request completes, so a
        kick that lands while every slot is serving is re-polled the
        moment a slot frees instead of being lost (the multi-slot
        generalization of the PR 1 lost-kick fix), and the common
        kick-while-busy costs one integer bump instead of a walk over
        every slot's wake event.
        """
        self.kick_seq += 1
        sleeping = self._sleeping
        if sleeping:
            if len(sleeping) > 1:
                sleeping.sort(key=_slot_index)
            for slot in sleeping:
                slot.kick_event.succeed()
            sleeping.clear()

    def _slot_loop(self, slot: DispatchSlot):
        env = self.env
        while True:
            # Sync with the kick counter *before* polling, so a kick
            # that arrives during next_request() (a submit issued from
            # inside the scheduler) shows up as a counter mismatch and
            # re-polls instead of being dropped.
            slot.seen_seq = self.kick_seq
            # A pending hedge outranks fresh work: its request is
            # already past the deadline, so it is the tail right now.
            while self._pending_hedges:
                state = self._pending_hedges.popleft()
                if state.settled:
                    continue  # race already decided; stale entry
                yield from self._serve_hedge(state, slot)
                break
            else:
                state = None
            if state is not None:
                continue
            request = self.scheduler.next_request()
            if request is None:
                if slot.seen_seq != self.kick_seq:
                    continue  # a kick raced in while the scheduler was polled
                slot.kick_event = event = env.event()
                self._sleeping.append(slot)
                yield event
                continue

            request.dispatch_time = env.now
            request.slot = slot.index
            if self._sub_dispatch:
                self.bus.publish(
                    BlockDispatch(
                        env.now,
                        request,
                        slot.index if self.nslots > 1 else None,
                    )
                )
            slot.request = request
            self.outstanding.append(request)
            self.scheduler.on_dispatch(request)
            yield from self._serve(request, slot)
            slot.request = None
            self.outstanding.remove(request)
            request.complete_time = env.now
            slot.served += 1

            if request.failed:
                self.failed += 1
                slot.failed += 1
                # Failed writes re-dirty their pages: the data never
                # reached the device, so the cache must keep it dirty
                # for a later flush attempt.
                for page in request.pages:
                    page.write_failed()
                self.scheduler.request_failed(request)
            else:
                self.completed += 1
                self._account(request)
                for page in request.pages:
                    page.write_completed()
                self.scheduler.request_completed(request)
            if self._sub_complete:
                self.bus.publish(BlockComplete(self.env.now, request))
            if not request.done.triggered:
                request.done.succeed(request)

    def _serve(self, request: BlockRequest, slot: DispatchSlot):
        """Generator: serve one request on *slot*, retrying transient
        failures with per-slot attempt accounting."""
        serve = self._device_serve
        if serve is not None:
            # Asynchronous device (e.g. a VM disk backed by a host
            # file): service time emerges from the backing stack.
            request.attempts = 1
            if self._sub_devstart:
                self.bus.publish(
                    DeviceStart(
                        self.env.now, self.device.name, request.op,
                        request.block, request.nblocks, 1,
                    )
                )
            yield from serve(request)
            return

        attempt = 0
        while True:
            attempt += 1
            request.attempts = attempt
            if self._sub_devstart:
                self.bus.publish(
                    DeviceStart(
                        self.env.now, self.device.name, request.op,
                        request.block, request.nblocks, attempt,
                    )
                )
            error: Optional[DeviceError] = None
            # The attempt occupies a device channel from here until
            # its yield finishes (success, error latency, or timeout
            # stall); channel-aware models read `device.active`
            # inside service_time to price contention.
            self.device.begin_service()
            self.device.serving_channel = slot.index
            try:
                duration = self.device.service_time(
                    request.op, request.block, request.nblocks
                )
            except DeviceError as exc:
                self.device.serving_channel = None
                if not exc.retryable:
                    self.device.end_service()
                    raise  # malformed request: a bug, not a device fault
                error = exc
                self.errors += 1
                slot.errors += 1
                if exc.latency > 0:
                    yield self.env.timeout(exc.latency)
                self.device.end_service()
            else:
                self.device.serving_channel = None
            if error is None:
                if self.request_timeout is not None and duration > self.request_timeout:
                    # The device stalled: the timeout fires and the
                    # attempt is abandoned after request_timeout seconds.
                    self.timeouts += 1
                    slot.timeouts += 1
                    error = RequestTimeout(
                        f"request #{request.id} timed out after "
                        f"{self.request_timeout}s (service wanted {duration:.3f}s)"
                    )
                    yield self.env.timeout(self.request_timeout)
                    self.device.end_service()
                else:
                    if self.hedge:
                        deadline = self._hedge_deadline(request.op)
                        if deadline is not None and deadline < duration:
                            yield from self._race_hedge(
                                request, slot, duration, deadline
                            )
                            self.device.end_service()
                            return
                    yield self.env.timeout(duration)
                    self.device.end_service()
                    return

            if attempt > self.max_retries:
                request.failed = True
                request.error = error
                return
            self.retries += 1
            slot.retries += 1
            backoff = self.retry_backoff * (2 ** (attempt - 1))
            if backoff > 0:
                yield self.env.timeout(backoff)

    # -- hedged dispatch -----------------------------------------------------

    def _hedge_deadline(self, op: str) -> Optional[float]:
        """Service time beyond which an attempt is hedged.

        Adaptive when a health monitor has warmed up (a percentile of
        recent service latencies times a margin), else the static
        ``request_timeout`` — which the timeout path preempts, so
        hedging effectively waits for the monitor's first verdicts.
        """
        if self.health is not None:
            deadline = self.health.deadline(op)
            if deadline is not None:
                return deadline
        return self.request_timeout

    def _race_hedge(
        self,
        request: BlockRequest,
        slot: DispatchSlot,
        duration: float,
        deadline: float,
    ):
        """Generator: finish a slow primary attempt under a hedge race.

        Runs on the primary's slot, which already owns the request and
        has ``begin_service`` counted.  Sleeps out the deadline (a fast
        attempt would have finished by then), then enqueues a hedge
        clone for any idle slot and waits for the race; the caller does
        the normal completion bookkeeping whoever won, at the winner's
        finish time.
        """
        env = self.env
        yield env.timeout(deadline)
        state = _HedgeState(env, request)
        state.primary_timer = timer = env.timeout(duration - deadline)
        timer.callbacks.append(state._primary_done)
        request.hedged = True
        self.hedges_issued += 1
        self._pending_hedges.append(state)
        self.kick()  # wake an idle slot to pick the clone up
        winner = yield state.race
        if winner == "hedge":
            self.hedge_wins += 1
        else:
            self.hedge_losses += 1

    def _serve_hedge(self, state: _HedgeState, slot: DispatchSlot):
        """Generator: run one hedge clone on an idle *slot*.

        The clone re-prices service from the device model (it may land
        on a healthy channel and be fast where the primary is sick).  A
        clone that errors or stalls is simply abandoned — the primary
        still owns the request's fate, so hedging can only subtract
        latency, never add failures.
        """
        env = self.env
        request = state.request
        slot.hedges += 1
        if self._sub_devstart:
            self.bus.publish(
                DeviceStart(
                    env.now, self.device.name, request.op,
                    request.block, request.nblocks, request.attempts,
                )
            )
        self.device.begin_service()
        self.device.serving_channel = slot.index
        try:
            duration = self.device.service_time(
                request.op, request.block, request.nblocks
            )
        except DeviceError as exc:
            self.device.serving_channel = None
            if not exc.retryable:
                self.device.end_service()
                raise
            self.errors += 1
            slot.errors += 1
            if exc.latency > 0:
                yield env.timeout(exc.latency)
            self.device.end_service()
            return
        self.device.serving_channel = None
        if self.request_timeout is not None and duration > self.request_timeout:
            self.device.end_service()
            return  # the clone stalled too; leave the race to the primary
        state.hedge_timer = timer = env.timeout(duration)
        timer.callbacks.append(state._hedge_done)
        winner = yield state.race
        self.device.end_service()
        if winner == "hedge":
            slot.hedge_wins += 1

    def _account(self, request: BlockRequest) -> None:
        """Charge completed bytes to the true causes, split evenly."""
        if self.process_table is None or not request.causes:
            return
        share = request.nblocks * PAGE_SIZE / len(request.causes)
        for pid in request.causes:
            task = self.process_table.get(pid)
            if task is None:
                continue
            if request.is_read:
                task.bytes_read += share
            else:
                task.bytes_written += share
