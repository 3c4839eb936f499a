"""Runtime simulation sanitizer: invariants enforced while running.

The repo's determinism guarantees ("byte-identical for any ``--jobs``,
any ``--shards``, any queue depth") are normally verified *after the
fact* by hashing experiment output.  The sanitizer turns them into
properties checked *while the simulation runs*, so a violation names
the exact event that broke the contract instead of a diff two layers
later.  Three attachment points:

- :class:`SanitizedEnvironment` — a drop-in :class:`Environment`
  subclass whose dispatch path verifies, per event, that the virtual
  clock never runs backwards and that no pending same-instant entry
  with a smaller ``(time, priority, eid)`` key was skipped (the class
  of bug where an URGENT entry parked in the front slot is dispatched
  after same-instant heap entries).  The checked loop drives
  :meth:`Environment.step` instead of the inlined fast path of
  :meth:`Environment.run`, so the production kernel keeps zero
  sanitizer attributes and zero extra branches when the sanitizer is
  off — enabling it swaps the class, not the code.
- :class:`StackSanitizer` — per-machine checks (dispatch-slot count
  bounded by device channels, block-layer request conservation, token
  conservation per tenant bucket) implemented as stack-bus
  subscribers.  With the sanitizer off no subscriber exists, so the
  zero-subscriber fast path never even constructs the events.
- the shard layer — :class:`~repro.sim.shard.channel.InterShardChannel`
  and :class:`~repro.sim.shard.environment.ShardEnvironment` call
  :func:`check_delivery` / duplicate-sequence guards when built with
  sanitize on, enforcing conservative-sync causality
  (``arrival >= send + link_latency``, never into a shard's past).

Every violation raises :class:`SanitizerError` carrying a structured
snippet of recent event history, formatted into the message.
"""

from __future__ import annotations

from collections import deque
from typing import Any, List, Optional, Tuple

from repro.sim.core import EmptySchedule, Environment, StopSimulation
from repro.sim.events import Event, NORMAL

#: Dispatch records kept for the error snippet (per environment).
HISTORY_DEPTH = 32


class SanitizerError(AssertionError):
    """A simulation invariant was violated while the sanitizer was on.

    ``history`` holds structured ``(time, priority, eid, kind)`` records
    of the most recent dispatches (oldest first); ``context`` carries
    check-specific details.  Both are rendered into ``str(error)`` so a
    bare traceback is already actionable.
    """

    def __init__(
        self,
        message: str,
        history: Optional[List[Tuple]] = None,
        context: Optional[dict] = None,
    ):
        self.history = list(history or ())
        self.context = dict(context or {})
        parts = [message]
        if self.context:
            details = ", ".join(f"{k}={v!r}" for k, v in self.context.items())
            parts.append(f"  context: {details}")
        if self.history:
            parts.append("  recent dispatches (oldest first):")
            for record in self.history:
                t, priority, eid, kind = record
                parts.append(f"    t={t!r} priority={priority} eid={eid} {kind}")
        super().__init__("\n".join(parts))


class SanitizedEnvironment(Environment):
    """An :class:`Environment` whose dispatch path checks invariants.

    Semantics are identical to the base class — same queue structures,
    same entry selection (:meth:`step` is *inherited*, so kernel bugs
    there are caught, not masked), same results — but every
    dispatched entry is verified:

    - **monotonic clock**: an entry's time is never below the previous
      dispatch's time;
    - **cohort order**: at the moment an entry is dispatched, no
      pending entry (heap head or front slot) sorts before it.  In a
      correct kernel the dispatched entry is always the minimum of
      everything pending; a selection that overlooks an URGENT entry
      parked in the front slot breaks exactly this.
    - **scheduling sanity**: ``schedule()`` rejects negative delays
      (the unchecked fast path would silently rewind the clock).

    The cost is one non-inlined dispatch per event (~2× the fast
    path); the payoff is that "byte-identical" failures surface at the
    first out-of-order event with the event history attached.
    """

    __slots__ = ("_san_history", "_san_prev_time")

    def __init__(self, initial_time: float = 0.0):
        super().__init__(initial_time)
        self._san_history: deque = deque(maxlen=HISTORY_DEPTH)
        self._san_prev_time = float(initial_time)

    # -- invariant checks ---------------------------------------------------

    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        if delay < 0:
            raise SanitizerError(
                "schedule() with a negative delay would rewind the clock",
                history=list(self._san_history),
                context={"delay": delay, "now": self._now, "event": type(event).__name__},
            )
        super().schedule(event, priority, delay)

    def _dispatch(self, entry: Tuple[float, int, int, Event]) -> None:
        t = entry[0]
        if t < self._san_prev_time:
            raise SanitizerError(
                "monotonic clock violation: dispatching into the past",
                history=list(self._san_history),
                context={"entry_time": t, "previous_time": self._san_prev_time},
            )
        self._san_prev_time = t
        pending = self._next
        if pending is not None and pending < entry:
            self._cohort_order_violation(entry, pending, "front slot")
        queue = self._queue
        if queue and queue[0] < entry:
            self._cohort_order_violation(entry, queue[0], "heap head")
        self._san_history.append(
            (entry[0], entry[1], entry[2], type(entry[3]).__name__)
        )
        super()._dispatch(entry)

    def _cohort_order_violation(self, entry, pending, where: str) -> None:
        raise SanitizerError(
            f"cohort order violation: dispatching an entry while the {where} "
            "holds a pending entry that sorts before it — same-instant "
            "(priority, eid) order depends on unrelated traffic",
            history=list(self._san_history),
            context={
                "dispatching": (entry[0], entry[1], entry[2], type(entry[3]).__name__),
                "pending": (pending[0], pending[1], pending[2], type(pending[3]).__name__),
            },
        )

    # -- checked run loop ---------------------------------------------------

    def run(self, until: Any = None) -> Any:
        """The checked twin of :meth:`Environment.run`.

        Drives the inherited :meth:`step` — the kernel's uninlined
        entry selection — whose dispatches resolve to the checked
        :meth:`_dispatch`.  Keeping the fast path free of sanitizer
        hooks is what makes the feature zero-cost when off.
        """
        if self._halted:
            return self._halt_reason
        until = self._resolve_until(until)
        if isinstance(until, tuple) and until[0] is self._ALREADY_DONE:
            return until[1]

        try:
            while not self._halted:
                self.step()
            return self._halt_reason
        except StopSimulation as stop:
            return stop.value
        except EmptySchedule:
            if isinstance(until, Event) and not until.triggered:
                raise RuntimeError(
                    "no scheduled events left but until event was not triggered"
                )
            return None


class StackSanitizer:
    """Per-machine invariant checks, attached as stack-bus subscribers.

    Attached by ``build_node`` when the sanitize flag is on; with the
    flag off this object is never constructed, no subscription exists,
    and the bus's zero-subscriber fast path skips even building the
    events — the same inertness contract the tracer and health monitor
    follow.

    Checks (all cheap — a few comparisons per block-layer event):

    - **slot bound**: the device never serves more concurrent attempts
      than it has channels (``device.active <= channels``);
    - **inflight bound**: dispatched-and-uncompleted requests never
      exceed the engine's slot count;
    - **request conservation**: ``submitted >= completed + failed +
      inflight`` at every completion (an over-completion means an event
      fired twice);
    - **token conservation** per tenant bucket: refunds never exceed
      charges, and the balance never exceeds the burst cap.
    """

    #: Relative slack for float token accounting.
    EPSILON = 1e-6

    def __init__(self, machine):
        from repro.obs.bus import BlockComplete, DeviceStart

        self.machine = machine
        self.queue = machine.block_queue
        self.device = machine.block_queue.device
        self._history: deque = deque(maxlen=16)
        bus = machine.bus
        self._unsubs = [
            bus.subscribe(DeviceStart, self._on_device_start),
            bus.subscribe(BlockComplete, self._on_block_complete),
        ]

    def close(self) -> None:
        """Detach every subscription (test hygiene)."""
        for unsub in self._unsubs:
            unsub()
        self._unsubs = []

    def _fail(self, message: str, **context) -> None:
        raise SanitizerError(message, history=list(self._history), context=context)

    def _on_device_start(self, event) -> None:
        self._history.append((event.time, 0, 0, f"DeviceStart/{event.op}"))
        channels = max(1, getattr(self.device, "channels", 1))
        active = getattr(self.device, "active", 0)
        if active > channels:
            self._fail(
                "slot bound violation: more concurrent device attempts than "
                "channels — a begin_service/end_service bracket leaked",
                active=active,
                channels=channels,
                device=getattr(self.device, "name", "?"),
            )

    def _on_block_complete(self, event) -> None:
        queue = self.queue
        self._history.append(
            (event.time, 0, 0, f"BlockComplete/#{getattr(event.request, 'id', '?')}")
        )
        if queue.inflight_count > queue.nslots:
            self._fail(
                "inflight bound violation: more outstanding requests than "
                "dispatch slots",
                inflight=queue.inflight_count,
                nslots=queue.nslots,
            )
        accounted = queue.completed + queue.failed + queue.inflight_count
        if accounted > queue.submitted:
            self._fail(
                "request conservation violation: completed + failed + "
                "inflight exceeds submitted — a done event fired twice?",
                submitted=queue.submitted,
                completed=queue.completed,
                failed=queue.failed,
                inflight=queue.inflight_count,
            )
        self._check_token_buckets()

    def _check_token_buckets(self) -> None:
        registry = getattr(self.machine.scheduler, "buckets", None)
        if registry is None:
            return
        # dict.fromkeys: deterministic dedupe of shared buckets
        # (insertion order), where set() would hash-order them.
        for bucket in dict.fromkeys(registry._by_pid.values()):
            slack = self.EPSILON * max(1.0, bucket.charged_total)
            if bucket.refunded_total > bucket.charged_total + slack:
                self._fail(
                    "token conservation violation: a tenant bucket was "
                    "refunded more than it was ever charged",
                    charged=bucket.charged_total,
                    refunded=bucket.refunded_total,
                )
            if bucket.balance > bucket.cap + self.EPSILON * max(1.0, bucket.cap):
                self._fail(
                    "token conservation violation: bucket balance exceeds "
                    "its burst cap",
                    balance=bucket.balance,
                    cap=bucket.cap,
                )


def attach_sanitizer(machine) -> StackSanitizer:
    """Attach a :class:`StackSanitizer` to one built machine."""
    return StackSanitizer(machine)


def check_delivery(env_now: float, arrival: float, message) -> None:
    """Conservative-sync causality: never deliver into a shard's past.

    Called by the shard layer (inject path) when sanitize is on; a
    message whose arrival precedes the receiving shard's clock means
    the epoch protocol released it late — the sync window no longer
    bounds the link latency.
    """
    if arrival < env_now:
        raise SanitizerError(
            "conservative-sync causality violation: message would arrive in "
            "the receiving shard's past",
            context={
                "arrival": arrival,
                "shard_now": env_now,
                "src_node": getattr(message, "src_node", "?"),
                "dst_node": getattr(message, "dst_node", "?"),
                "seq": getattr(message, "seq", "?"),
                "kind": getattr(message, "kind", "?"),
            },
        )
