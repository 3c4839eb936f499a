"""The simulation environment: virtual clock and event queue."""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Generator, List, Optional, Tuple

# URGENT/NORMAL live in repro.sim.events (the fused scheduling paths
# need them there); re-exported here for backwards compatibility.
from repro.sim.events import Event, NORMAL, Timeout, URGENT
from repro.sim.process import Process

#: Processed callback lists are recycled through a bounded per-
#: environment pool; beyond this many spares, lists are simply dropped.
_CB_POOL_MAX = 1024


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Environment.run`."""

    def __init__(self, value: Any = None):
        super().__init__(value)
        self.value = value


class EmptySchedule(Exception):
    """Raised when the event queue runs dry before ``until``."""


class Environment:
    """Execution environment for a simulation.

    Time advances only as events are processed; the clock unit is the
    *second* throughout the storage simulation.

    Two queue structures back the schedule: the classic binary heap in
    :attr:`_queue` and a one-entry front slot in :attr:`_next`.  The
    dominant scheduling pattern — a process sleeps, wakes, and
    immediately schedules the next thing it waits on — makes the most
    recently created entry very often the next one dispatched, so the
    fused constructors park it in the front slot and the run loop
    consumes it without ever touching the heap.  The slot holds *a*
    pending entry, not necessarily the minimum: every consumer compares
    it against the heap head, so correctness never depends on the
    placement heuristic.
    """

    __slots__ = (
        "_now",
        "_queue",
        "_eid",
        "_cb_pool",
        "active_process",
        "_halted",
        "_halt_reason",
        "_next",
    )

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Event]] = []
        self._eid = 0
        #: Recycled callback lists (see Event.__init__): the dispatch
        #: loop returns each processed event's emptied list here so the
        #: next event allocates nothing.
        self._cb_pool: List[list] = []
        self.active_process: Optional[Process] = None
        self._halted = False
        self._halt_reason: Any = None
        #: Front-slot entry bypassing the heap (see class docstring).
        self._next: Optional[Tuple[float, int, int, Event]] = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def halted(self) -> bool:
        """True once :meth:`halt` was called (e.g. a simulated power loss)."""
        return self._halted

    def halt(self, reason: Any = None) -> None:
        """Stop the world permanently (a power cut, not a pause).

        Pending events are abandoned; every subsequent :meth:`run` call
        returns *reason* immediately and :meth:`step` dispatches
        nothing.  Crash-recovery code inspects the frozen state
        afterwards.
        """
        self._halted = True
        self._halt_reason = reason

    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Put *event* on the queue to be processed after *delay*."""
        self._eid += 1
        heappush(self._queue, (self._now + delay, priority, self._eid, event))

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers after *delay* seconds.

        Fused fast path: ``yield env.timeout(d)`` happens once per
        simulated tick, so the Timeout is built inline (no constructor
        frame) with a pooled callback list and a direct queue insert
        (front slot when free, heap otherwise).
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        event = Timeout.__new__(Timeout)
        event.env = self
        pool = self._cb_pool
        event.callbacks = pool.pop() if pool else []
        event.defused = False
        event.delay = delay
        event._ok = True
        event._value = value
        self._eid += 1
        entry = (self._now + delay, NORMAL, self._eid, event)
        nxt = self._next
        if nxt is None:
            self._next = entry
        elif entry < nxt:
            heappush(self._queue, nxt)
            self._next = entry
        else:
            heappush(self._queue, entry)
        return event

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start a new process running *generator*."""
        return Process(self, generator, name=name)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        nxt = self._next
        queue = self._queue
        if nxt is not None:
            if queue and queue[0][0] < nxt[0]:
                return queue[0][0]
            return nxt[0]
        return queue[0][0] if queue else float("inf")

    def step(self) -> None:
        """Process the next event; advance the clock to its time.

        The debug-friendly single-step API: :meth:`run` inlines the
        equivalent of this loop for speed, so semantic changes here
        must be mirrored there (and in :meth:`_dispatch`).  A halted
        environment dispatches nothing and leaves the clock alone.
        """
        if self._halted:
            return
        nxt = self._next
        queue = self._queue
        if nxt is not None and not (queue and queue[0] < nxt):
            self._next = None
            entry = nxt
        else:
            try:
                entry = heappop(queue)
            except IndexError:
                raise EmptySchedule() from None
        self._now = entry[0]
        self._dispatch(entry)

    def _dispatch(self, entry: Tuple[float, int, int, Event]) -> None:
        """Run one popped entry's callbacks (the :meth:`step` path).

        Receives the full ``(time, priority, eid, event)`` queue entry —
        not just the event — so subclasses (the runtime sanitizer) can
        observe the scheduling key of everything dispatched.  Mirrors
        the fast path inlined in :meth:`run` — keep the two in sync.
        Events whose callbacks are gone (``cancel()``) are swept without
        processing; a single waiting :class:`Process` is resumed without
        the generic callback indirection.
        """
        event = entry[3]
        callbacks = event.callbacks
        if callbacks is None:
            return  # lazily-swept cancelled event
        event.callbacks = None
        if len(callbacks) == 1:
            cb = callbacks[0]
            if type(cb) is Process and event._ok:
                # Inlined Process._resume fast path: advance the
                # generator and subscribe it to whatever it yields.
                self.active_process = cb
                try:
                    nev = cb._generator.send(event._value)
                except StopIteration as exc:
                    cb._target = None
                    self.active_process = None
                    cb.succeed(exc.value)
                except BaseException as exc:
                    cb._target = None
                    self.active_process = None
                    cb._ok = False
                    cb._value = exc
                    self.schedule(cb)
                else:
                    try:
                        ncbs = nev.callbacks
                    except AttributeError:
                        cb._generator.throw(
                            TypeError(f"process {cb.name} yielded a non-event: {nev!r}")
                        )
                        cb._resume(event)
                    else:
                        if ncbs is not None:
                            ncbs.append(cb)
                            cb._target = nev
                            self.active_process = None
                        else:
                            # Already-processed target: continue inline.
                            cb._resume(nev)
                callbacks.clear()
                if len(self._cb_pool) < _CB_POOL_MAX:
                    self._cb_pool.append(callbacks)
                return
            cb(event)
        else:
            for callback in callbacks:
                callback(event)

        if event._ok or event.defused:
            callbacks.clear()
            if len(self._cb_pool) < _CB_POOL_MAX:
                self._cb_pool.append(callbacks)
        else:
            # An untended failure: crash the simulation loudly rather
            # than silently dropping the error (Zen: errors should never
            # pass silently).
            raise event._value

    #: Sentinel from :meth:`_resolve_until`: the run target is already
    #: satisfied and run() should return immediately.
    _ALREADY_DONE = object()

    def _resolve_until(self, until: Any) -> Any:
        """Normalize run()'s *until* argument (shared with subclasses).

        Returns the armed until-Event, None (run to exhaustion), or a
        ``(_ALREADY_DONE, value)`` pair when there is nothing to do.
        """
        if until is not None and not isinstance(until, Event):
            at = float(until)
            if at < self._now:
                raise ValueError(f"until ({at}) is in the past (now={self._now})")
            if at == self._now:
                return (self._ALREADY_DONE, None)  # zero-length advance
            until = Event(self)
            until._ok = True
            until._value = None
            self.schedule(until, priority=URGENT, delay=at - self._now)
        if isinstance(until, Event):
            if until.callbacks is None:
                return (self._ALREADY_DONE, until._value)
            until.callbacks.append(_stop_simulation)
        return until

    def run(self, until: Any = None) -> Any:
        """Run until *until* (a time, an event, or exhaustion).

        - ``until`` is None: run until no events remain.
        - ``until`` is a number: run until the clock reaches it; a
          target equal to the current time is a no-op.
        - ``until`` is an Event: run until it triggers; returns its value.

        A halted environment (see :meth:`halt`) returns immediately.
        """
        if self._halted:
            return self._halt_reason
        until = self._resolve_until(until)
        if isinstance(until, tuple) and until[0] is self._ALREADY_DONE:
            return until[1]

        # The hot dispatch loop: step() and _dispatch() inlined with
        # the queue, front slot, pop, callback-list pool, and hot
        # globals hoisted into locals.  Each turn dispatches the minimum
        # of the front slot and the heap head, so same-instant events
        # run in exact (time, priority, eid) order.
        queue = self._queue
        pool = self._cb_pool
        pool_max = _CB_POOL_MAX
        process_type = Process
        pop = heappop
        try:
            while not self._halted:
                nxt = self._next
                if nxt is not None and not (queue and queue[0] < nxt):
                    self._next = None
                    entry = nxt
                elif queue:
                    entry = pop(queue)
                else:
                    raise EmptySchedule()
                self._now = entry[0]

                event = entry[3]
                callbacks = event.callbacks
                if callbacks is None:
                    continue  # lazily-swept cancelled event
                event.callbacks = None
                if len(callbacks) == 1:
                    # The overwhelmingly common case: one waiter.
                    cb = callbacks[0]
                    if type(cb) is process_type and event._ok:
                        # Inlined Process._resume (see _dispatch).
                        self.active_process = cb
                        try:
                            nev = cb._generator.send(event._value)
                        except StopIteration as exc:
                            cb._target = None
                            self.active_process = None
                            cb.succeed(exc.value)
                        except BaseException as exc:
                            cb._target = None
                            self.active_process = None
                            cb._ok = False
                            cb._value = exc
                            self.schedule(cb)
                        else:
                            try:
                                ncbs = nev.callbacks
                            except AttributeError:
                                cb._generator.throw(
                                    TypeError(
                                        f"process {cb.name} yielded a non-event: {nev!r}"
                                    )
                                )
                                cb._resume(event)
                            else:
                                if ncbs is not None:
                                    ncbs.append(cb)
                                    cb._target = nev
                                    self.active_process = None
                                else:
                                    # Already-processed target: continue.
                                    cb._resume(nev)
                        callbacks.clear()
                        if len(pool) < pool_max:
                            pool.append(callbacks)
                        continue
                    cb(event)
                else:
                    for callback in callbacks:
                        callback(event)

                if event._ok or event.defused:
                    callbacks.clear()
                    if len(pool) < pool_max:
                        pool.append(callbacks)
                else:
                    raise event._value
            return self._halt_reason
        except StopSimulation as stop:
            return stop.value
        except EmptySchedule:
            if isinstance(until, Event) and not until.triggered:
                raise RuntimeError("no scheduled events left but until event was not triggered")
            return None


def _stop_simulation(event: Event) -> None:
    if not event._ok:
        # Running until a failed event (e.g. a crashed process):
        # surface the error instead of returning it as a value.
        event.defused = True
        raise event._value
    raise StopSimulation(event._value)
