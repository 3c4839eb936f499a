"""Same-instant ordering: events sharing a timestamp (a cohort).

Every dispatch takes the minimum of the front slot and the heap head,
so a cohort runs in exact ``(time, priority, eid)`` order.  These tests
pin the observable contract: same-instant events scheduled *during*
the cohort still run at their proper rank, and a stop or crash
mid-cohort leaves the queue resumable.  The property test at the end
checks the order against a reference sort for random programs, on
every runner the kernel offers.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import SanitizedEnvironment
from repro.sim import Environment
from repro.sim.core import EmptySchedule
from repro.sim.events import NORMAL, URGENT


def test_cohort_runs_in_schedule_order():
    env = Environment()
    fired = []
    for i in range(50):
        env.timeout(1, value=i).callbacks.append(lambda ev: fired.append(ev.value))
    env.run()
    assert fired == list(range(50))
    assert env.now == 1


def test_event_scheduled_during_cohort_at_same_instant_runs():
    env = Environment()
    fired = []

    def chain(ev):
        fired.append(ev.value)
        if ev.value == 0:
            # Scheduled mid-cohort at the current instant: runs after
            # the already-queued entries (it has a later eid).
            env.timeout(0, value="late").callbacks.append(
                lambda e: fired.append(e.value)
            )

    for i in range(3):
        env.timeout(1, value=i).callbacks.append(chain)
    env.run()
    assert fired == [0, 1, 2, "late"]


def test_urgent_interloper_preempts_cohort_remainder():
    env = Environment()
    fired = []

    def first(ev):
        fired.append(ev.value)
        urgent = env.event()
        urgent.callbacks.append(lambda e: fired.append("urgent"))
        env.schedule(urgent, priority=URGENT)

    env.timeout(1, value="a").callbacks.append(first)
    env.timeout(1, value="b").callbacks.append(lambda ev: fired.append(ev.value))
    env.run()
    # URGENT sorts before the pending NORMAL cohort entry, so it runs
    # between "a" and "b" — exactly as one-at-a-time dispatch would.
    assert fired == ["a", "urgent", "b"]


def test_front_slot_urgent_interloper_preempts_cohort_remainder():
    """A process spawned mid-cohort starts before the cohort remainder.

    Initialize schedules URGENT through the *front slot* (not the
    heap) when the slot is free — which it always is mid-cohort.  The
    interloper check must look there too: missing it delays the
    process start behind every remaining same-instant event, and
    whether the slot is free depends on unrelated traffic elsewhere in
    the Environment (the shard-layout divergence this pins down).
    """
    env = Environment()
    fired = []

    def body():
        fired.append("started")
        return
        yield  # pragma: no cover - makes this a generator

    def spawn(ev):
        fired.append(ev.value)
        env.process(body())

    env.timeout(1, value="a").callbacks.append(spawn)
    env.timeout(1, value="b").callbacks.append(lambda ev: fired.append(ev.value))
    env.run()
    assert fired == ["a", "started", "b"]


def test_heap_and_front_slot_interlopers_run_in_eid_order():
    env = Environment()
    fired = []

    def body():
        fired.append("slot")
        return
        yield  # pragma: no cover - makes this a generator

    def spawn(ev):
        fired.append(ev.value)
        heap_urgent = env.event()
        heap_urgent.callbacks.append(lambda e: fired.append("heap"))
        env.schedule(heap_urgent, priority=URGENT)  # heap path, older eid
        env.process(body())  # front-slot path, younger eid

    env.timeout(1, value="a").callbacks.append(spawn)
    env.timeout(1, value="b").callbacks.append(lambda ev: fired.append(ev.value))
    env.run()
    assert fired == ["a", "heap", "slot", "b"]


def test_until_event_mid_cohort_stops_and_resumes_cleanly():
    env = Environment()
    fired = []
    env.timeout(1, value=0).callbacks.append(lambda ev: fired.append(ev.value))
    stop = env.timeout(1)  # the until-event sits inside the cohort
    env.timeout(1, value=2).callbacks.append(lambda ev: fired.append(ev.value))
    env.timeout(1, value=3).callbacks.append(lambda ev: fired.append(ev.value))
    env.run(until=stop)
    # 0 and the stop trigger ran; 2 and 3 were pushed back.
    assert fired == [0]
    env.run()
    assert fired == [0, 2, 3]
    assert env.now == 1


def test_crashing_callback_mid_cohort_leaves_queue_resumable():
    env = Environment()
    fired = []

    def boom(ev):
        raise RuntimeError("boom")

    env.timeout(1, value=0).callbacks.append(lambda ev: fired.append(ev.value))
    env.timeout(1).callbacks.append(boom)
    env.timeout(1, value=2).callbacks.append(lambda ev: fired.append(ev.value))
    with pytest.raises(RuntimeError, match="boom"):
        env.run()
    assert fired == [0]
    env.run()  # the undispatched remainder survived the crash
    assert fired == [0, 2]


def test_nested_run_during_cohort_falls_back_safely():
    """A callback running another environment's run() to completion
    mid-cohort leaves the outer cohort's order intact."""
    env = Environment()
    fired = []

    def outer(ev):
        inner = Environment()
        inner.timeout(1, value="inner").callbacks.append(
            lambda e: fired.append(e.value)
        )
        inner.run()
        fired.append(ev.value)

    env.timeout(1, value="a").callbacks.append(outer)
    env.timeout(1, value="b").callbacks.append(lambda ev: fired.append(ev.value))
    env.run()
    assert fired == ["inner", "a", "b"]


# -- property: dispatch order is the (time, priority, eid) reference sort ----

#: What a program node schedules when it is created: a NORMAL timeout,
#: a NORMAL succeed() (fused front-slot path), an URGENT schedule()
#: call, or a process spawn (an URGENT Initialize in the front slot).
_KINDS = ("timeout", "succeed", "urgent", "spawn")

#: A node is ``(kind, children)``; the children are created, at the
#: current instant, when the node's event is dispatched.
_nodes = st.recursive(
    st.tuples(st.sampled_from(_KINDS), st.just(())),
    lambda children: st.tuples(
        st.sampled_from(_KINDS), st.lists(children, max_size=3).map(tuple)
    ),
    max_leaves=16,
)

#: Top-level nodes are created before the run, at t=1 or t=2 (a spawn
#: always starts at t=0); ``until`` picks one of them as the run target.
_programs = st.tuples(
    st.lists(
        st.tuples(_nodes, st.sampled_from([1.0, 1.0, 1.0, 2.0])),
        min_size=1,
        max_size=6,
    ),
    st.none() | st.integers(min_value=0, max_value=5),
)


def _play(env, program, runner):
    """Run *program* on *env*; return (dispatch log, reference order)."""
    roots, until_index = program
    labels = itertools.count()
    log = []  # labels in dispatch order
    keys = {}  # label -> (time, priority, eid) at creation
    events = {}  # label -> the scheduled event
    children = {}  # label -> labels created when it was dispatched

    def create(node, delay):
        kind, kids = node
        label = next(labels)

        def fire(_event=None):
            log.append(label)
            children[label] = [create(kid, 0.0) for kid in kids]

        if kind == "spawn":

            def body():
                fire()
                return
                yield  # pragma: no cover - makes this a generator

            env.process(body())
            keys[label] = (env.now, URGENT, env._eid)
            return label
        priority = URGENT if kind == "urgent" else NORMAL
        if kind == "timeout":
            event = env.timeout(delay)
        elif kind == "succeed" and delay == 0.0:
            event = env.event().succeed()
        else:  # URGENT, or a NORMAL event scheduled into the future
            event = env.event()
            env.schedule(event, priority, delay)
        event.callbacks.append(fire)
        keys[label] = (env.now + delay, priority, env._eid)
        events[label] = event
        return label

    top = [create(node, delay) for node, delay in roots]
    # A spawn's own event is the process, which triggers only when the
    # body returns, so it cannot stand in for an until-event here.
    until = None
    if until_index is not None and until_index < len(top):
        until = events.get(top[until_index])
    runner(env, until)

    pending = list(top)
    reference = []
    while pending:
        label = min(pending, key=keys.__getitem__)
        pending.remove(label)
        reference.append(label)
        pending.extend(children[label])
    return log, reference


def _run_twice(env, until):
    if until is not None:
        env.run(until=until)
    env.run()


def _step_to_exhaustion(env, until):
    while True:
        try:
            env.step()
        except EmptySchedule:
            return


@pytest.mark.parametrize(
    "make_env, runner",
    [
        (Environment, _run_twice),
        (Environment, _step_to_exhaustion),
        (SanitizedEnvironment, _run_twice),
    ],
    ids=["run", "step", "sanitized-run"],
)
@settings(max_examples=150, deadline=None)
@given(program=_programs)
def test_dispatch_order_is_time_priority_eid_sort(make_env, runner, program):
    log, reference = _play(make_env(), program, runner)
    assert log == reference
