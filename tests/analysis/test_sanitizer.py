"""Runtime sanitizer: each invariant is deliberately broken and caught.

Structure mirrors the sanitizer's three attachment points:

- :class:`SanitizedEnvironment` — equivalence with the production
  kernel on the same-instant (cohort) scenarios, then each check
  (negative delay, monotonic clock, cohort order) tripped on purpose.
  The cohort-order test plants a selection bug in a subclass's
  ``step()`` (same-instant heap entries taken ahead of the front slot)
  and asserts the sanitizer converts the silent reordering into a
  :class:`SanitizerError`.
- :class:`StackSanitizer` — a real built machine with each bus-level
  invariant forced false (slot bound, request conservation, token
  conservation) plus the ``close()`` detach contract.
- the shard layer — conservative-sync causality and duplicate
  sequence-number detection.
"""

import types
from heapq import heappop

import pytest

from repro.analysis.sanitizer import (
    SanitizedEnvironment,
    SanitizerError,
    StackSanitizer,
    attach_sanitizer,
    check_delivery,
)
from repro.config import StackConfig
from repro.experiments.common import (
    build_stack,
    default_sanitize,
    drive,
    make_environment,
    set_default_sanitize,
)
from repro.obs.bus import BlockComplete, DeviceStart
from repro.sim import Environment
from repro.sim.core import EmptySchedule
from repro.sim.events import NORMAL
from repro.sim.shard.channel import InterShardChannel
from repro.sim.shard.message import ShardMessage
from repro.units import KB, MB

# -- SanitizedEnvironment: equivalence with the production kernel -----------


def _front_slot_scenario(env):
    """A process spawned mid-cohort parks an URGENT Initialize in the
    front slot; it must run before the cohort remainder."""
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
    return fired


def test_sanitized_env_matches_production_order():
    results = []
    for env_class in (Environment, SanitizedEnvironment):
        env = env_class()
        fired = _front_slot_scenario(env)
        env.run()
        results.append(fired)
    assert results[0] == results[1] == ["a", "started", "b"]


def test_sanitized_env_cohort_order_matches_production():
    results = []
    for env_class in (Environment, SanitizedEnvironment):
        env = env_class()
        fired = []
        for i in range(20):
            env.timeout(1, value=i).callbacks.append(
                lambda ev: fired.append(ev.value)
            )
        env.run()
        results.append(fired)
    assert results[0] == results[1] == list(range(20))


def test_sanitized_env_until_event_mid_cohort_resumes():
    env = SanitizedEnvironment()
    fired = []
    env.timeout(1, value=0).callbacks.append(lambda ev: fired.append(ev.value))
    stop = env.timeout(1)
    env.timeout(1, value=2).callbacks.append(lambda ev: fired.append(ev.value))
    env.run(until=stop)
    assert fired == [0]
    env.run()
    assert fired == [0, 2]
    assert env.now == 1


def test_sanitized_env_until_time_and_empty_schedule():
    env = SanitizedEnvironment()
    env.timeout(3)
    env.run(until=2.0)
    assert env.now == 2.0
    env.run()  # drains the remaining timeout, then EmptySchedule -> None
    assert env.now == 3.0


# -- SanitizedEnvironment: each invariant tripped on purpose ----------------


def test_negative_delay_schedule_raises():
    env = SanitizedEnvironment()
    with pytest.raises(SanitizerError, match="negative delay"):
        env.schedule(env.event(), delay=-1.0)


def test_negative_delay_passes_on_production_subclassed_check_only():
    # The production Environment has no such check; the guard is what
    # the sanitizer adds.  Zero delay stays legal on both.
    env = SanitizedEnvironment()
    env.schedule(env.event(), delay=0.0)


def test_monotonic_clock_violation_raises():
    env = SanitizedEnvironment()
    env.timeout(5)
    env.run()
    assert env.now == 5
    with pytest.raises(SanitizerError, match="monotonic clock"):
        env._dispatch((1.0, NORMAL, 999_999, env.event()))


class BuggyCohortEnv(SanitizedEnvironment):
    """SanitizedEnvironment with a same-instant selection bug planted.

    This ``step()`` takes the heap head whenever it shares the current
    instant, without comparing it against the front slot — so an
    URGENT Initialize parked in the slot mid-cohort is dispatched
    *after* the cohort remainder.  The sanitizer's run loop drives
    ``step()``, and the inherited checked ``_dispatch`` must turn that
    silent reordering into a SanitizerError.
    """

    __slots__ = ()

    def step(self):
        queue = self._queue
        nxt = self._next
        # BUG: a same-instant heap head wins without consulting the slot.
        if queue and queue[0][0] == self._now:
            entry = heappop(queue)
        elif nxt is not None and not (queue and queue[0] < nxt):
            self._next = None
            entry = nxt
        elif queue:
            entry = heappop(queue)
        else:
            raise EmptySchedule()
        self._now = entry[0]
        self._dispatch(entry)


def test_reintroduced_cohort_bug_is_caught():
    env = BuggyCohortEnv()
    fired = _front_slot_scenario(env)
    with pytest.raises(SanitizerError, match="cohort order") as excinfo:
        env.run()
    # The buggy kernel dispatched "b" while the URGENT Initialize sat
    # in the front slot; the error names both entries and the history
    # shows the dispatches that led up to it.
    err = excinfo.value
    assert "front slot" in str(err)
    assert "dispatching" in err.context and "pending" in err.context
    assert err.context["pending"][1] == 0  # URGENT priority
    assert err.history, "recent-dispatch snippet missing"
    assert fired == ["a"]  # "b" never ran; the violation fired first


def test_correct_kernel_passes_same_scenario():
    env = SanitizedEnvironment()
    fired = _front_slot_scenario(env)
    env.run()
    assert fired == ["a", "started", "b"]


def test_sanitizer_error_formats_history_and_context():
    err = SanitizerError(
        "boom",
        history=[(1.0, 1, 7, "Timeout")],
        context={"k": "v"},
    )
    text = str(err)
    assert "boom" in text
    assert "context: k='v'" in text
    assert "t=1.0 priority=1 eid=7 Timeout" in text
    assert isinstance(err, AssertionError)


# -- StackSanitizer: machine-level invariants --------------------------------


def _sanitized_machine():
    # sanitize=False pins the session default off (REPRO_SANITIZE=1 CI
    # runs would otherwise attach a second sanitizer in build_node that
    # close() below wouldn't detach); these tests attach their own.
    env, machine = build_stack(
        StackConfig(
            device="ssd",
            scheduler="split-token",
            memory_bytes=64 * MB,
            sanitize=False,
        )
    )
    sanitizer = attach_sanitizer(machine)
    return env, machine, sanitizer


def _fake_complete(env, request_id=1):
    request = types.SimpleNamespace(id=request_id, failed=False)
    return BlockComplete(time=env.now, request=request)


def test_slot_bound_violation_detected():
    env, machine, _san = _sanitized_machine()
    device = machine.block_queue.device
    device.active = device.channels + 1
    with pytest.raises(SanitizerError, match="slot bound") as excinfo:
        machine.bus.publish(
            DeviceStart(
                time=env.now,
                device=device.name,
                op="read",
                block=0,
                nblocks=1,
                attempt=1,
            )
        )
    assert excinfo.value.context["active"] == device.channels + 1


def test_request_conservation_violation_detected():
    env, machine, _san = _sanitized_machine()
    queue = machine.block_queue
    queue.completed = queue.submitted + 1  # a done event "fired twice"
    with pytest.raises(SanitizerError, match="conservation"):
        machine.bus.publish(_fake_complete(env))


def test_token_over_refund_detected():
    env, machine, _san = _sanitized_machine()
    task = machine.spawn("t")
    bucket = machine.scheduler.set_limit(task, rate=100.0)
    bucket.refund(50.0)  # never charged: refunded_total > charged_total
    with pytest.raises(SanitizerError, match="refunded more") as excinfo:
        machine.bus.publish(_fake_complete(env))
    assert excinfo.value.context["refunded"] == pytest.approx(50.0)


def test_token_balance_over_cap_detected():
    env, machine, _san = _sanitized_machine()
    task = machine.spawn("t")
    bucket = machine.scheduler.set_limit(task, rate=100.0, cap=10.0)
    bucket._balance = 25.0  # above the burst cap
    with pytest.raises(SanitizerError, match="burst cap"):
        machine.bus.publish(_fake_complete(env))


def test_clean_machine_passes_all_checks():
    env, machine, _san = _sanitized_machine()
    task = machine.spawn("t")
    machine.scheduler.set_limit(task, rate=100.0)

    def work():
        handle = yield from machine.creat(task, "/f")
        yield from handle.write(64 * KB)
        handle.seek(0)
        yield from handle.read(16 * KB)

    drive(env, work())  # no SanitizerError


def test_close_detaches_subscriptions():
    env, machine, sanitizer = _sanitized_machine()
    device = machine.block_queue.device
    device.active = device.channels + 1
    sanitizer.close()
    machine.bus.publish(  # no subscriber left; nothing raises
        DeviceStart(
            time=env.now,
            device=device.name,
            op="read",
            block=0,
            nblocks=1,
            attempt=1,
        )
    )
    sanitizer.close()  # idempotent


def test_build_node_attaches_sanitizer_when_config_asks():
    env, machine = build_stack(
        StackConfig(
            device="ssd",
            scheduler="split-token",
            memory_bytes=64 * MB,
            sanitize=True,
        )
    )
    assert isinstance(env, SanitizedEnvironment)
    assert any(
        isinstance(getattr(fn, "__self__", None), StackSanitizer)
        for fn in machine.bus.listeners(BlockComplete)
    )


# -- session flag and config plumbing ----------------------------------------


def test_make_environment_respects_flag_and_session_default():
    assert isinstance(make_environment(True), SanitizedEnvironment)
    env = make_environment(False)
    assert isinstance(env, Environment)
    assert not isinstance(env, SanitizedEnvironment)
    previous = default_sanitize()
    try:
        set_default_sanitize(True)
        assert isinstance(make_environment(), SanitizedEnvironment)
        assert isinstance(make_environment(False), Environment)
        set_default_sanitize(False)
        assert not isinstance(make_environment(), SanitizedEnvironment)
    finally:
        set_default_sanitize(previous)


def test_stack_config_round_trips_sanitize():
    config = StackConfig(sanitize=True)
    assert config.to_dict()["sanitize"] is True
    assert StackConfig.from_dict(config.to_dict()).sanitize is True
    assert StackConfig().sanitize is None  # inherit the session default


def test_sanitized_stack_results_match_plain():
    def run_once(sanitize):
        env, machine = build_stack(
            StackConfig(
                device="ssd",
                scheduler="split-token",
                memory_bytes=64 * MB,
                sanitize=sanitize,
            )
        )
        task = machine.spawn("w")

        def work():
            handle = yield from machine.creat(task, "/f")
            yield from handle.write(256 * KB)
            handle.seek(0)
            n = yield from handle.read(64 * KB)
            return n

        value = drive(env, work())
        queue = machine.block_queue
        return (value, env.now, queue.submitted, queue.completed, queue.failed)

    assert run_once(False) == run_once(True)


# -- shard layer: causality and duplicate sequences --------------------------


def _message(arrival, src=0, seq=0, dst=1):
    return ShardMessage(
        arrival=arrival,
        src_node=src,
        seq=seq,
        dst_node=dst,
        kind="chunk",
        payload={},
    )


def test_check_delivery_rejects_past_arrivals():
    message = _message(arrival=4.0, src=2, seq=9)
    with pytest.raises(SanitizerError, match="causality") as excinfo:
        check_delivery(5.0, 4.0, message)
    context = excinfo.value.context
    assert context["src_node"] == 2
    assert context["seq"] == 9
    assert context["shard_now"] == 5.0


def test_check_delivery_allows_now_and_future():
    message = _message(arrival=5.0)
    check_delivery(5.0, 5.0, message)
    check_delivery(5.0, 6.0, message)


def test_channel_detects_duplicate_sequence_when_sanitized():
    channel = InterShardChannel(epoch=1.0, sanitize=True)
    message = _message(arrival=2.0)
    channel.push([message])
    with pytest.raises(SanitizerError, match="duplicate") as excinfo:
        channel.push([message])
    assert excinfo.value.context["seq"] == 0


def test_channel_without_sanitize_has_no_duplicate_tracking():
    channel = InterShardChannel(epoch=1.0)
    message = _message(arrival=2.0)
    channel.push([message])
    channel.push([message])  # production behaviour untouched
    assert channel.pending_count() == 2
