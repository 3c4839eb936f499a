"""Tests for the writeback daemon (pdflush) and dirty throttling."""

import pytest

from repro import Environment, OS, SSD, KB, MB
from repro.cache.writeback import WritebackConfig
from repro.schedulers.noop import Noop


def make_os(memory=64 * MB, config=None, enabled=True):
    env = Environment()
    machine = OS(
        env,
        device=SSD(),
        scheduler=Noop(),
        memory_bytes=memory,
        writeback_config=config,
        writeback_enabled=enabled,
    )
    return env, machine


def test_config_validation():
    with pytest.raises(ValueError):
        WritebackConfig(dirty_background_ratio=0.5, dirty_ratio=0.2)
    with pytest.raises(ValueError):
        WritebackConfig(dirty_background_ratio=0.0)


def test_pdflush_runs_at_default_priority():
    """The root cause of Figure 3: pdflush is a priority-4 task."""
    env, machine = make_os()
    assert machine.writeback.task.priority == 4
    assert machine.writeback.task.kernel


def test_background_flush_over_watermark():
    config = WritebackConfig(dirty_background_ratio=0.1, dirty_ratio=0.4)
    env, machine = make_os(memory=16 * MB, config=config)
    task = machine.spawn("w")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(4 * MB)  # 25% dirty: over background
        yield env.timeout(10)

    p = env.process(proc())
    env.run(until=p)
    assert machine.cache.dirty_fraction <= 0.1 + 0.01
    assert machine.writeback.pages_flushed > 0


def test_expired_pages_flushed_even_below_watermark():
    config = WritebackConfig(dirty_expire=2.0, wakeup_interval=1.0)
    env, machine = make_os(memory=1024 * MB, config=config)
    task = machine.spawn("w")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(64 * KB)  # tiny: never over watermark
        yield env.timeout(10)
        return machine.cache.dirty_bytes

    p = env.process(proc())
    env.run(until=p)
    assert p.value == 0  # age-based flush happened


def test_foreground_throttling_blocks_writer():
    """Writers crossing dirty_ratio stall in balance_dirty_pages."""
    config = WritebackConfig(dirty_background_ratio=0.05, dirty_ratio=0.1)
    env, machine = make_os(memory=16 * MB, config=config)
    task = machine.spawn("w")

    def proc():
        handle = yield from machine.creat(task, "/f")
        # Way more than dirty_ratio (1.6MB): must block on writeback.
        yield from handle.append(8 * MB)
        return env.now

    p = env.process(proc())
    env.run(until=p)
    assert p.value > 0  # took simulated time: writer was throttled
    assert machine.cache.dirty_fraction <= 0.15


def test_request_flush_reaches_explicit_target():
    env, machine = make_os(memory=64 * MB)
    task = machine.spawn("w")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(4 * MB)  # under background ratio
        machine.writeback.request_flush(1 * MB)
        yield env.timeout(5)
        return machine.cache.dirty_bytes

    p = env.process(proc())
    env.run(until=p)
    assert p.value <= 1 * MB


def test_disabled_daemon_does_not_flush():
    env, machine = make_os(memory=1024 * MB, enabled=False)
    task = machine.spawn("w")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(1 * MB)
        yield env.timeout(60)
        return machine.cache.dirty_bytes

    p = env.process(proc())
    env.run(until=p)
    assert p.value == 1 * MB  # nothing flushed without pdflush


def test_writeback_submits_as_proxy_with_true_causes():
    """Delegated writes carry the original writers' tags (Figure 7)."""
    config = WritebackConfig(dirty_expire=1.0, wakeup_interval=0.5)
    env, machine = make_os(memory=256 * MB, config=config)
    a, b = machine.spawn("a"), machine.spawn("b")
    observed = []
    machine.block_queue.completion_listeners.append(
        lambda req: observed.append((req.submitter.name, set(req.causes)))
        if req.is_write and not req.metadata
        else None
    )

    def proc():
        fa = yield from machine.creat(a, "/fa")
        fb = yield from machine.creat(b, "/fb")
        yield from fa.append(64 * KB)
        yield from machine.write(b, fb.inode, 0, 64 * KB)
        yield env.timeout(10)

    p = env.process(proc())
    env.run(until=p)
    submitters = {name for name, _ in observed}
    assert "pdflush" in submitters
    all_causes = set().union(*(causes for _, causes in observed))
    assert a.pid in all_causes
    assert b.pid in all_causes
    assert machine.writeback.task.pid not in all_causes


def test_expiry_wakeup_scans_only_up_to_first_young_page():
    """A kick over a young dirty set pulls one page, not the whole set."""
    env, machine = make_os(memory=1024 * MB)  # 16 MB dirty: under background
    daemon = machine.writeback
    task = machine.spawn("w")
    kicks = 50

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(4096 * 4 * KB)
        assert machine.cache.dirty_pages == 4096
        wakeups, scanned = daemon.wakeups, daemon.pages_scanned
        for _ in range(kicks):
            daemon.kick()
            yield env.timeout(0.001)
        return daemon.wakeups - wakeups, daemon.pages_scanned - scanned

    p = env.process(proc())
    env.run(until=p)
    wakeups, scanned = p.value
    assert wakeups == kicks
    assert scanned <= kicks
    assert daemon.pages_flushed == 0
    assert machine.cache.dirty_pages == 4096


def test_expired_pages_counted_as_scanned_and_flushed():
    config = WritebackConfig(dirty_expire=2.0, wakeup_interval=1.0)
    env, machine = make_os(memory=1024 * MB, config=config)
    task = machine.spawn("w")

    def proc():
        handle = yield from machine.creat(task, "/f")
        yield from handle.append(64 * KB)
        yield env.timeout(10)

    env.run(until=env.process(proc()))
    daemon = machine.writeback
    assert daemon.pages_flushed == 16
    # Each wakeup pulls its expired pages plus at most one young page.
    assert 16 <= daemon.pages_scanned <= 16 + daemon.wakeups
