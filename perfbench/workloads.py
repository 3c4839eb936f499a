"""The four benchmark workloads, built through the simulator's public API.

Each workload is a closed loop whose inputs come from ``seed`` alone.  A
workload object is used once: :meth:`Workload.setup` builds the stack and
lays out files (timed as ``setup_s``), :meth:`Workload.run` executes the
timed phase and returns an :class:`Outcome`.  Everything simulated is
deterministic, so :attr:`Outcome.digest` must repeat exactly for a seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional

from repro.config import ClusterConfig, StackConfig, TenantContract
from repro.experiments.common import build_stack, drive, run_for
from repro.faults.errors import EIO
from repro.schedulers import make_scheduler
from repro.sim.shard import ShardEnvironment, ShardedRun, StreamSpec, partition_nodes
from repro.sim.shard.cluster import ClientStream
from repro.units import GB, KB, MB, PAGE_SIZE
from repro.vfs.reprofs import ReproFileSystem
from repro.workloads import prefill_file

from layertrace import Patches, Recorder


@dataclass
class Outcome:
    """What one timed phase produced."""

    #: Completed application ops (the ``ops_per_s`` numerator).
    ops: int
    #: Failed ops: syscall errors, permanently failed block requests and
    #: output-check mismatches.
    failed: int
    #: Host seconds of each protected-tenant op, issue to completion.
    host_calls: List[float]
    #: Simulated seconds of each protected-tenant op.
    victim_sim: List[float]
    #: Application bytes the stack delivered, all tenants.
    sim_bytes: int
    #: Simulated length of the timed phase.
    sim_seconds: float
    #: sha256 of the simulated results (counts, bytes, latency samples).
    digest: str
    #: Plain per-layer counters, deltas over the timed phase.
    counters: Dict[str, float]
    #: Simulated time the timed phase started (filters obs spans).
    sim_start: float = 0.0


def digest(items) -> str:
    """sha256 of a canonical JSON rendering (floats at full precision)."""
    blob = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def snapshot(machine) -> Dict[str, float]:
    """The plain counters one stack keeps (no bus subscription needed)."""
    cache, queue = machine.cache, machine.block_queue
    stats, journal = machine.device.stats, machine.fs.journal
    ff = machine.fastforward
    return {
        "cache.hits": cache.hits,
        "cache.misses": cache.misses,
        "cache.evictions": cache.evictions,
        "writeback.pages_flushed": machine.writeback.pages_flushed,
        "fs.journal_commits": journal.commits,
        "fs.journal_blocks_written": journal.journal_blocks_written,
        "block.submitted": queue.submitted,
        "block.completed": queue.completed,
        "block.failed": queue.failed,
        "devices.requests": stats.total_requests,
        "devices.seeks": stats.seeks,
        "devices.busy_s": stats.busy_time,
        "fastforward.replayed": ff.replayed if ff is not None else 0,
        "fastforward.measured": ff.measured if ff is not None else 0,
        "fastforward.disturbances": ff.disturbance if ff is not None else 0,
    }


def delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before.get(key, 0) for key in after}


def add(into: Dict[str, float], more: Dict[str, float]) -> Dict[str, float]:
    for key, value in more.items():
        into[key] = into.get(key, 0) + value
    return into


class Workload:
    """Base class: seed, scale, and the optional traced-pass recorder."""

    name = ""

    def __init__(self, seed: int, scale: float = 1.0, recorder: Optional[Recorder] = None):
        self.seed = seed
        self.scale = scale
        self.recorder = recorder

    def client(self, gen, name: str):
        """Start *gen* as a process; in the traced pass its own code is
        billed to ``other``."""
        if self.recorder is not None:
            gen = self.recorder.client(gen, name)
        return self.env.process(gen, name=name)

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> Outcome:
        raise NotImplementedError

    def _phase(self, machine, body) -> tuple:
        """Run *body* (the timed phase); return its counter deltas, with
        ``sim.events`` and device capacity, and its simulated start."""
        env = self.env
        before = dict(snapshot(machine), **{"sim.events": env._eid})
        start = env.now
        body()
        after = dict(snapshot(machine), **{"sim.events": env._eid})
        counters = delta(after, before)
        counters["devices.capacity_s"] = (env.now - start) * machine.device.channels
        return counters, start


class FsyncCheckpoint(Workload):
    """Fig. 12 shape: a log appender's fsyncs against a checkpointer.

    Tenant A appends 4 KB records and fsyncs each (its fsync deadline is
    0.1 s); tenant B overwrites random 4 KB blocks of a 64 MB file and
    fsyncs every ``B_BLOCKS`` writes (deadline 5 s).  HDD, ext4 ordered
    mode, Split-Deadline.  B's rounds push the dirty set past the
    scheduler's 16 MB dirty cap, so B's writes spin in the cap loop and
    kick pdflush every 5 ms until its pages expire (10 s): the writeback
    hot path.
    """

    name = "fsync_checkpoint"
    DURATION = 30.0  # simulated seconds at scale 1
    B_FILE = 64 * MB
    B_BLOCKS = 8192
    B_PAUSE = 0.5

    def setup(self) -> None:
        self.sched = make_scheduler(
            "split-deadline", read_deadline=0.05, fsync_deadline=0.1, dirty_cap=16 * MB,
        )
        config = StackConfig(
            device="hdd", fs="ext4", scheduler=self.sched, writeback={"dirty_expire": 10.0},
        )
        self.env, self.os = build_stack(config)
        task = self.os.spawn("setup")
        drive(self.env, self._prefill(task, "/log", 4 * KB))
        drive(self.env, self._prefill(task, "/db", self.B_FILE))
        self.a = self.os.spawn("A-logger")
        self.b = self.os.spawn("B-checkpointer")
        self.sched.set_fsync_deadline(self.a, 0.1)
        self.sched.set_fsync_deadline(self.b, 5.0)

    def _prefill(self, task, path, size, sync_every=8 * MB):
        """Write *path* in 1 MB appends, fsync every *sync_every* bytes
        (keeping the dirty set under the cap), then drop it from cache."""
        handle = yield from self.os.creat(task, path)
        written = 0
        while written < size:
            n = yield from handle.append(min(1 * MB, size - written))
            written += n
            if written % sync_every == 0 or written >= size:
                yield from handle.fsync()
        handle.drop_cache()
        yield from handle.close()

    def _appender(self, stats, rng):
        env = self.env
        handle = yield from self.os.open(self.a, "/log")
        while True:
            try:
                n = yield from handle.append(4 * KB)
                stats["bytes"] += n
                stats["ops"] += 1
                host, start = perf_counter(), env.now
                yield from handle.fsync()
                stats["host"].append(perf_counter() - host)
                stats["lat"].append(env.now - start)
                stats["ops"] += 1
            except EIO:
                stats["failed"] += 1
            yield env.timeout(rng.uniform(0.0, 0.002))

    def _checkpointer(self, stats, rng):
        env = self.env
        handle = yield from self.os.open(self.b, "/db")
        blocks = handle.inode.size // PAGE_SIZE
        while True:
            try:
                for _ in range(self.B_BLOCKS):
                    offset = rng.randrange(blocks) * PAGE_SIZE
                    n = yield from handle.pwrite(offset, PAGE_SIZE)
                    stats["bytes"] += n
                    stats["ops"] += 1
                start = env.now
                yield from handle.fsync()
                stats["lat"].append(env.now - start)
                stats["ops"] += 1
            except EIO:
                stats["failed"] += 1
            yield env.timeout(self.B_PAUSE)

    def run(self) -> Outcome:
        rng = random.Random(self.seed)
        tenants = {
            name: {"ops": 0, "bytes": 0, "failed": 0, "lat": [], "host": []}
            for name in ("A", "B")
        }
        a_rng, b_rng = random.Random(rng.random()), random.Random(rng.random())

        def body():
            self.client(self._appender(tenants["A"], a_rng), "A-logger")
            self.client(self._checkpointer(tenants["B"], b_rng), "B-checkpointer")
            run_for(self.env, self.DURATION * self.scale)

        counters, start = self._phase(self.os, body)
        a = tenants["A"]
        return Outcome(
            ops=a["ops"] + tenants["B"]["ops"],
            failed=a["failed"] + tenants["B"]["failed"] + counters["block.failed"],
            host_calls=a["host"],
            victim_sim=a["lat"],
            sim_bytes=a["bytes"] + tenants["B"]["bytes"],
            sim_seconds=self.env.now - start,
            digest=digest({
                name: {key: t[key] for key in ("ops", "bytes", "failed", "lat")}
                for name, t in tenants.items()
            }),
            counters=counters,
            sim_start=start,
        )


class MqRandomRead(Workload):
    """Fig. 22 shape: 64 O_DIRECT 4 KB random readers on a depth-32 SSD.

    Threads 0-31 are tenant A (the victim); threads 32-63 are tenant B,
    held to a 20 MB/s Split-Token contract.  The page cache, writeback
    and journal are bypassed.  Each thread starts after a seeded delay
    below 100 us and reads seeded offsets.
    """

    name = "mq_random_read"
    DURATION = 0.5
    THREADS = 64
    POOL = 64 * MB
    B_RATE = 20 * MB

    def setup(self) -> None:
        config = StackConfig(
            device="ssd", scheduler="split-token", memory_bytes=256 * MB, queue_depth=32,
        )
        self.env, self.os = build_stack(config)
        task = self.os.spawn("setup")
        drive(self.env, prefill_file(self.os, task, "/pool", self.POOL))
        half = self.THREADS // 2
        self.tasks = [self.os.spawn(f"A{i}") for i in range(half)]
        self.tasks += [self.os.spawn(f"B{i}") for i in range(half)]
        self.os.scheduler.set_limit(self.tasks[half:], self.B_RATE)

    def _reader(self, task, stats, rng, delay):
        env = self.env
        yield env.timeout(delay)
        handle = yield from self.os.open(task, "/pool")
        blocks = handle.inode.size // PAGE_SIZE
        while True:
            offset = rng.randrange(blocks) * PAGE_SIZE
            host, start = perf_counter(), env.now
            try:
                n = yield from handle.pread(offset, 4 * KB, direct=True)
                stats["bytes"] += n
            except EIO:
                stats["failed"] += 1
                continue
            stats["host"].append(perf_counter() - host)
            stats["lat"].append(env.now - start)
            stats["ops"] += 1

    def run(self) -> Outcome:
        rng = random.Random(self.seed)
        tenants = {
            name: {"ops": 0, "bytes": 0, "failed": 0, "lat": [], "host": []}
            for name in ("A", "B")
        }
        half = self.THREADS // 2

        def body():
            for i, task in enumerate(self.tasks):
                stats = tenants["A" if i < half else "B"]
                reader = self._reader(
                    task, stats, random.Random(rng.random()), rng.uniform(0.0, 1e-4),
                )
                self.client(reader, task.name)
            run_for(self.env, self.DURATION * self.scale)

        counters, start = self._phase(self.os, body)
        a, b = tenants["A"], tenants["B"]
        return Outcome(
            ops=a["ops"] + b["ops"],
            failed=a["failed"] + b["failed"] + counters["block.failed"],
            host_calls=a["host"],
            victim_sim=a["lat"],
            sim_bytes=a["bytes"] + b["bytes"],
            sim_seconds=self.env.now - start,
            digest=digest({
                name: {key: t[key] for key in ("ops", "bytes", "failed", "lat")}
                for name, t in tenants.items()
            }),
            counters=counters,
            sim_start=start,
        )


class ReprofsTenants(Workload):
    """Fig. 25 shape: a synchronous columnar scan against a loader.

    Both tenants are :class:`ReproFileSystem` instances on one HDD stack
    under Split-Token with fast-forward on.  The scan tenant is a real
    synchronous caller: per pass it opens a parquet-style file, drops its
    cache, reads the footer, then reads the selected column chunks of
    every row group in 64 KB calls, checking every byte against the
    seeded pattern written at setup.  The loader tenant runs four
    background reader threads doing 256 KB random reads of eight shard
    files, held to a 4 MB/s contract.
    """

    name = "reprofs_tenants"
    PASSES = 6
    SCAN_BYTES = 32 * MB
    ROW_GROUPS, COLUMNS, SELECTED = 8, 4, 2
    FOOTER = 64 * KB
    READ = 64 * KB
    SHARDS, SHARD_BYTES = 8, 8 * MB
    LOADERS, LOADER_CHUNK, LOADER_RATE = 4, 256 * KB, 16 * MB
    PATH = "/data/events.parquet"

    def setup(self) -> None:
        config = StackConfig(
            device="hdd", scheduler="split-token", memory_bytes=32 * MB, fast_forward=True,
        )
        self.env, self.os = build_stack(config)
        self.scanfs = ReproFileSystem(machine=self.os, tenant="scan")
        self.loadfs = ReproFileSystem(machine=self.os, tenant="loader")
        rng = random.Random(self.seed)
        pattern = bytes(rng.randrange(1, 256) for _ in range(PAGE_SIZE))
        size = self.SCAN_BYTES + self.FOOTER
        self.blob = (pattern * (size // PAGE_SIZE + 1))[:size]
        self.chunk = self.SCAN_BYTES // (self.ROW_GROUPS * self.COLUMNS)
        self.scanfs.makedirs("/data", exist_ok=True)
        with self.scanfs.open(self.PATH, "wb") as f:
            for offset in range(0, size, 1 * MB):
                f.write(self.blob[offset:offset + 1 * MB])
            f.flush()
            f.handle.drop_cache()
        self.loadfs.makedirs("/train", exist_ok=True)
        for i in range(self.SHARDS):
            self.loadfs.pump.run(prefill_file(
                self.os, self.loadfs.task, f"/train/shard-{i:03d}.bin", self.SHARD_BYTES,
            ))
        self.os.scheduler.set_limit(self.loadfs.task, self.LOADER_RATE)

    def _loader(self, handles, stats, rng, stop):
        span = (self.SHARD_BYTES - self.LOADER_CHUNK) // PAGE_SIZE
        while not stop[0]:
            handle = handles[rng.randrange(len(handles))]
            offset = rng.randrange(span) * PAGE_SIZE
            try:
                n = yield from handle.pread(offset, self.LOADER_CHUNK)
                stats["bytes"] += n
                stats["ops"] += 1
            except EIO:
                stats["failed"] += 1

    def _call(self, scan, fn, *args):
        """One synchronous reprofs call, timed on the host and in sim."""
        host, start = perf_counter(), self.env.now
        try:
            value = fn(*args)
        except EIO:
            scan["failed"] += 1
            return None
        scan["host"].append(perf_counter() - host)
        scan["ops"] += 1
        return value, self.env.now - start

    def _read_checked(self, scan, f, offset, nbytes):
        f.seek(offset)
        got = self._call(scan, f.read, nbytes)
        if got is None:
            return
        data, sim_seconds = got
        scan["lat"].append(sim_seconds)
        scan["bytes"] += len(data)
        if data != self.blob[offset:offset + nbytes]:
            scan["mismatches"] += 1

    def run(self) -> Outcome:
        rng = random.Random(self.seed + 1)
        scan = {"ops": 0, "bytes": 0, "failed": 0, "mismatches": 0, "lat": [], "host": []}
        loader = {"ops": 0, "bytes": 0, "failed": 0}
        stop = [False]

        def body():
            handles = [
                self.loadfs.open_handle(f"/train/shard-{i:03d}.bin", mode="r")
                for i in range(self.SHARDS)
            ]
            for t in range(self.LOADERS):
                gen = self._loader(handles, loader, random.Random(rng.random()), stop)
                self.client(gen, f"loader-{t}")
            size = self.SCAN_BYTES + self.FOOTER
            for _ in range(max(1, round(self.PASSES * self.scale))):
                opened = self._call(scan, self.scanfs.open, self.PATH, "rb")
                if opened is None:
                    continue
                f = opened[0]
                f.handle.drop_cache()  # a fresh job: nothing resident
                self._read_checked(scan, f, size - self.FOOTER, self.FOOTER)
                for group in range(self.ROW_GROUPS):
                    for column in range(self.SELECTED):
                        base = (group * self.COLUMNS + column) * self.chunk
                        for piece in range(0, self.chunk, self.READ):
                            self._read_checked(scan, f, base + piece, self.READ)
                self._call(scan, f.close)
            stop[0] = True

        counters, start = self._phase(self.os, body)
        counters["vfs.pump_episodes"] = self.scanfs.pump.episodes
        return Outcome(
            ops=scan["ops"] + loader["ops"],
            failed=scan["failed"] + scan["mismatches"] + loader["failed"]
            + counters["block.failed"],
            host_calls=scan["host"],
            victim_sim=scan["lat"],
            sim_bytes=scan["bytes"] + loader["bytes"],
            sim_seconds=self.env.now - start,
            digest=digest({
                "scan": {key: scan[key] for key in ("ops", "bytes", "failed", "mismatches", "lat")},
                "loader": loader,
            }),
            counters=counters,
            sim_start=start,
        )


class FleetProbe:
    """Per-chunk host latency and node counters from the shards.

    Installed for one run: wraps ``ClientStream._run`` to time, on the
    host, each wait that ended with a new chunk latency sample; makes
    ``ShardEnvironment.finish`` ship those samples plus the plain
    counters of its node stacks inside the payload; and makes
    ``ShardedRun._merge`` take them out again.
    """

    KEY = "perfbench"

    def __init__(self, recorder: Optional[Recorder]):
        self.recorder = recorder
        self.samples: List[float] = []
        self.shipped: List[Dict] = []
        self.patches = Patches()

    def install(self, duration: float) -> None:
        probe = self
        run_stream = ClientStream._run
        finish = ShardEnvironment.finish
        merge = ShardedRun._merge

        def timed_run(stream):
            gen = probe._timed(stream, run_stream(stream))
            return probe.recorder.client(gen, "chunk-timer") if probe.recorder else gen

        def finish_with_counters(shard):
            payload = finish(shard)
            payload[probe.KEY] = probe._ship(shard, duration)
            return payload

        def merge_without(run, payloads):
            for payload in payloads:
                probe.shipped.append(payload.pop(probe.KEY))
            return merge(run, payloads)

        self.patches.patch(ClientStream, "_run", timed_run)
        self.patches.patch(ShardEnvironment, "finish", finish_with_counters)
        self.patches.patch(ShardedRun, "_merge", merge_without)

    def uninstall(self) -> None:
        self.patches.restore()

    def _timed(self, stream, gen):
        latencies = stream.latencies
        value, error = None, None
        waited_at = None
        while True:
            count = len(latencies)
            try:
                event = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                return stop.value
            if waited_at is not None and len(latencies) > count:
                self.samples.append(resumed_at - waited_at)
            waited_at = perf_counter()
            try:
                value, error = (yield event), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # delivered into the stream
                value, error = None, exc
            resumed_at = perf_counter()

    def _ship(self, shard, duration: float) -> Dict:
        counters: Dict[str, float] = {"sim.events": shard.env._eid, "devices.capacity_s": 0.0}
        for node in shard.nodes.values():
            add(counters, snapshot(node.machine))
            counters["devices.capacity_s"] += duration * node.machine.device.channels
        shipped = {"host": list(self.samples), "counters": counters}
        self.samples.clear()
        return shipped


class FleetSharded(Workload):
    """Fig. 24 shape: 16 DataNodes, 4 tenant contracts, 2 shards.

    Every tenant runs one pipelined write stream per node (64 streams),
    each block 3x-replicated to nodes placed by the seeded NameNode-style
    placement function; every node enforces each tenant's 4 MB/s
    Split-Token contract locally.  ``ShardedRun`` drives the epoch loop
    and steps both shards inline, in this process: on a 2-vCPU host two
    worker processes ran slower than one, and their timings swung with
    whatever else the host ran.
    """

    name = "fleet_sharded"
    DURATION = 4.0
    NODES, TENANTS, SHARDS = 16, 4, 2
    RATE = 4 * MB

    def setup(self) -> None:
        contracts = tuple(
            TenantContract(f"t{i:02d}", rate_per_node=self.RATE) for i in range(self.TENANTS)
        )
        self.cluster = ClusterConfig(
            nodes=self.NODES, replication=3, block_size=256 * KB, chunk=64 * KB,
            tenants=contracts,
            seed=self.seed,
        )
        self.streams = [
            StreamSpec(t * self.NODES + j, f"t{t:02d}", (t + j * self.TENANTS) % self.NODES,
                       16 * GB)
            for t in range(self.TENANTS) for j in range(self.NODES)
        ]
        self.duration = self.DURATION * self.scale
        # Stack build: the same partitions ShardedRun builds when it
        # starts, assembled here through the public shard API.
        for index, nodes in enumerate(partition_nodes(self.NODES, self.SHARDS)):
            owned = [s for s in self.streams if s.gateway in set(nodes)]
            ShardEnvironment(self.cluster, index, nodes, owned, self.duration)

    def run(self) -> Outcome:
        probe = FleetProbe(self.recorder)
        probe.install(self.duration)
        try:
            run = ShardedRun(self.cluster, self.streams, self.duration, shards=self.SHARDS,
                             processes=False)
            result = run.run()
        finally:
            probe.uninstall()
        counters: Dict[str, float] = {}
        host: List[float] = []
        for shipped in probe.shipped:
            add(counters, shipped["counters"])
            host.extend(shipped["host"])
        counters["shard.epochs"] = result["meta"]["epochs"]
        chunks = [lat for report in result["per_stream"] for lat in report["latencies"]]
        errors = sum(report["chunk_errors"] for report in result["per_stream"])
        return Outcome(
            ops=len(chunks),
            failed=errors + result["conservation"]["failed"],
            host_calls=host,
            victim_sim=chunks,
            sim_bytes=sum(t["bytes"] for t in result["tenants"].values()),
            sim_seconds=self.duration,
            digest=digest({
                "streams": result["per_stream"],
                "conservation": result["conservation"],
                "epochs": result["meta"]["epochs"],
            }),
            counters=counters,
        )


WORKLOADS = {
    cls.name: cls for cls in (FsyncCheckpoint, MqRandomRead, ReprofsTenants, FleetSharded)
}
