"""Declarative stack assembly: one frozen config object per machine.

:class:`StackConfig` names everything that distinguishes one simulated
stack from another — device model, scheduler, memory size, filesystem,
writeback tunables, CPU cores, block-layer queue depth, and an optional
fault plan.  Experiments construct one and hand it to
:func:`repro.experiments.common.build_stack`; the parallel runner
serializes it (:meth:`to_dict` / :meth:`from_dict`) so worker processes
rebuild byte-identical stacks; the CLI's ``--queue-depth`` and
``--fault-*`` flags are just session-level defaults for fields left
unset here.

The config is *pure description*: no Environment, no processes, no
side effects.  Construction stays in ``build_stack`` so a config can be
created, compared, serialized, and shipped across process boundaries
freely.  Scheduler and filesystem fields accept either registry names
(``"cfq"``, ``"ext4"`` — the serializable spelling) or live
instances/classes (convenient in-process); :meth:`to_dict` insists on
the nameable forms because a worker must be able to rebuild the object.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.units import GB, MB

#: Filesystem registry: serializable name -> class path resolver.
FS_NAMES = ("ext4", "xfs")


def resolve_fs(fs: Any):
    """A filesystem class from a name, a class, or None (stack default)."""
    if fs is None or isinstance(fs, type):
        return fs
    if isinstance(fs, str):
        from repro.fs import XFS, Ext4

        table = {"ext4": Ext4, "xfs": XFS}
        try:
            return table[fs]
        except KeyError:
            raise ValueError(
                f"unknown filesystem {fs!r}; valid choices: {', '.join(FS_NAMES)}"
            ) from None
    raise TypeError(f"fs must be a name, a class, or None, got {fs!r}")


def fs_name(fs: Any) -> Optional[str]:
    """The serializable name of a filesystem field value."""
    if fs is None:
        return None
    if isinstance(fs, str):
        resolve_fs(fs)  # validate
        return fs
    name = getattr(fs, "__name__", "").lower()
    if name in FS_NAMES:
        return name
    raise ValueError(f"filesystem {fs!r} has no registry name; use 'ext4'/'xfs'")


def _writeback_to_dict(config) -> Optional[Dict[str, Any]]:
    if config is None:
        return None
    if isinstance(config, dict):
        return dict(config)
    return {
        "dirty_background_ratio": config.dirty_background_ratio,
        "dirty_ratio": config.dirty_ratio,
        "dirty_expire": config.dirty_expire,
        "wakeup_interval": config.wakeup_interval,
        "batch_pages": config.batch_pages,
    }


def resolve_writeback(writeback: Any):
    """A WritebackConfig from a config instance, a kwargs dict, or None."""
    if writeback is None:
        return None
    if isinstance(writeback, dict):
        from repro.cache.writeback import WritebackConfig

        return WritebackConfig(**writeback)
    return writeback


def _health_to_dict(health: Any):
    """The serializable form of a StackConfig ``health`` field."""
    if health is None or isinstance(health, (bool, dict)):
        return health
    return health.to_dict()  # a HealthConfig


def _fault_plan_to_dict(plan) -> Optional[Dict[str, Any]]:
    if plan is None:
        return None
    if isinstance(plan, dict):
        return dict(plan)
    return {
        "read_error_prob": plan.read_error_prob,
        "write_error_prob": plan.write_error_prob,
        "error_latency": plan.error_latency,
        "error_windows": [list(w) for w in plan.error_windows],
        "slow_factor": plan.slow_factor,
        "slow_windows": [list(w) for w in plan.slow_windows],
        "stall_prob": plan.stall_prob,
        "stall_duration": plan.stall_duration,
        "power_loss_at": plan.power_loss_at,
        "channel_faults": [list(f) for f in plan.channel_faults],
        "hiccups": [list(h) for h in plan.hiccups],
    }


def resolve_fault_plan(plan: Any):
    """A FaultPlan from an instance, a to_dict() payload, or None."""
    if plan is None:
        return None
    if isinstance(plan, dict):
        from repro.faults.plan import ChannelFault, FaultPlan, FaultWindow, Hiccup, SlowWindow

        payload = dict(plan)
        payload["error_windows"] = [
            FaultWindow(*w) for w in payload.get("error_windows") or ()
        ]
        payload["slow_windows"] = [
            SlowWindow(*w) for w in payload.get("slow_windows") or ()
        ]
        # .get: payloads serialized before these fault models existed
        # (and hand-written dicts) still resolve.
        payload["channel_faults"] = [
            ChannelFault(*f) for f in payload.get("channel_faults") or ()
        ]
        payload["hiccups"] = [Hiccup(*h) for h in payload.get("hiccups") or ()]
        return FaultPlan(**payload)
    return plan


@dataclass(frozen=True)
class StackConfig:
    """Everything that defines one simulated storage stack.

    Fields accepting both names and instances:

    - ``scheduler``: a :data:`repro.schedulers.REGISTRY` name, a live
      scheduler object, or None (Noop);
    - ``fs``: ``"ext4"``, ``"xfs"``, a filesystem class, or None
      (the OS default, ext4);
    - ``writeback``: a ``WritebackConfig``, its kwargs as a dict, or
      None (defaults);
    - ``fault_plan``: a ``FaultPlan``, its ``to_dict`` payload, or None
      (fall back to the session plan installed by the CLI).

    ``queue_depth=None`` defers to the session default (1 unless the
    CLI's ``--queue-depth`` raised it); an explicit integer pins the
    stack's dispatch depth regardless of session state.
    """

    device: str = "hdd"
    scheduler: Any = None
    memory_bytes: int = 1 * GB
    fs: Any = None
    writeback_enabled: bool = True
    writeback: Any = None
    cores: int = 8
    queue_depth: Optional[int] = None
    fault_plan: Any = None
    fault_seed: int = 0
    #: Hedged dispatch: None defers to the session default (off unless
    #: the CLI's ``--hedge`` set it); an explicit bool pins it.
    hedge: Optional[bool] = None
    #: Health monitoring: None = auto (attach when hedging or a fault
    #: plan is active), a bool forces it, a HealthConfig/dict tunes it.
    health: Any = None
    #: Analytical fast-forward (steady-state replay, see
    #: repro.sim.fastforward): None defers to the session default
    #: (off unless the CLI's ``--fast-forward`` set it); an explicit
    #: bool pins it.
    fast_forward: Optional[bool] = None
    #: Runtime sanitizer (repro.analysis.sanitizer): invariant checks
    #: in the sim kernel, block layer, and shard channels.  None defers
    #: to the session default (off unless ``--sanitize`` or the
    #: REPRO_SANITIZE env var set it); an explicit bool pins it.
    sanitize: Optional[bool] = None

    def __post_init__(self):
        if self.queue_depth is not None and self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.memory_bytes <= 0:
            raise ValueError(f"memory_bytes must be positive, got {self.memory_bytes}")
        if self.cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.cores}")

    # -- field coercion ----------------------------------------------------

    def scheduler_name(self) -> Optional[str]:
        """The registry name of the scheduler field (for serialization)."""
        if self.scheduler is None or isinstance(self.scheduler, str):
            return self.scheduler
        name = getattr(self.scheduler, "name", None)
        from repro.schedulers import REGISTRY

        if name not in REGISTRY:
            raise ValueError(
                f"scheduler {self.scheduler!r} is not registry-nameable; "
                "pass its REGISTRY name to serialize this config"
            )
        return name

    def make_scheduler(self):
        """Instantiate (or pass through) the scheduler field."""
        if self.scheduler is None or not isinstance(self.scheduler, str):
            return self.scheduler
        from repro.schedulers import make_scheduler

        return make_scheduler(self.scheduler)

    def make_fs_class(self):
        return resolve_fs(self.fs)

    def make_writeback_config(self):
        return resolve_writeback(self.writeback)

    def make_fault_plan(self):
        return resolve_fault_plan(self.fault_plan)

    # -- serialization -----------------------------------------------------

    def replace(self, **changes) -> "StackConfig":
        """A copy with *changes* applied (frozen-dataclass update)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-friendly payload; :meth:`from_dict` round-trips it.

        Scheduler and filesystem fields must be registry-nameable —
        the contract that lets the parallel runner ship a cell's config
        to a worker process and rebuild the identical stack there.
        """
        return {
            "device": self.device,
            "scheduler": self.scheduler_name(),
            "memory_bytes": self.memory_bytes,
            "fs": fs_name(self.fs),
            "writeback_enabled": self.writeback_enabled,
            "writeback": _writeback_to_dict(self.writeback),
            "cores": self.cores,
            "queue_depth": self.queue_depth,
            "fault_plan": _fault_plan_to_dict(self.fault_plan),
            "fault_seed": self.fault_seed,
            "hedge": self.hedge,
            "health": _health_to_dict(self.health),
            "fast_forward": self.fast_forward,
            "sanitize": self.sanitize,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "StackConfig":
        """Rebuild a config from a :meth:`to_dict` payload."""
        return cls(**payload)

    #: Legacy build_stack kwarg spellings -> config field names.
    _LEGACY_KWARGS = {"fs_class": "fs", "writeback_config": "writeback"}

    @classmethod
    def from_kwargs(cls, **kwargs) -> "StackConfig":
        """A config from ``build_stack``'s historical keyword surface."""
        mapped = {
            cls._LEGACY_KWARGS.get(key, key): value for key, value in kwargs.items()
        }
        return cls(**mapped)


# ---------------------------------------------------------------------------
# cluster-level configuration (the sharded simulation core)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TenantContract:
    """One tenant's Split-Token contract, enforced on every node.

    ``rate_per_node`` is the normalized-bytes/second cap the tenant's
    local account is throttled to on each node it touches (None means
    unthrottled — the tenant competes freely).  The cluster-wide write
    bound follows as ``(rate_per_node / replication) * nodes``, exactly
    the dashed upper bound of the paper's Figure 21.
    """

    name: str
    rate_per_node: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "rate_per_node": self.rate_per_node}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TenantContract":
        return cls(**payload)


@dataclass(frozen=True)
class ClusterConfig:
    """A fleet of simulated machines plus topology and tenant contracts.

    Where :class:`StackConfig` describes one machine, a ClusterConfig
    describes *N* of them: a node template (``node``), per-node
    overrides for heterogeneous fleets (``node_overrides`` — e.g. a
    fault plan targeting only a subset of nodes), the replication
    factor and block/chunk sizes of the pipelined write path, the
    inter-node ``link_latency`` (which bounds the conservative sync
    window: shards advance in lockstep epochs no wider than the
    minimum cross-shard link latency), and the tenants whose
    Split-Token contracts every node enforces locally.

    Like StackConfig it is pure description — :mod:`repro.sim.shard`
    builds the actual per-shard environments from it, and
    :meth:`to_dict` / :meth:`from_dict` round-trip it across process
    boundaries so shard workers rebuild identical fleets.
    """

    nodes: int = 7
    node: StackConfig = field(
        default_factory=lambda: StackConfig(scheduler="split-token")
    )
    #: Per-node template overrides: ((node_index, StackConfig), ...).
    node_overrides: Tuple[Tuple[int, StackConfig], ...] = ()
    replication: int = 3
    block_size: int = 64 * MB
    chunk: int = 1 * MB
    #: One-way inter-node message latency in seconds; also the upper
    #: bound on the epoch width of the conservative sync protocol.
    link_latency: float = 0.5e-3
    tenants: Tuple[TenantContract, ...] = ()
    #: Seed for block placement (NameNode-style replica choice).
    seed: int = 0

    def __post_init__(self):
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")
        if not 1 <= self.replication <= self.nodes:
            raise ValueError(
                f"replication {self.replication} outside [1, {self.nodes}]"
            )
        if self.link_latency <= 0:
            raise ValueError(f"link_latency must be positive, got {self.link_latency}")
        if self.block_size < self.chunk:
            raise ValueError("block_size must be >= chunk")
        for index, _config in self.node_overrides:
            if not 0 <= index < self.nodes:
                raise ValueError(f"node_overrides index {index} outside the fleet")
        names = [tenant.name for tenant in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")

    def node_config(self, index: int) -> StackConfig:
        """The effective StackConfig of node *index* (template + override)."""
        for override_index, config in self.node_overrides:
            if override_index == index:
                return config
        return self.node

    def contract(self, name: str) -> Optional[TenantContract]:
        """The tenant contract named *name*, or None if unknown."""
        for tenant in self.tenants:
            if tenant.name == name:
                return tenant
        return None

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-friendly payload; :meth:`from_dict` round-trips it."""
        return {
            "nodes": self.nodes,
            "node": self.node.to_dict(),
            "node_overrides": [
                [index, config.to_dict()] for index, config in self.node_overrides
            ],
            "replication": self.replication,
            "block_size": self.block_size,
            "chunk": self.chunk,
            "link_latency": self.link_latency,
            "tenants": [tenant.to_dict() for tenant in self.tenants],
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ClusterConfig":
        payload = dict(payload)
        payload["node"] = StackConfig.from_dict(payload["node"])
        payload["node_overrides"] = tuple(
            (index, StackConfig.from_dict(config))
            for index, config in payload.get("node_overrides") or ()
        )
        payload["tenants"] = tuple(
            TenantContract.from_dict(t) for t in payload.get("tenants") or ()
        )
        return cls(**payload)

    def replace(self, **changes) -> "ClusterConfig":
        """A copy with *changes* applied (frozen-dataclass update)."""
        return dataclasses.replace(self, **changes)
