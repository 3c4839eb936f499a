"""Composite device models: striped arrays and fault injection.

The paper situates block scheduling in a lineage that includes
multi-disk arrays; `RAID0` lets experiments run the same stack over a
stripe set.  `JitteryDevice` wraps any model with seeded latency
spikes — useful for stress-testing deadline schedulers' estimates.
"""

from __future__ import annotations

import random
from typing import List

from repro.devices.base import Device


class RAID0(Device):
    """Striping across N member devices (no redundancy).

    A request is split into per-member runs by the stripe unit; the
    service time is the slowest member's, since members work in
    parallel.  Sequential streams still benefit: each member sees a
    (sparser but ordered) sequential sub-stream.
    """

    def __init__(self, members: List[Device], stripe_blocks: int = 16, name: str = "raid0"):
        if not members:
            raise ValueError("RAID0 needs at least one member")
        if stripe_blocks <= 0:
            raise ValueError("stripe unit must be positive")
        capacity = min(m.capacity_blocks for m in members) * len(members)
        super().__init__(capacity_blocks=capacity, name=name)
        self.members = members
        self.stripe_blocks = stripe_blocks

    def attach_bus(self, bus, clock) -> None:
        """Adopt the bus on the array and every member device."""
        super().attach_bus(bus, clock)
        for member in self.members:
            member.attach_bus(bus, clock)

    def _locate(self, block: int):
        """Map an array block to (member index, member block)."""
        stripe = block // self.stripe_blocks
        within = block % self.stripe_blocks
        member = stripe % len(self.members)
        member_stripe = stripe // len(self.members)
        return member, member_stripe * self.stripe_blocks + within

    def service_time(self, op: str, block: int, nblocks: int) -> float:
        self._check_bounds(block, nblocks)
        # Split the request into contiguous per-member runs.
        per_member: dict = {}
        index = block
        remaining = nblocks
        while remaining > 0:
            member, member_block = self._locate(index)
            run = min(remaining, self.stripe_blocks - (index % self.stripe_blocks))
            start, length = per_member.get(member, (member_block, 0))
            if length == 0:
                per_member[member] = (member_block, run)
            else:
                per_member[member] = (start, length + run)
            index += run
            remaining -= run

        duration = max(
            self.members[m].service_time(op, start, length)
            for m, (start, length) in per_member.items()
        )
        self._last_block_end = block + nblocks
        self._account(op, nblocks, duration)
        return duration


class JitteryDevice(Device):
    """Wraps a device, adding seeded random latency spikes.

    With probability *spike_probability* a request takes an extra
    *spike_duration* seconds (a remapped sector, a recalibration, an
    SMR cache flush...).  Deterministic per seed.
    """

    def __init__(
        self,
        inner: Device,
        spike_probability: float = 0.01,
        spike_duration: float = 0.1,
        seed: int = 0,
    ):
        if not 0 <= spike_probability <= 1:
            raise ValueError("probability must be in [0, 1]")
        super().__init__(capacity_blocks=inner.capacity_blocks, name=f"jittery-{inner.name}")
        self.inner = inner
        self.channels = inner.channels  # transparent to multi-queue dispatch
        self.spike_probability = spike_probability
        self.spike_duration = spike_duration
        self._rng = random.Random(seed)
        self.spikes = 0

    def attach_bus(self, bus, clock) -> None:
        """Adopt the bus on the wrapper and the wrapped device."""
        super().attach_bus(bus, clock)
        self.inner.attach_bus(bus, clock)

    def begin_service(self) -> None:
        super().begin_service()
        self.inner.begin_service()

    def end_service(self) -> None:
        super().end_service()
        self.inner.end_service()

    def service_time(self, op: str, block: int, nblocks: int) -> float:
        duration = self.inner.service_time(op, block, nblocks)
        if self._rng.random() < self.spike_probability:
            duration += self.spike_duration
            self.spikes += 1
        self._last_block_end = block + nblocks
        self._account(op, nblocks, duration)
        return duration
