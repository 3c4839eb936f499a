"""Solid-state drive model: per-op latency + bandwidth, no seeks.

Defaults approximate the paper's Intel X25-M: reads ~250 MB/s,
writes ~80 MB/s, microsecond access latency, negligible random
penalty, ten flash channels (the X25-M's 10-channel controller).

Channel model: a lone request stripes across all channels, so the
bandwidth figures above are aggregate and depth-1 behaviour matches
the classic serial model exactly.  When the dispatch engine keeps
several requests in service concurrently, each still pays its full
access latency (latencies overlap — the NCQ win) but the transfer
phases share the aggregate bandwidth, so bandwidth-bound streams do
not scale past the device's ceiling while latency-bound small I/O
does.
"""

from __future__ import annotations

from repro.devices.base import Device
from repro.units import MB, PAGE_SIZE


class SSD(Device):
    """Flash device: flat latency, read/write bandwidth asymmetry."""

    def __init__(
        self,
        capacity_blocks: int = 20 * 1024 * 1024,  # 80 GB of 4 KB blocks
        name: str = "ssd",
        read_latency: float = 50e-6,
        write_latency: float = 150e-6,
        read_bandwidth: float = 250 * MB,
        write_bandwidth: float = 80 * MB,
        channels: int = 10,
    ):
        super().__init__(capacity_blocks, name=name, channels=channels)
        self.read_latency = read_latency
        self.write_latency = write_latency
        self.read_bandwidth = read_bandwidth
        self.write_bandwidth = write_bandwidth

    def service_time(self, op: str, block: int, nblocks: int) -> float:
        self._check_bounds(block, nblocks)
        nbytes = nblocks * PAGE_SIZE
        # Transfer phases of concurrently-served requests share the
        # aggregate bandwidth; `contenders` stays the int 1 when the
        # device is serving serially so the arithmetic below is
        # bit-identical to the classic single-slot model.
        contenders = min(self.channels, self.active) if self.active > 1 else 1
        if op == "read":
            duration = self.read_latency + nbytes * contenders / self.read_bandwidth
        else:
            duration = self.write_latency + nbytes * contenders / self.write_bandwidth
        self._last_block_end = block + nblocks
        self._account(op, nblocks, duration)
        return duration
