"""Full-system configuration (paper Table I) and network factory.

Network architectures are resolved through
:mod:`repro.network.registry`: validation, the factory and the
energy/area bindings all read one :class:`NetworkDescriptor` per
network, so adding an architecture is a single registration there.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace

from repro.coherence.directory import Protocol
from repro.network.engine import Network
from repro.network.registry import NETWORK_CHOICES, get_network
from repro.network.topology import MeshTopology

__all__ = ["NETWORK_CHOICES", "SystemConfig", "make_network"]


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to instantiate a :class:`ManycoreSystem`.

    Defaults are the paper's Table I at full 1024-core scale; tests use
    ``scaled()`` to shrink the chip and the caches proportionally.
    """

    # -- chip geometry ---------------------------------------------------
    mesh_width: int = 32
    cluster_width: int = 4

    # -- network ----------------------------------------------------------
    network: str = "atac+"
    flit_bits: int = 64
    rthres: int = 15                  # distance-routing threshold (ATAC+)
    receive_net: str = "starnet"      # "starnet" (ATAC+) | "bnet" (ATAC)
    starnets_per_cluster: int = 2

    # -- memory hierarchy --------------------------------------------------
    l1_sets: int = 128                # 32 KB, 4-way, 64 B lines
    l1_ways: int = 4
    l2_sets: int = 512                # 256 KB, 8-way
    l2_ways: int = 8
    l1_hit_latency: int = 1
    l2_hit_latency: int = 8
    fill_latency: int = 2
    dir_latency: int = 3
    mem_latency: int = 100            # 100 ns at 1 GHz
    mem_bytes_per_cycle: float = 5.0  # 5 GB/s per controller

    # -- coherence ----------------------------------------------------------
    protocol: Protocol = Protocol.ACKWISE
    hardware_sharers: int = 4         # ACKwise_4 unless stated otherwise
    sequencing: bool = True

    freq_hz: float = 1e9

    def __post_init__(self) -> None:
        descriptor = get_network(self.network)  # raises UnknownNetworkError
        if self.receive_net not in descriptor.valid_receive_nets:
            raise ValueError(f"bad receive_net {self.receive_net!r}")
        if self.flit_bits <= 0:
            raise ValueError("flit_bits must be positive")
        if self.cluster_width >= 1:  # else MeshTopology rejects it
            n_clusters = (self.mesh_width // self.cluster_width) ** 2
            if n_clusters < descriptor.min_clusters:
                raise ValueError(
                    f"network {self.network!r} needs min_clusters="
                    f"{descriptor.min_clusters}, but a {self.mesh_width}x"
                    f"{self.mesh_width} mesh of {self.cluster_width}x"
                    f"{self.cluster_width} clusters has {n_clusters}"
                )

    @property
    def topology(self) -> MeshTopology:
        return MeshTopology(width=self.mesh_width, cluster_width=self.cluster_width)

    @property
    def n_cores(self) -> int:
        return self.mesh_width * self.mesh_width

    def to_dict(self) -> dict:
        """JSON-serializable snapshot (enum fields become their values)."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["protocol"] = self.protocol.value
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "SystemConfig":
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in d.items() if k in known}
        if isinstance(kwargs.get("protocol"), str):
            kwargs["protocol"] = Protocol(kwargs["protocol"])
        return cls(**kwargs)

    def content_hash(self) -> str:
        """Deterministic digest of every field; two configs with equal
        hashes instantiate behaviourally identical systems."""
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:24]

    def scaled(self, mesh_width: int, cluster_width: int = 4, **overrides) -> "SystemConfig":
        """A smaller chip with caches shrunk in proportion, for tests.

        Keeping cache capacity per core fixed while shrinking the core
        count (and trace lengths) would make everything fit and no
        traffic flow; scaling keeps miss behaviour representative.
        """
        scale = max(1, (32 * 32) // (mesh_width * mesh_width))
        return replace(
            self,
            mesh_width=mesh_width,
            cluster_width=cluster_width,
            l1_sets=max(4, self.l1_sets // scale),
            l2_sets=max(8, self.l2_sets // scale),
            **overrides,
        )


def make_network(config: SystemConfig) -> Network:
    """Instantiate the configured network architecture."""
    return get_network(config.network).build(config)
