"""Event-driven on-chip network models.

Implements the paper's three evaluated networks, the original-ATAC
components needed for the ablations, and two further registered
architectures that bracket the hybrid design:

* :class:`repro.network.mesh.EMeshPure`   -- plain electrical mesh
  (broadcasts become N-1 serialized unicasts).
* :class:`repro.network.mesh.EMeshBCast`  -- electrical mesh with native
  router multicast (spanning-tree broadcast).
* :class:`repro.network.atac.AtacNetwork` -- the hybrid network: ENet
  electrical mesh + ONet adaptive-SWMR optical broadcast ring +
  per-cluster BNet or StarNet receive network, with cluster-based or
  distance-based unicast routing.
* :class:`repro.network.corona.CoronaNetwork` -- all-optical MWSR
  crossbar (receiver-owned channels, token arbitration).
* :class:`repro.network.hermes.HermesNetwork` -- hierarchical two-level
  optical broadcast over an electrical unicast mesh.

Every architecture is bound to its energy/area models and experiment
axes by a :class:`repro.network.registry.NetworkDescriptor`; the rest
of the system resolves networks through :mod:`repro.network.registry`
rather than dispatching on name strings.

All networks share one timing methodology (packet-level wormhole
approximation with per-port resource reservation, see
:mod:`repro.network.engine`) and one counter vocabulary
(:mod:`repro.network.stats`) that the energy layer consumes.
"""

from repro.network.types import Packet, TrafficClass, BROADCAST
from repro.network.topology import MeshTopology
from repro.network.stats import NetworkStats
from repro.network.engine import PortResource, MultiPortResource, Network
from repro.network.routing import (
    RoutingPolicy,
    ClusterRouting,
    DistanceRouting,
    distance_all,
)
from repro.network.mesh import EMeshPure, EMeshBCast
from repro.network.onet import AdaptiveSWMRLink, LaserMode
from repro.network.cluster_nets import ReceiveNetwork
from repro.network.atac import AtacNetwork
from repro.network.corona import CoronaNetwork
from repro.network.hermes import HermesNetwork, hermes_regions
from repro.network.registry import (
    NETWORK_CHOICES,
    NetworkDescriptor,
    UnknownNetworkError,
    experiment_axis,
    get_network,
    network_names,
    receive_net_kind,
    register,
)
from repro.network.analytic import AnalyticModel

__all__ = [
    "Packet",
    "TrafficClass",
    "BROADCAST",
    "MeshTopology",
    "NetworkStats",
    "PortResource",
    "MultiPortResource",
    "Network",
    "RoutingPolicy",
    "ClusterRouting",
    "DistanceRouting",
    "distance_all",
    "EMeshPure",
    "EMeshBCast",
    "AdaptiveSWMRLink",
    "LaserMode",
    "ReceiveNetwork",
    "AtacNetwork",
    "CoronaNetwork",
    "HermesNetwork",
    "hermes_regions",
    "NETWORK_CHOICES",
    "NetworkDescriptor",
    "UnknownNetworkError",
    "experiment_axis",
    "get_network",
    "network_names",
    "receive_net_kind",
    "register",
    "AnalyticModel",
]
