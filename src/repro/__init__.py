"""repro -- full reproduction of "Cross-layer Energy and Performance
Evaluation of a Nanophotonic Manycore Processor System using Real
Application Workloads" (Kurian et al., IPDPS 2012).

The package is organized bottom-up, mirroring the paper's stack:

* :mod:`repro.tech`        -- device/circuit energy, power and area models
  (11 nm transistors, DSENT-like electrical blocks, photonics, McPAT-like
  caches, first-order core power).
* :mod:`repro.network`     -- event-driven on-chip network simulator:
  electrical meshes (EMesh-Pure / EMesh-BCast) and the hybrid ATAC/ATAC+
  network (ENet + adaptive-SWMR ONet + BNet/StarNet) with cluster- and
  distance-based routing.
* :mod:`repro.coherence`   -- private L1/L2 caches, the ACKwise_k and
  Dir_kB limited-directory protocols, sequence-number ordering, and
  memory controllers.
* :mod:`repro.sim`         -- the Graphite-like full-system simulator that
  ties cores, caches, directories and networks together with real
  back-pressure.
* :mod:`repro.workloads`   -- synthetic SPLASH-2 / dynamic-graph traffic
  models calibrated to the paper's per-application signatures.
* :mod:`repro.energy`      -- the energy/EDP/area accounting that combines
  event counters with per-event energies and static power.
* :mod:`repro.experiments` -- one driver per paper table/figure.
"""

import os

__version__ = "1.0.0"


def env_flag(name: str) -> bool:
    """Whether environment variable ``name`` is ``1``/``true``/``on``
    (any case); read at call time.  The one parser of the boolean
    ``REPRO_SANITIZE`` / ``REPRO_TELEMETRY`` switches."""
    return os.environ.get(name, "").lower() in ("1", "true", "on")
