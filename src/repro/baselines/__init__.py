"""State-of-the-art baseline algorithms re-implemented on the simulator.

* :mod:`repro.baselines.cannon` -- Cannon's 2D algorithm (square grids).
* :mod:`repro.baselines.summa` -- SUMMA, the 2D algorithm behind ScaLAPACK's
  ``PDGEMM`` (our ScaLAPACK stand-in).
* :mod:`repro.baselines.grid25d` -- the 2.5D/3D decomposition of Solomonik &
  Demmel (our CTF stand-in).
* :mod:`repro.baselines.carma` -- the recursive CARMA decomposition of Demmel
  et al.
* :mod:`repro.baselines.cuboid` -- a generic executor that runs any cuboidal
  domain decomposition on the simulator (used by CARMA and by ablations).
* :mod:`repro.baselines.costs` -- the analytic per-processor I/O and latency
  costs of Table 3 for the baselines (COSMA's I/O row is Theorem 2).
"""

from repro.baselines.cannon import cannon_multiply
from repro.baselines.carma import carma_domains, carma_multiply
from repro.baselines.costs import (
    io_cost_25d,
    io_cost_2d,
    io_cost_carma,
    latency_cost_25d,
    latency_cost_2d,
    latency_cost_carma,
)
from repro.baselines.cuboid import CuboidDomain, cuboid_multiply
from repro.baselines.grid25d import grid25d_multiply
from repro.baselines.summa import summa_multiply

__all__ = [
    "cannon_multiply",
    "summa_multiply",
    "grid25d_multiply",
    "carma_multiply",
    "carma_domains",
    "cuboid_multiply",
    "CuboidDomain",
    "io_cost_2d",
    "io_cost_25d",
    "io_cost_carma",
    "latency_cost_2d",
    "latency_cost_25d",
    "latency_cost_carma",
]
