"""Machine model: the distributed machine simulator.

The paper's experiments measure two kinds of data movement:

* **vertical I/O** -- transfers between a small-and-fast and a large-and-slow
  memory on a single processor.  That is the red-blue pebble game itself,
  counted by :class:`repro.pebbling.game.PebbleGame` (the sequential kernels
  of :mod:`repro.sequential` play their schedules on it).
* **horizontal I/O** -- words communicated between processors of a distributed
  machine.  This is modelled by :class:`repro.machine.simulator.DistributedMachine`
  whose communication layer counts every word moved, playing the role of the
  mpiP profiler used in the paper.
"""

from repro.machine.counters import COUNTER_FIELDS, CommCounters, ConservationError
from repro.machine.simulator import DistributedMachine, Rank
from repro.machine.topology import MachineSpec, PIZ_DAINT_LIKE, laptop_spec
from repro.machine.transport import MODES, ShapeToken, Transport, make_transport
from repro.machine.tree import BroadcastTree, binomial_tree, topology_aware_tree

__all__ = [
    "DistributedMachine",
    "Rank",
    "CommCounters",
    "COUNTER_FIELDS",
    "ConservationError",
    "MODES",
    "ShapeToken",
    "Transport",
    "make_transport",
    "MachineSpec",
    "PIZ_DAINT_LIKE",
    "laptop_spec",
    "BroadcastTree",
    "binomial_tree",
    "topology_aware_tree",
]
