"""Red-blue pebble game executor.

Hong & Kung's red-blue pebble game (section 2.2 of the paper) models a
two-level memory: a red pebble on a vertex means its value is in fast memory,
a blue pebble means it is in slow memory.  At most ``S`` red pebbles may be in
use at any time.  The legal moves are:

``load``
    place a red pebble on a vertex that carries a blue pebble;
``store``
    place a blue pebble on a vertex that carries a red pebble;
``compute``
    place a red pebble on a vertex all of whose parents carry red pebbles;
``free``
    remove any pebble from any vertex.

A *complete calculation* starts with blue pebbles exactly on the CDAG inputs
and ends with blue pebbles on all outputs.  Its I/O cost ``Q`` is the number
of loads plus stores.  The executor below validates every move and counts the
I/O, so any schedule the library generates can be checked for *legality* and
its measured cost compared against the lower bounds of
:mod:`repro.pebbling.mmm_bounds`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

from repro.pebbling.cdag import CDAG, Vertex


class Move(str, Enum):
    """The four legal move types of the red-blue pebble game."""

    LOAD = "load"
    STORE = "store"
    COMPUTE = "compute"
    FREE_RED = "free_red"
    FREE_BLUE = "free_blue"


@dataclass(frozen=True)
class PebbleMove:
    """A single move: ``(kind, vertex)``."""

    kind: Move
    vertex: Vertex


class IllegalMoveError(RuntimeError):
    """Raised when a schedule attempts an illegal pebble-game move."""


@dataclass
class PebblingResult:
    """Outcome of executing a full pebbling schedule."""

    loads: int = 0
    stores: int = 0
    computes: int = 0
    max_red_in_use: int = 0
    moves_executed: int = 0
    complete: bool = False
    missing_outputs: frozenset = field(default_factory=frozenset)

    @property
    def io(self) -> int:
        """Total I/O cost ``Q`` = loads + stores."""
        return self.loads + self.stores


class PebbleGame:
    """Stateful red-blue pebble game on a CDAG with ``S`` red pebbles.

    Parameters
    ----------
    cdag:
        The computational DAG to pebble.
    red_pebbles:
        The fast-memory capacity ``S``.
    initial_blue:
        Vertices initially carrying blue pebbles; defaults to ``cdag.inputs``
        as required by the game's initial configuration.
    """

    def __init__(
        self,
        cdag: CDAG,
        red_pebbles: int,
        initial_blue: Iterable[Vertex] | None = None,
    ) -> None:
        if red_pebbles <= 0:
            raise ValueError(f"red_pebbles must be positive, got {red_pebbles}")
        self.cdag = cdag
        self.capacity = int(red_pebbles)
        self.red: set[Vertex] = set()
        self.blue: set[Vertex] = set(cdag.inputs if initial_blue is None else initial_blue)
        unknown = [v for v in self.blue if v not in cdag]
        if unknown:
            raise KeyError(f"initial blue pebbles on unknown vertices: {unknown!r}")
        self.result = PebblingResult()
        #: Vertices that have ever been computed (had a red pebble via compute).
        self.computed: set[Vertex] = set()

    # -- individual moves ---------------------------------------------------
    def load(self, v: Vertex) -> None:
        """Place a red pebble on ``v`` which must carry a blue pebble."""
        self._check_vertex(v)
        if v in self.red:
            return
        if v not in self.blue:
            raise IllegalMoveError(f"load of {v!r}: vertex has no blue pebble")
        self._check_capacity()
        self.red.add(v)
        self.result.loads += 1
        self._track()

    def store(self, v: Vertex) -> None:
        """Place a blue pebble on ``v`` which must carry a red pebble."""
        self._check_vertex(v)
        if v not in self.red:
            raise IllegalMoveError(f"store of {v!r}: vertex has no red pebble")
        if v in self.blue:
            return
        self.blue.add(v)
        self.result.stores += 1
        self._track()

    def compute(self, v: Vertex) -> None:
        """Place a red pebble on ``v`` whose parents must all carry red pebbles."""
        self._check_vertex(v)
        parents = self.cdag.parents(v)
        if not parents:
            raise IllegalMoveError(
                f"compute of {v!r}: vertex is an input and cannot be computed"
            )
        missing = [p for p in parents if p not in self.red]
        if missing:
            raise IllegalMoveError(
                f"compute of {v!r}: parents without red pebbles: {missing!r}"
            )
        if v not in self.red:
            self._check_capacity()
            self.red.add(v)
        self.result.computes += 1
        self.computed.add(v)
        self._track()

    def free_red(self, v: Vertex) -> None:
        """Remove the red pebble from ``v`` (no-op if absent)."""
        self.red.discard(v)

    def free_blue(self, v: Vertex) -> None:
        """Remove the blue pebble from ``v`` (no-op if absent)."""
        self.blue.discard(v)

    # -- schedule execution ----------------------------------------------------
    def run(self, moves: Sequence[PebbleMove]) -> PebblingResult:
        """Execute a full move sequence and return the accumulated result.

        Moves run one at a time through :meth:`load` / :meth:`store` /
        :meth:`compute` / :meth:`free_red` / :meth:`free_blue`, so an illegal
        move raises with every earlier move applied.  After the run,
        :attr:`PebblingResult.complete` records whether every CDAG output
        ended up with a blue pebble (i.e. whether this was a *complete
        calculation*).
        """
        dispatch = {
            Move.LOAD: self.load,
            Move.STORE: self.store,
            Move.COMPUTE: self.compute,
            Move.FREE_RED: self.free_red,
            Move.FREE_BLUE: self.free_blue,
        }
        for move in moves:
            dispatch[move.kind](move.vertex)
            self.result.moves_executed += 1
        return self.finish()

    def finish(self) -> PebblingResult:
        """Finalize the result: check the terminal configuration."""
        outputs = self.cdag.outputs
        missing = frozenset(v for v in outputs if v not in self.blue)
        self.result.missing_outputs = missing
        self.result.complete = not missing
        return self.result

    # -- helpers -------------------------------------------------------------
    @property
    def red_in_use(self) -> int:
        return len(self.red)

    def _check_capacity(self) -> None:
        if len(self.red) + 1 > self.capacity:
            raise IllegalMoveError(
                f"cannot place another red pebble: {len(self.red)} already in use, capacity S={self.capacity}"
            )

    def _check_vertex(self, v: Vertex) -> None:
        if v not in self.cdag:
            raise KeyError(f"vertex {v!r} is not part of the CDAG")

    def _track(self) -> None:
        if len(self.red) > self.result.max_red_in_use:
            self.result.max_red_in_use = len(self.red)


def naive_pebbling(cdag: CDAG, red_pebbles: int) -> PebblingResult:
    """Pebble a CDAG by processing vertices in topological order.

    For every non-input vertex, all parents are loaded (if not resident), the
    vertex is computed, stored if it is an output, and then every red pebble
    whose children are all already computed is freed.  This is a simple but
    legal baseline pebbling used in tests to contrast against scheduled
    (I/O-aware) pebblings.
    """
    game = PebbleGame(cdag, red_pebbles)
    remaining_children = {v: len(cdag.children(v)) for v in cdag.vertices}
    outputs = cdag.outputs
    for v in cdag.topological_order():
        if v in cdag.inputs:
            continue
        for parent in cdag.parents(v):
            if parent not in game.red:
                if parent in game.blue:
                    game.load(parent)
                else:
                    raise IllegalMoveError(
                        f"naive pebbling needs parent {parent!r} which is neither red nor blue"
                    )
        game.compute(v)
        if v in outputs:
            game.store(v)
        # Free pebbles that are no longer needed.
        for parent in cdag.parents(v):
            remaining_children[parent] -= 1
            if remaining_children[parent] == 0:
                game.free_red(parent)
        if remaining_children[v] == 0:
            game.free_red(v)
    return game.finish()
