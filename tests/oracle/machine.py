"""The hop machine: the per-hop reference executors' simulated machine.

``p`` ranks, each a dict of named blocks, and counters kept as plain Python
integers: every transfer is one :meth:`HopMachine.send` that adds its words,
its message and (unless told otherwise) its round at both ends, every local
multiply or add its flops on its rank.  Resident words follow the blocks a
rank stores, and :meth:`HopMachine.check_memory` records their peak.  Every
round boundary records its round (label, words posted, flops, hops since the
previous boundary), so a traced engine run's round spans, each expanded by
its multiplicity, can be held to them round for round.

Nothing here reads an engine: from ``repro`` the machine uses
:class:`~repro.machine.counters.CommCounters` only, as the container its
counts are handed back in.
"""

from __future__ import annotations

import numpy as np

from repro.machine.counters import (
    COUNTER_FIELDS,
    FLOPS,
    INPUT_WORDS,
    MESSAGES_RECEIVED,
    MESSAGES_SENT,
    OUTPUT_WORDS,
    ROUNDS,
    WORDS_RECEIVED,
    WORDS_SENT,
    CommCounters,
)


def copy_of(block):
    """A private copy of an array payload; a shape token (no values) as is."""
    return np.array(block, copy=True) if isinstance(block, np.ndarray) else block


class HopMachine:
    """``p`` ranks with block stores, hop-by-hop counters and round records."""

    def __init__(self, p: int) -> None:
        self.p = int(p)
        self.cells = [[0] * self.p for _ in COUNTER_FIELDS]
        self.stores: list[dict[str, object]] = [{} for _ in range(self.p)]
        self.resident = [0] * self.p
        self.peak_resident_words = 0
        #: One record per round boundary: label, words posted, flops, hops.
        self.rounds: list[dict] = []
        self.hops = 0
        self._mark = (0, 0, 0)

    # -- ranks and their stores ------------------------------------------
    def check(self, rank: int) -> int:
        if not 0 <= rank < self.p:
            raise IndexError(f"rank {rank} out of range for machine with p={self.p}")
        return rank

    def put(self, rank: int, name: str, block) -> None:
        store = self.stores[self.check(rank)]
        old = store.get(name)
        store[name] = block
        self.resident[rank] += block.size - (0 if old is None else old.size)

    def get(self, rank: int, name: str):
        return self.stores[rank][name]

    def check_memory(self) -> int:
        worst = max(self.resident)
        self.peak_resident_words = max(self.peak_resident_words, worst)
        return worst

    # -- hops and local work -----------------------------------------------
    def send(self, src: int, dst: int, block, kind: str = "input", count_round: bool = True):
        """Move ``block`` from ``src`` to ``dst``; the receiver gets a private
        copy.  A send to oneself is free."""
        self.check(src)
        self.check(dst)
        if src == dst:
            return copy_of(block)
        words = int(block.size)
        cells = self.cells
        cells[WORDS_SENT][src] += words
        cells[WORDS_RECEIVED][dst] += words
        cells[MESSAGES_SENT][src] += 1
        cells[MESSAGES_RECEIVED][dst] += 1
        split = OUTPUT_WORDS if kind == "output" else INPUT_WORDS
        cells[split][src] += words
        cells[split][dst] += words
        if count_round:
            cells[ROUNDS][src] += 1
            cells[ROUNDS][dst] += 1
        self.hops += 1
        return copy_of(block)

    def tick(self, row: int, rank: int, amount: int = 1) -> None:
        self.cells[row][self.check(rank)] += int(amount)

    def multiply(self, rank: int, a_block, b_block, accumulate_into=None):
        """``a @ b`` on ``rank`` (``2 m n k`` flops), added into
        ``accumulate_into`` when given."""
        (m, k), (k2, n) = a_block.shape, b_block.shape
        if k != k2:
            raise ValueError(f"inner dimensions do not match: {a_block.shape} x {b_block.shape}")
        if accumulate_into is not None and accumulate_into.shape != (m, n):
            raise ValueError(f"accumulation buffer shape {accumulate_into.shape} "
                             f"does not match product {(m, n)}")
        self.tick(FLOPS, rank, 2 * m * n * k)
        product = np.asarray(a_block) @ np.asarray(b_block)
        if accumulate_into is None:
            return product
        accumulate_into += product
        return accumulate_into

    def add(self, rank: int, target, other):
        """``target += other`` on ``rank`` (a flop per word); shape tokens are
        only checked and counted."""
        if target.shape != other.shape:
            raise ValueError(f"shape mismatch in add: {target.shape} vs {other.shape}")
        self.tick(FLOPS, rank, target.size)
        if isinstance(target, np.ndarray):
            target += other
        return target

    # -- rounds ------------------------------------------------------------
    def boundary(self, label: str) -> None:
        """A round boundary: record what happened since the previous one."""
        words, flops = sum(self.cells[WORDS_SENT]), sum(self.cells[FLOPS])
        mark = (words, flops, self.hops)
        self.rounds.append({"label": label, "words_posted": words - self._mark[0],
                            "flops": flops - self._mark[1], "hops": self.hops - self._mark[2]})
        self._mark = mark

    @property
    def counters(self) -> CommCounters:
        """The counts so far, as an int64 counter matrix."""
        return CommCounters(np.array(self.cells, dtype=np.int64).reshape(len(COUNTER_FIELDS), self.p))
