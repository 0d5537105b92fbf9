"""Shared fixtures for the test suite."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for reproducible tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def fast_retry(monkeypatch) -> None:
    """Campaign retries back off 0.01 s plus up to 0.005 s of jitter, not 0.05 s."""
    from repro.sweeps import runner

    monkeypatch.setattr(runner, "BACKOFF_S", 0.01)
    monkeypatch.setattr(runner, "JITTER_S", 0.005)


@pytest.fixture
def small_matrices(rng) -> tuple[np.ndarray, np.ndarray]:
    """A small rectangular pair (A: 24x18, B: 18x30)."""
    return rng.standard_normal((24, 18)), rng.standard_normal((18, 30))


@pytest.fixture
def square_matrices(rng) -> tuple[np.ndarray, np.ndarray]:
    """A square pair (32x32)."""
    return rng.standard_normal((32, 32)), rng.standard_normal((32, 32))


@pytest.fixture
def class_posts(monkeypatch) -> list[str]:
    """The batched engines' class deltas, observed.

    Every ``post_class`` call that ``DistributedMachine.round_classes`` makes
    appends the module the callback lives in (one entry per class delta of
    size p written: the grid family writes them only under a tracer, an
    untraced run of it writes none), and expanding a schedule into a transfer
    list -- reaching ``CommCounters.post_transfers`` -- fails the test.
    """
    from repro.machine import counters
    from repro.machine.simulator import DistributedMachine

    def forbidden(*args, **kwargs):
        raise AssertionError("the run expanded its schedule into a transfer list")

    monkeypatch.setattr(counters.CommCounters, "post_transfers", forbidden)
    posts: list[str] = []
    round_classes = DistributedMachine.round_classes

    def recording(self, table, post_class):
        def counted(delta, row):
            posts.append(post_class.__module__)
            post_class(delta, row)

        return round_classes(self, table, counted)

    monkeypatch.setattr(DistributedMachine, "round_classes", recording)
    return posts


@pytest.fixture
def panel_exchange(monkeypatch) -> SimpleNamespace:
    """The grid family's panel exchange, observed.

    ``tables`` lists the rows (rounds) of every width table built
    (``core.cosma._PanelExchange``, which only a tracer needs),
    ``table_sums`` the rows of every table slice summed for an expansion (one
    row per round class under a tracer), and ``expansions`` counts the
    expansions to ranks (``core.cosma._FiberExpansion.expand``: one per
    untraced run, whose sums are read off the boundary arrays).
    """
    from repro.core import cosma

    seen = SimpleNamespace(tables=[], table_sums=[], expansions=0)
    init, sums, expand = (cosma._PanelExchange.__init__, cosma._PanelExchange.sums,
                          cosma._FiberExpansion.expand)

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        seen.tables.append(len(self.table))

    def recording_sums(self, rows):
        seen.table_sums.append(len(rows))
        return sums(self, rows)

    def recording_expand(self, *args):
        seen.expansions += 1
        expand(self, *args)

    monkeypatch.setattr(cosma._PanelExchange, "__init__", recording_init)
    monkeypatch.setattr(cosma._PanelExchange, "sums", recording_sums)
    monkeypatch.setattr(cosma._FiberExpansion, "expand", recording_expand)
    return seen
