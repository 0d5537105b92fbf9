"""Shared fixtures for the test suite."""

from __future__ import annotations

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
def panel_expansions(monkeypatch) -> list[int]:
    """Every expansion of the grid family's width table to ranks
    (``core.cosma._PanelExchange.expand``), as the number of table rows --
    rounds -- it added at once."""
    from repro.core import cosma

    expansions: list[int] = []
    expand = cosma._PanelExchange.expand

    def recording(self, data, rows):
        expansions.append(len(rows))
        expand(self, data, rows)

    monkeypatch.setattr(cosma._PanelExchange, "expand", recording)
    return expansions
