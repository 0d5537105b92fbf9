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

    Every round class that ``core.cosma.fiber_exchange_rounds`` yields to
    ``post_fiber_exchange`` appends the module it was written in (one entry
    per class delta of size p written: the grid family writes them only under
    a tracer, an untraced run of it writes none), and expanding a schedule
    into a transfer list -- reaching ``CommCounters.post_transfers`` -- fails
    the test.
    """
    from repro.core import cosma
    from repro.machine import counters

    def forbidden(*args, **kwargs):
        raise AssertionError("the run expanded its schedule into a transfer list")

    monkeypatch.setattr(counters.CommCounters, "post_transfers", forbidden)
    posts: list[str] = []
    fiber_exchange_rounds = cosma.fiber_exchange_rounds

    def recording(*args):
        for rounds, delta in fiber_exchange_rounds(*args):
            posts.append(fiber_exchange_rounds.__module__)
            yield rounds, delta

    monkeypatch.setattr(cosma, "fiber_exchange_rounds", recording)
    return posts


@pytest.fixture
def panel_exchange(monkeypatch) -> SimpleNamespace:
    """The grid family's panel exchange, observed.

    ``classes`` lists the rounds of every window of the exchange summed for
    one expansion (``CosmaDecomposition.exchange_sums(first, stop)``: one
    round per round class, only under a tracer; an untraced run reads the
    whole exchange's sums, no window), and ``expansions`` counts the
    expansions to ranks (``core.cosma._FiberExpansion.expand``: one per
    untraced run).
    """
    from repro.core import cosma
    from repro.core.decomposition import CosmaDecomposition

    seen = SimpleNamespace(classes=[], expansions=0)
    exchange_sums, expand = CosmaDecomposition.exchange_sums, cosma._FiberExpansion.expand

    def recording_sums(decomposition, first=0, stop=None):
        if stop is not None:
            seen.classes.append(stop - first)
        return exchange_sums(decomposition, first, stop)

    def recording_expand(self, *args):
        seen.expansions += 1
        expand(self, *args)

    monkeypatch.setattr(CosmaDecomposition, "exchange_sums", recording_sums)
    monkeypatch.setattr(cosma._FiberExpansion, "expand", recording_expand)
    return seen
