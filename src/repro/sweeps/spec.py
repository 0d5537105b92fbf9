"""Declarative sweep specifications and their deterministic expansion.

A :class:`SweepSpec` describes a campaign the way the paper describes its
benchmarks: shape families x scaling regimes x core counts x a per-core
memory size, times a set of algorithms, under one transport mode.  Expansion
reuses the scaling generators of :mod:`repro.workloads.scaling` (strong /
limited / extra, section 8) so a spec point means exactly what the
figure-reproduction benchmarks mean by it.  Explicit :class:`Scenario` points
can be added on top of (or instead of) the generated grid.

Expansion order is deterministic -- scenarios in specification order,
algorithms innermost -- which is what makes parallel campaigns reproduce the
serial row order (``tests/test_sweeps_runner.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

from repro.algorithms import DEFAULT_ALGORITHMS, resolve_algorithm
from repro.machine.transport import MODES, PLANE_DTYPES
from repro.sweeps.store import run_key, scenario_from_dict, scenario_to_dict
from repro.workloads.scaling import (
    Scenario,
    extra_memory_sweep,
    limited_memory_sweep,
    shape_for_footprint,
    strong_scaling_sweep,
)

FAMILIES = ("square", "largeK", "largeM", "flat")
REGIMES = ("strong", "limited", "extra")


@dataclass(frozen=True)
class RunRequest:
    """One executable point of a campaign: algorithm x scenario x mode.

    ``shards`` is accepted and ignored (every product is computed in
    process; it stays while the benchmark ledger passes it), so counters and
    products are identical across shard counts and it deliberately does not
    participate in :attr:`key` -- a cached one-shard record answers a sharded
    request and vice versa.  The same holds for the campaign's worker count
    (see the contract in :mod:`repro.sweeps`).

    ``plane_dtype`` *does* participate in the key: a float32 run's product
    (and verification outcome) is not interchangeable with a float64 run's.
    """

    algorithm: str
    scenario: Scenario
    mode: str = "volume"
    seed: int = 0
    verify: bool = True
    shards: int = 1
    plane_dtype: str = "float64"

    @cached_property
    def key(self) -> str:
        """The run's identity digest, derived once per request object (a
        campaign reads it four times per request; ``dataclasses.replace``
        yields a fresh object and a fresh key).  Not a field: equality,
        hashing, ``repr`` and :meth:`to_dict` never see it."""
        return run_key(
            self.algorithm, self.scenario, self.mode, self.seed, self.verify,
            plane_dtype=self.plane_dtype,
        )

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "scenario": scenario_to_dict(self.scenario),
            "mode": self.mode,
            "seed": self.seed,
            "verify": self.verify,
            "shards": self.shards,
            "plane_dtype": self.plane_dtype,
        }


def request_from_dict(data: Mapping) -> RunRequest:
    return RunRequest(
        algorithm=data["algorithm"],
        scenario=scenario_from_dict(data["scenario"]),
        mode=data["mode"],
        seed=data["seed"],
        verify=data["verify"],
        shards=int(data.get("shards", 1)),
        plane_dtype=str(data.get("plane_dtype", "float64")),
    )


@dataclass(frozen=True)
class SweepSpec:
    """A declarative scenario grid plus the algorithms and mode to run it under.

    ``families x regimes x p_values`` expands through the section-8 scaling
    generators at ``memory_words`` words per core; ``points`` appends explicit
    scenarios (used e.g. by the benchmark suite, whose strong-scaling shapes
    are pinned).  Duplicate scenarios (same derived name) are dropped,
    first occurrence wins.
    """

    name: str = "sweep"
    algorithms: tuple[str, ...] = DEFAULT_ALGORITHMS
    families: tuple[str, ...] = ("square",)
    regimes: tuple[str, ...] = ("limited",)
    p_values: tuple[int, ...] = (4, 16, 36)
    memory_words: int = 2048
    mode: str = "volume"
    seed: int = 0
    verify: bool = True
    shards: int = 1
    plane_dtype: str = "float64"
    points: tuple[Scenario, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        # Canonicalize through the registry (raises UnknownAlgorithmError, a
        # KeyError, for unknown names) so aliases like "SUMMA" produce the
        # same run keys as their canonical name.
        object.__setattr__(
            self, "algorithms",
            tuple(resolve_algorithm(a) for a in self.algorithms),
        )
        for family in self.families:
            if family not in FAMILIES:
                raise ValueError(f"unknown family {family!r}; known: {FAMILIES}")
        for regime in self.regimes:
            if regime not in REGIMES:
                raise ValueError(f"unknown regime {regime!r}; known: {REGIMES}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; known: {MODES}")
        if self.plane_dtype not in PLANE_DTYPES:
            raise ValueError(
                f"unknown plane_dtype {self.plane_dtype!r}; known: {PLANE_DTYPES}"
            )

    # -- scenario grid ------------------------------------------------------
    def scenarios(self) -> list[Scenario]:
        """The deduplicated scenario list, in deterministic grid order."""
        scenarios: list[Scenario] = []
        seen: set[str] = set()
        for family in self.families:
            for regime in self.regimes:
                for scenario in self._regime_scenarios(family, regime):
                    if scenario.name not in seen:
                        seen.add(scenario.name)
                        scenarios.append(scenario)
        for scenario in self.points:
            if scenario.name not in seen:
                seen.add(scenario.name)
                scenarios.append(scenario)
        return scenarios

    def _regime_scenarios(self, family: str, regime: str) -> list[Scenario]:
        if not self.p_values:
            return []
        if regime == "strong":
            # Same derivation as all_regime_sweeps: the strong-scaling shape
            # fills half the aggregate memory at the largest core count.
            shape = shape_for_footprint(family, max(self.p_values) * self.memory_words / 2.0)
            return strong_scaling_sweep(shape, list(self.p_values), memory_words=self.memory_words)
        if regime == "limited":
            return limited_memory_sweep(family, list(self.p_values), self.memory_words)
        return extra_memory_sweep(family, list(self.p_values), self.memory_words)

    def expand(self) -> list[RunRequest]:
        """Every run of the campaign: scenario-major, algorithm-minor order."""
        return [
            RunRequest(
                algorithm=algorithm,
                scenario=scenario,
                mode=self.mode,
                seed=self.seed,
                verify=self.verify,
                shards=self.shards,
                plane_dtype=self.plane_dtype,
            )
            for scenario in self.scenarios()
            for algorithm in self.algorithms
        ]

    # -- (de)serialization --------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "algorithms": list(self.algorithms),
            "families": list(self.families),
            "regimes": list(self.regimes),
            "p_values": list(self.p_values),
            "memory_words": self.memory_words,
            "mode": self.mode,
            "seed": self.seed,
            "verify": self.verify,
            "shards": self.shards,
            "plane_dtype": self.plane_dtype,
            "points": [scenario_to_dict(s) for s in self.points],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SweepSpec":
        """Build a spec from a plain dict (e.g. a JSON file); unknown keys raise."""
        known = {
            "name", "algorithms", "families", "regimes", "p_values",
            "memory_words", "mode", "seed", "verify", "shards",
            "plane_dtype", "points",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown SweepSpec fields: {sorted(unknown)}")
        kwargs: dict = dict(data)
        for tuple_field in ("algorithms", "families", "regimes", "p_values"):
            if tuple_field in kwargs:
                kwargs[tuple_field] = tuple(kwargs[tuple_field])
        if "points" in kwargs:
            kwargs["points"] = tuple(scenario_from_dict(s) for s in kwargs["points"])
        return cls(**kwargs)


def spec_from_scenarios(
    scenarios: Sequence[Scenario],
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    mode: str = "volume",
    seed: int = 0,
    verify: bool = True,
    name: str = "explicit",
) -> SweepSpec:
    """Wrap an explicit scenario list (no generated grid) into a spec."""
    return SweepSpec(
        name=name,
        algorithms=tuple(algorithms),
        families=(),
        regimes=(),
        p_values=(),
        mode=mode,
        seed=seed,
        verify=verify,
        points=tuple(scenarios),
    )
