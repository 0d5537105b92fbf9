"""Tests for the declarative sweep specification and its expansion."""

import dataclasses
import pickle

import pytest

from repro.sweeps import spec as spec_module
from repro.sweeps.spec import FAMILIES, REGIMES, RunRequest, SweepSpec, request_from_dict, spec_from_scenarios
from repro.workloads.scaling import Scenario
from repro.workloads.shapes import square_shape


def small_spec(**overrides) -> SweepSpec:
    base = dict(
        name="unit",
        algorithms=("COSMA", "CARMA"),
        families=("square",),
        regimes=("limited",),
        p_values=(4, 9),
        memory_words=1024,
        mode="volume",
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestValidation:
    def test_unknown_algorithm_rejected(self):
        with pytest.raises(KeyError):
            small_spec(algorithms=("COSMA", "MAGMA"))

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            small_spec(families=("round",))

    def test_unknown_regime_rejected(self):
        with pytest.raises(ValueError):
            small_spec(regimes=("weak",))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            small_spec(mode="turbo")

    def test_known_constants_cover_generators(self):
        assert set(FAMILIES) == {"square", "largeK", "largeM", "flat"}
        assert set(REGIMES) == {"strong", "limited", "extra"}


class TestExpansion:
    def test_grid_size(self):
        spec = small_spec(families=("square", "largeK"), regimes=("limited", "extra"))
        assert len(spec.scenarios()) == 2 * 2 * 2
        assert len(spec.expand()) == 2 * 2 * 2 * 2

    def test_order_is_scenario_major(self):
        requests = small_spec().expand()
        assert [r.algorithm for r in requests] == ["COSMA", "CARMA", "COSMA", "CARMA"]
        assert requests[0].scenario == requests[1].scenario
        assert requests[0].scenario != requests[2].scenario

    def test_expansion_deterministic(self):
        a = [r.key for r in small_spec().expand()]
        b = [r.key for r in small_spec().expand()]
        assert a == b

    def test_strong_regime_derives_shape(self):
        spec = small_spec(regimes=("strong",))
        scenarios = spec.scenarios()
        assert all(s.regime == "strong" for s in scenarios)
        # strong scaling: one fixed shape across core counts
        assert len({(s.shape.m, s.shape.n, s.shape.k) for s in scenarios}) == 1

    def test_explicit_points_appended_and_deduplicated(self):
        point = Scenario(name="pin", shape=square_shape(16), p=4, memory_words=512, regime="strong")
        spec = small_spec(points=(point, point))
        names = [s.name for s in spec.scenarios()]
        assert names.count("pin") == 1
        assert names[-1] == "pin"

    def test_spec_from_scenarios_only_points(self):
        point = Scenario(name="only", shape=square_shape(16), p=4, memory_words=512, regime="strong")
        spec = spec_from_scenarios([point], algorithms=("COSMA",), mode="volume")
        assert [s.name for s in spec.scenarios()] == ["only"]
        assert len(spec.expand()) == 1


class TestSerialization:
    def test_roundtrip_preserves_expansion(self):
        point = Scenario(name="pin", shape=square_shape(16), p=4, memory_words=512, regime="strong")
        spec = small_spec(points=(point,))
        clone = SweepSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert [r.key for r in clone.expand()] == [r.key for r in spec.expand()]

    def test_unknown_field_rejected(self):
        data = small_spec().to_dict()
        data["cluster"] = "daint"
        with pytest.raises(ValueError):
            SweepSpec.from_dict(data)

    def test_request_roundtrip(self):
        request = small_spec().expand()[0]
        clone = request_from_dict(request.to_dict())
        assert clone == request
        assert clone.key == request.key


class TestKeys:
    def test_key_changes_with_every_identity_field(self):
        base = small_spec().expand()[0]
        variants = [
            RunRequest(algorithm="CARMA", scenario=base.scenario, mode=base.mode, seed=base.seed),
            RunRequest(algorithm=base.algorithm, scenario=base.scenario, mode="legacy", seed=base.seed),
            RunRequest(algorithm=base.algorithm, scenario=base.scenario, mode=base.mode, seed=7),
            RunRequest(algorithm=base.algorithm, scenario=base.scenario, mode=base.mode,
                       seed=base.seed, verify=False),
        ]
        keys = {base.key} | {v.key for v in variants}
        assert len(keys) == 1 + len(variants)

    def test_key_is_derived_once_per_request_object(self, monkeypatch):
        """A campaign reads ``key`` four times per request: one digest, and
        the cached value is invisible to equality, hashing, ``repr``,
        ``to_dict`` and pickling round trips."""
        derivations = []
        run_key = spec_module.run_key

        def counted(*args, **kwargs):
            derivations.append(args[0])
            return run_key(*args, **kwargs)

        monkeypatch.setattr(spec_module, "run_key", counted)
        request = small_spec().expand()[0]
        fresh = request_from_dict(request.to_dict())
        before = (hash(request), repr(request), request.to_dict())
        assert [request.key for _ in range(4)] == [run_key(
            request.algorithm, request.scenario, request.mode, request.seed, request.verify,
            plane_dtype=request.plane_dtype)] * 4
        assert derivations == [request.algorithm]
        assert (hash(request), repr(request), request.to_dict()) == before
        assert request == fresh and hash(request) == hash(fresh)  # fresh holds no key yet
        assert pickle.loads(pickle.dumps(request)) == request
        # A changed field is a new object and a new digest; shards is not identity.
        assert dataclasses.replace(request, seed=request.seed + 1).key != request.key
        assert dataclasses.replace(request, shards=2).key == request.key
        assert len(derivations) == 3


class TestRetiredKeys:
    def test_payload_carrying_compress_rounds_still_loads(self):
        # Worker payloads and spec files written before the option was
        # retired carry the key; request_from_dict reads keys by name.
        base = small_spec().expand()[0]
        payload = {**base.to_dict(), "compress_rounds": True}
        assert request_from_dict(payload) == base
