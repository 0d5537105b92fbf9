"""Tests for machine specifications and the alpha-beta time helpers."""

import pytest

from repro.machine.topology import PIZ_DAINT_LIKE, MachineSpec, laptop_spec


class TestMachineSpec:
    def test_piz_daint_defaults(self):
        assert PIZ_DAINT_LIKE.cores_per_node == 36
        assert PIZ_DAINT_LIKE.peak_flops_per_core > 5e10

    def test_compute_time_scales_linearly(self):
        spec = laptop_spec()
        assert spec.compute_time(2e9) == pytest.approx(2 * spec.compute_time(1e9))

    def test_compute_time_rejects_negative(self):
        with pytest.raises(ValueError):
            laptop_spec().compute_time(-1)

    def test_communication_time_alpha_beta(self):
        spec = MachineSpec(
            name="t", network_latency_s=1e-6, network_bandwidth_words_per_s=1e9
        )
        t = spec.communication_time(words=1e9, messages=2)
        assert t == pytest.approx(1.0 + 2e-6)

    def test_communication_time_rejects_negative(self):
        with pytest.raises(ValueError):
            laptop_spec().communication_time(-1.0)

    def test_beta_is_inverse_bandwidth(self):
        spec = laptop_spec()
        assert spec.beta_s_per_word == pytest.approx(1.0 / spec.network_bandwidth_words_per_s)

    def test_laptop_spec_memory_override(self):
        spec = laptop_spec(memory_words_per_core=1234)
        assert spec.memory_words_per_core == 1234

    def test_frozen(self):
        with pytest.raises(Exception):
            PIZ_DAINT_LIKE.cores_per_node = 1  # type: ignore[misc]
