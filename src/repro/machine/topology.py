"""Machine specifications used by the performance model.

The paper evaluates on the CPU partition of Piz Daint (Cray XC40): dual-socket
Intel Xeon E5-2695 v4 nodes (36 cores at 3.30 GHz), 64 GiB RAM per node and a
Cray Aries dragonfly interconnect.  We capture the handful of parameters that
the time model (:mod:`repro.experiments.perf_model`) needs (per-core peak flop rate, per-core memory
size, network latency and bandwidth).  The absolute values only scale the
simulated runtimes; the comparisons between algorithms depend on communication
volumes measured by the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class MachineSpec:
    """A distributed-machine specification for the performance model.

    Attributes
    ----------
    name:
        Human-readable identifier.
    cores_per_node:
        Number of cores (MPI ranks in the paper's flat runs) per node.
    peak_flops_per_core:
        Peak double-precision flop/s of a single core.  Piz Daint's
        E5-2695 v4 delivers 3.3 GHz x 16 DP flop/cycle = 52.8 Gflop/s/core.
    memory_words_per_core:
        Size ``S`` of the local memory per core, in 8-byte words.
    network_latency_s:
        Per-message latency (the alpha term).
    network_bandwidth_words_per_s:
        Per-link bandwidth in words/s (the inverse of the beta term).
    word_bytes:
        Bytes per matrix element (8 for float64).
    """

    name: str
    cores_per_node: int = 36
    peak_flops_per_core: float = 52.8e9
    memory_words_per_core: int = 64 * 1024 ** 3 // (36 * 8)
    network_latency_s: float = 1.5e-6
    network_bandwidth_words_per_s: float = 10e9 / 8.0
    word_bytes: int = 8
    injection_overhead_s: float = 0.5e-6
    extra: dict = field(default_factory=dict, compare=False)

    @property
    def beta_s_per_word(self) -> float:
        """Time to transfer one word (the beta term of the alpha-beta model)."""
        return 1.0 / self.network_bandwidth_words_per_s

    def compute_time(self, flops: float) -> float:
        """Time to execute ``flops`` floating point operations on one core."""
        if flops < 0:
            raise ValueError(f"flops must be non-negative, got {flops}")
        return flops / self.peak_flops_per_core

    def communication_time(self, words: float, messages: float = 0.0) -> float:
        """Alpha-beta time for moving ``words`` in ``messages`` messages."""
        if words < 0 or messages < 0:
            raise ValueError("words and messages must be non-negative")
        return messages * self.network_latency_s + words * self.beta_s_per_word


#: A Piz-Daint-like specification (XC40 CPU partition) used as the default in
#: the performance-model experiments (Figures 1, 8-14).
PIZ_DAINT_LIKE = MachineSpec(
    name="piz-daint-xc40-like",
    cores_per_node=36,
    peak_flops_per_core=52.8e9,
    memory_words_per_core=64 * 1024 ** 3 // (36 * 8),
    network_latency_s=1.5e-6,
    network_bandwidth_words_per_s=10.5e9 / 8.0,
)


def laptop_spec(memory_words_per_core: int = 1 << 20) -> MachineSpec:
    """A small machine spec convenient for examples and fast tests."""
    return MachineSpec(
        name="laptop",
        cores_per_node=8,
        peak_flops_per_core=8e9,
        memory_words_per_core=memory_words_per_core,
        network_latency_s=1e-6,
        network_bandwidth_words_per_s=2e9,
    )
