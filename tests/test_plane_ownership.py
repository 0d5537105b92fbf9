"""A ``plane`` product is bound to the schedule's ownership tables.

The grid engines (COSMA, ScaLAPACK, Cannon, CTF) compute their product from
the decomposition's boundary arrays -- rows ``i_bounds``, columns
``j_bounds``, and per k-layer the part of the k-range that the A owners
(``a_bounds``) and the B owners (``b_bounds``) hold -- and the cuboid
executor (CARMA) from its domain table.  So a decomposition that leaves part
of the iteration space to nobody must fail verification, and every exact
tiling, however awkward, must verify.
"""

import dataclasses
from contextlib import nullcontext

import numpy as np
import oracle
import pytest

from repro.algorithms import builtins
from repro.baselines import grid25d, summa
from repro.baselines.carma import carma_table, usable_ranks
from repro.baselines.cuboid import CuboidDomain, _product_tiles, cuboid_run
from repro.core.cosma import _held_k_runs, cosma_run
from repro.core.decomposition import build_decomposition
from repro.core.grid import ProcessorGrid
from repro.experiments.harness import run_algorithm
from repro.machine.simulator import DistributedMachine
from repro.machine.transport import ShapeToken, allclose_tolerances, as_operands
from repro.obs import tracing
from repro.workloads.scaling import Scenario
from repro.workloads.shapes import square_shape

#: 48 splits evenly over Cannon's 4 x 4 grid (no padding row to drop), and the
#: memory gives CTF a 2 x 2 x 4 grid, so its layers are more than one.
SCENARIO = Scenario(name="square48-p16", shape=square_shape(48), p=16, memory_words=4096,
                    regime="extra")


def _with_decomposition(monkeypatch, mutate):
    """Make every grid engine run on ``mutate(decomposition)``."""
    def mutated(*args, **kwargs):
        return mutate(build_decomposition(*args, **kwargs))

    for module in (builtins, summa, grid25d):  # COSMA's runner, the others' decompositions
        monkeypatch.setattr(module, "build_decomposition", mutated)


def _drop_last(field):
    """The last row (``i_bounds``) or column (``j_bounds``) of C is in no
    rank's block."""
    def mutate(decomposition):
        bounds = getattr(decomposition, field).copy()
        bounds[-1] -= 1
        return dataclasses.replace(decomposition, **{field: bounds})

    return mutate


def _drop_last_slice(field):
    """Layer 0's last ownership slice of A (``a_bounds``) or B (``b_bounds``)
    belongs to nobody."""
    def mutate(decomposition):
        bounds = getattr(decomposition, field).copy()
        bounds[0, -1] = bounds[0, -2]
        return dataclasses.replace(decomposition, **{field: bounds})

    return mutate


@pytest.mark.parametrize("name", ["COSMA", "ScaLAPACK", "CTF", "Cannon"])
def test_the_scenario_verifies_as_decomposed(name):
    run = run_algorithm(name, SCENARIO, mode="plane")
    assert run.verified and run.correct


@pytest.mark.parametrize("field", ["i_bounds", "j_bounds"])
@pytest.mark.parametrize(("name", "shards"), [
    ("COSMA", 1), ("COSMA", 2), ("ScaLAPACK", 1), ("CTF", 1), ("Cannon", 1),
])
def test_a_row_or_column_no_block_covers_fails_verification(monkeypatch, name, shards, field):
    """The coverage gap: COSMA's own run catches it too, at any shard count."""
    _with_decomposition(monkeypatch, _drop_last(field))
    run = run_algorithm(name, SCENARIO, mode="plane", shards=shards)
    assert run.verified and not run.correct


@pytest.mark.parametrize("field", ["a_bounds", "b_bounds"])
@pytest.mark.parametrize(("name", "shards"), [
    *(pytest.param(name, 1, id=name) for name in ("COSMA", "ScaLAPACK", "CTF", "Cannon")),
    pytest.param("COSMA", 2, id="COSMA-shards2"),
])
def test_a_dropped_ownership_slice_fails_verification(monkeypatch, name, shards, field):
    """COSMA multiplies only the k-ranges the owners hold, at any shard count."""
    _with_decomposition(monkeypatch, _drop_last_slice(field))
    run = run_algorithm(name, SCENARIO, mode="plane", shards=shards)
    assert run.verified and not run.correct


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("mode", ["volume", "plane"])
def test_counted_flops_are_the_gemms_plus_the_reduction_adds(mode, traced):
    """COSMA 8 x 8 x 16 on (2, 2, 2), step 2: the counted flops are those of
    the GEMMs ``layer_product`` runs over the k-range both owners hold, plus
    the k-fiber reduction's adds (4 blocks of 4 x 4, one add per word).
    Intact, 2 * 8 * 8 * 16 + 64 = 2112; with layer 0's last A and B slices
    emptied, 4 of that layer's 8 k-columns are held by nobody and multiplied
    by no rank: 2 * 8 * 8 * 12 + 64 = 1600."""
    intact = build_decomposition(8, 8, 16, 8, 1 << 20, grid=ProcessorGrid(2, 2, 2), step_size=2)
    emptied = _drop_last_slice("b_bounds")(_drop_last_slice("a_bounds")(intact))
    rng = np.random.default_rng(0)
    a, b = rng.random((8, 16)), rng.random((16, 8))
    if mode == "volume":
        a, b = ShapeToken(a.shape), ShapeToken(b.shape)
    for decomposition, held_k, flops in ((intact, 16, 2112), (emptied, 12, 1600)):
        assert sum(k1 - k0 for k0, k1 in _held_k_runs(decomposition)) == held_k
        with tracing() if traced else nullcontext():
            machine = DistributedMachine(8, mode=mode)
            cosma_run(machine, a, b, decomposition)
        assert machine.counters.total_flops == flops


def _tiling(*domains):
    return [CuboidDomain(rank, *ranges) for rank, *ranges in domains]


#: Hand-written tilings of 6 x 5 x 8 that the cuboid executor's GEMM merging
#: must not get wrong.
TILINGS = {
    # One output block; its k-pieces, sorted, belong to ranks 1, 2, 0.
    "k-pieces-out-of-rank-order": _tiling(
        (0, (0, 6), (0, 5), (4, 8)), (1, (0, 6), (0, 5), (0, 2)), (2, (0, 6), (0, 5), (2, 4)),
    ),
    # Ranks 0 and 1 share an output block, but k = 3..5 lies between them,
    # split over two smaller blocks.
    "k-pieces-that-do-not-abut": _tiling(
        (0, (0, 6), (0, 5), (0, 3)), (1, (0, 6), (0, 5), (5, 8)),
        (2, (0, 2), (0, 5), (3, 5)), (3, (2, 6), (0, 5), (3, 5)),
    ),
    # The two k-halves cut the rows at 2 and at 3: output blocks overlap partially.
    "i-splits-differ-between-k-halves": _tiling(
        (0, (0, 2), (0, 5), (0, 4)), (1, (2, 6), (0, 5), (0, 4)),
        (2, (0, 3), (0, 5), (4, 8)), (3, (3, 6), (0, 5), (4, 8)),
    ),
}


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("tiling", TILINGS)
def test_hand_written_cuboid_tilings_compute_a_at_b(tiling, dtype):
    domains = TILINGS[tiling]
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((6, 8)), rng.standard_normal((8, 5))
    machine = DistributedMachine(len(domains), mode="plane", plane_dtype=dtype)
    product = cuboid_run(machine, *as_operands(a, b, machine)[:2], domains)
    assert product.dtype == np.dtype(dtype)
    rtol, atol_unit = allclose_tolerances(dtype)
    assert np.allclose(product, a @ b, rtol=rtol, atol=atol_unit * 8)
    # The counters are the per-hop reference's, whatever the numerics merge.
    reference = oracle.HopMachine(len(domains))
    table = np.array([(d.rank, *d.i_range, *d.j_range, *d.k_range) for d in domains])
    oracle.cuboid.cuboid(reference, table, a, b)
    assert machine.counters.data.tolist() == reference.counters.data.tolist()


@pytest.mark.parametrize(("dims", "p", "tiles"), [
    ((768, 768, 768), 256, 1),
    ((768, 768, 768), 1024, 1),
    ((13, 7, 15), 8, 2),  # test_counter_parity's staggered point: k-halves cut differently
])
def test_carma_merges_its_domains_into_few_gemms(dims, p, tiles):
    """A regular CARMA grid is one GEMM; where the k-halves' output blocks
    straddle each other, the halves stay apart.  Either way the GEMMs
    multiply each domain's volume once."""
    table = carma_table(*dims, usable_ranks(*dims, p))
    gemms = _product_tiles(table)
    assert len(gemms) == tiles
    assert int(np.diff(gemms.reshape(-1, 3, 2)).prod(axis=1).sum()) == int(np.prod(dims))
