"""``volume`` mode rides the batched engines: structure, ownership and scale.

Counter parity with the per-hop reference (``tests/oracle``) is
``test_counter_parity.py``'s job; this file pins what the counters-only route
is made of:

* the cuboid executor's per-matrix ownership function (``_owner_words``)
  against the reference's element-wise ownership map, block by block, and
  against the messages the reference sends, one by one;
* the two paper-scale points the ledger leaves out as too slow for the
  per-hop reference (CARMA and Cannon on 8192^3, p=4096), with values
  captured from the per-rank paths;
* a structural guard: no built-in algorithm's ``volume`` run allocates an
  element-sized array, an untraced COSMA
  run builds no width table, expands closed-form sums to ranks once and
  writes no class delta (a traced one writes one per round class), an
  untraced paper-scale run's panel exchange stays under 2 MiB however many
  rounds it counts, ScaLAPACK, CTF and Cannon do so
  only from inside COSMA's accounting core, none of them expands a transfer
  list, ``use_rma`` stays on the batched engine, neither a ``volume`` nor a
  ``plane`` run builds a ``Rank`` or a ``CuboidDomain``, and CARMA posts
  three transfer batches from a handful of Python frames.
"""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import HopMachine
from oracle import cuboid as per_hop
from oracle.cuboid import ownership_map

from repro.algorithms import cosma_idle_fraction, get_algorithm
from repro.baselines import cuboid
from repro.baselines.carma import carma_domains
from repro.baselines.cuboid import CuboidDomain, _owner_words, domain_table
from repro.baselines.summa import run_panels, summa_decomposition
from repro.core import cosma
from repro.core.decomposition import build_decomposition
from repro.core.grid import ProcessorGrid
from repro.experiments.harness import run_algorithm
from repro.machine import simulator
from repro.machine.counters import CommCounters
from repro.machine.simulator import DistributedMachine
from repro.machine.transport import ShapeToken
from repro.obs import tracing
from repro.workloads.scaling import Scenario, limited_memory_sweep
from repro.workloads.shapes import square_shape

BUILTINS = ("COSMA", "ScaLAPACK", "CTF", "CARMA", "Cannon")


def paper_scenario(side: int, p: int) -> Scenario:
    """The ledger's paper-scale points: ``side``^3 on ``p`` ranks, S=101000."""
    return Scenario(name=f"square-paper-p{p}", shape=square_shape(side), p=p,
                    memory_words=101_000, regime="limited")


# ---------------------------------------------------------------------------
# compressed ownership vs the element-wise oracle
# ---------------------------------------------------------------------------
def _cuts(draw, extent: int, parts: int) -> list[tuple[int, int]]:
    """``parts`` consecutive ranges covering ``[0, extent)`` at drawn cut points."""
    inner = sorted(draw(st.lists(
        st.integers(0, extent), min_size=parts - 1, max_size=parts - 1)))
    edges = [0, *inner, extent]
    return list(zip(edges[:-1], edges[1:]))


@st.composite
def tilings(draw):
    """``(m, n, k, domains)``: a cuboid tiling of the iteration space.

    CARMA at arbitrary (mostly non-power-of-two) sizes, where the halved
    ranges make neighbouring projections overlap partially; irregular grids
    with drawn cut points (empty ranges included) and shuffled rank order,
    so the first-listed-rank rule is exercised; a single domain; and pure
    k-splits, where p ranks share one C cell (p > distinct breakpoints).
    """
    m, n, k = (draw(st.integers(1, 40)) for _ in range(3))
    kind = draw(st.sampled_from(["carma", "grid", "single", "k-split"]))
    if kind == "carma":
        p = draw(st.sampled_from([1, 2, 4, 8, 16, 32, 64]))
        return m, n, k, carma_domains(m, n, k, min(p, m * n * k))
    if kind == "single":
        return m, n, k, [CuboidDomain(0, (0, m), (0, n), (0, k))]
    pm, pn, pk = (1, 1, draw(st.integers(2, 12))) if kind == "k-split" else (
        draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    cells = [(i, j, kk) for i in _cuts(draw, m, pm) for j in _cuts(draw, n, pn)
             for kk in _cuts(draw, k, pk)]
    ranks = draw(st.permutations(range(len(cells))))
    return m, n, k, [CuboidDomain(r, *cell) for r, cell in zip(ranks, cells)]


@settings(max_examples=150, deadline=None)
@given(tilings())
def test_cell_owner_counts_equal_the_element_map(tiling):
    m, n, k, domains = tiling
    ordered = sorted(domains, key=lambda d: d.rank)
    table = domain_table(domains)
    ranks, i_range, j_range, k_range = table[:, 0], table[:, 1:3], table[:, 3:5], table[:, 5:7]
    for shape, regions, (rows, cols) in (
        ((m, k), [(d.rank, d.i_range, d.k_range) for d in ordered], (i_range, k_range)),
        ((k, n), [(d.rank, d.k_range, d.j_range) for d in ordered], (k_range, j_range)),
        ((m, n), [(d.rank, d.i_range, d.j_range) for d in ordered], (i_range, j_range)),
    ):
        element_map = ownership_map(shape, regions)
        owners, receivers, words = _owner_words(ranks, rows, cols)
        assert owners.dtype == receivers.dtype == words.dtype == np.int64
        for rank, (r0, r1), (c0, c1) in regions:
            expected_owners, expected_counts = np.unique(
                element_map[r0:r1, c0:c1], return_counts=True)
            foreign = expected_owners != rank  # a rank's own cells are not posted
            mine = receivers == rank
            order = np.argsort(owners[mine])
            assert owners[mine][order].tolist() == expected_owners[foreign].tolist()
            assert words[mine][order].tolist() == expected_counts[foreign].tolist()


@settings(max_examples=80, deadline=None)
@given(tilings())
def test_per_hop_messages_equal_the_owner_words(tiling):
    """Every message the per-hop reference sends, per receiver and in order, is
    one ``_owner_words`` triple: A then B owner -> rank (owners ascending),
    then the C reduction rank -> owner (senders ascending)."""
    m, n, k, domains = tiling
    table = domain_table(domains)
    ranks, i_range, j_range, k_range = table[:, 0], table[:, 1:3], table[:, 3:5], table[:, 5:7]
    sent: dict[int, list] = {}
    send = HopMachine.send

    def recorded(self, src, dst, block, kind="input", count_round=True):
        sent.setdefault(dst, []).append((src, dst, int(np.size(block)), kind))
        return send(self, src, dst, block, kind, count_round)

    rng = np.random.default_rng(0)
    machine = HopMachine(int(ranks.max()) + 1)
    with pytest.MonkeyPatch.context() as patch:  # hypothesis reruns the body: no fixture
        patch.setattr(HopMachine, "send", recorded)
        per_hop.cuboid(machine, table, rng.random((m, k)), rng.random((k, n)))

    expected: dict[int, list] = {}
    for rows, cols in ((i_range, k_range), (k_range, j_range)):
        for owner, rank, words in zip(*(a.tolist() for a in _owner_words(ranks, rows, cols))):
            expected.setdefault(rank, []).append((owner, rank, words, "input"))
    for owner, rank, words in zip(*(a.tolist() for a in _owner_words(ranks, i_range, j_range))):
        expected.setdefault(owner, []).append((rank, owner, words, "output"))
    assert sent == expected


def test_cell_counts_are_exact_beyond_float_precision():
    """Areas are summed as int64: 2^53 + 1 elements survive, as no float sum would."""
    side = 94_906_267  # side * side > 2**53
    ranks = np.arange(3)
    # Rank 0 owns a side x side cell and a side x 2 one; rank 2 fetches both.
    rows = np.array([[0, side]] * 3)
    cols = np.array([[0, side + 2], [0, side], [0, side + 2]])
    owners, receivers, words = _owner_words(ranks, rows, cols)
    assert words.dtype == np.int64
    assert (owners.tolist(), receivers.tolist()) == ([0, 0], [1, 2])
    assert words.tolist() == [side * side, side * (side + 2)]
    assert side * (side + 2) > 2**53 and side * (side + 2) % 2 == 1  # no float64 holds it


# ---------------------------------------------------------------------------
# paper-scale points outside the ledger
# ---------------------------------------------------------------------------
def test_carma_on_sq4096_volume():
    run = run_algorithm("CARMA", paper_scenario(8192, 4096), mode="volume")
    assert run.mean_words_per_rank == 1474560.0
    assert run.max_words_per_rank == 11796480
    assert run.rounds == 45
    assert run.total_flops == 1100518260736


def test_cannon_on_sq4096_volume():
    run = run_algorithm("Cannon", paper_scenario(8192, 4096), mode="volume")
    assert run.mean_words_per_rank == 4193280.0
    assert run.max_words_per_rank == 4194304
    assert run.rounds == 128
    assert run.max_messages_per_rank == 256


# ---------------------------------------------------------------------------
# structural guard: volume never builds element-sized state
# ---------------------------------------------------------------------------
class _CountingNumpy:
    """``numpy`` as one module sees it, recording ``full`` / ``zeros`` sizes."""

    def __init__(self) -> None:
        self.largest = 0

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in ("full", "zeros"):
            return attr

        def allocate(shape, *args, **kwargs):
            self.largest = max(self.largest, int(np.prod(shape)))
            return attr(shape, *args, **kwargs)

        return allocate


@pytest.mark.parametrize("name", BUILTINS)
def test_volume_runs_use_no_per_rank_primitive(name, monkeypatch):
    """A paper-scale ``volume`` run of every built-in: the cuboid executor's
    cell grid stays far below the 4096^2 elements of a matrix (no per-rank,
    per-element owner map)."""
    counting = _CountingNumpy()
    monkeypatch.setattr(cuboid, "np", counting)

    run = run_algorithm(name, paper_scenario(4096, 1024), mode="volume")
    assert run.mean_words_per_rank > 0
    assert counting.largest <= 10**5


def _cosma_sq1024_volume(use_rma=False):
    """COSMA on the harness's sq1024 grid, straight through ``cosma_run``; the
    machine and the decomposition it ran."""
    scenario = paper_scenario(4096, 1024)
    machine = DistributedMachine(scenario.p, memory_words=scenario.memory_words, mode="volume")
    decomposition = build_decomposition(4096, 4096, 4096, scenario.p, scenario.memory_words,
                                        max_idle_fraction=cosma_idle_fraction(scenario.p))
    cosma.cosma_run(machine, ShapeToken((4096, 4096)), ShapeToken((4096, 4096)), decomposition,
                    use_rma)
    return machine, decomposition


def test_cosma_posts_once_per_round_class(class_posts, panel_exchange):
    """sq1024 has 683 rounds in 20 classes.  They are one expansion of
    closed-form sums: untraced, no class delta of size p is written.  Traced,
    the same expansion, and 20 class deltas for the spans, each expanded from
    one round's sums.  Neither goes through a transfer list, and both count
    the C reduction."""
    machine, decomposition = _cosma_sq1024_volume()
    assert decomposition.num_steps == 683
    assert class_posts == [] and panel_exchange.classes == [] and panel_exchange.expansions == 1
    assert machine.counters.mean_output_words_per_rank() > 0  # the reduction
    with tracing():
        traced_machine, _ = _cosma_sq1024_volume()
    assert class_posts == ["repro.core.cosma"] * 20
    assert panel_exchange.classes == [1] * 20
    assert panel_exchange.expansions == 1 + 1 + 20
    assert traced_machine.counters.data.tobytes() == machine.counters.data.tobytes()


@pytest.mark.parametrize("name", ["ScaLAPACK", "CTF"])
def test_grid_baselines_post_transfers_only_from_the_cosma_core(name, class_posts,
                                                                 panel_exchange):
    """2D and 2.5D are grid choices: their engines hold no posting body, and
    the core they post through expands no transfer list -- one expansion to
    ranks and no class delta per untraced run; under a tracer the same
    expansion and one class delta per class, each expanded from one round's
    sums."""
    run = run_algorithm(name, paper_scenario(4096, 1024), mode="volume")
    assert run.mean_words_per_rank > 0
    assert class_posts == [] and panel_exchange.classes == [] and panel_exchange.expansions == 1
    with tracing():
        traced = run_algorithm(name, paper_scenario(4096, 1024), mode="volume")
    assert traced.mean_words_per_rank == run.mean_words_per_rank
    assert class_posts and set(class_posts) == {"repro.core.cosma"}
    assert panel_exchange.classes == [1] * len(class_posts)
    assert panel_exchange.expansions == 1 + 1 + len(class_posts)


def test_use_rma_volume_run_stays_on_the_batched_engine(class_posts, panel_exchange):
    """One-sided gets are an ``exchange`` kind of the same core: one expansion
    of closed-form sums, no class delta, no transfer list."""
    one_sided, decomposition = _cosma_sq1024_volume(use_rma=True)
    assert decomposition.num_steps == 683
    assert class_posts == [] and panel_exchange.classes == [] and panel_exchange.expansions == 1
    tree = run_algorithm("COSMA", paper_scenario(4096, 1024), mode="volume")
    assert one_sided.counters.mean_words_per_rank() == tree.mean_words_per_rank
    assert one_sided.counters.max_rounds() < tree.rounds  # only the origin pays a round


@pytest.mark.parametrize("mode", ["volume", "plane"])
@pytest.mark.parametrize("name", BUILTINS)
def test_batched_runs_build_no_rank_and_no_domain(name, mode, monkeypatch):
    """Residency is posted to the machine's vector: no ``Rank`` view, no
    ``CuboidDomain``, nothing stored -- and the resident peak is still there."""
    def forbid(label):
        def forbidden(*args, **kwargs):
            raise AssertionError(f"{name} {mode} run constructed a {label}")
        return forbidden

    monkeypatch.setattr(simulator, "Rank", forbid("Rank"))
    monkeypatch.setattr(cuboid, "CuboidDomain", forbid("CuboidDomain"))
    scenario = limited_memory_sweep("square", [16], 2048)[0]
    machine = DistributedMachine(scenario.p, memory_words=scenario.memory_words, mode=mode)
    shape = scenario.shape
    a, b = ((ShapeToken((shape.m, shape.k)), ShapeToken((shape.k, shape.n)))
            if mode == "volume" else shape.random_matrices(seed=0))
    product = get_algorithm(name).runner(a, b, scenario, machine)
    assert product.shape == (shape.m, shape.n)
    assert 0 < machine.check_memory() <= machine.peak_resident_words


def test_carma_posts_three_batches_from_a_handful_of_frames(monkeypatch):
    """One ``post_transfers`` per matrix and no Python loop over ranks: the
    per-rank recursion and per-block owner lookups entered 17 376 frames of
    these two modules on sq1024, the table path about twenty."""
    posts = []
    post_transfers = CommCounters.post_transfers

    def counted(self, srcs, dsts, words, **kwargs):
        posts.append(len(srcs))
        post_transfers(self, srcs, dsts, words, **kwargs)

    monkeypatch.setattr(CommCounters, "post_transfers", counted)
    scenario = paper_scenario(4096, 1024)
    machine = DistributedMachine(scenario.p, memory_words=scenario.memory_words, mode="volume")
    tokens = ShapeToken((4096, 4096)), ShapeToken((4096, 4096))
    frames = []

    def profiler(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.endswith(
                ("baselines/carma.py", "baselines/cuboid.py")):
            frames.append(frame.f_code.co_name)

    sys.setprofile(profiler)
    try:
        get_algorithm("CARMA").runner(*tokens, scenario, machine)
    finally:
        sys.setprofile(None)
    assert len(posts) == 3 and all(posts)
    assert 0 < len(frames) < 200, len(frames)
    assert machine.counters.mean_words_per_rank() == 950272.0


def test_cannon_writes_one_expansion_and_no_transfer_list(class_posts, panel_exchange):
    """Cannon is SUMMA's ring-exchange run plus a skew: its 32 rounds are one
    expansion of the core's closed-form sums, the skew one closed-form delta;
    no class delta, no transfer list."""
    run = run_algorithm("Cannon", paper_scenario(4096, 1024), mode="volume")
    assert class_posts == [] and panel_exchange.classes == [] and panel_exchange.expansions == 1
    assert run.rounds == 64 and run.max_messages_per_rank == 128


def _paper_scale_engine(name):
    """The two paper-scale untraced runs with the most counted rounds, as a
    call of the bare engine on a machine and decomposition built up front:
    COSMA 8192^3 on p=4096 at S = 1.02 x the per-rank footprint, whose grid
    (34, 40, 3) leaves room for a one-column panel step only (10668 rounds on
    the busiest rank), and ScaLAPACK 8192^3 on p=4096 at S=8000 (8192
    one-column panels)."""
    n, p = 8192, 4096
    tokens = ShapeToken((n, n)), ShapeToken((n, n))
    if name == "COSMA":
        s = square_shape(n).footprint_words * 51 // (50 * p)
        scenario = Scenario(name="square-footprint", shape=square_shape(n), p=p,
                            memory_words=s, regime="limited")
        grid = ProcessorGrid(*get_algorithm("COSMA").plan(scenario).grid)
        decomposition = build_decomposition(n, n, n, p, s, grid=grid)
        machine = DistributedMachine(p, memory_words=s, mode="volume")
        return machine, lambda: cosma.cosma_run(machine, *tokens, decomposition)
    decomposition = summa_decomposition(n, n, n, p, 8000)
    machine = DistributedMachine(p, memory_words=8000, mode="volume")
    return machine, lambda: run_panels(machine, *tokens, decomposition, "tree")


@pytest.mark.parametrize(("name", "rounds"), [("COSMA", 10668), ("ScaLAPACK", 32256)])
def test_untraced_panel_exchange_memory_does_not_grow_with_rounds(name, rounds):
    """An untraced run's panel exchange is O(pk (pm + pn)) sums and a constant
    number of O(p) expansions: the engine call stays under 2 MiB of traced
    allocations at the paper-scale points with the most rounds (a width table
    of every round read 10.0 and 12.5 MiB)."""
    machine, run = _paper_scale_engine(name)
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert machine.counters.max_rounds() == rounds
    assert peak < 2 * 2**20, peak


def test_long_fiber_expands_without_a_fan_out_matrix():
    """ScaLAPACK 2^20 x 64 x 64 on (1024, 1, 1): one B fiber of 1024
    positions.  What a position sends is a circular window sum of the owners'
    widths per tree level, so the run stays under 1 MiB of traced
    allocations (16.0 MiB and 34-45 ms when a 1024 x 1024 circulant of
    fan-outs was multiplied; 0.3 MiB and 0.3-0.8 ms since)."""
    m, n, k, p = 1 << 20, 64, 64, 1024
    decomposition = summa_decomposition(m, n, k, p, 1 << 20, grid=(1024, 1))
    machine = DistributedMachine(p, memory_words=1 << 20, mode="volume")
    tracemalloc.start()
    try:
        run_panels(machine, ShapeToken((m, k)), ShapeToken((k, n)), decomposition, "tree")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert decomposition.grid.as_tuple() == (1024, 1, 1)
    assert (machine.counters.max_rounds(), machine.counters.mean_received_per_rank()) == (382, 4092.0)
    assert peak < 2**20, peak


def test_traced_panel_exchange_memory_does_not_grow_with_rounds():
    """The traced twin: a traced run holds one class delta of size p at a time,
    expanded from one round's O(pk (pm + pn)) sums, and reads where its
    classes start off the boundary arrays.  Consuming every class of
    ScaLAPACK 8192^3 on p=4096 at S=8000 (8192 one-column panels in 64
    classes) stays under 2 MiB of traced allocations (12.4 MiB while a table
    of every round's widths was built and scanned for its classes)."""
    decomposition = summa_decomposition(8192, 8192, 8192, 4096, 8000)
    machine = DistributedMachine(4096, memory_words=8000, mode="volume")
    tracemalloc.start()
    try:
        classes = [len(rounds) for rounds, _ in
                   cosma.fiber_exchange_rounds(machine, decomposition, "tree")]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(classes), sum(classes)) == (64, decomposition.num_steps) == (64, 8192)
    assert peak < 2 * 2**20, peak


def test_volume_runs_leave_numpy_ma_unimported():
    """The first plain ``np.unique(x)`` of a process imports ``numpy.ma`` (about
    20 ms, paid by every sweep worker and every CLI launch on its first CARMA
    run): a fresh interpreter that runs every registered algorithm in
    ``volume`` mode never loads it."""
    script = (
        "import sys\n"
        "from repro.algorithms import registered_algorithms\n"
        "from repro.experiments.harness import run_algorithm\n"
        "from repro.workloads.scaling import limited_memory_sweep\n"
        "scenario = limited_memory_sweep('square', [16], 2048)[0]\n"
        "for name in registered_algorithms():\n"
        "    assert run_algorithm(name, scenario, mode='volume').mean_words_per_rank > 0\n"
        "    assert 'numpy.ma' not in sys.modules, name\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert done.returncode == 0, done.stderr
