"""Batched engines post each distinct round once (round classes).

The engines' contract is that nobody can tell: raw counter bytes, the
resident peak, the round spans expanded by their multiplicity (and COSMA's
round count) equal the per-hop reference's counters and per-round records
(``tests/oracle``), in ``volume`` and in ``plane`` mode, on a fresh machine
or one that already holds counters, traced or not.  COSMA (with one-sided
gets or tree broadcasts; its plane-mode product comes from one GEMM into a
single C sheet), SUMMA and Cannon post their whole panel exchange as one
closed-form sum and, traced, span one round class at a time.  The grid
family's class deltas are written in closed form, and where its classes start
is read off the boundary arrays; the hop expansion and the per-round width
table they replaced are kept here as their oracles.

SUMMA, Cannon and 2.5D run COSMA's accounting core, and the reference runs
them on one per-hop implementation of the grid family, held to the core here
op by op.  What keeps that honest is pinned on the decomposition's arrays: SUMMA is ``pm x pn x 1`` with the textbook 2D
layout and the panel width as the step, Cannon the same on a padded ``q x q``
grid with ring exchanges, 2.5D is ``q x q x c`` with each layer's k-slice laid
out the same way and one whole-layer round of direct sends.
"""

import dataclasses
import hashlib
import time
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import HopMachine
from oracle import grid as per_hop
from oracle.collectives import broadcast_hops, reduce

from repro.algorithms import builtins as builtin_specs
from repro.algorithms import get_algorithm, registered_algorithms
from repro.baselines.cannon import cannon_decomposition, cannon_run
from repro.baselines.grid25d import grid25d_decomposition, grid25d_run
from repro.baselines.summa import run_panels, summa_decomposition
from repro.core import cosma
from repro.core.cosma import (
    cosma_run,
    fiber_exchange_rounds,
    post_c_reduction,
    post_fiber_exchange,
    post_owned_words,
)
from repro.core.decomposition import build_decomposition
from repro.core.grid import ProcessorGrid
from repro.experiments.harness import run_algorithm
from repro.machine.counters import (
    COUNTER_FIELDS,
    FLOPS,
    MESSAGES_SENT,
    ROUNDS,
    WORDS_SENT,
    CommCounters,
)
from repro.machine.simulator import DistributedMachine
from repro.machine.transport import ShapeToken, allclose_tolerances
from repro.obs import tracing
from repro.utils.intmath import split_offsets
from repro.workloads.scaling import Scenario
from repro.workloads.shapes import ProblemShape, square_shape


def _inputs(m, n, k, mode="plane"):
    if mode == "volume":
        return ShapeToken((m, k)), ShapeToken((k, n))
    rng = np.random.default_rng(0)
    return rng.random((m, k)), rng.random((k, n))


def _run_on(multiply, m, n, k, p, memory_words, mode, runs=1,
            plane_dtype="float64", shards=1):
    """``runs`` calls of ``multiply(a, b, machine)`` on one machine; it and the last product."""
    machine = DistributedMachine(
        p, memory_words=memory_words, mode=mode, plane_dtype=plane_dtype, shards=shards,
    )
    a, b = _inputs(m, n, k, mode)
    for _ in range(runs):
        result = multiply(a, b, machine)
    return machine, result


def _reference_on(reference, m, n, k, p, runs=1):
    """``runs`` calls of ``reference(a, b, hop_machine)`` of the per-hop
    reference on one hop machine; it and the last result."""
    machine = HopMachine(p)
    a, b = _inputs(m, n, k)
    for _ in range(runs):
        result = reference(a, b, machine)
    return machine, result


def _cosma_decomposition(m, n, k, grid_shape, idle, memory_words):
    return build_decomposition(m, n, k, grid_shape.p_used + idle, memory_words, grid=grid_shape)


def _run(m, n, k, grid_shape, idle, memory_words, mode, use_rma=False, **options):
    """COSMA's engine on an explicit grid plus ``idle`` ranks: the machine, the
    last product and the decomposition's round count."""
    decomposition = _cosma_decomposition(m, n, k, grid_shape, idle, memory_words)
    machine, product = _run_on(
        lambda a, b, machine: cosma_run(machine, a, b, decomposition, use_rma),
        m, n, k, decomposition.p, memory_words, mode, **options)
    return machine, product, decomposition.num_steps


def _reference(m, n, k, grid_shape, idle, memory_words, use_rma=False, runs=1):
    """COSMA's per-hop reference on the same explicit grid; its result is
    ``(product, rounds)``."""
    decomposition = _cosma_decomposition(m, n, k, grid_shape, idle, memory_words)
    return _reference_on(lambda a, b, machine: per_hop.cosma(machine, decomposition, a, b, use_rma),
                         m, n, k, grid_shape.p_used + idle, runs)


def _observables(machine, product, rounds=None):
    """Counter bytes, the resident peak and COSMA's round count."""
    return machine.counters.data.tobytes(), machine.peak_resident_words, rounds


def _reference_observables(machine, result, rounds=None):
    return machine.counters.data.tobytes(), machine.peak_resident_words, rounds


def _cosma_reference_observables(*problem, **options):
    machine, (_, rounds) = _reference(*problem, **options)
    return _reference_observables(machine, None, rounds)


_SPAN_KEYS = ("label", "words_posted", "flops", "hops")


def _expanded(tracer):
    """The tracer's round spans, each expanded by its multiplicity into its
    rounds, shaped like the per-hop reference's round records; every span
    starts where the previous one ended."""
    spans = [args for _name, _cat, _start, _dur, args, _track in tracer.spans("round")]
    firsts = [span["first_round"] for span in spans]
    assert firsts == [sum(span["multiplicity"] for span in spans[:i]) for i in range(len(spans))]
    return [{key: span[key] for key in _SPAN_KEYS}
            for span in spans for _ in range(span["multiplicity"])]


def _round_spans(run, *args, **options):
    """The traced rounds of ``run(*args, **options)`` (:func:`_expanded`) and
    what it returned."""
    with tracing() as tracer:
        outcome = run(*args, **options)
    return _expanded(tracer), outcome


@st.composite
def problems(draw):
    """``(m, n, k, grid, idle ranks, S)`` with every awkward schedule shape.

    Grids are drawn, not fitted, so pm = 1, pn = 1 and pk = 1 all occur; k is
    rarely a multiple of pk (uneven layers: the short ones run out of rounds
    before the long ones); S decides the step size, from one outer product per
    round (many rounds, a last partial chunk) to the whole layer in one.
    """
    pm, pn, pk = (draw(st.integers(1, 4)) for _ in range(3))
    m = draw(st.integers(pm, 24))
    n = draw(st.integers(pn, 24))
    k = draw(st.integers(pk, 60))
    lm, ln = -(-m // pm), -(-n // pn)
    step = draw(st.integers(1, -(-k // pk)))
    return (m, n, k, ProcessorGrid(pm, pn, pk), draw(st.integers(0, 2)),
            lm * ln + step * (lm + ln) + draw(st.integers(0, lm + ln - 1)))


@settings(max_examples=60, deadline=None)
@given(problem=problems(), use_rma=st.booleans())
def test_volume_run_equals_the_per_hop_loop(problem, use_rma):
    reference = _cosma_reference_observables(*problem, use_rma=use_rma)
    assert _observables(*_run(*problem, mode="volume", use_rma=use_rma)) == reference


@pytest.mark.parametrize("use_rma", [False, True])
def test_machine_entered_with_counters(use_rma):
    """Two runs on one machine: deltas land on top of what is already there."""
    problem = (13, 11, 47, ProcessorGrid(2, 3, 3), 1, 55)  # step 2: 8 rounds, uneven layers
    reference = _cosma_reference_observables(*problem, use_rma=use_rma, runs=2)
    assert _observables(*_run(*problem, mode="volume", use_rma=use_rma, runs=2)) == reference


@pytest.mark.parametrize("use_rma", [False, True])
def test_traced_spans_equal_the_per_hop_loops(use_rma):
    problem = (13, 11, 47, ProcessorGrid(2, 3, 3), 1, 55)  # step 2: 8 rounds, uneven layers
    reference = _reference(*problem, use_rma=use_rma)[0].rounds
    assert len(reference) > 5
    assert _round_spans(_run, *problem, mode="volume", use_rma=use_rma)[0] == reference


@pytest.mark.parametrize("use_rma", [False, True])
def test_round_bookkeeping_equals_the_per_hop_loops(use_rma):
    """What the per-hop loop does at every round boundary and the engine once
    per run, spanned once per class: the labelled rounds, the round count and
    the counters -- after one run and after two."""
    problem = (13, 11, 47, ProcessorGrid(2, 3, 3), 1, 55)  # step 2: 8 rounds, uneven layers
    exchange = "exchange-get" if use_rma else "exchange-tree"
    for runs in (1, 2):
        loop, (_, rounds) = _reference(*problem, use_rma=use_rma, runs=runs)
        labels = [span["label"] for span in loop.rounds]
        assert labels == ([exchange] * 8 + ["c-reduction"]) * runs
        traced_spans, traced = _round_spans(_run, *problem, mode="volume", use_rma=use_rma,
                                            runs=runs)
        assert traced_spans == loop.rounds
        untraced = _run(*problem, mode="volume", use_rma=use_rma, runs=runs)
        for machine, _, executed_rounds in (traced, untraced):
            assert executed_rounds == rounds == 8
            assert machine.counters.data.tobytes() == loop.counters.data.tobytes()


def test_top_of_the_strong_scaling_range():
    """COSMA 16384^3 on p=16384, S=101000: values captured at the parent (2.2-2.6 s there)."""
    scenario = Scenario(name="square-paper-p16384", shape=square_shape(16384), p=16384,
                        memory_words=101_000, regime="limited")
    assert get_algorithm("COSMA").plan(scenario).grid == (47, 58, 6)
    run = run_algorithm("COSMA", scenario, mode="volume")
    assert run.mean_words_per_rank == 3538944.0
    assert run.max_words_per_rank == 3692763
    assert run.rounds == 3717
    assert run.total_flops == 8797435199488


@pytest.mark.parametrize("name, grid, pinned, ceiling_s", [
    # 1821 rounds in 371 classes: 1.02 s as one O(p) delta per class, 0.05 s as
    # one expansion of the summed width table (plus the decomposition).
    ("COSMA", (99, 110, 6), (6946816.0, 7127814, 7526, 7526,
     "b43b276e75ce30e3fee236385925ea1ec32acad0c0e6f4656df6e90737da43b4"), 0.5),
    ("ScaLAPACK", (256, 256), (16711680.0, 16711680, 1420, 1420,
     "32cabfafd8d601f5ef4c259b6efea96175b83ebadfc06b3cc828439d07214f58"), 2.0),
    ("CTF", (128, 128, 4), (8421376.0, 8454144, 510, 510,
     "d1245d75a8f31a5c3c29e50114b454dd99023cea3bc9d478b77f7dd9f92b40c3"), 0.5),
    # No grid to plan: a recursion table (0.55 s as p objects, 0.08 s as arrays).
    ("CARMA", None, (4096000.0, 98566144, 125, 125,
     "f9edd10deb6825e44ac70e0b57e60f7b8da62bc844b29679ba7a2ee6019d42d3"), 0.5),
    # ScaLAPACK's grid with a ring and a skew: 0.32 s through transfer lists,
    # 0.01 s as two closed-form class deltas, 0.017 s through the grid core.
    ("Cannon", (256, 256), (16776960.0, 16777216, 512, 1024,
     "e0036800107951b45dd229136840ade0e92b40bbdbd28c79349598bf0ffbd31e"), 0.2),
], ids=["COSMA", "ScaLAPACK", "CTF", "CARMA", "Cannon"])
def test_grid_baselines_three_octaves_up(name, grid, pinned, ceiling_s):
    """32768^3 on p=65536, S=101000: values and the counter matrix's sha256
    captured at the parent (the hash over the eight rows the matrix keeps), where the hop arrays made these 2.5-5.4 s / 600 MiB
    (ScaLAPACK) and 0.9 s / 340 MiB (CTF); 0.25 s and 0.015 s without them.  The
    ceiling is on the faster of two runs and far above that: it guards the
    order of magnitude, not the box.  CARMA (which plans no grid) and Cannon
    ride along at the same point, pinned the same way at their parent, and COSMA
    on the planned grid, passed as ``grid=`` (without it the runner reads the
    same grid off the memoized plan): the grid search (0.7 s, memoized behind
    ``plan``) is not the engine."""
    scenario = Scenario(name="square-paper-p65536", shape=square_shape(32768), p=65536,
                        memory_words=101_000, regime="limited")
    spec = get_algorithm(name)
    assert grid is None or spec.plan(scenario).grid == grid
    options = {"grid": grid} if name == "COSMA" else {}
    seconds = []
    for _ in range(2):
        start = time.perf_counter()
        machine, _ = _run_on(lambda a, b, machine: spec.run(a, b, scenario, machine, **options),
                             32768, 32768, 32768, scenario.p, scenario.memory_words, "volume")
        seconds.append(time.perf_counter() - start)
    counters = machine.counters
    assert (counters.mean_words_per_rank(), counters.max_words_per_rank(), counters.max_rounds(),
            counters.max_messages_per_rank(),
            hashlib.sha256(counters.data.tobytes()).hexdigest()) == pinned
    assert min(seconds) < ceiling_s


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("plane_dtype", ["float64", "float32"])
def test_plane_product_from_the_single_sheet(plane_dtype, shards):
    m, n, k = 37, 29, 83
    machine, product, rounds = _run(m, n, k, ProcessorGrid(2, 3, 3), 0, 4000, mode="plane",
                                    plane_dtype=plane_dtype, shards=shards)
    assert product.shape == (m, n)
    assert product.dtype == np.dtype(plane_dtype)
    rng = np.random.default_rng(0)
    expected = rng.random((m, k)) @ rng.random((k, n))
    rtol, atol_unit = allclose_tolerances(product.dtype)
    assert np.allclose(product, expected, rtol=rtol, atol=atol_unit * k)
    reference = _cosma_reference_observables(m, n, k, ProcessorGrid(2, 3, 3), 0, 4000)
    assert _observables(machine, product, rounds) == reference


# ---------------------------------------------------------------------------
# SUMMA and Cannon: the same contract through the same helpers
# ---------------------------------------------------------------------------
def _assert_engines_equal_the_per_hop_loop(multiply, reference, m, n, k, p):
    """``volume`` and ``plane`` against the per-hop reference: one run, two
    runs, traced."""
    args = (multiply, m, n, k, p, 1 << 20)
    loop, product = _reference_on(reference, m, n, k, p)
    once = _reference_observables(loop, product)
    twice = _reference_observables(*_reference_on(reference, m, n, k, p, runs=2))
    for mode in ("volume", "plane"):
        machine, engine_product = _run_on(*args, mode=mode)
        assert _observables(machine, engine_product) == once, mode
        assert _observables(*_run_on(*args, mode=mode, runs=2)) == twice, mode
        traced_spans, traced = _round_spans(_run_on, *args, mode=mode)
        assert traced_spans == loop.rounds, mode
        assert _observables(*traced) == once, mode
    assert np.allclose(engine_product, product, rtol=1e-10, atol=1e-8 * k)


@st.composite
def summa_problems(draw):
    """``(m, n, k, (pm, pn), panel width, idle ranks)``; grids are drawn, not
    fitted, so pm = 1 and pn = 1 occur, k may be smaller than the grid (empty
    ownership slices) and the panel runs from one column to wider than k."""
    pm, pn = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    k = draw(st.integers(1, 50))
    return (draw(st.integers(pm, 20)), draw(st.integers(pn, 20)), k, (pm, pn),
            draw(st.integers(1, k + 3)), draw(st.integers(0, 2)))


@settings(max_examples=40, deadline=None)
@given(problem=summa_problems())
@example(problem=(13, 11, 47, (2, 3), 1, 0))    # one-column panels: 47 rounds
@example(problem=(13, 11, 47, (2, 3), 30, 1))   # panels wider than an ownership slice, idle rank
@example(problem=(13, 11, 47, (2, 3), 5, 2))    # k not a multiple of the panel width
@example(problem=(9, 14, 31, (1, 4), 3, 0))     # pm = 1: no B broadcasts
@example(problem=(9, 14, 31, (4, 1), 3, 1))     # pn = 1: no A broadcasts
@example(problem=(7, 5, 2, (3, 4), 1, 0))       # k < pm, pn: empty ownership slices
def test_summa_equals_the_per_hop_loop(problem):
    m, n, k, grid_shape, panel_width, idle = problem
    p = grid_shape[0] * grid_shape[1] + idle
    decomposition = summa_decomposition(m, n, k, p, 1 << 20, grid=grid_shape,
                                        panel_width=panel_width)

    def multiply(a, b, machine):
        return run_panels(machine, a, b, decomposition, "tree")

    def reference(a, b, machine):
        return per_hop.panels(machine, decomposition, a, b, "tree")

    _assert_engines_equal_the_per_hop_loop(multiply, reference, m, n, k, p)


@settings(max_examples=40, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 20), st.integers(1, 20), st.integers(1, 20)),
    p=st.integers(1, 30),  # q = 1 .. 5, with and without idle ranks
)
@example(shape=(12, 12, 12), p=1)    # q = 1: one round, no ring
@example(shape=(13, 11, 7), p=11)    # q = 3 and two idle ranks
@example(shape=(13, 11, 7), p=29)    # q = 5, four idle ranks, padded blocks
def test_cannon_equals_the_per_hop_loop(shape, p):
    decomposition = cannon_decomposition(*shape, p, 1 << 20)

    def multiply(a, b, machine):
        return cannon_run(machine, a, b, decomposition)

    def reference(a, b, machine):
        return per_hop.cannon(machine, decomposition, a, b)

    _assert_engines_equal_the_per_hop_loop(multiply, reference, *shape, p)


def _many_panel_summa():
    """ScaLAPACK's engine on 8192^3, p=4096, S=8000, called bare: its plan
    is infeasible (p S is below the footprint), so no entry point runs it."""
    n, p, s = 8192, 4096, 8000
    machine = DistributedMachine(p, memory_words=s, mode="volume")
    run_panels(machine, ShapeToken((n, n)), ShapeToken((n, n)), summa_decomposition(n, n, n, p, s), "tree")
    return machine.counters.max_rounds(), machine.counters.mean_received_per_rank()


def test_many_panel_summa_posts_once_per_class(class_posts, panel_exchange):
    """ScaLAPACK 8192^3 on p=4096 with S=8000: 8192 one-column panels are one
    expansion of closed-form sums, no class delta of size p (and no transfer
    list); under a tracer, the same expansion and 64 class deltas for the
    spans, each expanded from one round's sums, not 8192 postings."""
    # every panel was counted ...
    assert _many_panel_summa() == (32256, 2064384.0)
    # ... in one expansion to ranks, with no class of the 8192 panels
    assert class_posts == [] and panel_exchange.classes == [] and panel_exchange.expansions == 1
    with tracing():
        assert _many_panel_summa() == (32256, 2064384.0)
    assert class_posts == ["repro.core.cosma"] * 64  # written once per class
    assert panel_exchange.classes == [1] * 64
    assert panel_exchange.expansions == 1 + 1 + 64


# ---------------------------------------------------------------------------
# class deltas are written in closed form: the hop expansion they replaced is the oracle
# ---------------------------------------------------------------------------
def _rank_grid(decomposition):
    """The used ranks on the ``(pm, pn, pk)`` grid: row-major in ``(pi, pj, kk)``."""
    return np.arange(decomposition.p_used).reshape(decomposition.grid.as_tuple())


def _expanded_round(decomposition, p, exchange, r):
    """Round ``r`` of the panel exchange posted hop by hop through
    ``CommCounters.post_transfers``: the body ``fiber_exchange_rounds`` had
    before it wrote its deltas from the overlap widths, unrolled into loops."""
    pm, pn, pk = decomposition.grid
    lm, ln = np.diff(decomposition.i_bounds), np.diff(decomposition.j_bounds)
    step = decomposition.step_size
    delta = CommCounters.for_ranks(p)
    srcs, dsts, words = [], [], []

    def send_pieces(fiber, slices, c0, c1, side):
        """Every owner of ``fiber`` whose slice meets ``[c0, c1)`` sends its piece."""
        q = len(fiber)
        hops = {"tree": broadcast_hops(q), "ring": [(d, d + 1) for d in range(q - 1)]}.get(
            exchange, [(0, d) for d in range(1, q)])
        for owner in range(q):
            width = min(slices[owner + 1], c1) - max(slices[owner], c0)
            for s, d in hops if width > 0 else ():
                srcs.append(fiber[(owner + s) % q])
                dsts.append(fiber[(owner + d) % q])
                words.append(side * width)

    ranks = _rank_grid(decomposition)
    for kk in range(pk):
        k0, k1 = decomposition.k_bounds[kk : kk + 2]
        c0 = min(k0 + r * step, k1)
        c1 = min(c0 + step, k1)
        if c0 == c1:
            continue  # this layer ran out of k in an earlier round
        for pi in range(pm):
            send_pieces(ranks[pi, :, kk], decomposition.a_bounds[kk], c0, c1, lm[pi])
        for pj in range(pn):
            send_pieces(ranks[:, pj, kk], decomposition.b_bounds[kk], c0, c1, ln[pj])
        # Every rank of the layer multiplies the part of the chunk both its
        # A and its B owners hold.
        a_slices, b_slices = decomposition.a_bounds[kk], decomposition.b_bounds[kk]
        held = max(0, min(c1, a_slices[-1], b_slices[-1]) - max(c0, a_slices[0], b_slices[0]))
        for pi in range(pm):
            for pj in range(pn):
                delta.data[FLOPS, ranks[pi, pj, kk]] += 2 * held * lm[pi] * ln[pj]
    receiver_pays = exchange in ("get", "ring")
    delta.post_transfers(srcs, dsts, words, kind="input", count_rounds=not receiver_pays)
    if receiver_pays:  # a get is charged to its origin only, a ring hop to its receiver
        np.add.at(delta.data[ROUNDS], dsts, 1)
    return delta.data


@st.composite
def exchange_problems(draw, side=7):
    """A decomposition on a drawn grid with fiber lengths up to ``side`` (3, 5,
    6, 7: binomial trees that are not full), idle ranks and an explicit step,
    from one outer product per round to the whole layer in one."""
    pm, pn, pk = draw(st.integers(1, side)), draw(st.integers(1, side)), draw(st.integers(1, 4))
    m, n, k = draw(st.integers(pm, 20)), draw(st.integers(pn, 20)), draw(st.integers(1, 40))
    p = pm * pn * pk + draw(st.integers(0, 2))
    return p, build_decomposition(m, n, k, p, 1 << 20, grid=ProcessorGrid(pm, pn, pk),
                                  step_size=draw(st.integers(1, -(-k // pk))))


@settings(max_examples=80, deadline=None)
@given(problem=exchange_problems(),
       exchange=st.sampled_from(["tree", "get", "gather", "ring"]))
@example(problem=(36, build_decomposition(12, 12, 5, 36, 1 << 20, grid=ProcessorGrid(6, 5, 1),
                                          step_size=1)), exchange="tree")  # k < pm: empty slices
@example(problem=(15, build_decomposition(9, 9, 7, 15, 1 << 20, grid=ProcessorGrid(1, 7, 2),
                                          step_size=2)), exchange="gather")  # pm = 1, uneven layers
@example(problem=(9, build_decomposition(9, 9, 31, 9, 1 << 20, grid=ProcessorGrid(7, 1, 1),
                                         step_size=3)), exchange="get")  # pn = 1, two idle ranks
@example(problem=(2, build_decomposition(5, 4, 9, 2, 1 << 20, grid=ProcessorGrid(1, 1, 1),
                                         step_size=2)), exchange="ring")  # q = 1: no hop
@example(problem=(5, build_decomposition(6, 6, 8, 5, 1 << 20, grid=ProcessorGrid(2, 2, 1),
                                         step_size=4)), exchange="ring")  # q = 2: one hop
def test_class_deltas_equal_the_hop_expansion(problem, exchange):
    """Every class's delta, on all eight rows, at the first and the last round
    of the class (so the run detection is held to the same oracle), and the
    classes cover the schedule."""
    p, decomposition = problem
    machine = DistributedMachine(p, mode="volume")
    covered = []
    for rounds, delta in fiber_exchange_rounds(machine, decomposition, exchange):
        for r in {rounds[0], rounds[-1]}:
            assert np.array_equal(delta, _expanded_round(decomposition, p, exchange, r))
        covered += rounds
    assert covered == list(range(decomposition.num_steps))
    assert not machine.counters.data.any()  # yielded, not added


@settings(max_examples=80, deadline=None)
@given(problem=exchange_problems(),
       exchange=st.sampled_from(["tree", "get", "gather", "ring"]))
@example(problem=(36, build_decomposition(12, 12, 5, 36, 1 << 20, grid=ProcessorGrid(6, 5, 1),
                                          step_size=1)), exchange="tree")  # k < pm: empty slices
@example(problem=(15, build_decomposition(9, 9, 7, 15, 1 << 20, grid=ProcessorGrid(1, 7, 2),
                                          step_size=2)), exchange="gather")  # pm = 1, uneven layers
@example(problem=(9, build_decomposition(9, 9, 31, 9, 1 << 20, grid=ProcessorGrid(7, 1, 1),
                                         step_size=3)), exchange="get")  # pn = 1, two idle ranks
@example(problem=(2, build_decomposition(5, 4, 9, 2, 1 << 20, grid=ProcessorGrid(1, 1, 1),
                                         step_size=2)), exchange="ring")  # q = 1: no hop
@example(problem=(5, build_decomposition(6, 6, 8, 5, 1 << 20, grid=ProcessorGrid(2, 2, 1),
                                         step_size=4)), exchange="ring")  # q = 2: one hop
def test_one_expansion_equals_the_summed_class_deltas(problem, exchange):
    """A run reads its sums off the boundary arrays before anything of size p
    exists: on a machine that already holds counters, all eight rows equal
    ``sum(len(rounds) * delta)`` over the class deltas held to the hop
    expansion above, traced or not.  A traced run spans each class once,
    with its multiplicity and one round's words, flops and hops."""
    p, decomposition = problem
    held = np.random.default_rng(0).integers(0, 1000, size=(len(COUNTER_FIELDS), p))
    expected = held.copy()
    classes = []
    for rounds, delta in fiber_exchange_rounds(
            DistributedMachine(p, mode="volume"), decomposition, exchange):
        expected += len(rounds) * delta
        classes.append({"label": f"exchange-{exchange}", "first_round": rounds[0],
                        "multiplicity": len(rounds), "words_posted": delta[WORDS_SENT].sum(),
                        "flops": delta[FLOPS].sum(), "hops": delta[MESSAGES_SENT].sum()})

    for traced in (False, True):
        with (tracing() if traced else nullcontext()) as tracer:
            machine = DistributedMachine(p, mode="volume")
            machine.counters.data[...] = held
            post_fiber_exchange(machine, decomposition, exchange)
        assert np.array_equal(machine.counters.data, expected), traced
    spans = [args for _name, _cat, _start, _dur, args, _track in tracer.spans("round")]
    assert [{key: span[key] for key in classes[0]} for span in spans] == classes


@st.composite
def ragged_decompositions(draw):
    """A decomposition with ragged extents (layers, blocks and ownership
    slices of unequal sizes, empty ones when ``k < pk`` or a layer is
    narrower than its fiber), any step from one outer product to past the
    widest layer (so it need not divide ``lk``), and optionally layer 0's
    last A or B ownership slice emptied, as ``tests/test_plane_ownership.py``
    drops it, or both (no slice then ends where the layer does)."""
    pm, pn, pk = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 4))
    m, n, k = draw(st.integers(pm, 23)), draw(st.integers(pn, 23)), draw(st.integers(1, 41))
    decomposition = build_decomposition(m, n, k, pm * pn * pk, 1 << 20,
                                        grid=ProcessorGrid(pm, pn, pk),
                                        step_size=draw(st.integers(1, k + 3)))
    dropped = {}
    for name in draw(st.sampled_from([(), ("a_bounds",), ("b_bounds",),
                                      ("a_bounds", "b_bounds")])):
        bounds = dropped[name] = getattr(decomposition, name).copy()
        bounds[0, -1] = bounds[0, -2]
    return dataclasses.replace(decomposition, **dropped)


def _width_table(decomposition):
    """The panel exchange as a table of every round's widths: row ``r`` is,
    for every k-layer, the width of round ``r``'s chunk clamped to the layer,
    then the part of it that both the layer's A and B owners hold (what its
    ranks multiply), then its overlap with each A ownership slice ``(layer,
    owner)``, then with each B slice.  The engine once built this table and
    summed its rows; it is kept here as the reference its closed forms are
    held to."""
    d = decomposition
    k_lo, k_hi = d.k_bounds[:-1], d.k_bounds[1:]
    offsets = np.arange(0, int((k_hi - k_lo).max()), d.step_size)
    c0 = np.minimum(k_lo + offsets[:, None], k_hi)  # (round, layer)
    c1 = np.minimum(c0 + d.step_size, k_hi)

    def overlaps(bounds):
        hi = np.minimum(bounds[:, 1:], c1[:, :, None])
        return np.maximum(hi - np.maximum(bounds[:, :-1], c0[:, :, None]), 0).reshape(len(c0), -1)

    held = (np.minimum(c1, np.minimum(d.a_bounds[:, -1], d.b_bounds[:, -1]))
            - np.maximum(c0, np.maximum(d.a_bounds[:, 0], d.b_bounds[:, 0])))
    return np.concatenate([c1 - c0, np.maximum(held, 0), overlaps(d.a_bounds),
                           overlaps(d.b_bounds)], axis=1)


def _run_starts(table):
    """The row at which each maximal run of equal ``table`` rows starts."""
    return np.flatnonzero(np.r_[True, (table[1:] != table[:-1]).any(axis=1)])


@settings(max_examples=150, deadline=None)
@given(decomposition=ragged_decompositions(),
       exchange=st.sampled_from(["tree", "get", "gather", "ring"]),
       window=st.tuples(st.integers(0, 60), st.integers(0, 60)))
@example(decomposition=build_decomposition(13, 11, 29, 24, 1 << 20, grid=ProcessorGrid(3, 4, 2),
                                           step_size=4), exchange="tree",
         window=(1, 3))  # 4 divides no lk
@example(decomposition=build_decomposition(7, 9, 10, 8, 1 << 20, grid=ProcessorGrid(2, 2, 2),
                                           step_size=12), exchange="ring",
         window=(0, 1))  # step > lk
@example(decomposition=build_decomposition(5, 5, 3, 16, 1 << 20, grid=ProcessorGrid(2, 2, 4),
                                           step_size=1), exchange="get",
         window=(1, 1))  # k < pk: empty layers; an empty window
def test_closed_form_sums_equal_the_width_table(decomposition, exchange, window):
    """The sums the engine reads off the boundary arrays are the width
    table's, for the whole exchange, for every one-round window and for a
    drawn window ``[first, stop)``: the column sums of the table's slice
    (held widths, then A and B overlap widths) and the nonzero count of
    every overlap column (the chunks that touch the slice); the table has one
    row per round.  The class starts are the table's run starts, so every
    class is complete and maximal, and they are where a traced run's spans
    start.  Untraced and traced, the counters land on the same bytes."""
    pk = decomposition.grid.pk
    table = _width_table(decomposition)
    rounds = len(table)
    assert rounds == decomposition.num_steps

    def table_sums(first, stop):
        rows = table[first:stop]
        return np.concatenate([rows[:, pk:].sum(axis=0), np.count_nonzero(rows[:, 2 * pk:], axis=0)])

    def closed_form(*window):
        held, w_a, w_b, n_a, n_b = decomposition.exchange_sums(*window)
        return np.concatenate([held, w_a.ravel(), w_b.ravel(), n_a.ravel(), n_b.ravel()])

    first, stop = sorted(cut % (rounds + 1) for cut in window)
    for sums, window in [((0, rounds), ()), ((first, stop), (first, stop)),
                         *(((r, r + 1), (r, r + 1)) for r in range(rounds))]:
        assert np.array_equal(closed_form(*window), table_sums(*sums)), window
    assert np.array_equal(cosma._class_starts(decomposition), _run_starts(table))

    counters = []
    for traced in (False, True):
        with (tracing() if traced else nullcontext()) as tracer:
            machine = DistributedMachine(decomposition.p, mode="volume")
            post_fiber_exchange(machine, decomposition, exchange)
        counters.append(machine.counters.data.tobytes())
    assert counters[0] == counters[1]
    starts = [span[4]["first_round"] for span in tracer.spans("round")]
    assert starts == _run_starts(table).tolist()


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("pk", [1, 2, 3, 5, 8])
def test_c_reduction_equals_the_hop_expansion(pk, traced):
    """The mirrored tree along every k fiber, on a machine that already holds counters."""
    p = 2 * 3 * pk + 1
    decomposition = build_decomposition(7, 8, 40, p, 1 << 20, grid=ProcessorGrid(2, 3, pk))
    lm, ln = np.diff(decomposition.i_bounds), np.diff(decomposition.j_bounds)
    expected = HopMachine(p)
    expected.send(0, p - 1, np.ones(11))
    ranks = _rank_grid(decomposition).tolist()
    for pi in range(2):
        for pj in range(3):  # the per-hop reference's call: the collective walks reduce_hops
            fiber = ranks[pi][pj]
            reduce(expected, fiber[0], fiber, dict.fromkeys(fiber, ShapeToken((lm[pi], ln[pj]))))
    with (tracing() if traced else nullcontext()) as tracer:
        machine = DistributedMachine(p, mode="volume")
        machine.post_transfers([0], [p - 1], 11)
        post_c_reduction(machine, decomposition)
    assert np.array_equal(machine.counters.data, expected.counters.data)
    assert machine.check_memory() == lm[0] * ln[0]  # the reduced blocks, on the kk = 0 ranks
    if traced:  # one span per posting call; no reduction along a k fiber of one
        assert [span[4]["hops"] for span in tracer.spans("round")] == [1, 6 * (pk - 1)][: min(pk, 2)]


def _resident(machine):
    """Every rank's resident words."""
    return [machine.rank(rank).resident_words() for rank in range(machine.p)]


@settings(max_examples=60, deadline=None)
@given(problem=exchange_problems(side=4),
       exchange=st.sampled_from(["tree", "get", "gather", "ring"]))
@example(problem=(13, build_decomposition(7, 5, 2, 13, 1 << 20, grid=ProcessorGrid(3, 4, 1),
                                          step_size=1)), exchange="gather")  # k < pm, pn; idle
@example(problem=(20, build_decomposition(13, 11, 47, 20, 1 << 20, grid=ProcessorGrid(2, 3, 3),
                                          step_size=2)), exchange="get")  # partial last chunk
@example(problem=(9, build_decomposition(9, 9, 3, 9, 1 << 20, grid=ProcessorGrid(2, 2, 2),
                                         step_size=1)), exchange="gather")  # a layer ends early
@example(problem=(3, build_decomposition(5, 4, 9, 3, 1 << 20, grid=ProcessorGrid(1, 1, 1),
                                         step_size=2)), exchange="ring")  # q = 1: no hop
@example(problem=(10, build_decomposition(6, 6, 8, 10, 1 << 20, grid=ProcessorGrid(2, 2, 2),
                                          step_size=3)), exchange="ring")  # q = 2, two layers
def test_per_hop_twins_equal_the_accounting_core(problem, exchange):
    """The per-hop reference's steps on a hop machine against the accounting
    core on a traced ``volume`` machine, called in the same order: counter
    bytes, the resident peak, every rank's resident words and every round's
    record; the per-hop product is ``A @ B``."""
    p, decomposition = problem
    m, n, k = decomposition.m, decomposition.n, decomposition.k
    rng = np.random.default_rng(0)
    a, b = rng.random((m, k)), rng.random((k, n))
    hop = HopMachine(p)
    per_hop.put_owned_blocks(hop, decomposition, a, b, "A", "B", "C")
    per_hop.fiber_exchange(hop, decomposition, exchange, "A", "B", "C")
    per_hop.c_reduction(hop, decomposition, "C")
    with tracing() as tracer:
        core = DistributedMachine(p, mode="volume")
        post_owned_words(core, decomposition, "A", "B", "C")
        core.check_memory()
        post_fiber_exchange(core, decomposition, exchange)
        post_c_reduction(core, decomposition)
    assert hop.counters.data.tobytes() == core.counters.data.tobytes()
    assert hop.check_memory() == core.check_memory()
    assert hop.peak_resident_words == core.peak_resident_words
    assert hop.resident == _resident(core)
    assert _expanded(tracer) == hop.rounds
    assert len(hop.rounds) == decomposition.num_steps + (decomposition.grid.pk > 1)
    assert np.allclose(per_hop.owner_product(hop, decomposition, "C_final"), a @ b)


# ---------------------------------------------------------------------------
# 2D and 2.5D are grid choices: the identities behind the shared accounting core
# ---------------------------------------------------------------------------
def _counter_rows(machine, *, without=()):
    """The raw counter matrix minus the ``without`` rows."""
    data = machine.counters.data
    return np.delete(data, list(without), axis=0).tobytes()


@settings(max_examples=40, deadline=None)
@given(problem=summa_problems())
@example(problem=(13, 11, 47, (2, 3), 1, 0))    # panel width 1
@example(problem=(13, 11, 47, (2, 3), 30, 0))   # a panel wider than an ownership slice
@example(problem=(9, 14, 31, (1, 4), 3, 0))     # pm = 1
@example(problem=(9, 14, 31, (4, 1), 3, 0))     # pn = 1
@example(problem=(7, 5, 2, (3, 4), 1, 0))       # k smaller than the grid side
@example(problem=(13, 11, 47, (2, 3), 5, 2))    # idle ranks
def test_summa_is_cosma_on_a_one_layer_grid(problem):
    """All eight counter rows, between the two engines (the shared core on
    both sides: this pins the *grid and step* SUMMA hands it)."""
    m, n, k, grid, panel_width, idle = problem
    pm, pn = grid
    p = pm * pn + idle
    lm, ln = -(-m // pm), -(-n // pn)
    two_d_decomposition = summa_decomposition(m, n, k, p, 1 << 20, grid, panel_width)
    # S leaves room for exactly ``panel_width`` outer products per round.
    one_layer_decomposition = build_decomposition(
        m, n, k, p, lm * ln + panel_width * (lm + ln), grid=ProcessorGrid(pm, pn, 1))

    def summa(a, b, machine):
        return run_panels(machine, a, b, two_d_decomposition, "tree")

    def cosma(a, b, machine):
        return cosma_run(machine, a, b, one_layer_decomposition)

    two_d, _ = _run_on(summa, m, n, k, p, 1 << 20, "volume")
    one_layer, _ = _run_on(cosma, m, n, k, p, 1 << 20, "volume")
    assert one_layer_decomposition.step_size == min(panel_width, k)
    assert _counter_rows(two_d) == _counter_rows(one_layer)


def _parts(bounds):
    """Boundary offsets as ``split_offsets``-style ``(start, stop)`` pairs."""
    bounds = np.asarray(bounds).tolist()
    return list(zip(bounds[:-1], bounds[1:]))


@settings(max_examples=40, deadline=None)
@given(problem=summa_problems())
@example(problem=(7, 5, 2, (3, 4), 1, 0))       # k smaller than the grid side
@example(problem=(13, 11, 47, (2, 3), 50, 1))   # a panel wider than k
def test_summa_decomposition_is_the_textbook_layout(problem):
    """SUMMA's layout, pinned on the arrays the per-hop twins read: rank
    ``(i, j)`` owns ``A[i-block, j-th k slice]`` and ``B[i-th k slice,
    j-block]`` (the k extent split over ``pn`` and over ``pm``), and one round
    moves one panel of the given width."""
    m, n, k, (pm, pn), panel_width, idle = problem
    decomposition = summa_decomposition(m, n, k, pm * pn + idle, 1 << 20, grid=(pm, pn),
                                        panel_width=panel_width)
    assert decomposition.grid.as_tuple() == (pm, pn, 1)
    assert _parts(decomposition.i_bounds) == split_offsets(m, pm)
    assert _parts(decomposition.j_bounds) == split_offsets(n, pn)
    assert _parts(decomposition.a_bounds[0]) == split_offsets(k, pn)
    assert _parts(decomposition.b_bounds[0]) == split_offsets(k, pm)
    assert decomposition.step_size == panel_width
    assert decomposition.num_steps == len(range(0, k, panel_width))


@st.composite
def grid25d_problems(draw):
    """``(m, n, k, (q, q, c), idle ranks)``; q = 1 and c = 1 occur, and k may be
    narrower than a layer's grid side (empty ownership slices) or than c."""
    q, c = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    return (draw(st.integers(q, 20)), draw(st.integers(q, 20)), draw(st.integers(1, 30)),
            (q, q, c), draw(st.integers(0, 2)))


@settings(max_examples=40, deadline=None)
@given(problem=grid25d_problems())
@example(problem=(13, 11, 47, (3, 3, 1), 0))    # c = 1: plain 2D, no reduction
@example(problem=(13, 11, 47, (1, 1, 4), 1))    # q = 1: nothing to gather
@example(problem=(100, 90, 7, (3, 3, 3), 0))    # layers narrower than the grid side
def test_grid25d_is_cosma_with_a_one_round_gather(problem):
    """All eight rows: COSMA's accounting core on ``(q, q, c)``, the whole layer
    as the step and direct sends, against 2.5D's per-hop reference and its
    engine.  With one-sided gets (the same star) COSMA's per-hop reference
    differs from 2.5D's in the round count alone: a get charges only its
    origin."""
    m, n, k, grid, idle = problem
    p = grid[0] * grid[1] * grid[2] + idle
    memory_words = 1 << 20  # one round: the whole layer fits
    decomposition = grid25d_decomposition(m, n, k, p, memory_words, grid)

    def grid25d(a, b, machine):
        return grid25d_run(machine, a, b, decomposition)

    def cosma_gather(a, b, machine):
        decomposition = build_decomposition(
            m, n, k, p, memory_words, grid=ProcessorGrid(*grid), step_size=-(-k // grid[2]))
        post_owned_words(machine, decomposition, "A", "B", "C")
        assert decomposition.num_steps == 1
        post_fiber_exchange(machine, decomposition, "gather")
        post_c_reduction(machine, decomposition)

    core, _ = _run_on(cosma_gather, m, n, k, p, memory_words, "volume")
    loop, _ = _reference_on(
        lambda a, b, machine: per_hop.grid25d(machine, decomposition, a, b), m, n, k, p)
    assert _counter_rows(core) == _counter_rows(loop)
    assert _counter_rows(core) == _counter_rows(_run_on(grid25d, m, n, k, p, memory_words, "volume")[0])
    gets, _ = _reference(m, n, k, ProcessorGrid(*grid), idle, memory_words, use_rma=True)
    assert _counter_rows(gets, without=[ROUNDS]) == _counter_rows(loop, without=[ROUNDS])
    sender_rounds = loop.counters.data[ROUNDS] - gets.counters.data[ROUNDS]
    assert (sender_rounds >= 0).all()
    assert sender_rounds.sum() == core.counters.data[MESSAGES_SENT].sum() - (
        grid[0] * grid[1] * (grid[2] - 1))  # every message but the reduction's hops


@settings(max_examples=40, deadline=None)
@given(problem=grid25d_problems())
@example(problem=(6, 6, 2, (2, 2, 3), 0))       # k below c: an empty layer
@example(problem=(100, 90, 7, (3, 3, 3), 0))    # layers narrower than the grid side
def test_grid25d_decomposition_is_the_textbook_layout(problem):
    """2.5D's layout, pinned on the arrays the per-hop twins read: layer ``l``
    owns the ``l``-th k-slice, A's cut over the ``q`` ranks of a row and B's
    over the ``q`` ranks of a column, and one step covers the whole layer."""
    m, n, k, (q, _, c), idle = problem
    decomposition = grid25d_decomposition(m, n, k, q * q * c + idle, 4096, grid=(q, q, c))
    assert decomposition.grid.as_tuple() == (q, q, c)
    assert _parts(decomposition.k_bounds) == split_offsets(k, c)
    for layer, (lk0, lk1) in enumerate(split_offsets(k, c)):
        own = [(lk0 + lo, lk0 + hi) for lo, hi in split_offsets(lk1 - lk0, q)]
        assert _parts(decomposition.a_bounds[layer]) == _parts(decomposition.b_bounds[layer]) == own
    assert decomposition.step_size == decomposition.k_bounds[1] - decomposition.k_bounds[0]
    assert decomposition.num_steps == 1


@pytest.mark.parametrize("mode", ["legacy", "volume", "plane"])
def test_grid25d_sends_no_empty_slice(mode):
    """100 x 90 x 7 on 3 x 3 x 3: layers of 3 / 2 / 2 columns over a grid side
    of 3, so two layers have an owner with nothing to send.  126 messages when
    those were posted as zero-word transfers; the words never moved.  In both
    modes and in the per-hop reference (``legacy``, the mode it served)."""
    decomposition = grid25d_decomposition(100, 90, 7, 27, 4096, grid=(3, 3, 3))

    def multiply(a, b, machine):
        return grid25d_run(machine, a, b, decomposition)

    if mode == "legacy":
        machine, _ = _reference_on(
            lambda a, b, hops: per_hop.grid25d(hops, decomposition, a, b), 100, 90, 7, 27)
    else:
        machine, product = _run_on(multiply, 100, 90, 7, 27, 4096, mode)
    assert machine.counters.total_messages == 102
    assert machine.counters.total_words_received == 20660
    if mode == "plane":
        rng = np.random.default_rng(0)
        assert np.allclose(product, rng.random((100, 7)) @ rng.random((7, 90)))


#: The engine each built-in's runner calls, and the grid of the decomposition
#: (or the CARMA table) it calls it on, ``(machine, a, b, decomposition)``.
_EXECUTED_GRID = {
    "COSMA": ("cosma_run", lambda decomposition: decomposition.grid.as_tuple()),
    "ScaLAPACK": ("run_panels", lambda decomposition: decomposition.grid.as_tuple()[:2]),
    "CTF": ("grid25d_run", lambda decomposition: decomposition.grid.as_tuple()),
    "CARMA": ("cuboid_run", lambda table: (len(table),)),
    "Cannon": ("cannon_run", lambda decomposition: decomposition.grid.as_tuple()[:2]),
}


@settings(max_examples=30, deadline=None)
@given(dims=st.tuples(st.integers(1, 30), st.integers(1, 30), st.integers(1, 30)),
       p=st.integers(1, 24), slack=st.integers(0, 400))
def test_a_plan_reports_the_grid_and_rounds_its_run_executes(dims, p, slack):
    """Every registered algorithm: no rank outside the planned grid is touched,
    and its planned rounds are the busiest rank's counted rounds; the
    built-ins' planned grid is the executed one; the executed decomposition's
    scheduled steps (``num_steps``) are the exchange rounds the grid
    family's traced runs span."""
    shape = ProblemShape(m=dims[0], n=dims[1], k=dims[2])
    scenario = Scenario(name="drawn", shape=shape, p=p, regime="limited",
                        memory_words=-(-shape.footprint_words // p) + slack)
    assert set(_EXECUTED_GRID) <= set(registered_algorithms())
    for name in registered_algorithms():
        spec = get_algorithm(name)
        run_plan = spec.plan(scenario)
        assert run_plan.feasible, name
        attr, executed_grid = _EXECUTED_GRID.get(name, (None, None))
        executed = []

        def multiply(a, b, machine):
            if attr is None:
                return spec.run(a, b, scenario, machine)
            inner = getattr(builtin_specs, attr)

            def recording(machine, a, b, decomposition, *args):
                executed.append(decomposition)
                return inner(machine, a, b, decomposition, *args)

            with mock.patch.object(builtin_specs, attr, recording):
                return spec.run(a, b, scenario, machine)

        spans, (machine, _) = _round_spans(
            _run_on, multiply, *dims, p, scenario.memory_words, mode="volume")
        touched = np.flatnonzero(machine.counters.data.any(axis=0))
        assert touched.size == 0 or touched[-1] < run_plan.processors_used, name
        if attr is not None:
            assert run_plan.grid == executed_grid(executed[0]), name
        assert run_plan.rounds == machine.counters.max_rounds(), name
        if name in ("COSMA", "ScaLAPACK", "Cannon", "CTF"):
            exchanged = [span for span in spans if span["label"].startswith("exchange-")]
            assert executed[0].num_steps == len(exchanged), name
