"""A ``plane`` product is a list of GEMM boxes, computed and checked one row
stripe at a time.

Every engine returns a :class:`~repro.machine.transport.GemmProduct` in
``plane`` mode, at any shard count, and the harness walks it in stripes of ``transport.STRIPE_ROWS`` rows,
checking each against the same rows of ``A @ B``.  The stripes must be the
dense product bit for bit, a defective box must fail verification wherever
the stripe edges fall, and a verified run must hold no whole C.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.extensions.allgather  # noqa: F401 - registers AllGather1D
from repro.algorithms import AlgorithmSpec, get_algorithm, register, unregister
from repro.api import multiply
from repro.experiments import harness
from repro.experiments.harness import _execute, run_algorithm
from repro.machine import transport
from repro.machine.simulator import DistributedMachine
from repro.machine.transport import GemmProduct, allclose_tolerances, row_stripes
from repro.obs import tracing
from repro.workloads.scaling import Scenario
from repro.workloads.shapes import ProblemShape, square_shape

#: Every engine that returns a GemmProduct in ``plane`` mode.
ENGINES = ("COSMA", "ScaLAPACK", "CTF", "Cannon", "CARMA", "AllGather1D")


def _scenario(m, n, k, p, memory_words=1 << 20):
    return Scenario(name=f"gemm-{m}x{n}x{k}-p{p}", shape=ProblemShape(m=m, n=n, k=k),
                    p=p, memory_words=memory_words, regime="extra")


def _product(name, scenario, a, b):
    machine = DistributedMachine(scenario.p, memory_words=scenario.memory_words)
    return get_algorithm(name).runner(a, b, scenario, machine)


@st.composite
def problems(draw):
    """An engine and a point of at most 96 per side, operands, and a stripe
    height anywhere from 1 to m."""
    name = draw(st.sampled_from(ENGINES))
    m, n, k = (draw(st.integers(1, 96)) for _ in range(3))
    p = draw(st.integers(1, 64))
    return name, _scenario(m, n, k, p), draw(st.integers(1, m)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=120, deadline=None)
@given(problem=problems())
def test_stacked_stripes_are_the_dense_product(problem):
    name, scenario, height, seed = problem
    m, n, k = scenario.shape.m, scenario.shape.n, scenario.shape.k
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((m, k)), rng.standard_normal((k, n))
    product = _product(name, scenario, a, b)
    assert isinstance(product, GemmProduct) and product.shape == (m, n)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transport, "STRIPE_ROWS", height)
        # The rows are one scratch stripe, refilled: copy each.
        stripes = [(r0, r1, rows.copy()) for r0, r1, rows in row_stripes(product)]
        machine = DistributedMachine(scenario.p, memory_words=scenario.memory_words)
        dense = get_algorithm(name).run(a, b, scenario, machine)
    assert [(r0, r1) for r0, r1, _ in stripes] == \
        [(r0, min(r0 + height, m)) for r0 in range(0, m, height)]
    assert type(dense) is np.ndarray and dense.flags.writeable
    stacked = np.vstack([rows for *_, rows in stripes])
    assert stacked.tobytes() == dense.tobytes()
    rtol, atol_unit = allclose_tolerances(dense.dtype)
    assert np.allclose(stacked, a @ b, rtol=rtol, atol=atol_unit * k)


def _defective(boxes, which, defect):
    """``boxes`` with box ``which`` dropped, one row short or one column short."""
    boxes = boxes.copy()
    if defect == "drop":
        return np.delete(boxes, which, axis=0)
    boxes[which, {"row": 1, "column": 3}[defect]] -= 1
    return boxes


def _verdict(a, b, boxes, keep):
    """``correct`` of a harness run whose product is ``boxes`` on ``a @ b``."""
    (m, k), n = a.shape, b.shape[1]

    def runner(a_matrix, b_matrix, scenario, machine):
        return GemmProduct(a_matrix, b_matrix, boxes, (m, n), machine.transport.dtype)

    register(AlgorithmSpec(name="_tmp-boxes", runner=runner))
    try:
        report = _execute(
            get_algorithm("_tmp-boxes"), _scenario(m, n, k, 1), None, a, b, mode="plane",
            span="run", verify=True, keep=keep, shards=1, plane_dtype="float64")
    finally:
        unregister("_tmp-boxes")
    assert report.verified
    return report.correct


def _positive(rng, shape):
    """Operands whose every product term is at least 1, so a missing term is
    far outside the tolerance."""
    return rng.integers(1, 8, shape).astype(np.float64)


@st.composite
def defects(draw):
    """Real boxes (a grid-family decomposition's or a CARMA table's), one of
    them broken, and a stripe height anywhere from 1 to m."""
    name, scenario, height, seed = draw(problems())
    m, n, k = scenario.shape.m, scenario.shape.n, scenario.shape.k
    rng = np.random.default_rng(seed)
    a, b = _positive(rng, (m, k)), _positive(rng, (k, n))
    boxes = _product(name, scenario, a, b).boxes
    which = draw(st.integers(0, len(boxes) - 1))
    defect = draw(st.sampled_from(["drop", "row", "column"]))
    return a, b, _defective(boxes, which, defect), height


@settings(max_examples=120, deadline=None)
@given(problem=defects(), keep=st.booleans())
def test_a_defective_box_fails_at_any_stripe_height(problem, keep):
    a, b, boxes, height = problem
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transport, "STRIPE_ROWS", height)
        assert not _verdict(a, b, boxes, keep)


@pytest.mark.parametrize(("m", "n", "k", "p"), [(1, 3, 3, 8), (4, 3, 3, 47)])
def test_idle_ranks_empty_domains_are_no_boxes(m, n, k, p):
    """CARMA halves a side of 1 into 0 and 1 rows: that rank's empty domain
    is no box, so dropping any box of the product is a defect."""
    boxes = _product("CARMA", _scenario(m, n, k, p), np.ones((m, k)), np.ones((k, n))).boxes
    assert (boxes[:, 1::2] > boxes[:, 0::2]).all()


#: Boxes of a 10 x 6 x 5 product: the first covers rows 0-3, the other two
#: split rows 4-9 at column 3.  Stripes of 3 rows end at 3, 6, 9 and 10.
BOXES = np.array([(0, 4, 0, 6, 0, 5), (4, 10, 0, 3, 0, 5), (4, 10, 3, 6, 0, 5)])


@pytest.mark.parametrize("keep", [True, False])
@pytest.mark.parametrize(("which", "defect", "stripes"), [
    (0, "row", "row 3: the second stripe of a box that straddles two"),
    (0, "column", "column 5 of rows 0-3, across the first two stripes"),
    (0, "drop", "rows 0-3"),
    (1, "row", "row 9: the last, partial stripe only"),
    (2, "row", "row 9, columns 3-5: the last, partial stripe only"),
    (2, "column", "column 5 of rows 4-9, three stripes"),
    (1, "drop", "rows 4-9, columns 0-2"),
])
def test_a_defect_fails_wherever_it_falls_among_the_stripes(which, defect, stripes, keep):
    rng = np.random.default_rng(0)
    a, b = _positive(rng, (10, 5)), _positive(rng, (5, 6))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transport, "STRIPE_ROWS", 3)
        assert _verdict(a, b, BOXES, keep)
        assert not _verdict(a, b, _defective(BOXES, which, defect), keep), stripes


def test_what_no_box_covers_is_zero_whatever_the_buffer_held():
    """A stripe buffer is reused: rows and columns no box covers must not
    keep what it held, even the right answer."""
    rng = np.random.default_rng(0)
    a, b = _positive(rng, (10, 5)), _positive(rng, (5, 6))
    out = a @ b
    GemmProduct(a, b, _defective(BOXES, 1, "column"), (10, 6), np.float64).fill(out, 0, 10)
    expected = a @ b
    expected[4:, 2] = 0
    assert np.array_equal(out, expected)


def test_the_kept_product_is_the_whole_c():
    """``multiply`` keeps its product: a writable dense C, each stripe filled
    into its rows."""
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((70, 40)), rng.standard_normal((40, 50))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transport, "STRIPE_ROWS", 16)
        for name in ENGINES:
            report = multiply(a, b, 8, 1 << 20, algorithm=name)
            assert report.correct and type(report.matrix) is np.ndarray
            assert report.matrix.flags.writeable
            assert np.allclose(report.matrix, a @ b)


def test_an_unverified_run_computes_no_product(monkeypatch):
    """Nothing asks a discarded, unchecked product for its rows."""
    def refuse(*args):
        raise AssertionError("an unverified run filled a stripe")

    monkeypatch.setattr(GemmProduct, "fill", refuse)
    run = run_algorithm("COSMA", _scenario(64, 64, 64, 8), verify=False)
    assert not run.verified and run.correct


def test_one_gemm_span_per_traced_run():
    """COSMA's GEMM span is emitted once, with the stripes' summed time."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transport, "STRIPE_ROWS", 8)
        with tracing() as tracer:
            run = run_algorithm("COSMA", _scenario(64, 48, 32, 8))
    assert run.correct
    [gemm] = tracer.spans("gemm")
    assert gemm[0] == "cosma-plane-gemm" and gemm[5] == "gemm" and gemm[3] > 0
    assert [span[0] for span in tracer.spans("phase")] == ["cosma-counter-accounting"]


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestVerifiedRunMemory:
    """A verified run holds one stripe of C, never a whole one."""

    def test_cosma_run_holds_less_than_one_c(self, monkeypatch):
        scenario = Scenario(name="square512-p64", shape=square_shape(512), p=64,
                            memory_words=1 << 20, regime="extra")
        assert run_algorithm("COSMA", scenario).correct  # warm matrices, reference, plan
        monkeypatch.setattr(transport, "STRIPE_ROWS", 64)
        peak = _traced_peak(lambda: run_algorithm("COSMA", scenario))
        assert peak < 512 * 512 * 8

    def test_cannon_copies_no_padded_operand(self, monkeypatch, harness_machines):
        """770 = 16 * 48 + 2: Cannon's 16 x 16 grid pads every extent to 784,
        and no padded copy of A or B (nor any C) is allocated; the counters
        are the counters-only run's."""
        scenario = Scenario(name="square770-p256", shape=square_shape(770), p=256,
                            memory_words=1 << 20, regime="extra")
        spec = get_algorithm("Cannon")
        assert spec.plan(scenario).feasible
        a, b = scenario.shape.random_matrices(seed=0)
        assert run_algorithm("Cannon", scenario).correct
        monkeypatch.setattr(transport, "STRIPE_ROWS", 64)
        observed = {}

        def verified_run():
            observed["plane"] = _execute(
                spec, scenario, None, a, b, mode="plane", span="run", verify=True,
                reference=lambda r0, r1: harness._reference_product(scenario.shape, 0)[r0:r1],
                shards=1, plane_dtype="float64")

        peak = _traced_peak(verified_run)
        assert peak < 770 * 770 * 8
        assert observed["plane"].verified and observed["plane"].correct
        _execute(spec, scenario, None, None, None, mode="volume", span="run",
                 verify=True, shards=1, plane_dtype="float64")
        plane, volume = (machine.counters.data.tobytes() for machine in harness_machines[-2:])
        assert plane == volume

    def test_an_uncached_reference_is_computed_one_stripe_at_a_time(self, monkeypatch):
        """A reference too large for the cache is never held whole."""
        scenario = Scenario(name="square512-p64", shape=square_shape(512), p=64,
                            memory_words=1 << 20, regime="extra")
        scenario.shape.random_matrices(seed=0)
        get_algorithm("COSMA").plan(scenario)
        monkeypatch.setattr(harness, "_REFERENCE_CACHE_MAX_WORDS", 512 * 512 - 1)
        monkeypatch.setattr(transport, "STRIPE_ROWS", 64)
        peak = _traced_peak(lambda: run_algorithm("COSMA", scenario, seed=0))
        assert peak < 512 * 512 * 8

    def test_multiply_holds_its_c_and_one_reference_stripe(self, monkeypatch):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal((512, 512)), rng.standard_normal((512, 512))
        multiply(a, b, 64, 1 << 20)
        monkeypatch.setattr(transport, "STRIPE_ROWS", 64)
        peak = _traced_peak(lambda: multiply(a, b, 64, 1 << 20))
        c_sheet = 512 * 512 * 8
        assert c_sheet <= peak < 1.5 * c_sheet
