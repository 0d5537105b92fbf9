"""Benchmark harness: run any algorithm on any scenario and collect metrics.

The harness plays the role of the paper's job scripts + mpiP profiling: it
builds a fresh :class:`~repro.machine.simulator.DistributedMachine` for every
(algorithm, scenario) pair, generates the input matrices, runs the algorithm,
verifies the numerical result against ``A @ B`` and records the communication
counters.  Every run additionally asserts word conservation (every word sent
was received by exactly one rank).

Verification walks the product in row stripes
(:func:`~repro.machine.transport.row_stripes`): each stripe is computed from
the engine's GEMM boxes and checked against the same rows of the reference
while it is still in cache.  :func:`run_algorithm` keeps no product, so it
holds one stripe of C at a time, never a whole C; :func:`repro.api.multiply`
returns the product, so its stripes are the rows of the C it returns.

Runs accept a ``mode`` (``plane`` / ``volume``, see
:mod:`repro.machine.transport`).  In volume mode the inputs are shape tokens
-- no matrices are generated or multiplied -- so numerical verification is
skipped; all communication counters are identical to ``plane`` mode, which
is what allows sweeps at the paper's true scale.
"""

from __future__ import annotations

import traceback
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.algorithms import DEFAULT_ALGORITHMS, AlgorithmSpec, get_algorithm
from repro.machine.counters import CommCounters
from repro.machine.simulator import DistributedMachine
from repro.machine.transport import (
    MODES, GemmProduct, ShapeToken, allclose_tolerances, row_stripes,
)
from repro.obs.trace import active_tracer
from repro.workloads.scaling import Scenario
from repro.workloads.shapes import ProblemShape

#: Total words the verification-reference cache may pin (~0.25 GB), evicted
#: least-recently-used first -- same policy as the input-matrix cache.  A
#: larger reference is never held: it is computed one stripe at a time.
_REFERENCE_CACHE_MAX_WORDS = 1 << 25
_REFERENCE_CACHE: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
_REFERENCE_CACHE_WORDS = 0
#: Bytes of reference rows per block of the verification (:func:`_allclose`,
#: which checks one row stripe of the product per call): blocks that stay in
#: cache check fastest, and the check's three buffers are one block each,
#: allocated once per stripe.  On a 2-core box a block costs ~0.13 ms
#: (~0.22 ms as one ``np.allclose`` per block, which allocates five
#: temporaries each time): a float64 product checks in ~68 ms at 4096^2
#: (~115 ms; ~280 ms as one whole-array ``np.allclose``) and ~2.6 ms at
#: 768^2 (~5.1 ms).
_VERIFY_BLOCK_BYTES = 1 << 18


def _reference_product(shape: ProblemShape, seed: int) -> np.ndarray:
    """The verification reference ``A @ B`` for a (shape, seed) point that
    fits the cache, cached.

    Every numeric-mode run of the same point verifies against the same
    product; sweeps that compare several algorithms (or transport modes)
    used to recompute this full-size GEMM once per run.  The cache is
    footprint-bounded so multi-shape campaigns do not pin dead products.
    """
    global _REFERENCE_CACHE_WORDS
    key = (shape, int(seed))
    hit = _REFERENCE_CACHE.get(key)
    if hit is not None:
        _REFERENCE_CACHE.move_to_end(key)
        return hit
    a_matrix, b_matrix = shape.random_matrices(seed=seed)
    reference = a_matrix @ b_matrix
    reference.setflags(write=False)
    _REFERENCE_CACHE[key] = reference
    _REFERENCE_CACHE_WORDS += reference.size
    while _REFERENCE_CACHE_WORDS > _REFERENCE_CACHE_MAX_WORDS:
        _, old = _REFERENCE_CACHE.popitem(last=False)
        _REFERENCE_CACHE_WORDS -= old.size
    return reference


def _allclose(product: np.ndarray, expected: np.ndarray, rtol: float, atol: float) -> bool:
    """``np.allclose(product, expected, rtol=rtol, atol=atol)``, one block of
    ``_VERIFY_BLOCK_BYTES`` of reference rows at a time in three preallocated
    buffers.

    A block passes when ``|p - e| <= atol + rtol * |e|`` holds everywhere,
    computed with ``np.isclose``'s promotion and operation order (``rtol``
    and ``atol`` are Python floats, so they take the block's dtype), and its
    tolerance is finite.  ``isclose`` also accepts ``p == e`` and rejects an
    infinite ``e``; neither can change a verdict here except in a block that
    fails or has an infinite (or NaN) tolerance, and such a block is decided
    again by ``np.allclose`` itself.  So is a pair that is not two equally
    shaped float matrices.  The verdict is therefore ``np.allclose``'s.
    """
    if not (type(product) is type(expected) is np.ndarray and product.shape == expected.shape
            and expected.ndim == 2 and product.dtype.kind == expected.dtype.kind == "f"):
        return bool(np.allclose(product, expected, rtol=rtol, atol=atol))
    rows, cols = expected.shape
    step = min(max(1, _VERIFY_BLOCK_BYTES // max(1, expected[:1].nbytes)), max(1, rows))
    diff = np.empty((step, cols), np.result_type(product, expected))
    tolerance = np.empty((step, cols), expected.dtype)
    within = np.empty((step, cols), bool)
    for r0 in range(0, rows, step):
        p_block, e_block = product[r0:r0 + step], expected[r0:r0 + step]
        used = e_block.shape[0]
        d, t, w = diff[:used], tolerance[:used], within[:used]
        with np.errstate(invalid="ignore"):  # as isclose: inf - inf is a NaN that fails
            np.abs(np.subtract(p_block, e_block, out=d), out=d)
            np.add(np.multiply(np.abs(e_block, out=t), rtol, out=t), atol, out=t)
            if np.less_equal(d, t, out=w).all() and np.isfinite(t.max()):
                continue
        if not np.allclose(p_block, e_block, rtol=rtol, atol=atol):
            return False
    return True


@dataclass
class AlgorithmRun:
    """Metrics of one algorithm execution on one scenario."""

    algorithm: str
    scenario: Scenario
    #: Whether the result matched ``A @ B`` -- True when verification was
    #: skipped (see ``verified``).
    correct: bool
    #: Average words moved (sent + received) per rank -- Table 4's metric.
    mean_words_per_rank: float
    #: Average words *received* per rank -- the quantity the I/O theory bounds.
    mean_received_per_rank: float
    #: Maximum words moved through any rank (critical path).
    max_words_per_rank: int
    #: Maximum words received by any rank.
    max_received_per_rank: int
    #: Maximum flops executed by any rank.
    max_flops_per_rank: int
    total_flops: int
    #: Maximum number of communication rounds on any rank (latency proxy).
    rounds: int
    #: Mean words attributable to the input matrices / the output matrix.
    input_words_per_rank: float
    output_words_per_rank: float
    #: Number of messages on the busiest rank.
    max_messages_per_rank: int
    #: Execution mode the run used (``plane`` / ``volume``).
    mode: str = "plane"
    #: Whether the numerical result was actually checked against ``A @ B``.
    verified: bool = True

    @property
    def mean_megabytes_per_rank(self) -> float:
        return self.mean_words_per_rank * 8.0 / 1e6

    @property
    def p(self) -> int:
        return self.scenario.p


@dataclass
class RunFailure:
    """Structured record of one run that raised instead of completing.

    Sweep campaigns must not abort wholesale because one (algorithm,
    scenario) point is infeasible -- e.g. a memory size too small for any
    schedule.  :func:`run_algorithm_safe` converts the exception into this
    record so the campaign runner (and the result store) can persist it and
    keep going.  The campaign runner builds the same record for a run whose
    plan is infeasible (``InfeasiblePlan``) and for a run lost with its
    worker process (``WorkerCrash``).
    """

    algorithm: str
    scenario: Scenario
    mode: str
    error_type: str
    error_message: str
    #: Last lines of the traceback (empty when no exception was raised).
    traceback_tail: str = ""

    @property
    def correct(self) -> bool:
        return False


def _execute(
    spec: AlgorithmSpec,
    scenario: Scenario,
    a_matrix,
    b_matrix,
    *,
    mode: str,
    span: str,
    verify: bool,
    keep: bool = False,
    reference: Callable[[int, int], np.ndarray] | None = None,
    options: Mapping | None = None,
    shards: int,
    plane_dtype: str,
) -> tuple[np.ndarray | GemmProduct | ShapeToken, CommCounters, str, bool, bool]:
    """Run ``spec`` on a fresh machine: the one path behind :func:`run_algorithm`
    and :func:`repro.api.multiply`.

    Validates ``mode``, builds the machine from the three execution-policy
    arguments, executes under a ``<span>:<algorithm>`` run span, asserts
    word conservation and -- for numeric modes, when ``verify`` -- checks
    the product stripe by stripe against ``reference(r0, r1)``, rows
    ``r0:r1`` of ``A @ B`` (default ``A[r0:r1] @ B``), at the dtype's
    tolerances (:func:`_checked`).  With ``keep`` the product comes back as
    a dense array; without, it is not held.  In ``"volume"`` mode the inputs
    are replaced by shape tokens; in ``"plane"`` mode a token input is an
    error.  Returns ``(product, counters, mode, verified, correct)``,
    ``mode`` being the one the run used.
    """
    if mode in ("legacy", "zerocopy"):
        # The retired per-hop transports.  The frozen ledger still passes
        # these names (perhop_default's op and its layer pass), so they run as
        # "plane" here, and only here, until the ledger re-baseline drops them.
        mode = "plane"
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; known: {MODES}")
    if mode == "plane" and (isinstance(a_matrix, ShapeToken) or isinstance(b_matrix, ShapeToken)):
        raise ValueError(
            'shape tokens carry no values to multiply in mode="plane"; '
            'run them with mode="volume"'
        )
    shape = scenario.shape
    if mode == "volume":
        a_matrix, b_matrix = ShapeToken((shape.m, shape.k)), ShapeToken((shape.k, shape.n))
    else:
        a_matrix, b_matrix = np.asarray(a_matrix), np.asarray(b_matrix)
    machine = DistributedMachine(
        scenario.p, memory_words=scenario.memory_words, mode=mode,
        shards=shards, plane_dtype=plane_dtype,
    )
    options = options or {}
    tracer = active_tracer()
    run_span = (
        tracer.span(
            f"{span}:{spec.name}", cat="run",
            args={
                "algorithm": spec.name, "scenario": scenario.name,
                "p": scenario.p, "mode": mode,
            },
            track="run",
        )
        if tracer is not None
        else nullcontext()
    )
    with run_span:
        product = spec.runner(a_matrix, b_matrix, scenario, machine, **options)
    machine.counters.assert_conservation()
    verified = bool(verify) and mode != "volume"
    correct = True
    if mode != "volume" and (verified or keep):
        if reference is None:
            def reference(r0, r1):
                return a_matrix[r0:r1] @ b_matrix
        product, correct = _checked(product, reference, shape, verify=verified, keep=keep)
    return product, machine.counters, mode, verified, correct


def _checked(product, reference: Callable[[int, int], np.ndarray], shape: ProblemShape, *,
             verify: bool, keep: bool) -> tuple[np.ndarray | GemmProduct, bool]:
    """Walk a ``plane`` product in row stripes
    (:func:`~repro.machine.transport.row_stripes`), checking each stripe
    against ``reference(r0, r1)`` with :func:`_allclose` when ``verify``;
    returns ``(product, correct)``.

    With ``keep`` a :class:`~repro.machine.transport.GemmProduct` fills the
    rows of one dense C, which is returned; without, it fills one scratch
    stripe again and again, and the walk stops at the first stripe that
    fails.  A dense product is walked as views of its rows.  The verdict is
    the whole-array ``np.allclose``'s: it is elementwise, and a product not
    of the point's ``m x n`` (which ``np.allclose`` may broadcast, or
    reject) is decided by it whole.
    """
    m, n, k = shape.m, shape.n, shape.k
    if not isinstance(product, GemmProduct):
        product = np.asarray(product)
    rtol, atol_unit = allclose_tolerances(product.dtype)
    rtol, atol = float(rtol), float(atol_unit * k)
    if product.shape != (m, n):
        product = np.asarray(product)
        return product, not verify or _allclose(product, reference(0, m), rtol, atol)
    out = np.empty((m, n), product.dtype) if keep and isinstance(product, GemmProduct) else None
    correct = True
    for r0, r1, rows in row_stripes(product, out):
        if verify and correct:
            correct = _allclose(rows, reference(r0, r1), rtol, atol)
        if not (correct or keep):
            break
    return product if out is None else out, correct


def run_algorithm(
    name: str,
    scenario: Scenario,
    seed: int = 0,
    verify: bool = True,
    mode: str = "plane",
    # Ignored: the frozen ledger layer machine.compress_replay_s still passes it; the [benchmark] re-baseline drops it.
    compress_rounds: bool = False,
    shards: int = 1,
    plane_dtype: str = "float64",
) -> AlgorithmRun:
    """Run one algorithm on one scenario and collect its metrics.

    ``name`` may be any registered algorithm name or alias
    (:mod:`repro.algorithms`); the returned run carries the canonical name.
    ``mode`` selects the payload transport; in ``"volume"`` mode the inputs
    are shape tokens and numerical verification is skipped (counters only).
    A scenario whose plan is infeasible raises
    :class:`~repro.algorithms.InfeasiblePlan` before any input is generated.
    ``shards`` shards COSMA's plane GEMM over worker processes
    (:mod:`repro.machine.shard`; the other algorithms run in process
    whatever it says, and counters are byte-identical across shard counts)
    and ``plane_dtype`` selects the numeric payload dtype
    (verification uses dtype-appropriate relative tolerances).  Every run
    ends with a word-conservation assertion
    (:meth:`~repro.machine.counters.CommCounters.assert_conservation`).
    """
    spec = get_algorithm(name)
    spec.feasible_plan(scenario)
    shape = scenario.shape
    inputs = (None, None) if mode == "volume" else shape.random_matrices(seed=seed)
    reference = None  # a reference too large to cache: A[r0:r1] @ B per stripe
    if shape.m * shape.n <= _REFERENCE_CACHE_MAX_WORDS:
        def reference(r0, r1):
            return _reference_product(shape, seed)[r0:r1]
    _, counters, mode, verified, correct = _execute(
        spec, scenario, *inputs, mode=mode, span="run", verify=verify,
        reference=reference, shards=shards, plane_dtype=plane_dtype,
    )
    return AlgorithmRun(
        algorithm=spec.name,
        scenario=scenario,
        correct=correct,
        mode=mode,
        verified=verified,
        mean_words_per_rank=counters.mean_words_per_rank(),
        mean_received_per_rank=counters.mean_received_per_rank(),
        max_words_per_rank=counters.max_words_per_rank(),
        max_received_per_rank=counters.max_received_per_rank(),
        max_flops_per_rank=counters.max_flops_per_rank(),
        total_flops=counters.total_flops,
        rounds=counters.max_rounds(),
        input_words_per_rank=counters.mean_input_words_per_rank(),
        output_words_per_rank=counters.mean_output_words_per_rank(),
        max_messages_per_rank=counters.max_messages_per_rank(),
    )


def run_algorithm_safe(
    name: str,
    scenario: Scenario,
    seed: int = 0,
    verify: bool = True,
    mode: str = "plane",
    shards: int = 1,
    plane_dtype: str = "float64",
) -> AlgorithmRun | RunFailure:
    """Like :func:`run_algorithm` but captures failures as :class:`RunFailure`.

    Unknown algorithm names and unknown modes still raise (those are caller
    bugs, not scenario properties); everything raised while executing the
    scenario -- an infeasible plan (error type ``InfeasiblePlan``, as the
    campaign's pruning pass stores it), schedule errors, conservation
    violations -- comes back as a structured record.
    """
    name = get_algorithm(name).name  # raises UnknownAlgorithmError (a KeyError)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; known: {MODES}")
    try:
        return run_algorithm(
            name, scenario, seed=seed, verify=verify, mode=mode,
            shards=shards, plane_dtype=plane_dtype,
        )
    except Exception as exc:  # noqa: BLE001 - the point is to capture anything
        return RunFailure(
            algorithm=name,
            scenario=scenario,
            mode=mode,
            error_type=type(exc).__name__,
            error_message=str(exc),
            traceback_tail=traceback_tail(),
        )


def traceback_tail(limit: int = 6) -> str:
    """The last ``limit`` lines of the traceback being handled."""
    return "\n".join(traceback.format_exc().strip().splitlines()[-limit:])


def run_scenario(
    scenario: Scenario,
    algorithms: Iterable[str] = DEFAULT_ALGORITHMS,
    seed: int = 0,
    verify: bool = True,
    mode: str = "plane",
) -> dict[str, AlgorithmRun]:
    """Run several algorithms on the same scenario (same input matrices)."""
    return {
        name: run_algorithm(name, scenario, seed=seed, verify=verify, mode=mode)
        for name in algorithms
    }


def group_by_scenario(runs: Iterable[AlgorithmRun]) -> Mapping[str, dict[str, AlgorithmRun]]:
    """Group a flat list of runs into ``{scenario name: {algorithm: run}}``."""
    grouped: dict[str, dict[str, AlgorithmRun]] = {}
    for run in runs:
        grouped.setdefault(run.scenario.name, {})[run.algorithm] = run
    return grouped
