"""Benchmark harness: run any algorithm on any scenario and collect metrics.

The harness plays the role of the paper's job scripts + mpiP profiling: it
builds a fresh :class:`~repro.machine.simulator.DistributedMachine` for every
(algorithm, scenario) pair, generates the input matrices, runs the algorithm,
verifies the numerical result against ``A @ B`` and records the communication
counters.  Every run additionally asserts word conservation (every word sent
was received by exactly one rank).

Runs accept a ``mode`` (``plane`` / ``volume``, see
:mod:`repro.machine.transport`).  In volume mode the inputs are shape tokens
-- no matrices are generated or multiplied -- so numerical verification is
skipped; all communication counters are identical to ``plane`` mode, which
is what allows sweeps at the paper's true scale.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.algorithms import DEFAULT_ALGORITHMS, AlgorithmSpec, Plan, get_algorithm
from repro.machine.counters import CommCounters
from repro.machine.simulator import DistributedMachine
from repro.machine.transport import MODES, ShapeToken, allclose_tolerances
from repro.obs.trace import active_tracer
from repro.workloads.scaling import Scenario
from repro.workloads.shapes import ProblemShape

#: Total words the verification-reference cache may pin (~0.25 GB), evicted
#: least-recently-used first -- same policy as the input-matrix cache.
_REFERENCE_CACHE_MAX_WORDS = 1 << 25
_REFERENCE_CACHE: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
_REFERENCE_CACHE_WORDS = 0
#: Bytes of reference rows per ``np.allclose`` call of the verification:
#: ``allclose`` allocates three temporaries the size of its operands (+275 MiB
#: on a 4096^2 product), and blocks that stay in cache check fastest (a 4096^2
#: float64 product in ~80 ms, against ~180 ms in 256-row blocks).
_VERIFY_BLOCK_BYTES = 1 << 18


def _reference_product(shape: ProblemShape, seed: int) -> np.ndarray:
    """The verification reference ``A @ B`` for a (shape, seed) point, cached.

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
    if reference.size <= _REFERENCE_CACHE_MAX_WORDS:
        _REFERENCE_CACHE[key] = reference
        _REFERENCE_CACHE_WORDS += reference.size
        while _REFERENCE_CACHE_WORDS > _REFERENCE_CACHE_MAX_WORDS:
            _, old = _REFERENCE_CACHE.popitem(last=False)
            _REFERENCE_CACHE_WORDS -= old.size
    return reference


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
    keep going.

    The taxonomy fields below are filled in by the campaign supervisor
    (:mod:`repro.sweeps.runner`) when a run is quarantined after exhausting
    its retry budget: how many attempts were made, how long they took, the
    signal that killed the worker (``9`` for a SIGKILL/OOM death, ``None``
    when the run failed in-process), the tail of the worker's traceback and
    whether the final error class was considered retryable at all.
    """

    algorithm: str
    scenario: Scenario
    mode: str
    error_type: str
    error_message: str
    #: Execution attempts made before this failure became final.
    attempts: int = 1
    #: Wall-clock seconds spent across all attempts (0.0 when unknown).
    duration_s: float = 0.0
    #: Signal number that killed the worker process, if it died hard.
    exit_signal: int | None = None
    #: Last lines of the worker-side traceback (empty for clean captures).
    traceback_tail: str = ""
    #: Whether the error class was retryable under the campaign's policy.
    retryable: bool = False

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
    reference: Callable[[], np.ndarray] | None = None,
    run_plan: Plan | None = None,
    options: Mapping | None = None,
    shards: int,
    plane_dtype: str,
) -> tuple[np.ndarray | ShapeToken, CommCounters, str, bool, bool]:
    """Run ``spec`` on a fresh machine: the one path behind :func:`run_algorithm`
    and :func:`repro.api.multiply`.

    Validates ``mode``, builds the machine from the three execution-policy
    arguments, hands COSMA the grid
    ``run_plan`` already fitted (so the fitting search runs once per
    scenario, not once per plan *and* run), executes under a
    ``<span>:<algorithm>`` run span, asserts word conservation and -- for
    numeric modes, when ``verify`` -- checks the product against
    ``reference()`` (default ``A @ B``) at the dtype's tolerances.  In
    ``"volume"`` mode the inputs are replaced by shape tokens; in ``"plane"``
    mode a token input is an error.  Returns ``(product, counters, mode,
    verified, correct)``, ``mode`` being the one the run used.
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
    options = dict(options or {})
    if spec.name == "COSMA" and run_plan is not None and run_plan.feasible and run_plan.grid is not None:
        options["grid"] = run_plan.grid
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
        product = spec.run(a_matrix, b_matrix, scenario, machine, **options)
        if machine.trace is not None:
            # Flush activity after the last round boundary (or the whole run,
            # for algorithms that never mark one) into a final round span.
            machine.trace.commit_round(machine.peak_resident_words)
    machine.counters.assert_conservation()
    verified = bool(verify) and mode != "volume"
    correct = True
    if verified:
        expected = reference() if reference is not None else a_matrix @ b_matrix
        rtol, atol_unit = allclose_tolerances(getattr(product, "dtype", np.float64))
        # An elementwise AND: row blocks of equal shapes give the whole-array verdict.
        whole = np.shape(product) != np.shape(expected)
        step = max(1, _VERIFY_BLOCK_BYTES // max(1, expected[:1].nbytes))
        correct = all(
            np.allclose(product[rows], expected[rows], rtol=rtol, atol=atol_unit * shape.k)
            for rows in ([slice(None)] if whole else
                         [slice(i, i + step) for i in range(0, shape.m, step)])
        )
    return product, machine.counters, mode, verified, correct


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
    ``shards`` shards COSMA's plane GEMM over worker processes
    (:mod:`repro.machine.shard`; the other algorithms run in process
    whatever it says, and counters are byte-identical across shard counts)
    and ``plane_dtype`` selects the numeric payload dtype
    (verification uses dtype-appropriate relative tolerances).  Every run
    ends with a word-conservation assertion
    (:meth:`~repro.machine.counters.CommCounters.assert_conservation`).
    """
    spec = get_algorithm(name)
    shape = scenario.shape
    run_plan = None
    if spec.name == "COSMA":
        # The memoized planned grid goes to the executor (see _execute).
        # Planning failures fall through so the run itself reports the error.
        try:
            run_plan = spec.plan(scenario)
        except Exception:  # noqa: BLE001 - the run itself reports the error
            pass
    inputs = (None, None) if mode == "volume" else shape.random_matrices(seed=seed)
    _, counters, mode, verified, correct = _execute(
        spec, scenario, *inputs, mode=mode, span="run", verify=verify,
        reference=lambda: _reference_product(shape, seed), run_plan=run_plan,
        shards=shards, plane_dtype=plane_dtype,
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
    scenario -- infeasible memory, schedule errors, conservation violations --
    comes back as a structured record.
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
        )


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
