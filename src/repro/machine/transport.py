"""Payload representations of the distributed machine simulator.

The simulator's communication accounting only ever reads the *shape* of a
payload, never its values: every engine posts its counters from the
decomposition's sizes.  What a payload physically is, is therefore a policy
of the machine, one of two modes:

``plane``
    The numeric engine.  Operands are numpy arrays of the machine's dtype
    (:data:`PLANE_DTYPES`), and an engine's product is a
    :class:`GemmProduct`: views of the operands and the GEMM boxes its
    schedule multiplies, computed only when rows of C are asked for, one
    stripe of :data:`STRIPE_ROWS` rows at a time (:func:`row_stripes`).  A
    verified run checks each stripe against ``A @ B`` as it is filled and
    never holds a whole C.

``volume``
    Payloads are :class:`ShapeToken` objects: shape descriptors with no numpy
    allocation at all.  The engines run their accounting alone and return a
    token as the product, so result verification is skipped; all counters
    (words, messages, rounds, the input/output split, flops) are
    byte-identical to ``plane`` mode, which is what lets scenario sweeps run at
    the paper's true scale (``p`` in the thousands, matrices of 10^4+ rows).
"""

from __future__ import annotations

import math
import time
from typing import Iterator, Sequence

import numpy as np

#: The supported execution modes: verified numerics, then counters only.
MODES = ("plane", "volume")


class ShapeToken:
    """A counters-only payload: a shape with no backing storage.

    It describes a payload -- ``shape``, ``size``, ``ndim`` and ``dtype`` --
    and does nothing else: no engine indexes or adds tokens, they only stand
    in for the operands and the product of a ``volume`` run.
    """

    __slots__ = ("shape",)

    #: Tokens stand in for float64 payloads (one word per element).
    dtype = np.dtype(np.float64)

    def __init__(self, shape: Sequence[int]) -> None:
        self.shape = tuple(int(extent) for extent in shape)
        if any(extent < 0 for extent in self.shape):
            raise ValueError(f"negative extent in token shape {self.shape}")

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def __repr__(self) -> str:
        return f"ShapeToken(shape={self.shape})"


#: Rows of C a stripe holds (:func:`row_stripes`): 32 MiB of float64 at
#: n = 4096.  Thinner stripes cost GEMM time, because BLAS packs B again for
#: every stripe (about 11% more at 256 rows).
STRIPE_ROWS = 1024


class GemmProduct:
    """A ``plane`` product that is not yet computed: the operands, the GEMM
    boxes an engine's schedule multiplies, and the product's ``(m, n)`` and
    ``dtype`` (the machine's plane dtype).

    A box is a row ``i0, i1, j0, j1, k0, k1`` of the int64 ``boxes`` table:
    ``C[i0:i1, j0:j1] += A[i0:i1, k0:k1] @ B[k0:k1, j0:j1]``.  What no box
    covers stays zero, so a schedule that drops part of the iteration space
    computes a wrong product and fails verification.  Rows are computed by
    :meth:`fill`, one stripe at a time (:func:`row_stripes`); ``np.asarray``
    fills a whole C.  ``span``, set by a traced engine, is ``(tracer, name,
    args)``: the GEMM span :func:`row_stripes` emits once, with the fills'
    summed time.
    """

    __slots__ = ("a", "b", "boxes", "shape", "dtype", "span")

    def __init__(self, a_matrix: np.ndarray, b_matrix: np.ndarray, boxes,
                 shape: Sequence[int], dtype, span: tuple | None = None) -> None:
        self.a, self.b = a_matrix, b_matrix
        self.boxes = np.asarray(boxes, dtype=np.int64).reshape(-1, 6)
        self.shape = tuple(int(extent) for extent in shape)
        self.dtype = np.dtype(dtype)
        self.span = span

    def fill(self, out: np.ndarray, r0: int, r1: int) -> None:
        """Write rows ``r0:r1`` of the product into ``out`` (``r1 - r0`` rows
        of ``n``): the first box that meets the rows writes in place, every
        later one adds, and ``out`` is zeroed first unless that box covers
        all of it (whatever it held before is never read)."""
        written = False
        for i0, i1, j0, j1, k0, k1 in self.boxes.tolist():
            lo, hi = max(i0, r0), min(i1, r1)
            if lo >= hi:
                continue
            rows = out[lo - r0:hi - r0, j0:j1]
            a_rows, b_cols = self.a[lo:hi, k0:k1], self.b[k0:k1, j0:j1]
            if written:
                rows += a_rows @ b_cols
                continue
            if rows.shape != out.shape:
                out[...] = 0
            np.matmul(a_rows, b_cols, out=rows)
            written = True
        if not written:
            out[...] = 0

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("a GemmProduct is computed on demand: it has no array to view")
        out = np.empty(self.shape, self.dtype)
        for _ in row_stripes(self, out):
            pass
        return out if dtype is None else out.astype(dtype, copy=False)

    def __repr__(self) -> str:
        return f"GemmProduct(shape={self.shape}, boxes={len(self.boxes)})"


def row_stripes(product, out: np.ndarray | None = None) -> Iterator[tuple[int, int, np.ndarray]]:
    """Walk a ``plane`` product in stripes of :data:`STRIPE_ROWS` rows:
    ``(r0, r1, rows)`` with ``rows`` the product's rows ``r0:r1``.

    A dense product (an array) yields views of its rows.  A
    :class:`GemmProduct` fills each stripe first: into the rows of ``out``,
    a whole ``(m, n)`` array, or, without ``out``, into one scratch stripe
    reused from stripe to stripe, so the caller never holds a whole C.
    """
    m, n = product.shape
    if not isinstance(product, GemmProduct):
        for r0 in range(0, m, STRIPE_ROWS):
            r1 = min(r0 + STRIPE_ROWS, m)
            yield r0, r1, product[r0:r1]
        return
    scratch = np.empty((min(STRIPE_ROWS, m), n), product.dtype) if out is None else None
    gemm_ns = 0
    start_ns = product.span[0].now_ns() if product.span is not None else 0
    try:
        for r0 in range(0, m, STRIPE_ROWS):
            r1 = min(r0 + STRIPE_ROWS, m)
            rows = out[r0:r1] if scratch is None else scratch[: r1 - r0]
            started = time.perf_counter_ns()
            product.fill(rows, r0, r1)
            gemm_ns += time.perf_counter_ns() - started
            yield r0, r1, rows
    finally:
        if product.span is not None:
            tracer, name, args = product.span
            tracer.complete(name, cat="gemm", start_ns=start_ns, dur_ns=gemm_ns, args=args,
                            track="gemm")


#: Plane dtypes the numeric engines accept.  Words are *elements*, not bytes,
#: so counters are identical across dtypes; float32 halves the memory and
#: roughly doubles GEMM throughput at a relative-tolerance verification.
PLANE_DTYPES = ("float64", "float32")


def plane_dtype_of(dtype) -> np.dtype:
    """Validate and canonicalize a plane dtype (``None`` means float64)."""
    resolved = np.dtype(np.float64 if dtype is None else dtype)
    if resolved.name not in PLANE_DTYPES:
        raise ValueError(
            f"unsupported plane dtype {resolved.name!r}; known: {PLANE_DTYPES}"
        )
    return resolved


def allclose_tolerances(dtype) -> tuple[float, float]:
    """Verification tolerances ``(rtol, atol_per_k_word)`` for a product dtype.

    float64 keeps the historical tolerances (numpy's default rtol, the
    harness's ``1e-8 * k`` atol); float32 relaxes both to the dtype's ~7
    significant digits so a correctly computed float32 product verifies
    against a float64 (or float32) reference.
    """
    if np.dtype(dtype) == np.float32:
        return 1e-4, 1e-6
    return 1e-5, 1e-8


def as_payload(block, dtype=None):
    """Normalize an algorithm's global operand: float array, or a token.

    The default dtype stays ``float64`` (the reference semantics); numeric
    engines running a ``float32`` plane pass their dtype so operands are
    never silently round-tripped through float64.
    """
    if isinstance(block, ShapeToken):
        return block
    return np.asarray(block, dtype=np.float64 if dtype is None else dtype)


def as_operands(a_matrix, b_matrix, machine=None, cast=True):
    """A multiplication's global operands through :func:`as_payload`, with the
    problem's ``(m, n, k)``; raises if the inner dimensions differ.

    Given a machine, the operands take its plane dtype: a float32 machine
    receives float32 payloads directly, never a float64 round-trip.  With
    ``cast=False`` they are only viewed (:func:`payload_view`): a caller that
    casts them itself, as the shard pool does while it fills its segments,
    gets no private copy.
    """
    if cast:
        dtype = None if machine is None else machine.transport.dtype
        a_matrix, b_matrix = as_payload(a_matrix, dtype), as_payload(b_matrix, dtype)
    else:
        a_matrix, b_matrix = payload_view(a_matrix), payload_view(b_matrix)
    (m, k), (k2, n) = a_matrix.shape, b_matrix.shape
    if k != k2:
        raise ValueError(f"inner dimensions do not match: {a_matrix.shape} x {b_matrix.shape}")
    return a_matrix, b_matrix, (m, n, k)


def payload_view(block):
    """A cheap read view of a payload (``np.asarray`` without dtype coercion)."""
    if isinstance(block, ShapeToken):
        return block
    return np.asarray(block)


class PayloadPlane:
    """One logical operand stored as a dense stacked array with a leading axis.

    ``data`` has shape ``(slots, rows, cols)``: each slot is one 2-D sheet of
    the operand, and a stack of partial sums reduces with one
    ``np.add.reduce`` over the slot axis (:meth:`reduce_slots`).  No engine
    allocates one (their products are :class:`GemmProduct` boxes); planes
    are registered per-name on the machine
    (:meth:`~repro.machine.simulator.DistributedMachine.new_plane`) by
    callers that time a stacked C apart from any run.
    """

    __slots__ = ("name", "data")

    def __init__(self, name: str, shape: Sequence[int] | None = None,
                 data: np.ndarray | None = None, dtype=None) -> None:
        if (shape is None) == (data is None):
            raise ValueError("PayloadPlane needs exactly one of shape= or data=")
        if data is None:
            data = np.zeros(
                tuple(int(extent) for extent in shape), dtype=plane_dtype_of(dtype)
            )
        if data.ndim != 3:
            raise ValueError(f"a plane is a stack of 2-D sheets, got shape {data.shape}")
        self.name = str(name)
        self.data = data

    def reduce_slots(self) -> np.ndarray:
        """Sum the stacked sheets: one ``np.add.reduce`` over the slot axis."""
        return np.add.reduce(self.data, axis=0)

    def __repr__(self) -> str:
        return f"PayloadPlane({self.name!r}, shape={self.data.shape})"


class Transport:
    """A machine's payload policy: the mode, and the element dtype of the
    arrays a ``plane`` machine allocates.

    Words are elements, not bytes, so every counter is dtype-independent;
    only numerics (and verification tolerances) see the dtype.  ``volume``
    ignores it: its payloads are :class:`ShapeToken` objects.
    """

    __slots__ = ("mode", "dtype")

    def __init__(self, mode: str, dtype=None) -> None:
        if mode not in MODES:
            raise ValueError(f"unknown transport mode {mode!r}; known: {MODES}")
        self.mode = mode
        self.dtype = ShapeToken.dtype if mode == "volume" else plane_dtype_of(dtype)

    @property
    def counters_only(self) -> bool:
        """True when payloads carry no numerics (result verification impossible)."""
        return self.mode == "volume"

    def zeros(self, shape: Sequence[int]):
        """A zero-initialized payload of the given shape."""
        if self.counters_only:
            return ShapeToken(shape)
        return np.zeros(tuple(shape), dtype=self.dtype)


def make_transport(mode: str, dtype=None) -> Transport:
    """Build the transport for ``mode`` (one of :data:`MODES`).

    ``dtype`` selects the payload element type of a ``plane`` machine
    (default float64); ``volume`` carries no numerics and ignores it.
    """
    return Transport(mode, dtype)
