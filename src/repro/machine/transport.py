"""Payload representations of the distributed machine simulator.

The simulator's communication accounting only ever reads the *shape* of a
payload, never its values: every engine posts its counters from the
decomposition's sizes.  What a payload physically is, is therefore a policy
of the machine, one of two modes:

``plane``
    The stacked-array numeric engine.  Operands are numpy arrays of the
    machine's dtype (:data:`PLANE_DTYPES`); an engine keeps each logical
    operand in a :class:`PayloadPlane` (one dense stack with a leading
    participant axis) or computes the product in one GEMM, while posting its
    counters batched.  Results verify against ``A @ B``.

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
from typing import Sequence

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
    the operand (one rank's block, or one reduction layer shared by a fiber
    of ranks).  A rank's block is a rectangular region of a sheet; the engine
    operates on the whole stack at once:

    * collective delivery = fancy-indexed / strided gather into ``data``;
    * per-round local multiplies = one batched ``np.matmul`` over the
      leading axis;
    * output reduction = a single ``np.add.reduce`` over slot slices
      (:meth:`reduce_slots`).

    Planes are registered per-name on the machine
    (:meth:`~repro.machine.simulator.DistributedMachine.register_plane`);
    sheets may be zero-padded to a uniform shape -- padding rows/columns stay
    zero and therefore never contribute to a product or a reduction, while
    all counter accounting is derived from the blocks' true shapes.
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

    @property
    def slots(self) -> int:
        return int(self.data.shape[0])

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
