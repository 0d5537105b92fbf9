"""Pluggable payload transports for the distributed machine simulator.

The simulator's communication accounting only ever inspects the *shape* of a
payload (``block.size`` words per transfer), never its values.  That makes the
physical representation of a payload a policy choice, factored out here into
three interchangeable transports:

``legacy``
    The original reference semantics: every delivery is a private, writable
    ``numpy`` copy, so sender and receiver never alias the same buffer (the
    strictest reading of MPI's no-aliasing rule).  A binomial-tree broadcast
    over ``q`` ranks therefore performs ``q - 1`` physical copies.

``zerocopy``
    Deliveries are shared *read-only* views (``writeable=False``) of the
    sender's buffer.  Numerics are bit-identical to ``legacy`` -- receivers
    only ever read delivered panels -- but the O(q) payload copies per
    collective disappear.  Any attempt to write through a delivered view
    raises, which keeps MPI no-aliasing semantics enforceable for writers.

``plane``
    The stacked-array numeric engine.  Deliveries behave exactly like
    ``zerocopy`` (shared read-only views), so every algorithm runs
    unmodified; algorithms that *opt in* (``machine.transport.planar``)
    additionally keep each logical operand (A-panels, B-panels, C-partials)
    in one dense stacked array with a leading participant axis -- a
    :class:`PayloadPlane` -- so a collective delivery becomes a fancy-indexed
    gather into the plane, a round's local multiplies become one batched
    ``np.matmul`` over the stack, and output reductions become a single
    ``np.add.reduce`` over plane slices.  Counter accounting rides the same
    batched counter-matrix path as ``volume`` mode, so
    counters stay byte-identical to the other modes while numerics (and
    result verification) are preserved.

``volume``
    Payloads are :class:`ShapeToken` objects: lightweight shape descriptors
    with no numpy allocation at all.  Local multiplies update only the flop
    counters and result verification is skipped.  All communication counters
    (words, messages, rounds, input/output split) are byte-identical to the
    other modes because every counter update is derived from payload shapes
    alone -- this is what lets scenario sweeps run at the paper's true scale
    (``p`` in the thousands, matrices of 10^4+ rows).

Algorithms stay mode-agnostic by building payloads through
:meth:`~repro.machine.simulator.DistributedMachine.zeros` and the helpers in
this module (:func:`as_payload`, :func:`ascontiguous`,
:func:`concat_payloads`) instead of calling numpy directly.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

#: The supported execution modes, in "most faithful" to "fastest" order.
MODES = ("legacy", "zerocopy", "plane", "volume")

#: Modes that carry real numerics (result verification is possible).
NUMERIC_MODES = ("legacy", "zerocopy", "plane")


class ShapeToken:
    """A counters-only payload: a shape with no backing storage.

    Supports exactly the subset of the ``numpy.ndarray`` interface the
    simulator's algorithms use on payloads -- ``shape``/``size``/``ndim``,
    basic and boolean-mask ``__getitem__`` (returning new tokens),
    size-checked no-op ``__setitem__`` and ``+=``, ``copy`` and ``T`` -- so
    algorithm code paths are identical across modes and the communication
    counters come out byte-for-byte the same.
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

    @property
    def T(self) -> "ShapeToken":  # noqa: N802 - numpy interface
        return ShapeToken(self.shape[::-1])

    def copy(self) -> "ShapeToken":
        return ShapeToken(self.shape)

    def __len__(self) -> int:
        if not self.shape:
            raise TypeError("len() of a 0-d ShapeToken")
        return self.shape[0]

    def __repr__(self) -> str:
        return f"ShapeToken(shape={self.shape})"

    # -- indexing ---------------------------------------------------------
    def __getitem__(self, key) -> "ShapeToken":
        if isinstance(key, np.ndarray) and key.dtype == np.bool_:
            # Numpy semantics: the mask covers the *leading* axes (which it
            # must match exactly) and those axes collapse into one axis of
            # extent count_nonzero(mask); trailing axes -- the masked row
            # structure -- are preserved.  A full-shape mask therefore
            # flattens to 1-D, a 1-D mask on a 2-D token keeps the row width.
            if key.ndim > self.ndim or key.shape != self.shape[: key.ndim]:
                raise IndexError(
                    f"boolean mask of shape {key.shape} does not match the "
                    f"leading axes of token shape {self.shape}"
                )
            return ShapeToken(
                (int(np.count_nonzero(key)),) + self.shape[key.ndim :]
            )
        if not isinstance(key, tuple):
            key = (key,)
        if any(entry is Ellipsis for entry in key):
            position = key.index(Ellipsis)
            fill = len(self.shape) - (len(key) - 1)
            key = key[:position] + (slice(None),) * max(0, fill) + key[position + 1 :]
        if len(key) > len(self.shape):
            raise IndexError(f"too many indices for token of shape {self.shape}")
        dims: list[int] = []
        for axis, entry in enumerate(key):
            extent = self.shape[axis]
            if isinstance(entry, slice):
                dims.append(len(range(*entry.indices(extent))))
            elif isinstance(entry, (int, np.integer)):
                if not -extent <= int(entry) < extent:
                    raise IndexError(f"index {entry} out of bounds for extent {extent}")
                # integer index drops the axis
            else:
                raise TypeError(f"ShapeToken does not support index {entry!r}")
        dims.extend(self.shape[len(key) :])
        return ShapeToken(tuple(dims))

    def __setitem__(self, key, value) -> None:
        # Writes carry no data in volume mode; broadcast compatibility of the
        # assignment is still checked so shape bugs surface exactly where the
        # numpy-backed modes would raise.
        _check_broadcastable(self[key].shape, value, "assign")

    # -- arithmetic (accumulation no-ops) ---------------------------------
    def __iadd__(self, other) -> "ShapeToken":
        _check_broadcastable(self.shape, other, "add")
        return self

    def __add__(self, other) -> "ShapeToken":
        _check_broadcastable(self.shape, other, "add")
        return ShapeToken(self.shape)

    __radd__ = __add__


def _check_broadcastable(target_shape: tuple[int, ...], value, verb: str) -> None:
    """Raise (like numpy would) unless ``value`` broadcasts to ``target_shape``."""
    value_shape = getattr(value, "shape", None)
    if value_shape is None:  # plain scalar
        return
    value_shape = tuple(int(extent) for extent in value_shape)
    # Numpy broadcasting: align trailing axes; extra leading axes of the value
    # must have extent 1.
    if len(value_shape) > len(target_shape):
        extra, value_shape = (
            value_shape[: len(value_shape) - len(target_shape)],
            value_shape[len(value_shape) - len(target_shape) :],
        )
        if any(extent != 1 for extent in extra):
            raise ValueError(
                f"cannot {verb} payload of shape {extra + value_shape} "
                f"into a region of shape {target_shape}"
            )
    for have, expect in zip(value_shape[::-1], target_shape[::-1]):
        if have != expect and have != 1:
            raise ValueError(
                f"cannot {verb} payload of shape {value_shape} "
                f"into a region of shape {target_shape}"
            )


def is_token(block) -> bool:
    """Whether ``block`` is a counters-only payload."""
    return isinstance(block, ShapeToken)


def payload_words(block) -> int:
    """Number of words a payload occupies (mode-agnostic).

    This sits on the hot accounting path (every ``send``, every ``put``);
    arrays and tokens both expose ``.size`` directly, so the ``np.asarray``
    round-trip is reserved for plain Python sequences.
    """
    size = getattr(block, "size", None)
    if size is not None:
        return int(size)
    return int(np.asarray(block).size)


def payload_shape(block) -> tuple[int, ...]:
    shape = getattr(block, "shape", None)
    if shape is not None:
        return tuple(shape)
    return tuple(np.asarray(block).shape)


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


def ascontiguous(block):
    """``np.ascontiguousarray`` for arrays, identity for tokens."""
    if isinstance(block, ShapeToken):
        return block
    return np.ascontiguousarray(block)


def concat_payloads(parts: Sequence, axis: int = 0):
    """Concatenate payloads along ``axis`` (shape algebra for tokens)."""
    if not parts:
        raise ValueError("concat_payloads needs at least one part")
    if not any(isinstance(part, ShapeToken) for part in parts):
        return np.concatenate(parts, axis=axis)
    shapes = [payload_shape(part) for part in parts]
    base = list(shapes[0])
    for shape in shapes[1:]:
        if len(shape) != len(base):
            raise ValueError(f"cannot concatenate payloads of ranks {shapes}")
        for dim, (have, expect) in enumerate(zip(shape, base)):
            if dim != axis % len(base) and have != expect:
                raise ValueError(f"off-axis shape mismatch concatenating {shapes}")
    base[axis % len(base)] = sum(shape[axis % len(base)] for shape in shapes)
    return ShapeToken(base)


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
    """Delivery policy for payloads moved through the machine.

    Subclasses decide what a receiver physically gets; the *accounting* of a
    transfer is identical in every mode because it only reads payload shapes.
    """

    #: Mode name, one of :data:`MODES`.
    mode = "legacy"
    #: Element dtype of payloads the transport allocates (``zeros``) and of
    #: planes built for it.  Words are elements, not bytes, so every counter
    #: is dtype-independent; only numerics (and verification tolerances) see
    #: the difference.  Set per-instance via :func:`make_transport`.
    dtype = np.dtype(np.float64)
    #: True when payloads carry no numerics (result verification impossible).
    counters_only = False
    #: True when algorithms should take their stacked-array (plane) fast
    #: path: counters posted batched, numerics on :class:`PayloadPlane`
    #: stacks.  Algorithms without a plane path simply ignore the flag and
    #: fall back to the per-hop delivery semantics of the transport.
    planar = False
    #: Delivery observer (a :class:`repro.obs.trace.MachineTrace`), set by
    #: the machine only while tracing is enabled.  ``None`` costs a single
    #: attribute check per delivery; observers only count, never copy, so
    #: payload semantics (and counters) are identical either way.  Self-copy
    #: shortcuts share the delivery path and are therefore observed too.
    observer = None

    def deliver(self, block):
        """The buffer the receiver of a counted transfer obtains."""
        raise NotImplementedError

    def self_copy(self, block):
        """A rank's local handle on its own payload (uncounted self-send)."""
        raise NotImplementedError

    def clone(self, block):
        """A private buffer safe to accumulate into (reduction partials)."""
        if isinstance(block, ShapeToken):
            return block.copy()
        return np.array(block, copy=True)

    def zeros(self, shape: Sequence[int]):
        """A zero-initialized local payload of the given shape."""
        raise NotImplementedError


class LegacyTransport(Transport):
    """Reference semantics: every delivery is a private writable copy."""

    mode = "legacy"

    def deliver(self, block):
        if self.observer is not None:
            self.observer.delivery(payload_words(block))
        if isinstance(block, ShapeToken):
            return block.copy()
        return np.asarray(block).copy()

    self_copy = deliver

    def zeros(self, shape):
        return np.zeros(tuple(shape), dtype=self.dtype)


class ZeroCopyTransport(Transport):
    """Deliveries are shared read-only views; writers still get copies."""

    mode = "zerocopy"

    def deliver(self, block):
        if self.observer is not None:
            self.observer.delivery(payload_words(block))
        if isinstance(block, ShapeToken):
            return block.copy()
        # setflags(write=False) is the cheapest way to freeze a fresh view:
        # the .flags descriptor route costs an extra attribute protocol hop
        # per delivery, measurable on the tiny-payload sweeps where delivery
        # count, not bytes, dominates.
        view = np.asarray(block).view()
        view.setflags(write=False)
        return view

    self_copy = deliver

    def zeros(self, shape):
        return np.zeros(tuple(shape), dtype=self.dtype)


class PlaneTransport(ZeroCopyTransport):
    """Stacked-array numeric engine: zerocopy semantics + the planar fast path.

    Per-payload behaviour is identical to :class:`ZeroCopyTransport` (shared
    read-only deliveries), which is what makes the mode a transparent
    fallback for algorithms without a plane path.  Opted-in algorithms see
    :attr:`planar` and route storage through :class:`PayloadPlane` stacks,
    posting their counters through the same batched path as ``volume`` mode.
    """

    mode = "plane"
    planar = True


class VolumeTransport(Transport):
    """Counters-only payloads: deliveries are shape tokens, never arrays."""

    mode = "volume"
    counters_only = True

    def deliver(self, block):
        if self.observer is not None:
            self.observer.delivery(payload_words(block))
        return ShapeToken(payload_shape(block))

    self_copy = deliver

    def clone(self, block):
        return ShapeToken(payload_shape(block))

    def zeros(self, shape):
        return ShapeToken(shape)


_TRANSPORTS = {
    "legacy": LegacyTransport,
    "zerocopy": ZeroCopyTransport,
    "plane": PlaneTransport,
    "volume": VolumeTransport,
}


def make_transport(mode: str, dtype=None) -> Transport:
    """Build the transport for ``mode`` (one of :data:`MODES`).

    ``dtype`` selects the plane/payload element type for the numeric modes
    (default float64); volume mode carries no numerics and ignores it.
    """
    try:
        transport = _TRANSPORTS[mode]()
    except KeyError:
        raise ValueError(f"unknown transport mode {mode!r}; known: {MODES}") from None
    if not transport.counters_only:
        transport.dtype = plane_dtype_of(dtype)
    return transport
