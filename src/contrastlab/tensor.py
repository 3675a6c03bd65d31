"""Dense double-precision tensors with reverse-mode automatic differentiation.

Design constraints, chosen for auditability at desk scale:

* storage is always float64, row-major (C order);
* binary ops conform when shapes are equal, when one operand's shape is
  a trailing suffix of the other's (leading-batch broadcast), or when it
  is the other's with the row extent (axis -2) set to 1 (one row per
  matrix, as a stacked bias); no other singleton-axis broadcasting;
* the graph is rebuilt on every forward pass; backward walks it once in
  reverse topological order, so shared subexpressions accumulate each
  path exactly once;
* gradient rules are pure functions from the output gradient to the
  parent gradients, which keeps them re-entrant;
* gradients are values, not tensor state: ``backward(root, leaves)``
  returns one array per requested leaf.
"""
from __future__ import annotations

import contextlib
import functools
import math
import struct
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .errors import ContractViolation, DomainError, EvaluationError

GradFn = Callable[[np.ndarray], tuple]


class Tensor:
    """Value array plus computation-graph linkage. ``data`` is always a
    C-ordered float64 ``np.ndarray``; op outputs are built by ``_node``."""

    __slots__ = ("data", "_parents", "_grad_fn")

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self._parents = ()
        self._grad_fn = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractViolation(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, data={self.data!r})"

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _node(data, parents: tuple, grad_fn: GradFn | None) -> Tensor:
    """An op's output: numpy already made ``data`` float64 and C-ordered,
    but a numpy scalar (a full reduction, ``dot``, 0-d operands) is wrapped."""
    node = Tensor.__new__(Tensor)
    node.data = data if type(data) is np.ndarray else np.asarray(data)
    node._parents = parents
    node._grad_fn = grad_fn
    return node


def _conform(sa: tuple, sb: tuple) -> None:
    """Raise unless two unequal operand shapes conform under the
    broadcasting rules above."""
    long, short = (sa, sb) if len(sa) >= len(sb) else (sb, sa)
    if len(long) > len(short) and long[len(long) - len(short):] == short:
        return
    if len(sa) == len(sb) >= 2 and sa[:-2] == sb[:-2] and sa[-1] == sb[-1] and 1 in (sa[-2], sb[-2]):
        return
    raise ContractViolation(
        f"operand shapes {sa} and {sb} do not conform "
        "(equal shapes, leading-batch broadcast or a row per matrix only)"
    )


def _reduce_to(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over the extents it was broadcast across: a row over
    its matrix's rows; leading extents innermost first, so a stack's
    matrices are each reduced, then added in stack order. A scalar's
    gradient is one sum of every entry."""
    if not shape:
        return grad.sum()
    if grad.ndim == len(shape):
        return grad if grad.shape == shape else grad.sum(axis=-2, keepdims=True)
    for axis in range(grad.ndim - len(shape) - 1, -1, -1):
        grad = grad.sum(axis=axis)
    return grad


# -- elementwise and linear primitives ----------------------------------

_NUMBER = (int, float)
_MAX = float(np.finfo(np.float64).max)
_LOG_MAX = math.log(_MAX)             # np.exp(_LOG_MAX) is finite
_UNGUARDED = contextlib.nullcontext()


def _overflow_guard(x: np.ndarray, limit: float):
    """``np.errstate(over="ignore")`` if the squares of ``x`` sum past
    ``limit`` or to NaN, else a no-op context, cheaper to enter than a
    small op; ``np.vdot`` forms the sum without a warning."""
    return _UNGUARDED if np.vdot(x, x) <= limit else np.errstate(over="ignore")


def _operands(a, b):
    """The operands of add/sub/mul/div: a Python number beside a tensor as
    a float, which the op folds into its node as a constant (one parent,
    no gradient formed for it); otherwise two tensors of conforming shapes."""
    if isinstance(b, _NUMBER) and isinstance(a, Tensor):
        return a, float(b)
    if isinstance(a, _NUMBER) and isinstance(b, Tensor):
        return float(a), b
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    if a.data.shape != b.data.shape:
        _conform(a.data.shape, b.data.shape)
    return a, b


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    if type(b) is float:
        return _node(a.data + b, (a,), lambda g: (g,))
    if type(a) is float:
        return _node(a + b.data, (b,), lambda g: (g,))
    return _node(a.data + b.data, (a, b), lambda g: (_reduce_to(g, a.shape), _reduce_to(g, b.shape)))


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)
    if type(b) is float:
        return _node(a.data - b, (a,), lambda g: (g,))
    if type(a) is float:
        return _node(a - b.data, (b,), lambda g: (-g,))
    return _node(a.data - b.data, (a, b), lambda g: (_reduce_to(g, a.shape), _reduce_to(-g, b.shape)))


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    if type(b) is float:
        return _node(a.data * b, (a,), lambda g: (g * b,))
    if type(a) is float:
        return _node(a * b.data, (b,), lambda g: (g * a,))
    return _node(a.data * b.data, (a, b),
                 lambda g: (_reduce_to(g * b.data, a.shape), _reduce_to(g * a.data, b.shape)))


def div(a, b) -> Tensor:
    a, b = _operands(a, b)
    # count_nonzero counts NaN as nonzero, as NaN == 0 is false
    if (b == 0.0) if type(b) is float else (np.count_nonzero(b.data) != b.data.size):
        raise DomainError("division by zero")
    if type(b) is float:
        return _node(a.data / b, (a,), lambda g: (g / b,))
    if type(a) is float:
        return _node(a / b.data, (b,), lambda g: (-g * a / (b.data * b.data),))

    def grad_fn(g):
        return _reduce_to(g / b.data, a.shape), _reduce_to(-g * a.data / (b.data * b.data), b.shape)

    return _node(a.data / b.data, (a, b), grad_fn)


def neg(a) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(a)
    return _node(-a.data, (a,), lambda g: (-g,))


def exp(a) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(a)
    with _overflow_guard(a.data, _LOG_MAX * _LOG_MAX):     # below, no entry tops _LOG_MAX
        out = np.exp(a.data)
    return _node(out, (a,), lambda g: (g * out,))


def log(a) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(a)
    if np.logical_or.reduce(a.data <= 0.0, axis=None):
        raise DomainError("log of a non-positive argument")
    return _node(np.log(a.data), (a,), lambda g: (g / a.data,))


def logsumexp(a, axis: int = -1) -> Tensor:
    """log sum exp(a) along ``axis``, evaluated max-shifted so that rows
    whose every term underflows ``exp`` stay finite; the gradient is the
    softmax along ``axis``."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    ax = axis % a.data.ndim
    top = a.data.max(axis=ax, keepdims=True)
    if not np.all(np.isfinite(top)):
        raise DomainError("logsumexp needs finite arguments")
    shifted = np.exp(a.data - top)
    total = np.add.reduce(shifted, axis=ax, keepdims=True)
    weights = shifted / total

    def grad_fn(g):
        return (np.expand_dims(g, ax) * weights,)

    return _node((top + np.log(total)).squeeze(axis=ax), (a,), grad_fn)


def relu(a) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(a)
    mask = a.data > 0.0
    return _node(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def pow_const(a, exponent: float) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(a)
    p = float(exponent)
    if (p < 0.0 or not p.is_integer()) and np.logical_or.reduce(a.data <= 0.0, axis=None):
        raise DomainError(f"x ** {p} needs a strictly positive base")

    def grad_fn(g):
        return (g * p * a.data ** (p - 1.0),) if p != 0.0 else (np.zeros_like(a.data),)

    return _node(a.data ** p, (a,), grad_fn)


def sqrt(a) -> Tensor:
    return pow_const(a, 0.5)


def matmul(a, b) -> Tensor:
    """Matrix product for 2D @ 2D operands; a 3D operand is a stack of
    matrices, multiplied matrix by matrix with an equal stack or with one
    2D matrix shared by the stack."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    ka, kb = a.data.ndim, b.data.ndim
    if ka not in (2, 3) or kb not in (2, 3):
        raise ContractViolation(f"matmul supports 2D matrices or 3D stacks; got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ContractViolation(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    if ka == kb == 3 and a.shape[0] != b.shape[0]:
        raise ContractViolation(f"matmul stack extents differ: {a.shape} @ {b.shape}")

    def grad_fn(g):
        return (_reduce_to(g @ b.data.swapaxes(-1, -2), a.shape),
                _reduce_to(a.data.swapaxes(-1, -2) @ g, b.shape))

    return _node(a.data @ b.data, (a, b), grad_fn)


def dot(a, b) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    if a.data.ndim != 1 or b.data.ndim != 1 or a.shape != b.shape:
        raise ContractViolation(f"dot needs equal-length vectors, got {a.shape} and {b.shape}")

    def grad_fn(g):
        return g * b.data, g * a.data

    return _node(a.data @ b.data, (a, b), grad_fn)


def transpose(a) -> Tensor:
    """Swap the last two axes: a matrix, or every matrix of a stack."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    if a.data.ndim < 2:
        raise ContractViolation(f"transpose needs a matrix or a stack of them, got {a.shape}")
    return _node(np.ascontiguousarray(a.data.swapaxes(-1, -2)), (a,),
                 lambda g: (g.swapaxes(-1, -2),))


def reshape(a, shape) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(a)
    new, old = tuple(shape), a.data.shape
    if math.prod(new) != a.data.size:
        raise ContractViolation(f"cannot reshape {old} to {new}")
    return _node(a.data.reshape(new), (a,), lambda g: (g.reshape(old),))


def sum_(a, axis: int | None = None) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(a)
    if axis is None:
        return _node(np.add.reduce(a.data, axis=None), (a,),
                     lambda g: (np.full(a.shape, float(g)),))
    ax = axis % a.data.ndim

    def grad_fn(g):
        return (np.broadcast_to(np.expand_dims(g, ax), a.shape).copy(),)

    return _node(np.add.reduce(a.data, axis=ax), (a,), grad_fn)


def mean(a, axis: int | None = None) -> Tensor:
    a = a if isinstance(a, Tensor) else Tensor(a)
    # np.add.reduce(...) / n is what ndarray.mean computes, without its
    # Python-level wrapper
    if axis is None:
        n = a.data.size
        return _node(np.add.reduce(a.data, axis=None) / n, (a,),
                     lambda g: (np.full(a.shape, float(g) / n),))
    ax = axis % a.data.ndim
    n = a.shape[ax]

    def grad_fn(g):
        return (np.broadcast_to(np.expand_dims(g / n, ax), a.shape).copy(),)

    return _node(np.add.reduce(a.data, axis=ax) / n, (a,), grad_fn)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = tuple(p if isinstance(p, Tensor) else Tensor(p) for p in parts)
    if not parts:
        raise ContractViolation("concat of an empty sequence")
    ax = axis % parts[0].data.ndim
    splits = list(accumulate(p.data.shape[ax] for p in parts))[:-1]

    def grad_fn(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=ax))

    return _node(np.concatenate([p.data for p in parts], axis=ax), parts, grad_fn)


def gather(a, indices) -> Tensor:
    """Select entries along the last axis; gradients scatter-add back.

    ``indices`` has the source's shape with the last extent replaced by
    the number of entries selected (a 1D source takes 1D indices), or a
    trailing suffix of that shape, which every leading index shares: one
    (n, k) table selects from each (n, m) matrix of a stack.
    """
    a = a if isinstance(a, Tensor) else Tensor(a)
    idx = np.asarray(indices, dtype=np.int64)
    lead = a.shape[:-1]
    if not 0 < idx.ndim <= a.data.ndim or lead[len(lead) + 1 - idx.ndim:] != idx.shape[:-1]:
        raise ContractViolation(f"gather on {a.shape} needs indices shaped {lead + ('k',)} "
                                f"or a trailing suffix of it, got {idx.shape}")
    # as unsigned, a negative index is larger than any extent
    if idx.size and np.maximum.reduce(idx.view(np.uint64), axis=None) >= a.shape[-1]:
        raise ContractViolation("gather index out of range")
    # the flat position of every entry selected; bincount scatter-adds a
    # repeated position in index order, as np.add.at does, but faster
    flat = _row_starts(lead, a.shape[-1]) + idx

    def grad_fn(g):
        return (np.bincount(flat.ravel(), weights=g.ravel(), minlength=a.size).reshape(a.shape),)

    return _node(a.data.reshape(-1)[flat], (a,), grad_fn)


@functools.lru_cache(maxsize=64)
def _row_starts(lead: tuple, width: int) -> np.ndarray:
    """Flat position of the first entry of each row of a ``lead + (width,)``
    array, shaped ``lead + (1,)``; cached, so read-only."""
    starts = np.arange(math.prod(lead)).reshape(lead + (1,)) * width
    starts.setflags(write=False)
    return starts


def l2_normalize(a, axis: int = -1) -> Tensor:
    """Scale vectors along ``axis`` to unit Euclidean norm.

    Rejects zero vectors and vectors whose squared norm overflows;
    silently adding an epsilon would make downstream similarity values
    quietly wrong.
    """
    a = a if isinstance(a, Tensor) else Tensor(a)
    ax = axis % a.data.ndim
    guard = _overflow_guard(a.data, _MAX / 2)          # below, no row's squared norm overflows
    with guard:
        norms = np.sqrt(np.add.reduce(a.data * a.data, axis=ax, keepdims=True))
    if guard is not _UNGUARDED and np.isinf(norms).any():
        raise DomainError("cannot normalize a vector whose squared norm overflows")
    if np.count_nonzero(norms) != norms.size:
        raise DomainError("cannot normalize a zero vector")
    out = a.data / norms

    def grad_fn(g):
        radial = np.add.reduce(g * out, axis=ax, keepdims=True)
        return ((g - out * radial) / norms,)

    return _node(out, (a,), grad_fn)


# The stop-gradient values of a running ``finite_diff_check``'s base point
# in call order (None outside a check), and the index a probe replays next
# (None while the base point records them).
_held: list[np.ndarray] | None = None
_replay_at: int | None = None


def stop_gradient(a) -> Tensor:
    """Identity in the forward pass, zero contribution in the backward pass.

    A stopped value is a constant of the function whose gradient backward
    computes, so inside ``finite_diff_check`` each call returns the value
    the same call had at the base point."""
    global _replay_at
    a = a if isinstance(a, Tensor) else Tensor(a)
    if _held is None:
        return _node(a.data, (), None)
    if _replay_at is None:
        _held.append(a.data.copy())
        return _node(a.data, (), None)
    i = _replay_at
    if i >= len(_held) or _held[i].shape != a.shape:
        raise ContractViolation(f"a probe's stop_gradient call {i} (shape {a.shape}) has no "
                                f"match among the base point's {len(_held)} calls")
    _replay_at = i + 1
    return _node(_held[i], (), None)


# -- backward pass -------------------------------------------------------

def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))
    return order


def backward(root: Tensor, leaves: Sequence[Tensor]) -> list[np.ndarray]:
    """Gradients of a scalar root with respect to ``leaves``, one array per
    leaf in order; zeros for a leaf the root does not reach.

    Each node's gradient is dropped once it has been passed on to its
    parents, so only the requested leaves' gradients outlive the pass.
    The returned arrays may share memory with each other and with the
    graph (``add`` hands one gradient to both operands): callers must
    not write into them.
    """
    if root.data.size != 1:
        raise ContractViolation(f"backward root must be scalar, got shape {root.shape}")
    wanted = {id(leaf) for leaf in leaves}
    kept: dict[int, np.ndarray] = {}
    pass_grads: dict[int, np.ndarray] = {id(root): np.ones_like(root.data)}
    for node in reversed(_topo_order(root)):
        g = pass_grads.pop(id(node))
        if id(node) in wanted:
            kept[id(node)] = g
        if node._grad_fn is not None:
            for parent, pg in zip(node._parents, node._grad_fn(g)):
                key = id(parent)
                pass_grads[key] = pass_grads[key] + pg if key in pass_grads else pg
    return [kept[id(leaf)] if id(leaf) in kept else np.zeros_like(leaf.data) for leaf in leaves]


def _probe(loss_fn: Callable[[], Tensor]) -> float:
    """A probe's loss value, with the base point's stop-gradient values replayed."""
    global _replay_at
    _replay_at = 0
    value = loss_fn().item()
    if _replay_at != len(_held):
        raise ContractViolation(
            f"a probe made {_replay_at} stop_gradient calls, the base point {len(_held)}")
    return value


def finite_diff_check(loss_fn: Callable[[], Tensor], params: Sequence[Tensor],
                      h: float = 1e-5) -> float:
    """Max relative disagreement between backward and central differences.

    ``loss_fn`` must be a deterministic closure over ``params`` that
    rebuilds its graph on every call; parameters are perturbed in place
    while probing. Every ``stop_gradient`` value is held at the base point:
    the base-point call records them in call order and each probe replays
    them, so a probe whose calls differ in number or shape raises
    ``ContractViolation``, as does a nested check. Relative error for each
    coordinate is ``|analytic - numeric| / max(1, |analytic|)``; a
    non-finite analytic entry or probe loss raises ``EvaluationError``
    naming the parameter and coordinate.
    """
    global _held, _replay_at
    if not 1e-7 <= h <= 1e-3:
        raise ContractViolation(f"step h={h} outside [1e-7, 1e-3]")
    if _held is not None:
        raise ContractViolation("finite_diff_check cannot run inside another check")
    _held = []
    try:
        loss = loss_fn()
        if not np.isfinite(loss.data).all():
            raise EvaluationError("loss is not finite at the base point")
        analytic = backward(loss, params)
        worst = 0.0
        for k, (p, an) in enumerate(zip(params, analytic)):
            flat = p.data.reshape(-1)
            aflat = an.reshape(-1)
            for i in range(flat.size):
                if not math.isfinite(aflat[i]):
                    raise EvaluationError(f"gradient of parameter {k} is not finite at coordinate {i}")
                saved = flat[i]
                flat[i] = saved + h
                f_plus = _probe(loss_fn)
                flat[i] = saved - h
                f_minus = _probe(loss_fn)
                flat[i] = saved
                if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                    raise EvaluationError(f"loss is not finite at a probe of parameter {k}, "
                                          f"coordinate {i}")
                numeric = (f_plus - f_minus) / (2.0 * h)
                err = abs(aflat[i] - numeric) / max(1.0, abs(aflat[i]))
                if err > worst:
                    worst = err
    finally:
        _held = _replay_at = None
    return worst


# -- AMTD binary tensor format -------------------------------------------

AMTD_MAGIC = b"AMTD"
AMTD_VERSION = 1
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("u1"), 2: np.dtype("<f8")}


def amtd_encode(values: np.ndarray, dtype_code: int = 0) -> bytes:
    """Serialize one array: magic, version, ndim, extents (u32 LE),
    dtype byte, then the row-major little-endian payload."""
    if dtype_code not in _DTYPES:
        raise ContractViolation(f"unknown AMTD dtype code {dtype_code}")
    arr = np.ascontiguousarray(values)
    header = AMTD_MAGIC + struct.pack("<II", AMTD_VERSION, arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    header += struct.pack("B", dtype_code)
    payload = arr.astype(_DTYPES[dtype_code]).tobytes(order="C")
    return header + payload


def amtd_decode(blob: bytes) -> np.ndarray:
    """Decode one AMTD record into a float64 array (values upcast)."""
    if blob[:4] != AMTD_MAGIC:
        raise ContractViolation(f"bad AMTD magic {blob[:4]!r}")
    if len(blob) < 12:
        raise ContractViolation("truncated AMTD header")
    version, ndim = struct.unpack_from("<II", blob, 4)
    if version != AMTD_VERSION:
        raise ContractViolation(f"unsupported AMTD version {version}")
    offset = 12
    if len(blob) < offset + 4 * ndim + 1:
        raise ContractViolation("truncated AMTD header")
    shape = struct.unpack_from(f"<{ndim}I", blob, offset)
    offset += 4 * ndim
    (code,) = struct.unpack_from("B", blob, offset)
    offset += 1
    if code not in _DTYPES:
        raise ContractViolation(f"unknown AMTD dtype code {code}")
    dtype = _DTYPES[code]
    count = math.prod(shape) if shape else 1
    expected = offset + count * dtype.itemsize
    if len(blob) < expected:
        raise ContractViolation("truncated AMTD payload")
    flat = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
    return flat.astype(np.float64).reshape(shape)
