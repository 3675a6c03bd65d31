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

import math
import struct
from typing import Callable, Sequence

import numpy as np

from .errors import ContractViolation, DomainError, EvaluationError

GradFn = Callable[[np.ndarray], tuple]


class Tensor:
    """Value array plus computation-graph linkage."""

    __slots__ = ("data", "_parents", "_grad_fn")

    def __init__(self, data, _parents: tuple = (), _grad_fn: GradFn | None = None):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self._parents = _parents
        self._grad_fn = _grad_fn

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


def _joint_shape(sa: tuple, sb: tuple) -> tuple:
    """Output shape for a binary op under the broadcasting rules above."""
    if sa == sb:
        return sa
    if len(sa) > len(sb) and sa[len(sa) - len(sb):] == sb:
        return sa
    if len(sb) > len(sa) and sb[len(sb) - len(sa):] == sa:
        return sb
    if len(sa) == len(sb) >= 2 and sa[:-2] == sb[:-2] and sa[-1] == sb[-1] and 1 in (sa[-2], sb[-2]):
        return sa if sb[-2] == 1 else sb
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

def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _joint_shape(a.shape, b.shape)

    def grad_fn(g):
        return _reduce_to(g, a.shape), _reduce_to(g, b.shape)

    return Tensor(a.data + b.data, (a, b), grad_fn)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _joint_shape(a.shape, b.shape)

    def grad_fn(g):
        return _reduce_to(g, a.shape), _reduce_to(-g, b.shape)

    return Tensor(a.data - b.data, (a, b), grad_fn)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _joint_shape(a.shape, b.shape)

    def grad_fn(g):
        return _reduce_to(g * b.data, a.shape), _reduce_to(g * a.data, b.shape)

    return Tensor(a.data * b.data, (a, b), grad_fn)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _joint_shape(a.shape, b.shape)
    if (b.data == 0.0).any():
        raise DomainError("division by zero")

    def grad_fn(g):
        ga = _reduce_to(g / b.data, a.shape)
        gb = _reduce_to(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return Tensor(a.data / b.data, (a, b), grad_fn)


def neg(a) -> Tensor:
    a = as_tensor(a)
    return Tensor(-a.data, (a,), lambda g: (-g,))


def exp(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(over="ignore"):
        out = np.exp(a.data)
    return Tensor(out, (a,), lambda g: (g * out,))


def log(a) -> Tensor:
    a = as_tensor(a)
    if (a.data <= 0.0).any():
        raise DomainError("log of a non-positive argument")
    return Tensor(np.log(a.data), (a,), lambda g: (g / a.data,))


def logsumexp(a, axis: int = -1) -> Tensor:
    """log sum exp(a) along ``axis``, evaluated max-shifted so that rows
    whose every term underflows ``exp`` stay finite; the gradient is the
    softmax along ``axis``."""
    a = as_tensor(a)
    ax = axis % a.data.ndim
    top = a.data.max(axis=ax, keepdims=True)
    if not np.all(np.isfinite(top)):
        raise DomainError("logsumexp needs finite arguments")
    shifted = np.exp(a.data - top)
    total = shifted.sum(axis=ax, keepdims=True)
    weights = shifted / total

    def grad_fn(g):
        return (np.expand_dims(g, ax) * weights,)

    return Tensor((top + np.log(total)).squeeze(axis=ax), (a,), grad_fn)


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0.0
    return Tensor(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def pow_const(a, exponent: float) -> Tensor:
    a = as_tensor(a)
    p = float(exponent)
    if (p < 0.0 or not p.is_integer()) and (a.data <= 0.0).any():
        raise DomainError(f"x ** {p} needs a strictly positive base")

    def grad_fn(g):
        return (g * p * a.data ** (p - 1.0),) if p != 0.0 else (np.zeros_like(a.data),)

    return Tensor(a.data ** p, (a,), grad_fn)


def sqrt(a) -> Tensor:
    return pow_const(a, 0.5)


def matmul(a, b) -> Tensor:
    """Matrix product for 2D @ 2D, 1D @ 2D and 2D @ 1D operands; a 3D
    operand is a stack of matrices, multiplied matrix by matrix with an
    equal stack or with one 2D matrix shared by the stack."""
    a, b = as_tensor(a), as_tensor(b)
    ka, kb = a.data.ndim, b.data.ndim
    if not (ka in (2, 3) and kb in (2, 3) or (ka, kb) in ((1, 2), (2, 1))):
        raise ContractViolation(f"matmul supports 2D or 3D stacks, 1Dx2D, 2Dx1D; got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2 if kb > 1 else 0]:
        raise ContractViolation(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    if ka == kb == 3 and a.shape[0] != b.shape[0]:
        raise ContractViolation(f"matmul stack extents differ: {a.shape} @ {b.shape}")

    def grad_fn(g):
        if ka == 1:
            return b.data @ g, np.outer(a.data, g)
        if kb == 1:
            return np.outer(g, b.data), a.data.T @ g
        return (_reduce_to(g @ b.data.swapaxes(-1, -2), a.shape),
                _reduce_to(a.data.swapaxes(-1, -2) @ g, b.shape))

    return Tensor(a.data @ b.data, (a, b), grad_fn)


def dot(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 1 or b.data.ndim != 1 or a.shape != b.shape:
        raise ContractViolation(f"dot needs equal-length vectors, got {a.shape} and {b.shape}")

    def grad_fn(g):
        return g * b.data, g * a.data

    return Tensor(a.data @ b.data, (a, b), grad_fn)


def transpose(a) -> Tensor:
    """Swap the last two axes: a matrix, or every matrix of a stack."""
    a = as_tensor(a)
    if a.data.ndim < 2:
        raise ContractViolation(f"transpose needs a matrix or a stack of them, got {a.shape}")
    return Tensor(np.ascontiguousarray(a.data.swapaxes(-1, -2)), (a,),
                  lambda g: (g.swapaxes(-1, -2),))


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    new = tuple(shape)
    if math.prod(new) != a.data.size:
        raise ContractViolation(f"cannot reshape {a.shape} to {new}")
    return Tensor(a.data.reshape(new), (a,), lambda g: (g.reshape(a.shape),))


def sum_(a, axis: int | None = None) -> Tensor:
    a = as_tensor(a)
    if axis is None:
        return Tensor(a.data.sum(), (a,), lambda g: (np.full(a.shape, float(g)),))
    ax = axis % a.data.ndim

    def grad_fn(g):
        return (np.broadcast_to(np.expand_dims(g, ax), a.shape).copy(),)

    return Tensor(a.data.sum(axis=ax), (a,), grad_fn)


def mean(a, axis: int | None = None) -> Tensor:
    a = as_tensor(a)
    # np.add.reduce(...) / n is what ndarray.mean computes, without its
    # Python-level wrapper
    if axis is None:
        n = a.data.size
        return Tensor(np.add.reduce(a.data, axis=None) / n, (a,),
                      lambda g: (np.full(a.shape, float(g) / n),))
    ax = axis % a.data.ndim
    n = a.shape[ax]

    def grad_fn(g):
        return (np.broadcast_to(np.expand_dims(g / n, ax), a.shape).copy(),)

    return Tensor(np.add.reduce(a.data, axis=ax) / n, (a,), grad_fn)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ContractViolation("concat of an empty sequence")
    ax = axis % parts[0].data.ndim
    sizes = [p.shape[ax] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def grad_fn(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=ax))

    return Tensor(np.concatenate([p.data for p in parts], axis=ax), tuple(parts), grad_fn)


def gather(a, indices) -> Tensor:
    """Select entries along the last axis; gradients scatter-add back.

    ``indices`` has the source's shape with the last extent replaced by
    the number of entries selected (a 1D source takes 1D indices), or a
    trailing suffix of that shape, which every leading index shares: one
    (n, k) table selects from each (n, m) matrix of a stack.
    """
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.int64)
    lead = a.shape[:-1]
    if not 0 < idx.ndim <= a.data.ndim or lead[len(lead) + 1 - idx.ndim:] != idx.shape[:-1]:
        raise ContractViolation(f"gather on {a.shape} needs indices shaped {lead + ('k',)} "
                                f"or a trailing suffix of it, got {idx.shape}")
    if (idx < 0).any() or (idx >= a.shape[-1]).any():
        raise ContractViolation("gather index out of range")
    # the flat position of every entry selected; bincount scatter-adds a
    # repeated position in index order, as np.add.at does, but faster
    flat = np.arange(math.prod(lead)).reshape(lead + (1,)) * a.shape[-1] + idx

    def grad_fn(g):
        return (np.bincount(flat.ravel(), weights=g.ravel(), minlength=a.size).reshape(a.shape),)

    return Tensor(a.data.reshape(-1)[flat], (a,), grad_fn)


def l2_normalize(a, axis: int = -1) -> Tensor:
    """Scale vectors along ``axis`` to unit Euclidean norm.

    Rejects zero vectors outright; silently adding an epsilon would make
    downstream similarity values quietly wrong.
    """
    a = as_tensor(a)
    ax = axis % a.data.ndim
    norms = np.sqrt((a.data * a.data).sum(axis=ax, keepdims=True))
    if (norms == 0.0).any():
        raise DomainError("cannot normalize a zero vector")
    out = a.data / norms

    def grad_fn(g):
        radial = (g * out).sum(axis=ax, keepdims=True)
        return ((g - out * radial) / norms,)

    return Tensor(out, (a,), grad_fn)


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
    a = as_tensor(a)
    if _held is None:
        return Tensor(a.data, (), None)
    if _replay_at is None:
        _held.append(a.data.copy())
        return Tensor(a.data, (), None)
    i = _replay_at
    if i >= len(_held) or _held[i].shape != a.shape:
        raise ContractViolation(f"a probe's stop_gradient call {i} (shape {a.shape}) has no "
                                f"match among the base point's {len(_held)} calls")
    _replay_at = i + 1
    return Tensor(_held[i], (), None)


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
    coordinate is ``|analytic - numeric| / max(1, |analytic|)``.
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
        for p, an in zip(params, analytic):
            flat = p.data.reshape(-1)
            aflat = an.reshape(-1)
            for i in range(flat.size):
                saved = flat[i]
                flat[i] = saved + h
                f_plus = _probe(loss_fn)
                flat[i] = saved - h
                f_minus = _probe(loss_fn)
                flat[i] = saved
                if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                    raise EvaluationError("loss is not finite at a probe point")
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
