"""Dense float64 tensors with reverse-mode automatic differentiation.

Operations executed while a Tape is active append adjoint closures to it;
`backward` replays the tape in reverse execution order and accumulates
gradients into the `.grad` buffers of its leaves: the requires-grad tensors,
such as parameters, that the tape reads but never produces.
All computation is 64-bit so finite-difference gradient oracles stay tight.
"""

import warnings
from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, ContractError, OracleError, ShapeError

LAYERNORM_EPS = 1e-5
LOG_FLOOR = 1e-12
FINITE_DIFF_FLOOR = 1e-5

_TAPE = None  # the active tape, or None outside `recording`


class Tensor:
    """A dense float64 array with an optional same-shape gradient buffer.

    Data is treated as immutable once the tensor has participated in a taped
    operation; only `grad` mutates afterwards. `backward` fills it on leaf
    tensors only; a tensor produced on the tape keeps `grad` None.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


class Tape:
    """Ordered record of executed operations, replayable in reverse.

    Each record holds (output, inputs, pull) where `pull(grad_out, acc)`
    pushes gradient contributions to the inputs. The records keep every
    intermediate alive until the tape itself is dropped.
    """

    __slots__ = ("records",)

    def __init__(self):
        self.records = []


def active_tape():
    return _TAPE


@contextmanager
def recording():
    """Activate a fresh tape until the block exits; yields the tape."""
    global _TAPE
    prev, _TAPE = _TAPE, Tape()
    try:
        yield _TAPE
    finally:
        _TAPE = prev


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(out, inputs, pull):
    if _TAPE is not None:
        _TAPE.records.append((out, inputs, pull))


def _op(data, inputs, pull):
    """Wrap an op's forward result; the record policy of every op lives here.

    The output requires grad iff any input does, and only then is
    (output, inputs, pull) recorded on the active tape. `pull(g, acc)` reads
    what it needs from `inputs`, which the record keeps alive.
    """
    out = Tensor(data, any(t.requires_grad for t in inputs))
    if out.requires_grad:
        _record(out, inputs, pull)
    return out


def _unbroadcast(g, shape):
    """Sum a broadcast gradient back down to `shape`."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)

    def pull(g, acc):
        if a.requires_grad:
            acc(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            acc(b, _unbroadcast(g, b.data.shape))

    return _op(a.data + b.data, (a, b), pull)


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)

    def pull(g, acc):
        if a.requires_grad:
            acc(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            acc(b, _unbroadcast(-g, b.data.shape))

    return _op(a.data - b.data, (a, b), pull)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)

    def pull(g, acc):
        if a.requires_grad:
            acc(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            acc(b, _unbroadcast(g * a.data, b.data.shape))

    return _op(a.data * b.data, (a, b), pull)


def relu(x):
    return clamp(x, 0.0, np.inf)


def log(x):
    x = _as_tensor(x)

    def pull(g, acc):
        acc(x, g / x.data)

    return _op(np.log(x.data), (x,), pull)


def clamp(x, lo, hi):
    """Elementwise clip to [lo, hi]; gradient passes inside the open interval."""
    x = _as_tensor(x)

    def pull(g, acc):
        acc(x, g * ((x.data > lo) & (x.data < hi)))

    return _op(np.clip(x.data, lo, hi), (x,), pull)


# ---------------------------------------------------------------------------
# shape manipulation


def matmul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul expects [p x q] @ [q x r], got {a.data.shape} @ {b.data.shape}"
        )

    def pull(g, acc):
        if a.requires_grad:
            acc(a, g @ b.data.T)
        if b.requires_grad:
            acc(b, a.data.T @ g)

    return _op(a.data @ b.data, (a, b), pull)


def bmm(a, b):
    """Stacked product [..., p x q] @ [..., q x r] of two per-scan stacks.

    The leading (batch) axes of both operands must be equal; nothing is
    broadcast. A product with a shared 2-D weight belongs in `matmul`.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    ash, bsh = a.data.shape, b.data.shape
    if len(ash) < 2 or ash[:-2] != bsh[:-2] or ash[-1:] != bsh[-2:-1]:
        raise ShapeError(f"bmm expects [..., p x q] @ [..., q x r], got {ash} @ {bsh}")

    def pull(g, acc):
        if a.requires_grad:
            acc(a, np.matmul(g, np.swapaxes(b.data, -1, -2)))
        if b.requires_grad:
            acc(b, np.matmul(np.swapaxes(a.data, -1, -2), g))

    return _op(np.matmul(a.data, b.data), (a, b), pull)


def transpose(x):
    """Swap the last two axes; leading axes are batch axes."""
    x = _as_tensor(x)
    if x.data.ndim < 2:
        raise ShapeError(f"transpose expects at least 2 axes, got shape {x.data.shape}")

    def pull(g, acc):
        acc(x, np.swapaxes(g, -1, -2))

    return _op(np.ascontiguousarray(np.swapaxes(x.data, -1, -2)), (x,), pull)


def reshape(x, shape):
    x = _as_tensor(x)

    def pull(g, acc):
        acc(x, g.reshape(x.data.shape))

    return _op(x.data.reshape(shape), (x,), pull)


def concat(tensors, axis=0):
    tensors = tuple(_as_tensor(t) for t in tensors)
    if not tensors:
        raise ContractError("concat of an empty sequence")

    def pull(g, acc):
        hi = 0
        for t in tensors:
            lo, hi = hi, hi + t.data.shape[axis]
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                acc(t, g[tuple(idx)])

    return _op(np.concatenate([t.data for t in tensors], axis=axis), tensors, pull)


def stack_rows(rows):
    """Stack N tensors of equal shape along a new leading axis of length N."""
    rows = tuple(_as_tensor(r) for r in rows)
    if not rows:
        raise ContractError("stack_rows of an empty sequence")

    def pull(g, acc):
        for i, r in enumerate(rows):
            if r.requires_grad:
                acc(r, g[i])

    return _op(np.stack([r.data for r in rows]), rows, pull)


# ---------------------------------------------------------------------------
# reductions


def sum_all(x):
    x = _as_tensor(x)

    def pull(g, acc):
        acc(x, np.broadcast_to(g, x.data.shape))

    return _op(x.data.sum(), (x,), pull)


def mean_axis(x, axis):
    x = _as_tensor(x)

    def pull(g, acc):
        shape = x.data.shape
        acc(x, np.broadcast_to(np.expand_dims(g, axis) / shape[axis], shape))

    return _op(x.data.mean(axis=axis), (x,), pull)


# ---------------------------------------------------------------------------
# neural-network kernels


def softmax_rows(x):
    """Row-wise softmax along the last axis, stabilized by max-subtraction."""
    x = _as_tensor(x)
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def pull(g, acc):
        acc(x, y * (g - (g * y).sum(axis=-1, keepdims=True)))

    return _op(y, (x,), pull)


def layer_norm(x, gain, shift):
    """Normalize the last axis to mean 0 / variance 1, then apply gain+shift."""
    x, gain, shift = _as_tensor(x), _as_tensor(gain), _as_tensor(shift)
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or shift.data.shape != (d,):
        raise ShapeError(
            f"layer_norm gain/shift must have shape ({d},), got "
            f"{gain.data.shape} and {shift.data.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYERNORM_EPS)
    xhat = xc * inv

    def pull(g, acc):
        if shift.requires_grad:
            acc(shift, g.reshape(-1, d).sum(axis=0))
        if gain.requires_grad:
            acc(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            gx = g * gain.data
            acc(
                x,
                inv
                * (
                    gx
                    - gx.mean(axis=-1, keepdims=True)
                    - xhat * (gx * xhat).mean(axis=-1, keepdims=True)
                ),
            )

    return _op(xhat * gain.data + shift.data, (x, gain, shift), pull)


def dropout(x, rate, rng=None):
    """Zero elements with probability `rate`, scaling survivors by 1/(1-rate).

    Dropout is on iff an rng is given: the identity without one or at rate 0,
    otherwise a product with the constant mask keep/(1-rate) drawn from it.
    """
    x = _as_tensor(x)
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return x
    keep = rng.random(x.data.shape) >= rate
    return mul(x, Tensor(keep * (1.0 / (1.0 - rate))))


def l2_normalize_rows(x):
    """Scale each row (last axis) of x [..., n x d] to unit L2 norm.

    Zero rows are left as zeros (with a warning) rather than dividing by zero.
    """
    x = _as_tensor(x)
    if x.data.ndim < 2:
        raise ShapeError(f"l2_normalize_rows expects [..., n x d], got shape {x.data.shape}")
    norms = np.sqrt((x.data * x.data).sum(axis=-1))
    zero = norms < 1e-150
    if zero.any():
        warnings.warn(
            f"l2_normalize_rows: {int(zero.sum())} zero-norm row(s) left as zeros",
            stacklevel=2,
        )
    safe = np.where(zero, 1.0, norms)[..., None]
    y = x.data / safe

    def pull(g, acc):
        d = (g - y * (g * y).sum(axis=-1, keepdims=True)) / safe
        if zero.any():
            d[zero] = 0.0
        acc(x, d)

    return _op(y, (x,), pull)


# ---------------------------------------------------------------------------
# reverse pass and the finite-difference oracle


def backward(loss, tape=None):
    """Populate `.grad` on the tape's leaves: requires-grad tensors that some
    record reads and none produces, such as parameter blocks.

    The adjoint of the scalar `loss` is seeded with 1.0 and the tape is
    replayed once in reverse execution order, dropping each adjoint once its
    pull has used it; intermediates keep `.grad` None. Leaf gradients
    accumulate into any pre-existing `.grad` buffers, so replaying twice
    doubles them; leaves that receive no gradient are zero-filled. Each
    `.grad` written is a fresh, writeable array.
    """
    tape = tape if tape is not None else active_tape()
    if tape is None:
        raise ContractError("backward requires an active tape")
    if not isinstance(loss, Tensor) or loss.data.shape != ():
        raise ContractError("backward expects a scalar tensor produced on the tape")

    adjoints = {id(loss): np.ones((), dtype=np.float64)}

    def acc(t, g):
        if not t.requires_grad:
            return
        key = id(t)
        prev = adjoints.get(key)
        adjoints[key] = g if prev is None else prev + g

    # Every consumer of a record's output comes later on the tape, so its
    # adjoint is complete by the time the reverse replay reaches the record.
    produced = set()
    for out, _inputs, pull in reversed(tape.records):
        produced.add(id(out))
        g = adjoints.pop(id(out), None)
        if g is not None:
            pull(g, acc)

    for _out, inputs, _pull in tape.records:
        for t in inputs:
            key = id(t)
            if not t.requires_grad or key in produced:
                continue
            produced.add(key)  # deposit each leaf once
            g = adjoints.get(key)
            if g is None:
                g = np.zeros_like(t.data)
            t.grad = np.array(g) if t.grad is None else t.grad + g


def finite_diff_check(f, params, eps=1e-5):
    """Max relative disagreement between reverse-mode and central differences.

    `f` must be a scalar-valued function of the single tensor `params`.
    Returns max over coordinates of |analytic - central| normalized by
    (|analytic| + |central| + FINITE_DIFF_FLOOR); the floor absorbs
    central-difference rounding noise (about machine epsilon times |f| / eps)
    on coordinates whose true gradient is zero.
    """
    if eps <= 0:
        raise ConfigError(f"finite_diff_check eps must be > 0, got {eps}")
    if not isinstance(params, Tensor) or not params.requires_grad:
        raise ContractError("finite_diff_check params must be a requires-grad tensor")

    params.grad = None
    if not params.data.flags.c_contiguous:
        params.data = np.ascontiguousarray(params.data)  # ravel below must be a view
    with recording():
        out = f(params)
        if not isinstance(out, Tensor) or out.data.shape != ():
            raise ContractError("finite_diff_check f must return a scalar tensor")
        backward(out)
    analytic = params.grad if params.grad is not None else np.zeros_like(params.data)

    flat = params.data.ravel()
    numeric = np.empty_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = float(f(params).data)
        flat[i] = orig - eps
        fm = float(f(params).data)
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise OracleError(f"non-finite objective at perturbed coordinate {i}")
        numeric[i] = (fp - fm) / (2.0 * eps)
    numeric = numeric.reshape(params.data.shape)
    denom = np.abs(analytic) + np.abs(numeric) + FINITE_DIFF_FLOOR
    return float(np.max(np.abs(analytic - numeric) / denom))


def zero_grads(params):
    """Reset the grad buffers of a name->Tensor mapping."""
    for p in params.values():
        p.grad = None
