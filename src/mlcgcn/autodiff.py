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

from .errors import ConfigError, ContractError, OracleError, ShapeError, ZeroNormRowsWarning

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


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_pull(g, y):
    """Adjoint of the softmax input, given the softmax output y."""
    return y * (g - (g * y).sum(axis=-1, keepdims=True))


def softmax_rows(x):
    """Row-wise softmax along the last axis, stabilized by max-subtraction."""
    x = _as_tensor(x)
    y = _softmax(x.data)

    def pull(g, acc):
        acc(x, _softmax_pull(g, y))

    return _op(y, (x,), pull)


def _norm_rows(x):
    """The rows of x normalised to mean 0 / variance 1, and their inverse stds."""
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + LAYERNORM_EPS)
    return xc * inv, inv


def _norm_rows_pull(g, xhat, inv, gain):
    """Adjoints of x, gain and shift for the layer norm xhat * gain + shift."""
    d = xhat.shape[-1]
    gx = g * gain
    dx = inv * (gx - gx.mean(axis=-1, keepdims=True)
                - xhat * (gx * xhat).mean(axis=-1, keepdims=True))
    return dx, (g * xhat).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0)


def layer_norm(x, gain, shift):
    """Normalize the last axis to mean 0 / variance 1, then apply gain+shift."""
    x, gain, shift = _as_tensor(x), _as_tensor(gain), _as_tensor(shift)
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or shift.data.shape != (d,):
        raise ShapeError(
            f"layer_norm gain/shift must have shape ({d},), got "
            f"{gain.data.shape} and {shift.data.shape}"
        )
    xhat, inv = _norm_rows(x.data)

    def pull(g, acc):
        for t, grad in zip((x, gain, shift), _norm_rows_pull(g, xhat, inv, gain.data)):
            acc(t, grad)

    return _op(xhat * gain.data + shift.data, (x, gain, shift), pull)


def dropout(x, rate, rng=None):
    """Zero elements with probability `rate`, scaling survivors by 1/(1-rate).

    Dropout is on iff an rng is given: the identity without one or at rate 0,
    otherwise a product with the mask keep/(1-rate) drawn from it. The record
    keeps the mask as bool.
    """
    x = _as_tensor(x)
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return x
    keep = rng.random(x.data.shape) >= rate
    scale = 1.0 / (1.0 - rate)

    def pull(g, acc):
        acc(x, g * keep * scale)

    return _op(x.data * keep * scale, (x,), pull)


# The blocks of `encoder_layer`, in the order its record lists them after h.
ENCODER_BLOCKS = ("ln1.gain", "ln1.shift", "wq", "wk", "wv", "wo", "ln2.gain", "ln2.shift",
                  "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2", "ln_out.gain", "ln_out.shift")


def encoder_layer(h, blocks, heads, keep=None, rate=0.0):
    """One pre-norm transformer-encoder layer over h [..., n x l] whose tokens
    are the l columns; the model width n splits across `heads`.

    On the token rows x [..., l x n]: x += dropout(attention(ln1(x))·wo), with
    per-head softmax(q·kᵀ/√d)·v and q, k, v = ln1(x)·wq, ·wk, ·wv; then
    x += dropout(ffn(ln2(x))), a ReLU feed-forward net; then ln_out(x),
    transposed back to [..., n x l]. `blocks` maps each ENCODER_BLOCKS name
    to its tensor. `keep` is None (no dropout) or the attention and the
    feed-forward bool masks [..., l x n]; survivors scale by 1/(1-rate).
    One record, which keeps each norm's normalised rows and inverse stds,
    the ln1 and ln2 outputs, q, k, v, the attention weights, the merged
    heads, the hidden activations and the masks as bool.
    """
    h = _as_tensor(h)
    tensors = tuple(_as_tensor(blocks[name]) for name in ENCODER_BLOCKS)
    g1, s1, wq, wk, wv, wo, g2, s2, w1, b1, w2, b2, g3, s3 = (t.data for t in tensors)
    if h.data.ndim < 2 or h.data.shape[-2] % heads:
        raise ShapeError(f"encoder_layer expects [..., n x l] with n divisible by "
                         f"{heads} heads, got shape {h.data.shape}")
    *lead, n, l = h.data.shape
    d = n // heads
    m1, m2 = keep if keep is not None else (None, None)
    scale = 1.0 / (1.0 - rate)

    def drop(a, mask):
        return a if mask is None else a * mask * scale

    def dense(a, w):  # a [..., p] @ w [p x r] as one 2-D product
        return (a.reshape(-1, a.shape[-1]) @ w).reshape(*a.shape[:-1], w.shape[1])

    def split(a):  # [..., l x n] -> a [..., heads x l x d] view
        return np.swapaxes(a.reshape(*lead, l, heads, d), -3, -2)

    def merge(a):  # [..., heads x l x d] -> [..., l x n]
        return np.swapaxes(a, -3, -2).reshape(*lead, l, n)

    x = np.ascontiguousarray(np.swapaxes(h.data, -1, -2))
    xhat1, inv1 = _norm_rows(x)
    a1 = xhat1 * g1 + s1
    q, k, v = dense(a1, wq), dense(a1, wk), dense(a1, wv)
    att = _softmax(np.matmul(split(q), np.swapaxes(split(k), -1, -2)) * (1.0 / np.sqrt(d)))
    merged = merge(np.matmul(att, split(v)))
    x = x + drop(dense(merged, wo), m1)
    xhat2, inv2 = _norm_rows(x)
    a2 = xhat2 * g2 + s2
    hid = np.maximum(dense(a2, w1) + b1, 0.0)
    x = x + drop(dense(hid, w2) + b2, m2)
    xhat3, inv3 = _norm_rows(x)
    out = np.ascontiguousarray(np.swapaxes(xhat3 * g3 + s3, -1, -2))

    def pull(g, acc):
        def wgrad(a, da):  # adjoint of w in dense(a, w)
            return a.reshape(-1, a.shape[-1]).T @ da.reshape(-1, da.shape[-1])

        gx, gg3, gs3 = _norm_rows_pull(np.ascontiguousarray(np.swapaxes(g, -1, -2)),
                                       xhat3, inv3, g3)
        df = drop(gx, m2)
        dpre = dense(df, w2.T) * (hid > 0.0)
        da2, gg2, gs2 = _norm_rows_pull(dense(dpre, w1.T), xhat2, inv2, g2)
        gx = gx + da2
        datt = drop(gx, m1)
        do = split(dense(datt, wo.T))
        ds = _softmax_pull(np.matmul(do, np.swapaxes(split(v), -1, -2)), att) * (1.0 / np.sqrt(d))
        dq = merge(np.matmul(ds, split(k)))
        dk = merge(np.matmul(np.swapaxes(ds, -1, -2), split(q)))
        dv = merge(np.matmul(np.swapaxes(att, -1, -2), do))
        da1 = dense(dq, wq.T) + dense(dk, wk.T) + dense(dv, wv.T)
        dx, gg1, gs1 = _norm_rows_pull(da1, xhat1, inv1, g1)
        grads = (np.swapaxes(gx + dx, -1, -2), gg1, gs1,
                 wgrad(a1, dq), wgrad(a1, dk), wgrad(a1, dv), wgrad(merged, datt), gg2, gs2,
                 wgrad(a2, dpre), dpre.reshape(-1, dpre.shape[-1]).sum(axis=0),
                 wgrad(hid, df), df.reshape(-1, n).sum(axis=0), gg3, gs3)
        for t, grad in zip((h, *tensors), grads):
            acc(t, grad)

    return _op(out, (h, *tensors), pull)


def cosine_graph(x, site):
    """Cosine-similarity graph [..., n x n] of the rows of x [..., n x d]: the
    unit-norm rows' Gram matrix, symmetrized, clipped to [-1, 1], diagonal 1.
    This is the one normalised-Gram kernel: the Pearson connectome is this
    graph of the mean-centred series. Zero-norm rows stay zero (with a
    `ZeroNormRowsWarning` that names the caller's `site`) and get no
    gradient. One record, whose pull maps the graph adjoint straight back to
    the rows of x."""
    x = _as_tensor(x)
    if x.data.ndim < 2:
        raise ShapeError(f"cosine_graph expects [..., n x d], got shape {x.data.shape}")
    norms = np.sqrt((x.data * x.data).sum(axis=-1))
    zero = norms < 1e-150
    if zero.any():
        warnings.warn(ZeroNormRowsWarning(site, int(zero.sum())), stacklevel=2)
    safe = np.where(zero, 1.0, norms)[..., None]
    y = x.data / safe
    a = np.matmul(y, np.ascontiguousarray(np.swapaxes(y, -1, -2)))
    a = (a + np.ascontiguousarray(np.swapaxes(a, -1, -2))) * 0.5
    np.clip(a, -1.0, 1.0, out=a)
    diag = np.arange(a.shape[-1])
    a[..., diag, diag] = 1.0

    def pull(g, acc):
        # The clipped a lies inside (-1, 1) iff the clip passed it; the unit
        # diagonal lies outside, so it passes nothing.
        s = g * ((a > -1.0) & (a < 1.0)) * 0.5
        s = s + np.swapaxes(s, -1, -2)
        gy = np.matmul(s, y) + np.swapaxes(np.matmul(np.swapaxes(y, -1, -2), s), -1, -2)
        d = (gy - y * (gy * y).sum(axis=-1, keepdims=True)) / safe
        d[zero] = 0.0
        acc(x, d)

    return _op(a, (x,), pull)


def class_spread(stack, mean_of, weight):
    """Sum of weight * diff**2, diff = stack - mean_of·stack, over the samples
    of stack [B x ...] as flat rows; mean_of [B x B] and weight [B x 1] are
    constant arrays. One record."""
    stack = _as_tensor(stack)
    flat = stack.data.reshape(len(mean_of), -1)
    diff = flat - mean_of @ flat

    def pull(g, acc):
        d = g * weight * diff * 2.0
        acc(stack, (d - mean_of.T @ d).reshape(stack.data.shape))

    return _op((diff * diff * weight).sum(), (stack,), pull)


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
