"""Dense float64 tensors with reverse-mode automatic differentiation.

Operations executed while a Tape is active append adjoint closures to it;
`backward` replays the tape backwards, each pull as late as the pulls that
feed its adjoint allow, and accumulates gradients into the `.grad` buffers of
its leaves: the requires-grad tensors, such as parameters, that the tape
reads but never produces.
All computation is 64-bit so finite-difference gradient oracles stay tight.
"""

import heapq
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
    """Ordered record of executed operations, replayable backwards.

    Each record holds (output, inputs, pull) where `pull(grad_out, acc)`
    pushes gradient contributions to the inputs, and to no other tensor:
    `backward` orders the pulls by what each record reads and produces. The
    records keep every intermediate alive until the tape itself is dropped.
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


def _records(inputs):
    """Whether `_op` will record an op on these inputs: a kernel whose forward
    makes no record drops each intermediate once its forward use is over."""
    return _TAPE is not None and any(t.requires_grad for t in inputs)


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


# ---------------------------------------------------------------------------
# neural-network kernels


def _softmax(x):
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _softmax_pull(g, y):
    """Adjoint of the softmax input, given the softmax output y."""
    d = g * y
    np.subtract(g, d.sum(axis=-1, keepdims=True), out=d)
    d *= y
    return d


def softmax_rows(x):
    """Row-wise softmax along the last axis, stabilized by max-subtraction."""
    x = _as_tensor(x)
    y = _softmax(x.data)

    def pull(g, acc):
        acc(x, _softmax_pull(g, y))

    return _op(y, (x,), pull)


def _dense(a, w):
    """a [..., p] @ w [p x r] as one 2-D product."""
    return (a.reshape(-1, a.shape[-1]) @ w).reshape(*a.shape[:-1], w.shape[1])


def _wgrad(a, da):
    """Adjoint of w in `_dense(a, w)`, given the output adjoint da."""
    return a.reshape(-1, a.shape[-1]).T @ da.reshape(-1, da.shape[-1])


def _drop(a, keep, rate):
    """a with the units the bool mask `keep` drops zeroed, survivors scaled by
    1/(1-rate): a itself without a mask, else one new array."""
    if keep is None:
        return a
    out = a * keep
    out *= 1.0 / (1.0 - rate)
    return out


def _mlp2_forward(x, w1, b1, w2, b2, keep=None, rate=0.0):
    """The hidden activations relu(x·w1 + b1), dropped by `keep`, and hidden·w2 + b2."""
    hid = _dense(x, w1)
    hid += b1
    hid = _drop(np.maximum(hid, 0.0, out=hid), keep, rate)
    out = _dense(hid, w2)
    out += b2
    return hid, out


def _mlp2_pull(g, x, hid, w1, w2, scale=None):
    """Adjoints of x, w1, b1, w2 and b2 for `_mlp2_forward`; `scale` is its dropout's 1/(1-rate)."""
    dpre = _dense(g, w2.T)
    if scale is not None:
        dpre *= scale
    # A dropped unit's hidden activation is 0, so the ReLU mask zeroes it too.
    dpre *= hid > 0.0
    return (_dense(dpre, w1.T), _wgrad(x, dpre), dpre.reshape(-1, dpre.shape[-1]).sum(axis=0),
            _wgrad(hid, g), g.reshape(-1, g.shape[-1]).sum(axis=0))


def mlp2(x, w1, b1, w2, b2, keep=None, rate=0.0):
    """Two-layer perceptron relu(x·w1 + b1)·w2 + b2 over the last axis of
    x [..., d]. `keep` is None (no dropout) or a bool mask of the hidden
    units [..., h]; survivors scale by 1/(1-rate). One record, which keeps
    the dropped hidden activations and the scale, not the mask."""
    tensors = tuple(_as_tensor(t) for t in (x, w1, b1, w2, b2))
    x, w1, b1, w2, b2 = (t.data for t in tensors)
    hid, out = _mlp2_forward(x, w1, b1, w2, b2, keep, rate)
    scale = None if keep is None else 1.0 / (1.0 - rate)

    def pull(g, acc):
        for t, grad in zip(tensors, _mlp2_pull(g, x, hid, w1, w2, scale)):
            acc(t, grad)

    return _op(out, tensors, pull)


def _norm_rows(x):
    """The rows of x normalised to mean 0 / variance 1, and their inverse stds."""
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + LAYERNORM_EPS)
    xc *= inv
    return xc, inv


def _norm_rows_pull(g, xhat, inv, gain):
    """Adjoints of x, gain and shift for the layer norm xhat * gain + shift."""
    d = xhat.shape[-1]
    dx = g * gain
    t = dx * xhat
    mean_gx_xhat = t.mean(axis=-1, keepdims=True)
    dx -= dx.mean(axis=-1, keepdims=True)
    dx -= np.multiply(xhat, mean_gx_xhat, out=t)
    dx *= inv
    return dx, np.multiply(g, xhat, out=t).reshape(-1, d).sum(axis=0), g.reshape(-1, d).sum(axis=0)


def embed_layer(series, kernels, bias, w, table=None):
    """Temporal embedding [..., l] of the rows of the constant series [..., L]:
    relu(conv(series)·w) + table, with conv the zero-padded cross-correlation
    with the kernels [m x t] (t odd) plus one bias per kernel [m], flattened
    kernel-major to [m·L], w [m·L x l] and the constant `table` added after
    the ReLU (None for none). No gradient flows to the series.

    Conv and projection are linear, so they run as one map from the padded
    series, v [(L+t-1) x l] = the sum over taps i of kernelsᵀ·w's tap block i
    [L x l] shifted down i rows, plus the row the biases give. One record,
    which keeps the padded series rows and the ReLU mask as bool. Its pull
    slices each tap block's adjoint out of v's.
    """
    tensors = tuple(_as_tensor(t) for t in (kernels, bias, w))
    kernels, bias, w = tensors
    L = series.shape[-1]
    (m, t), l = kernels.data.shape, w.data.shape[-1]
    if bias.data.shape != (m,) or w.data.shape != (m * L, l) or t % 2 == 0:
        raise ShapeError(f"embed_layer expects [{m} x t] kernels with t odd, a [{m}] bias and "
                         f"a [{m * L} x l] map for series [..., {L}], got {kernels.data.shape}, "
                         f"{bias.data.shape} and {w.data.shape}")
    taped = _records(tensors)
    wk = w.data.reshape(m, L * l)  # [kernel, position * l]
    taps = (np.ascontiguousarray(kernels.data.T) @ wk).reshape(t, L, l)
    v = np.zeros((L + t - 1, l))
    for i in range(t):
        v[i:i + L] += taps[i]
    del taps
    c = np.ones((1, L)) @ (bias.data.reshape(1, m) @ wk).reshape(L, l)  # the sum over positions
    pad = (t - 1) // 2
    rows = np.pad(series, [(0, 0)] * (series.ndim - 1) + [(pad, pad)]).reshape(-1, L + t - 1)
    out = (rows @ v).reshape(*series.shape[:-1], l)
    out += c
    np.clip(out, 0.0, np.inf, out=out)
    if taped:
        passes = _relu_passes(out)
    else:
        rows = passes = None  # a tape-free forward keeps neither
    if table is not None:
        out += table

    def pull(g, acc):
        gs = g * passes
        gc = _unbroadcast(gs, (1, l))
        gv = rows.T @ gs.reshape(-1, l)
        gtaps = np.stack([gv[i:i + L] for i in range(t)]).reshape(t, L * l)
        gpos = np.broadcast_to(gc, (L, l)).reshape(1, L * l)  # gc at every position
        gw = np.ascontiguousarray(kernels.data.T).T @ gtaps  # kernels laid out as the forward read them
        gw += np.multiply.outer(bias.data, gpos[0])
        acc(kernels, (gtaps @ wk.T).T)
        acc(bias, (gpos @ wk.T).reshape(m))
        acc(w, gw.reshape(m * L, l))

    return _op(out, tensors, pull)


# The blocks of `encoder_layer`, in the order its record lists them after h.
ENCODER_BLOCKS = ("ln1.gain", "ln1.shift", "wq", "wk", "wv", "wo", "ln2.gain", "ln2.shift",
                  "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2", "ln_out.gain", "ln_out.shift")


def encoder_layer(h, blocks, heads, keep=(None, None), rate=0.0):
    """One pre-norm transformer-encoder layer over h [..., n x l] whose tokens
    are the l columns; the model width n splits across `heads`.

    On the token rows x [..., l x n]: x += dropout(attention(ln1(x))·wo), with
    per-head softmax(q·kᵀ/√d)·v and q, k, v = ln1(x)·wq, ·wk, ·wv; then
    x += dropout(ffn(ln2(x))), a ReLU feed-forward net; then ln_out(x),
    transposed back to [..., n x l]. `blocks` maps each ENCODER_BLOCKS name
    to its tensor. `keep` holds the attention and the feed-forward bool
    masks [..., l x n], each None for no dropout; survivors scale by
    1/(1-rate).
    One record, which keeps the attention weights, the ln2 and ln_out norms'
    normalised rows, every norm's inverse stds, the hidden activations and
    the masks as bool. Its pull rebuilds the ln1 normalised rows from h and
    their inverse stds, the ln1 and ln2 outputs from the normalised rows,
    q, k, v from the ln1 output and the merged heads from the attention
    weights and v, each with the forward's operations.
    """
    h = _as_tensor(h)
    tensors = tuple(_as_tensor(blocks[name]) for name in ENCODER_BLOCKS)
    g1, s1, wq, wk, wv, wo, g2, s2, w1, b1, w2, b2, g3, s3 = (t.data for t in tensors)
    if h.data.ndim < 2 or h.data.shape[-2] % heads:
        raise ShapeError(f"encoder_layer expects [..., n x l] with n divisible by "
                         f"{heads} heads, got shape {h.data.shape}")
    *lead, n, l = h.data.shape
    d = n // heads
    m1, m2 = keep
    taped = _records((h, *tensors))

    def split(a):  # [..., l x n] -> a [..., heads x l x d] view
        return np.swapaxes(a.reshape(*lead, l, heads, d), -3, -2)

    def merge(a):  # [..., heads x l x d] -> [..., l x n]
        return np.swapaxes(a, -3, -2).reshape(*lead, l, n)

    x = np.ascontiguousarray(np.swapaxes(h.data, -1, -2))
    xhat1, inv1 = _norm_rows(x)
    a1 = xhat1 * g1 + s1
    del xhat1
    if not taped:
        del inv1
    q, k, v = (_dense(a1, w) for w in (wq, wk, wv))
    del a1
    att = _softmax(np.matmul(split(q), np.swapaxes(split(k), -1, -2)) * (1.0 / np.sqrt(d)))
    del q, k
    merged = merge(np.matmul(att, split(v)))
    del v
    if not taped:
        del att
    x = x + _drop(_dense(merged, wo), m1, rate)
    del merged
    xhat2, inv2 = _norm_rows(x)
    a2 = xhat2 * g2 + s2
    if not taped:
        del xhat2, inv2
    hid, f = _mlp2_forward(a2, w1, b1, w2, b2)
    del a2
    if not taped:
        del hid
    x += _drop(f, m2, rate)
    del f
    xhat3, inv3 = _norm_rows(x)
    del x
    out = np.ascontiguousarray(np.swapaxes(xhat3 * g3 + s3, -1, -2))

    def pull(g, acc):
        gx, gg3, gs3 = _norm_rows_pull(np.ascontiguousarray(np.swapaxes(g, -1, -2)),
                                       xhat3, inv3, g3)
        da2, gw1, gb1, gw2, gb2 = _mlp2_pull(_drop(gx, m2, rate), xhat2 * g2 + s2, hid, w1, w2)
        da2, gg2, gs2 = _norm_rows_pull(da2, xhat2, inv2, g2)
        gx += da2
        del da2
        datt = _drop(gx, m1, rate)
        x = np.ascontiguousarray(np.swapaxes(h.data, -1, -2))
        xhat1 = x - x.mean(axis=-1, keepdims=True)  # as `_norm_rows` computes it
        del x
        xhat1 *= inv1
        a1 = xhat1 * g1 + s1
        q, k, v = (_dense(a1, w) for w in (wq, wk, wv))
        gwo = _wgrad(merge(np.matmul(att, split(v))), datt)
        do = split(_dense(datt, wo.T))
        del datt
        dv = merge(np.matmul(np.swapaxes(att, -1, -2), do))
        ds = _softmax_pull(np.matmul(do, np.swapaxes(split(v), -1, -2)), att)
        del do, v
        ds *= 1.0 / np.sqrt(d)
        dq = merge(np.matmul(ds, split(k)))
        dk = merge(np.matmul(np.swapaxes(ds, -1, -2), split(q)))
        del ds, q, k
        da1 = _dense(dq, wq.T)
        da1 += _dense(dk, wk.T)
        da1 += _dense(dv, wv.T)
        dx, gg1, gs1 = _norm_rows_pull(da1, xhat1, inv1, g1)
        del da1, xhat1
        gx += dx
        del dx
        grads = (np.swapaxes(gx, -1, -2), gg1, gs1,
                 _wgrad(a1, dq), _wgrad(a1, dk), _wgrad(a1, dv), gwo, gg2, gs2,
                 gw1, gb1, gw2, gb2, gg3, gs3)
        for t, grad in zip((h, *tensors), grads):
            acc(t, grad)

    return _op(out, (h, *tensors), pull)


# The blocks of `tfe_layer`, in the order its record lists them after h.
TFE_BLOCKS = ("wt", "ws", "mlp.w1", "mlp.b1", "mlp.w2", "mlp.b2", "norm.gain", "norm.shift")


def tfe_layer(h, blocks, counts, window):
    """The trend/seasonal pathway over the last axis of h [..., n x l].

    trend = (h·counts)·(1/window), with `counts` the constant [l x l] window
    counts of a moving average; seasonal = h - trend; then
    relu(trend·wt) + relu(seasonal·ws), the ReLU MLP `mlp.*` and a layer norm
    with `norm.gain` and `norm.shift`. `blocks` maps each TFE_BLOCKS name to
    its tensor. One record, which keeps the MLP hidden activations and the
    norm's normalised rows and inverse stds. Its pull recomputes the trend,
    the seasonal part, both pre-activations, their ReLU masks and the MLP
    input from h, with the forward's operations.
    """
    h = _as_tensor(h)
    tensors = tuple(_as_tensor(blocks[name]) for name in TFE_BLOCKS)
    wt, ws, w1, b1, w2, b2, gain, shift = (t.data for t in tensors)
    l = h.data.shape[-1]
    if counts.shape != (l, l):
        raise ShapeError(f"tfe_layer expects [{l} x {l}] window counts for h of shape "
                         f"{h.data.shape}, got {counts.shape}")
    taped = _records((h, *tensors))

    def pathways():  # the trend, the seasonal part, their pre-activations and the MLP input
        trend = _dense(h.data, counts)
        trend *= 1.0 / window
        seasonal = h.data - trend
        pre_t, pre_s = _dense(trend, wt), _dense(seasonal, ws)
        mixed = np.maximum(pre_t, 0.0)
        mixed += np.maximum(pre_s, 0.0)
        return trend, seasonal, pre_t, pre_s, mixed

    hid, y = _mlp2_forward(pathways()[-1], w1, b1, w2, b2)
    if not taped:
        del hid
    xhat, inv = _norm_rows(y)
    del y
    out = xhat * gain + shift

    def pull(g, acc):
        dy, ggain, gshift = _norm_rows_pull(g, xhat, inv, gain)
        trend, seasonal, pre_t, pre_s, mixed = pathways()
        dmixed, gw1, gb1, gw2, gb2 = _mlp2_pull(dy, mixed, hid, w1, w2)
        del dy, mixed
        dt = dmixed * (pre_t > 0.0)
        ds = np.multiply(dmixed, pre_s > 0.0, out=dmixed)
        del pre_t, pre_s
        dseasonal = _dense(ds, ws.T)
        dtrend = _dense(dt, wt.T)
        dtrend -= dseasonal
        dtrend *= 1.0 / window
        dh = _dense(dtrend, counts.T)
        dh += dseasonal
        grads = (dh, _wgrad(trend, dt), _wgrad(seasonal, ds),
                 gw1, gb1, gw2, gb2, ggain, gshift)
        for t, grad in zip((h, *tensors), grads):
            acc(t, grad)

    return _op(out, (h, *tensors), pull)


def _graph_conv(adj, h, w):
    """One graph-convolution layer: h·w, and relu(adj·(h·w) + h·w)."""
    y = _dense(h, w)
    out = np.matmul(adj, y)
    out += y
    return y, np.clip(out, 0.0, np.inf, out=out)


def _relu_passes(out):
    """Where a ReLU output passes its adjoint: where it is > 0 and finite,
    which is where the pre-activation is."""
    return (out > 0.0) & (out < np.inf)


def _graph_conv_pull(g, passes, adj, y, acc):
    """Push the adjacency's adjoint for a `_graph_conv` whose ReLU passes
    where the bool mask `passes` is true, and return the adjoint of h·w.
    y = h·w is read only when adj needs a gradient."""
    gs = g * passes
    if adj.requires_grad:
        acc(adj, np.matmul(gs, np.swapaxes(y, -1, -2)))
    dy = np.matmul(np.swapaxes(adj.data, -1, -2), gs)
    dy += gs
    return dy


def gcn2(adj, x, w0, w1):
    """Two graph-convolution layers over node features x [..., n x d] and a
    graph adj [..., n x n] with x's leading axes: h1 = relu(adj·(x·w0) + x·w0),
    then h2 = relu(adj·(h1·w1) + h1·w1), and the mean of h2's rows [..., e].
    One record, which keeps h1 and the ReLU mask of h2 as bool, plus x·w0
    and h1·w1 when adj needs a gradient, as only the graph's adjoint reads
    them. Its pull spreads the pooled adjoint evenly over the nodes,
    recomputes h1's ReLU mask from h1 and pushes the graph's adjoint for
    the second layer first.
    """
    tensors = tuple(_as_tensor(t) for t in (adj, x, w0, w1))
    adj, x, w0, w1 = tensors
    ash, xsh, w0sh, w1sh = (t.data.shape for t in tensors)
    if (len(ash) < 2 or ash[-1:] != ash[-2:-1] or ash[:-1] != xsh[:-1] or len(w0sh) != 2
            or len(w1sh) != 2 or xsh[-1:] != w0sh[:1] or w0sh[1:] != w1sh[:1]):
        raise ShapeError(f"gcn2 expects [..., n x n], [..., n x d], [d x g] and [g x e] with "
                         f"equal leading axes, got {ash}, {xsh}, {w0sh} and {w1sh}")
    taped = _records(tensors)

    keep_y = taped and adj.requires_grad
    y0, h1 = _graph_conv(adj.data, x.data, w0.data)
    y0 = y0 if keep_y else None
    y1, h2 = _graph_conv(adj.data, h1, w1.data)
    y1 = y1 if keep_y else None
    pooled = h2.mean(axis=-2)
    passes2 = _relu_passes(h2) if taped else None
    del h2
    if not taped:
        del h1

    def pull(g, acc):
        g = np.broadcast_to(np.expand_dims(g, -2) / passes2.shape[-2], passes2.shape)
        gy1 = _graph_conv_pull(g, passes2, adj, y1, acc)
        acc(w1, _wgrad(h1, gy1))
        gy0 = _graph_conv_pull(_dense(gy1, w1.data.T), _relu_passes(h1), adj, y0, acc)
        if x.requires_grad:
            acc(x, _dense(gy0, w0.data.T))
        acc(w0, _wgrad(x.data, gy0))

    return _op(pooled, tensors, pull)


def cosine_graph(x, site):
    """Cosine-similarity graph [..., n x n] of the rows of x [..., n x d]: the
    unit-norm rows' Gram matrix, symmetrized, clipped to [-1, 1], diagonal 1.
    This is the one normalised-Gram kernel: the Pearson connectome is this
    graph of the mean-centred series. Zero-norm rows stay zero (with a
    `ZeroNormRowsWarning` that names the caller's `site`) and get no
    gradient. One record, whose pull maps the graph adjoint straight back to
    the rows of x; it keeps the row norms and recomputes the unit rows."""
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
    del y
    a += np.swapaxes(a, -1, -2)  # NumPy buffers the overlapping transpose
    a *= 0.5
    np.clip(a, -1.0, 1.0, out=a)
    diag = np.arange(a.shape[-1])
    a[..., diag, diag] = 1.0

    def pull(g, acc):
        # The clipped a lies inside (-1, 1) iff the clip passed it; the unit
        # diagonal lies outside, so it passes nothing. With s the symmetrised
        # (g·mask)/2, the adjoint of y is s·y + (yᵀ·s)ᵀ = 2·s·y, as s is
        # exactly symmetric: one product, with the 2 folded into s.
        s = g * ((a > -1.0) & (a < 1.0))
        s += np.swapaxes(s, -1, -2)
        y = x.data / safe
        d = np.matmul(s, y)
        del s
        t = d * y
        d -= np.multiply(y, t.sum(axis=-1, keepdims=True), out=t)
        d /= safe
        d[zero] = 0.0
        acc(x, d)

    return _op(a, (x,), pull)


def class_spread(stack, mean_of, weight):
    """Sum of weight * diff**2, diff = stack - mean_of·stack, over the samples
    of stack [B x ...] as flat rows; mean_of [B x B] and weight [B x 1] are
    constant arrays. One record, whose pull recomputes diff."""
    stack = _as_tensor(stack)

    def differences():
        flat = stack.data.reshape(len(mean_of), -1)
        means = mean_of @ flat
        return np.subtract(flat, means, out=means)

    def pull(g, acc):
        d = differences()
        d *= g * weight
        d *= 2.0
        d -= mean_of.T @ d
        acc(stack, d.reshape(stack.data.shape))

    sq = differences()
    sq *= sq
    sq *= weight
    return _op(sq.sum(), (stack,), pull)


# ---------------------------------------------------------------------------
# reverse pass and the finite-difference oracle


def _pull_order(records):
    """The indices of `records` in the order `backward` pulls them: each as
    late as its consumers allow, so an adjoint is made just before the pull
    that uses it up.

    A record's pull runs before the pull of the record that produced any of
    its gradient-carrying inputs, and after the pulls of the later records
    that read the same input. So each adjoint sums its parts in reverse
    creation order, as a plain reverse replay does. Constants carry no
    adjoint and set no constraint. This is a Kahn sort built from its end:
    of the records whose later pulls are all placed, it places the one
    created last.
    """
    last = {}  # id of a gradient-carrying tensor -> the last record to produce or read it
    before = [[] for _ in records]  # before[j]: the records whose pulls precede j's
    waits = [0] * len(records)  # waits[i]: how many pulls that follow i's are not yet placed
    for i, (out, inputs, _pull) in enumerate(records):
        for t in inputs:
            if t.requires_grad:
                j = last.get(id(t), i)
                if j != i:
                    before[j].append(i)
                    waits[i] += 1
                last[id(t)] = i
        last[id(out)] = i
    ready = [-i for i, n in enumerate(waits) if not n]
    heapq.heapify(ready)
    order = []
    while ready:
        j = -heapq.heappop(ready)
        order.append(j)
        for i in before[j]:
            waits[i] -= 1
            if not waits[i]:
                heapq.heappush(ready, -i)
    order.reverse()
    return order


def backward(loss, tape=None):
    """Populate `.grad` on the tape's leaves: requires-grad tensors that some
    record reads and none produces, such as parameter blocks.

    The adjoint of the scalar `loss`, which a record of the tape must have
    produced, is seeded with 1.0. The tape is replayed once, in the order of
    `_pull_order`, dropping each adjoint once its pull has used it;
    intermediates keep `.grad` None. Leaf gradients accumulate into any
    pre-existing `.grad` buffers, so replaying twice doubles them; leaves
    that receive no gradient are zero-filled. Each `.grad` written is a
    fresh, writeable array.
    """
    tape = tape if tape is not None else active_tape()
    if tape is None:
        raise ContractError("backward requires an active tape")
    if not isinstance(loss, Tensor) or loss.data.shape != ():
        raise ContractError("backward expects a scalar tensor produced on the tape")
    records = tape.records
    produced = {id(out) for out, _inputs, _pull in records}
    if id(loss) not in produced:
        raise ContractError(
            "backward's loss was produced by no record of this tape: a leaf, a tensor "
            "with no gradient-carrying input or one taped elsewhere has no gradient to replay"
        )

    adjoints = {id(loss): np.ones((), dtype=np.float64)}

    def acc(t, g):
        if not t.requires_grad:
            return
        key = id(t)
        prev = adjoints.get(key)
        adjoints[key] = g if prev is None else prev + g

    # Every consumer of a record's output is pulled before the record, so its
    # adjoint is complete by the time the record is pulled.
    for i in _pull_order(records):
        out, _inputs, pull = records[i]
        g = adjoints.pop(id(out), None)
        if g is not None:
            pull(g, acc)

    for _out, inputs, _pull in records:
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
