"""Tensor-engine tests: hand oracles, finite differences, tape semantics."""

import inspect
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mlcgcn import autodiff as ad
from mlcgcn.autodiff import Tensor
from mlcgcn.errors import ConfigError, ContractError, OracleError, ShapeError
from mlcgcn.model import ModelConfig, _keep_mask, _window_counts


def tensor(data, grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    m = np.arange(9.0).reshape(3, 3)
    out = ad.matmul(Tensor(np.eye(3)), Tensor(m))
    np.testing.assert_array_equal(out.data, m)


def test_matmul_hand_case():
    out = ad.matmul(tensor([[1.0, 2.0], [3.0, 4.0]]), tensor([[1.0], [1.0]]))
    np.testing.assert_array_equal(out.data, [[3.0], [7.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        ad.matmul(tensor(np.ones((2, 3))), tensor(np.ones((2, 2))))


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    b = Tensor(rng.normal(size=(5, 3)))
    a = tensor(rng.normal(size=(4, 5)))
    err = ad.finite_diff_check(lambda p: ad.sum_all(ad.matmul(p, b)), a, eps=1e-5)
    assert err < 1e-4


# ---------------------------------------------------------------------------
# moving average: the replicate-padded average pool behind the TFE trend, the
# constant window counts that `tfe_layer` multiplies by and then scales


def _trend(x, window):
    """The trend `tfe_layer` takes of x [..., l]: (x·counts)·(1/window)."""
    return (x @ _window_counts(x.shape[-1], window)) * (1.0 / window)


def test_avgpool_window_one_is_identity():
    x = np.random.default_rng(3).normal(size=(2, 6))
    np.testing.assert_array_equal(_window_counts(6, 1), np.eye(6))
    np.testing.assert_array_equal(_trend(x, 1), x)


def test_avgpool_replicate_padding_hand_case():
    np.testing.assert_allclose(_trend(np.array([0.0, 3.0, 6.0]), 3), [1.0, 3.0, 5.0])


@given(st.integers(min_value=1, max_value=9), st.floats(-5, 5))
def test_avgpool_constant_series_fixed_point(window, value):
    np.testing.assert_allclose(_trend(np.full(7, value), window), np.full(7, value))


@pytest.mark.parametrize("window", [2, 3, 4, 5, 9])
def test_avgpool_matches_edge_padded_sliding_mean(window):
    x = np.random.default_rng(5).normal(size=(2, 3, 7))
    left = (window - 1) // 2
    padded = np.pad(x, [(0, 0), (0, 0), (left, window - 1 - left)], mode="edge")
    reference = np.lib.stride_tricks.sliding_window_view(padded, window, axis=-1).mean(axis=-1)
    np.testing.assert_allclose(_trend(x, window), reference, rtol=0, atol=1e-12)


def test_avgpool_counts_are_one_cached_read_only_array():
    counts = _window_counts(7, 5)
    assert _window_counts(7, 5) is counts
    assert not counts.flags.writeable
    np.testing.assert_array_equal(counts.sum(axis=0), np.full(7, 5.0))


def test_avgpool_gradient_even_and_odd_windows():
    rng = np.random.default_rng(4)
    for window in (2, 3, 4):
        x = tensor(rng.normal(size=(2, 7)))
        blocks = _tfe_blocks(7, 70)
        err = ad.finite_diff_check(
            lambda p: ad.sum_all(ad.mul(o := ad.tfe_layer(p, blocks, _window_counts(7, window),
                                                          window), o)), x, eps=1e-5
        )
        assert err < 1e-4, f"window={window}"


# ---------------------------------------------------------------------------
# softmax / layer norm


def test_softmax_uniform_on_equal_inputs():
    out = ad.softmax_rows(Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_allclose(out.data, [1 / 3] * 3)


@given(st.lists(st.floats(-30, 30), min_size=2, max_size=6), st.floats(-50, 50))
def test_softmax_shift_invariance(row, k):
    base = ad.softmax_rows(Tensor(row)).data
    shifted = ad.softmax_rows(Tensor(np.asarray(row) + k)).data
    np.testing.assert_allclose(shifted, base, atol=1e-12)


def test_softmax_hand_case():
    out = ad.softmax_rows(Tensor(np.log([1.0, 2.0, 3.0])))
    np.testing.assert_allclose(out.data, [1 / 6, 2 / 6, 3 / 6], atol=1e-14)


@given(st.lists(st.lists(st.floats(-40, 40), min_size=3, max_size=3), min_size=1, max_size=5))
def test_softmax_rows_sum_to_one(rows):
    out = ad.softmax_rows(Tensor(rows))
    np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)


def _normed_b2(b2, gain, shift):
    """The TFE kernel with mlp.w2 zero: every row its layer norm sees is mlp.b2."""
    blocks = {**_tfe_blocks(3, 80), "mlp.w2": Tensor(np.zeros((4, 3))), "mlp.b2": b2,
              "norm.gain": gain, "norm.shift": shift}
    return ad.tfe_layer(Tensor(_rand((2, 3), 81)), blocks, _window_counts(3, 3), 3)


def test_layer_norm_standardizes():
    out = _normed_b2(Tensor([1.0, 2.0, 3.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
    np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.data.var(axis=-1), 1.0, atol=1e-4)  # epsilon shrinks it


def test_layer_norm_constant_row_is_zeroed():
    out = _normed_b2(Tensor([5.0, 5.0, 5.0]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_layer_norm_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    b2, gain, shift = (tensor(rng.normal(size=3)) for _ in range(3))

    def f(_p):  # the oracle perturbs the block it checks in place
        out = _normed_b2(b2, gain, shift)
        return ad.sum_all(ad.mul(out, out))

    for p in (b2, gain, shift):
        assert ad.finite_diff_check(f, p, eps=1e-5) < 1e-4


# ---------------------------------------------------------------------------
# dropout: the bool hidden-unit mask `ad.mlp2` applies, drawn by the model


def test_dropout_rate_zero_identity():
    x = Tensor(_rand((3, 4), 1))
    keep_all = np.ones((3, 5), dtype=bool)
    assert ad.mlp2(x, *_MLP2, keep_all, 0.0).data.tobytes() == ad.mlp2(x, *_MLP2).data.tobytes()


def test_dropout_inference_identity():
    x = Tensor(_rand((3, 4), 2))
    assert ad.mlp2(x, *_MLP2, None, 0.9).data.tobytes() == ad.mlp2(x, *_MLP2).data.tobytes()


def test_dropout_statistics():
    # One hidden unit that passes x = 1 through: the output is the mask's scaled value.
    cfg = ModelConfig(series_len=8, classes=2, n_rois=4, embed_len=4, dropout_rate=0.5)
    keep = _keep_mask((100_000, 1), cfg, np.random.default_rng(6))
    out = ad.mlp2(Tensor(np.ones((100_000, 1))), Tensor([[1.0]]), Tensor([0.0]),
                  Tensor([[1.0]]), Tensor([0.0]), keep, cfg.dropout_rate).data
    assert abs(np.count_nonzero(out) / out.size - 0.5) < 0.01
    assert abs(out.mean() - 1.0) < 0.02  # survivor scaling preserves the mean
    np.testing.assert_array_equal(np.unique(out), [0.0, 2.0])


# ---------------------------------------------------------------------------
# backward / tape


def test_backward_sum_gives_ones():
    w = tensor(np.arange(6.0).reshape(2, 3))
    with ad.recording():
        ad.backward(ad.sum_all(w))
    np.testing.assert_array_equal(w.grad, np.ones((2, 3)))


def test_backward_quadratic_gives_two_w():
    w = tensor([1.0, -2.0, 3.0])
    with ad.recording():
        ad.backward(ad.sum_all(ad.mul(w, w)))
    np.testing.assert_allclose(w.grad, 2 * w.data)


def test_backward_rejects_non_scalar():
    w = tensor(np.ones(3))
    with ad.recording():
        out = ad.mul(w, w)
        with pytest.raises(ContractError):
            ad.backward(out)


def test_backward_twice_accumulates_additively():
    w = tensor([1.0, 2.0])
    with ad.recording() as tape:
        loss = ad.sum_all(ad.mul(w, w))
        ad.backward(loss)
        once = w.grad.copy()
        ad.backward(loss, tape)
    np.testing.assert_allclose(w.grad, 2 * once)


def test_backward_zero_fills_unused_leaves():
    used = tensor([1.0, 2.0])
    unused = tensor([3.0, 4.0])
    with ad.recording():
        ad.mul(unused, unused)  # on the tape but not feeding the loss
        ad.backward(ad.sum_all(used))
    np.testing.assert_array_equal(unused.grad, np.zeros(2))


def test_backward_leaves_intermediates_without_grad():
    w = tensor([[1.0, 2.0], [3.0, -1.0]])
    x = tensor([[0.5], [2.0]])
    with ad.recording():
        h = ad.matmul(w, x)
        r = ad.relu(h)
        loss = ad.sum_all(ad.mul(r, r))
        ad.backward(loss)
    assert h.grad is None and r.grad is None and loss.grad is None
    gh = 2 * np.maximum(h.data, 0.0) * (h.data > 0)
    np.testing.assert_allclose(w.grad, gh @ x.data.T)
    np.testing.assert_allclose(x.grad, w.data.T @ gh)


def test_backward_sums_a_leaf_shared_by_many_records():
    rng = np.random.default_rng(3)
    w = tensor(rng.normal(size=(3, 2)))
    xs = [Tensor(rng.normal(size=(4, 3))) for _ in range(16)]
    with ad.recording():
        terms = [ad.sum_all(ad.matmul(x, w)) for x in xs]
        total = terms[0]
        for t in terms[1:]:
            total = ad.add(total, t)
        ad.backward(total)
    expected = sum(x.data.sum(axis=0)[:, None] * np.ones((1, 2)) for x in xs)
    np.testing.assert_allclose(w.grad, expected)


def test_backward_leaf_grads_are_owned_writeable_arrays():
    # `sum_all` hands on a read-only broadcast view, `add` passes one adjoint
    # object to both inputs and `concat` slices of one adjoint; none may leak
    # into a leaf's `.grad`.
    a, b = tensor(np.ones((3, 4))), tensor(np.ones((3, 4)))
    c, d = tensor(np.ones((2, 5))), tensor(np.ones((2, 5)))
    with ad.recording():
        loss = ad.add(
            ad.sum_all(ad.add(a, b)),
            ad.sum_all(ad.mul(ad.concat([c, d]), Tensor(0.5))),
        )
        ad.backward(loss)
    for leaf in (a, b, c, d):
        assert leaf.grad.flags.writeable and leaf.grad.flags.owndata
        assert leaf.grad.shape == leaf.data.shape
    assert not np.shares_memory(a.grad, b.grad)
    assert not np.shares_memory(c.grad, d.grad)
    np.testing.assert_array_equal(d.grad, np.full((2, 5), 0.5))


def test_no_recording_outside_tape():
    w = tensor(np.ones(3))
    out = ad.mul(w, w)  # no active tape: nothing recorded, forward still works
    np.testing.assert_array_equal(out.data, np.ones(3))


def test_deterministic_forward_given_seed():
    def run():
        keep = np.random.default_rng(42).random((3, 5)) >= 0.3
        x = Tensor(np.linspace(-1, 1, 12).reshape(3, 4))
        out = ad.mlp2(ad.softmax_rows(x), *_MLP2, keep, 0.3)
        return out.data.copy()

    np.testing.assert_array_equal(run(), run())


# ---------------------------------------------------------------------------
# finite_diff_check oracle


def test_finite_diff_exact_quadratic():
    x = tensor(np.array([1.0, -0.5, 2.0]))
    err = ad.finite_diff_check(lambda p: ad.sum_all(ad.mul(p, p)), x, eps=1e-5)
    assert err < 1e-8


def test_finite_diff_softmax_cross_entropy():
    rng = np.random.default_rng(7)
    target = rng.dirichlet(np.ones(4), size=3)
    logits = tensor(rng.normal(size=(3, 4)))

    def f(p):
        logp = ad.log(ad.clamp(ad.softmax_rows(p), 1e-12, np.inf))
        return ad.mul(ad.sum_all(ad.mul(logp, Tensor(target))), Tensor(-1.0))

    assert ad.finite_diff_check(f, logits, eps=1e-5) < 1e-5


def test_finite_diff_rejects_bad_eps():
    with pytest.raises(ConfigError):
        ad.finite_diff_check(lambda p: ad.sum_all(p), tensor(np.ones(2)), eps=0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_finite_diff_nonfinite_objective_raises():
    x = tensor(np.array([0.0]))
    with pytest.raises(OracleError):
        ad.finite_diff_check(lambda p: ad.log(ad.reshape(p, ())), x, eps=1.0)


# ---------------------------------------------------------------------------
# every registered adjoint agrees with finite differences


def _rand(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


# Generic class_spread constants: with the class means and 1/size weights
# group_loss passes, the mean_of-transpose term of the pull sums to zero, so
# only other constants show an error in it.
_MEAN_OF = _rand((3, 3), 41)
_WEIGHT = np.array([[0.5], [1.0], [2.0]])

# encoder_layer at width n=4 (2 heads), 3 tokens and 5 hidden units.
_ENCODER_SHAPES = {name: (4, 4) if name[0] == "w" else (4,) for name in ad.ENCODER_BLOCKS}
_ENCODER_SHAPES.update({"ffn.w1": (4, 5), "ffn.b1": (5,), "ffn.w2": (5, 4)})
_ENCODER = {name: Tensor(_rand(shape, 50 + i))
            for i, (name, shape) in enumerate(_ENCODER_SHAPES.items())}
_KEEP = tuple(np.random.default_rng(60 + i).random((3, 4)) >= 0.3 for i in range(2))


def _tfe_shapes(l):
    """tfe_layer block shapes at width l with 4 hidden units."""
    shapes = {name: (l,) for name in ad.TFE_BLOCKS}
    shapes.update({"wt": (l, l), "ws": (l, l), "mlp.w1": (l, 4), "mlp.b1": (4,), "mlp.w2": (4, l)})
    return shapes


def _tfe_blocks(l, seed):
    return {name: Tensor(_rand(shape, seed + i))
            for i, (name, shape) in enumerate(_tfe_shapes(l).items())}


_TFE = _tfe_blocks(5, 90)
_MLP2_SHAPES = [(4, 5), (5,), (5, 4), (4,)]
_MLP2 = [Tensor(_rand(shape, 95 + i)) for i, shape in enumerate(_MLP2_SHAPES)]
_MLP2_KEEP = np.random.default_rng(62).random((3, 5)) >= 0.3  # a hidden-unit mask for [3 x 4] input


def _masked_mlp2(i):
    """ad.mlp2 on [3 x 4] input with the hidden-unit mask _MLP2_KEEP, as a
    function of its i-th tensor input (x, w1, b1, w2, b2)."""
    def op(p):
        inputs = [Tensor(_rand((3, 4), 63)), *_MLP2]
        inputs[i] = p
        return ad.mlp2(*inputs, _MLP2_KEEP, 0.3)
    return op

# gcn2 on a batch of two 3-node graphs with 4 features, 5 then 2 hidden
# units, pooled over the nodes to [2 x 2]; node and feature axes differ in
# length, so the rows check the pull's spread over the right axis.
_GCN2_SHAPES = [(2, 3, 3), (2, 3, 4), (4, 5), (5, 2)]
_GCN2 = [Tensor(_rand(shape, 100 + i)) for i, shape in enumerate(_GCN2_SHAPES)]

# embed_layer on a batch of two 3-row series of length 6, with 4 kernels of
# width 3, 5 outputs and a position table; every axis differs in length.
_EMBED_SHAPES = [(4, 3), (4,), (24, 5)]
_EMBED = [Tensor(_rand(shape, 110 + i)) for i, shape in enumerate(_EMBED_SHAPES)]
_EMBED_SERIES, _EMBED_TABLE = _rand((2, 3, 6), 113), _rand((3, 5), 114)


def _embed_layer(i):
    """ad.embed_layer on the constant series as a function of its i-th
    parameter (kernels, bias, w)."""
    def op(p):
        inputs = [*_EMBED]
        inputs[i] = p
        return ad.embed_layer(_EMBED_SERIES, *inputs, _EMBED_TABLE)
    return op


OP_CASES = [
    ("add", lambda p: ad.add(p, Tensor(_rand((3, 4), 10))), (3, 4)),
    ("add_broadcast", lambda p: ad.add(Tensor(_rand((3, 4), 11)), p), (4,)),
    ("mul", lambda p: ad.mul(p, Tensor(_rand((3, 4), 13))), (3, 4)),
    ("scale", lambda p: ad.mul(p, Tensor(-1.7)), (3, 4)),
    ("relu", lambda p: ad.relu(p), (3, 4)),
    ("log", lambda p: ad.log(ad.add(ad.mul(p, p), Tensor(np.full((3, 4), 0.5)))), (3, 4)),
    ("clamp", lambda p: ad.clamp(p, -0.5, 0.5), (3, 4)),
    ("matmul_left", lambda p: ad.matmul(p, Tensor(_rand((4, 2), 16))), (3, 4)),
    ("matmul_right", lambda p: ad.matmul(Tensor(_rand((2, 3), 17)), p), (3, 4)),
    ("reshape", lambda p: ad.reshape(p, (4, 3)), (3, 4)),
    ("concat", lambda p: ad.concat([p, Tensor(_rand((3, 4), 18))], axis=1), (3, 4)),
    ("softmax_rows", ad.softmax_rows, (3, 4)),
    ("cosine_graph", lambda p: ad.cosine_graph(p, "level 1"), (3, 4)),
    ("cosine_graph_3d", lambda p: ad.cosine_graph(p, "level 1"), (2, 3, 4)),
    ("class_spread", lambda p: ad.class_spread(p, _MEAN_OF, _WEIGHT), (3, 4)),
    ("encoder_layer", lambda p: ad.encoder_layer(p, _ENCODER, 2, _KEEP, 0.3), (4, 3)),
    ("tfe_layer", lambda p: ad.tfe_layer(p, _TFE, _window_counts(5, 3), 3), (2, 3, 5)),
    ("mlp2", lambda p: ad.mlp2(p, *_MLP2), (2, 3, 4)),
    ("gcn2_graph", lambda p: ad.gcn2(p, *_GCN2[1:]), (2, 3, 3)),
    ("gcn2_features", lambda p: ad.gcn2(Tensor(_rand((3, 3), 104)), p, *_GCN2[2:]), (3, 4)),
    ("gcn2_w0", lambda p: ad.gcn2(*_GCN2[:2], p, _GCN2[3]), (4, 5)),
    ("gcn2_w1", lambda p: ad.gcn2(*_GCN2[:3], p), (5, 2)),
    ("class_spread_3d", lambda p: ad.class_spread(p, _MEAN_OF, _WEIGHT), (3, 2, 2)),
    *((f"mlp2_masked_{name}", _masked_mlp2(i), shape)
      for i, (name, shape) in enumerate(zip(("x", "w1", "b1", "w2", "b2"), [(3, 4), *_MLP2_SHAPES]))),
    *((f"embed_layer_{name}", _embed_layer(i), shape)
      for i, (name, shape) in enumerate(zip(("kernels", "bias", "w"), _EMBED_SHAPES))),
]


# Each engine op called directly on its tensor inputs, with their shapes.
POLICY_CASES = [
    ("add", ad.add, [(3, 4), (4,)]),
    ("mul", ad.mul, [(3, 4), (3, 1)]),
    ("relu", ad.relu, [(3, 4)]),
    ("log", ad.log, [(3, 4)]),
    ("clamp", lambda x: ad.clamp(x, 0.8, 1.2), [(3, 4)]),
    ("matmul", ad.matmul, [(3, 4), (4, 2)]),
    ("reshape", lambda x: ad.reshape(x, (4, 3)), [(3, 4)]),
    ("concat", lambda a, b: ad.concat([a, b], axis=-1), [(3, 4), (3, 2)]),
    ("stack_rows", lambda a, b: ad.stack_rows([a, b]), [(3, 4), (3, 4)]),
    ("sum_all", ad.sum_all, [(3, 4)]),
    ("softmax_rows", ad.softmax_rows, [(3, 4)]),
    ("cosine_graph", lambda x: ad.cosine_graph(x, "level 1"), [(3, 4)]),
    ("class_spread", lambda x: ad.class_spread(x, _MEAN_OF, _WEIGHT), [(3, 4)]),
    (
        "encoder_layer",
        lambda h, *blocks: ad.encoder_layer(h, dict(zip(ad.ENCODER_BLOCKS, blocks)), 2),
        [(4, 3), *_ENCODER_SHAPES.values()],
    ),
    (
        "tfe_layer",
        lambda h, *blocks: ad.tfe_layer(h, dict(zip(ad.TFE_BLOCKS, blocks)), _window_counts(5, 3), 3),
        [(2, 5), *_tfe_shapes(5).values()],
    ),
    ("mlp2", ad.mlp2, [(3, 4), *_MLP2_SHAPES]),
    ("gcn2", ad.gcn2, _GCN2_SHAPES),
    ("mlp2_masked", lambda *t: ad.mlp2(*t, _MLP2_KEEP, 0.3), [(3, 4), *_MLP2_SHAPES]),
    ("embed_layer", lambda *t: ad.embed_layer(_EMBED_SERIES, *t, _EMBED_TABLE), _EMBED_SHAPES),
]


@pytest.mark.parametrize("name,op,shapes", POLICY_CASES, ids=[c[0] for c in POLICY_CASES])
def test_op_records_iff_an_input_requires_grad(name, op, shapes):
    data = [np.random.default_rng(i).uniform(0.5, 1.5, size=s) for i, s in enumerate(shapes)]
    with ad.recording() as tape:
        out = op(*(Tensor(d) for d in data))
        assert not out.requires_grad
        assert tape.records == []
        for i in range(len(data)):
            before = len(tape.records)
            out = op(*(Tensor(d, requires_grad=(j == i)) for j, d in enumerate(data)))
            assert out.requires_grad
            assert len(tape.records) == before + 1
            assert tape.records[-1][0] is out


@pytest.mark.parametrize("name,op,shape", OP_CASES, ids=[c[0] for c in OP_CASES])
def test_op_adjoint_matches_finite_differences(name, op, shape):
    p = tensor(_rand(shape, 99))

    def f(q):
        out = op(q)
        return ad.sum_all(ad.mul(out, out))

    assert ad.finite_diff_check(f, p, eps=1e-4) < 1e-4


@pytest.mark.parametrize("shapes", [
    [(4, 3), (3,), (24, 5)],  # one bias too few
    [(4, 3), (4,), (20, 5)],  # w does not take 4 kernels at 6 positions
    [(4, 2), (4,), (24, 5)],  # an even kernel width has no centre tap
], ids=["bias", "w", "even-width"])
def test_embed_layer_rejects_shapes_that_do_not_fit(shapes):
    got = f"got {shapes[0]}, {shapes[1]} and {shapes[2]}"
    with pytest.raises(ShapeError, match=re.escape(got)):
        ad.embed_layer(_EMBED_SERIES, *(Tensor(np.ones(s)) for s in shapes))


@pytest.mark.parametrize("shapes", [
    [(2, 3, 3), (3, 3, 4), (4, 5), (5, 2)],  # the graph lacks the features' batch axis
    [(2, 3, 3), (2, 3, 4), (3, 5), (5, 2)],  # w0 does not take 4 features
    [(2, 3, 3), (2, 3, 4), (4, 5), (4, 2)],  # w1 does not take w0's 5 outputs
], ids=["graph", "w0", "w1"])
def test_gcn2_rejects_shapes_that_do_not_chain(shapes):
    got = ", ".join(map(str, shapes[:3])) + f" and {shapes[3]}"
    with pytest.raises(ShapeError, match=re.escape(f"got {got}")):
        ad.gcn2(*(tensor(np.ones(s)) for s in shapes))


def test_encoder_layer_rejects_a_width_the_heads_do_not_divide():
    with pytest.raises(ShapeError, match=r"divisible by 3 heads, got shape \(4, 3\)"):
        ad.encoder_layer(tensor(_rand((4, 3), 0)), _ENCODER, 3)


def test_tfe_layer_rejects_counts_of_another_width():
    with pytest.raises(ShapeError, match=r"\[5 x 5\] window counts .* got \(4, 4\)"):
        ad.tfe_layer(tensor(_rand((2, 5), 0)), _TFE, _window_counts(4, 3), 3)


def test_stack_rows_gradient():
    rows = [tensor(_rand(4, s)) for s in range(3)]

    def f(p):
        out = ad.stack_rows([rows[0], p, rows[2]])
        return ad.sum_all(ad.mul(out, out))

    assert ad.finite_diff_check(f, rows[1], eps=1e-5) < 1e-4


def test_cosine_graph_zero_row_warns_and_stays_zero():
    x = tensor(np.array([[0.0, 0.0], [3.0, 4.0], [4.0, 3.0]]))
    with ad.recording():
        with pytest.warns(UserWarning, match=r"^level 1: 1 zero-norm row\(s\)"):
            out = ad.cosine_graph(x, "level 1")
        ad.backward(ad.sum_all(ad.mul(out, Tensor(_rand((3, 3), 5)))))
    np.testing.assert_array_equal(out.data[0], [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(out.data[:, 0], [1.0, 0.0, 0.0])
    assert out.data[1, 2] == pytest.approx(0.96)
    np.testing.assert_array_equal(x.grad[0], [0.0, 0.0])
    assert np.abs(x.grad[1:]).min() > 0


def _cosine_reference(x):
    """The graph of one [n x d] feature matrix, in plain NumPy."""
    norms = np.sqrt((x * x).sum(axis=-1))
    y = x / np.where(norms < 1e-150, 1.0, norms)[:, None]
    a = y @ np.ascontiguousarray(y.T)
    a = (a + np.ascontiguousarray(a.T)) * 0.5
    eye = np.eye(len(x))
    return np.clip(a, -1.0, 1.0) * (1.0 - eye) + eye


def _graph_rows(case):
    x = _rand((5, 4), 31)
    if case == "zero_row":
        x[2] = 0.0
    elif case == "parallel_rows":  # their cosine rounds to 1 + 2**-52
        x[1], x[3] = [6.0, 5.0, 3.0, 3.0], [30.0, 25.0, 15.0, 15.0]
    return x


@pytest.mark.filterwarnings("ignore:level 1:")
@pytest.mark.parametrize("case", ["random", "zero_row", "parallel_rows"])
def test_cosine_graph_matches_numpy_reference_bit_for_bit(case):
    x = _graph_rows(case)
    stack = np.stack([x, _rand((5, 4), 32), x[::-1]])
    assert ad.cosine_graph(Tensor(x), "level 1").data.tobytes() == _cosine_reference(x).tobytes()
    expected = np.stack([_cosine_reference(m) for m in stack])
    assert ad.cosine_graph(Tensor(stack), "level 1").data.tobytes() == expected.tobytes()


def test_cosine_graph_clipped_parallel_edge_passes_no_gradient():
    x = tensor(_graph_rows("parallel_rows"))
    only_edge = np.zeros((5, 5))
    only_edge[1, 3] = only_edge[3, 1] = 1.0
    with ad.recording():
        out = ad.cosine_graph(x, "level 1")
        ad.backward(ad.sum_all(ad.mul(out, Tensor(only_edge))))
    assert out.data[1, 3] == 1.0
    np.testing.assert_array_equal(x.grad, np.zeros((5, 4)))


def test_cosine_graph_clipped_antiparallel_edge_passes_no_gradient():
    rows = _graph_rows("parallel_rows")
    rows[3] = -rows[3]  # their cosine rounds to -1 - 2**-52
    x = tensor(rows)
    only_edge = np.zeros((5, 5))
    only_edge[1, 3] = only_edge[3, 1] = 1.0
    with ad.recording():
        out = ad.cosine_graph(x, "level 1")
        ad.backward(ad.sum_all(ad.mul(out, Tensor(only_edge))))
    assert out.data[1, 3] == -1.0
    np.testing.assert_array_equal(x.grad, np.zeros((5, 4)))


# ---------------------------------------------------------------------------
# engine surface


def test_every_public_function_has_a_caller_outside_tests():
    """Each public function of the engine is called from the package or the
    benchmark, not only from tests: a bare call inside autodiff.py (other than
    its own `def`) or an `ad.<name>(` call elsewhere."""
    root = Path(__file__).resolve().parents[1]
    text = "\n".join(
        path.read_text(encoding="utf-8")
        for folder in ("src/mlcgcn", "perfbench")
        for path in sorted((root / folder).glob("*.py"))
    )
    names = [
        name for name, fn in inspect.getmembers(ad, inspect.isfunction)
        if fn.__module__ == ad.__name__ and not name.startswith("_")
    ]
    uncalled = [
        name for name in names
        if not re.search(rf"(?<!def )(?<![\w.]){name}\(|\bad\.{name}\(", text)
    ]
    assert uncalled == []
