"""Model-architecture tests: shape contracts, hand oracles, gradients,
permutation equivariance, checkpoint round trips."""

import functools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlcgcn import autodiff as ad
from mlcgcn import model as model_module
from mlcgcn.autodiff import Tensor
from mlcgcn.errors import ConfigError, ForwardError, ShapeError, ZeroNormRowsWarning
from mlcgcn.model import (
    MLCGCN,
    ModelConfig,
    embed,
    gcn_forward,
    generate_adjacency,
    init_params,
    param_shapes,
    pearson_connectome,
    positional_encoding,
    predict,
    readout,
    sfe_forward,
    stfe_forward,
    tfe_forward,
)
from mlcgcn.seeding import derive_rng


def tiny_config(**overrides):
    base = dict(
        series_len=20,
        classes=3,
        n_rois=6,
        embed_len=8,
        conv_kernels=4,
        kernel_size=5,
        hidden_size=8,
        levels=2,
        attention_heads=2,
        gcn_hidden=8,
        readout_dim=8,
        dropout_rate=0.2,
    )
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture
def cfg():
    return tiny_config()


@pytest.fixture
def params(cfg):
    return init_params(cfg, derive_rng(0, "test-init"))


@pytest.fixture
def x(cfg):
    rng = derive_rng(0, "test-series")
    return Tensor(rng.normal(size=(cfg.n_rois, cfg.series_len)))


# ---------------------------------------------------------------------------
# config validation


def test_config_rejects_both_pathways_disabled():
    with pytest.raises(ConfigError):
        tiny_config(use_sfe=False, use_tfe=False)


def test_config_rejects_embed_longer_than_series():
    with pytest.raises(ConfigError):
        tiny_config(embed_len=21)


def test_config_rejects_indivisible_heads():
    with pytest.raises(ConfigError):
        tiny_config(attention_heads=4)  # 6 % 4 != 0


def test_config_rejects_even_kernel_size():
    with pytest.raises(ConfigError, match="kernel_size must be odd, got 4"):
        tiny_config(kernel_size=4)


def test_config_defaults_validate():
    cfg = ModelConfig(series_len=176, classes=2)
    assert cfg.n_rois % cfg.attention_heads == 0


@pytest.mark.parametrize("name, value", [
    *((name, 0) for name in (
        "series_len", "classes", "n_rois", "embed_len", "conv_kernels", "kernel_size",
        "hidden_size", "levels", "attention_heads", "gcn_hidden", "readout_dim",
    )),
    ("gcn_hidden", -1),
])
def test_config_rejects_non_positive_sizes(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be >= 1, got {value}"):
        tiny_config(**{name: value})


@pytest.mark.parametrize("rate", [-0.1, 1.0])
def test_config_rejects_dropout_rate_outside_zero_to_one(rate):
    with pytest.raises(ConfigError, match=r"dropout_rate must be in \[0, 1\)"):
        tiny_config(dropout_rate=rate)


def test_config_rejects_bad_level_subset():
    with pytest.raises(ConfigError):
        tiny_config(level_subset=(0, 5))


def test_param_count_is_a_pure_function_of_config(cfg):
    a = init_params(cfg, derive_rng(1, "a"))
    b = init_params(cfg, derive_rng(2, "b"))
    assert set(a.keys()) == set(b.keys())
    assert all(a[k].data.shape == b[k].data.shape for k in a)


# ---------------------------------------------------------------------------
# positional encoding


def test_positional_encoding_row_zero():
    pe = positional_encoding(4, 8)
    np.testing.assert_array_equal(pe[0, 0::2], 0.0)
    np.testing.assert_array_equal(pe[0, 1::2], 1.0)


def test_positional_encoding_first_position():
    pe = positional_encoding(4, 8)
    assert pe[1, 0] == pytest.approx(np.sin(1.0))


@given(st.integers(1, 50), st.integers(1, 40))
@settings(max_examples=30)
def test_positional_encoding_bounded(n_tokens, dim):
    pe = positional_encoding(n_tokens, dim)
    assert pe.shape == (n_tokens, dim)
    assert np.abs(pe).max() <= 1.0


# ---------------------------------------------------------------------------
# embedding


def test_embed_zero_projection_isolates_positional_encoding(cfg, params, x):
    zeroed = dict(params)
    zeroed["embed.w"] = Tensor(np.zeros_like(params["embed.w"].data), requires_grad=True)
    zeroed["embed.bias"] = Tensor(np.zeros_like(params["embed.bias"].data), requires_grad=True)
    z = embed(x, zeroed, cfg)
    np.testing.assert_array_equal(
        z.data, positional_encoding(cfg.n_rois, cfg.embed_len)
    )


def test_embed_shape_contract(cfg, params, x):
    assert embed(x, params, cfg).data.shape == (6, 8)


def test_embed_wrong_input_shape(cfg, params):
    with pytest.raises(ShapeError):
        embed(Tensor(np.ones((5, 20))), params, cfg)


def test_embed_conv_kernel_gradient(cfg, params, x):
    """The kernels, the biases and the projection all reach the output."""
    for name in ("embed.kernels", "embed.bias", "embed.w"):
        def f(p, _n=name):
            return ad.sum_all(embed(x, {**params, _n: p}, cfg))

        assert ad.finite_diff_check(f, params[name], eps=1e-5) < 1e-4


def _embed_reference(x, params, cfg):
    """Zero-padded cross-correlation of every ROI row with every kernel, plus
    bias, flattened kernel-major, projected, ReLU, plus the position table."""
    kernels, bias, w = (params[k].data for k in ("embed.kernels", "embed.bias", "embed.w"))
    m, t = kernels.shape
    L = x.shape[-1]
    pad = (t - 1) // 2
    padded = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(pad, pad)])
    conv = np.empty((*x.shape[:-1], m, L))
    for k in range(m):
        for pos in range(L):
            conv[..., k, pos] = padded[..., pos:pos + t] @ kernels[k] + bias[k]
    z = np.maximum(conv.reshape(*x.shape[:-1], m * L) @ w, 0.0)
    return z + positional_encoding(cfg.n_rois, cfg.embed_len)


@pytest.mark.parametrize("kernel_size", [1, 3, 5])
@pytest.mark.parametrize("lead", [(), (3,)], ids=["one-scan", "batch"])
def test_embed_matches_conv_then_projection_reference(kernel_size, lead):
    cfg = tiny_config(kernel_size=kernel_size)
    params = init_params(cfg, derive_rng(27, "init"))
    params["embed.bias"] = Tensor(derive_rng(28, "bias").normal(size=cfg.conv_kernels))
    x = derive_rng(29, "series").normal(size=(*lead, cfg.n_rois, cfg.series_len))
    expected = _embed_reference(x, params, cfg)
    z = embed(Tensor(x), params, cfg).data
    assert z.shape == (*lead, cfg.n_rois, cfg.embed_len)
    np.testing.assert_allclose(z, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


def _one_kernel_embed(x, kernel):
    """embed with a single kernel, no bias, an identity projection and no
    position table: the conv output itself, through the ReLU."""
    n, L = x.shape
    cfg = tiny_config(n_rois=n, series_len=L, embed_len=L, conv_kernels=1,
                      kernel_size=len(kernel), attention_heads=1,
                      use_positional_encoding=False)
    params = {"embed.kernels": Tensor([kernel]), "embed.bias": Tensor([0.0]),
              "embed.w": Tensor(np.eye(L))}
    return embed(Tensor(x), params, cfg).data


def test_embed_identity_kernel_passes_the_series_through():
    x = derive_rng(30, "series").uniform(0.5, 1.5, size=(3, 9))
    np.testing.assert_array_equal(_one_kernel_embed(x, [0.0, 1.0, 0.0]), x)


def test_embed_ones_kernel_sums_a_zero_padded_window():
    z = _one_kernel_embed(np.array([[1.0, 2.0, 3.0]]), [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(z, [[3.0, 6.0, 5.0]])


def test_positional_encoding_is_one_cached_read_only_array():
    table = positional_encoding(7, 6)
    assert positional_encoding(7, 6) is table
    assert not table.flags.writeable


def _composed_embed(x, params, cfg):
    """The embedding as composed taped ops: kernelsᵀ·w gives the tap blocks,
    a 0/1 placement product sums them into the map from the padded series,
    and the biases' row, the ReLU and the position table follow."""
    n, L, l = cfg.n_rois, cfg.series_len, cfg.embed_len
    m, t = cfg.conv_kernels, cfg.kernel_size
    placement = np.zeros((L + t - 1, t * L))
    tap, pos = np.divmod(np.arange(t * L), L)
    placement[pos + tap, np.arange(t * L)] = 1.0
    w = ad.reshape(params["embed.w"], (m, L * l))
    taps = ad.reshape(ad.matmul(_transpose(params["embed.kernels"]), w), (t * L, l))
    v = ad.matmul(Tensor(placement), taps)
    per_position = ad.reshape(ad.matmul(ad.reshape(params["embed.bias"], (1, m)), w), (L, l))
    c = ad.matmul(Tensor(np.ones((1, L))), per_position)
    pad = (t - 1) // 2
    rows = np.pad(x.data, [(0, 0)] * (x.data.ndim - 1) + [(pad, pad)]).reshape(-1, L + t - 1)
    z = ad.relu(ad.add(ad.reshape(ad.matmul(Tensor(rows), v), (*x.data.shape[:-1], l)), c))
    return ad.add(z, Tensor(positional_encoding(n, l)))


@pytest.mark.parametrize("lead", [(), (3,)], ids=["one-scan", "batch"])
def test_embed_kernel_matches_the_composed_ops(lead):
    # The same parameter gradients bit for bit, given the same upstream
    # adjoint; the map's tap blocks are summed in another order, so the
    # forward agrees to rounding.
    cfg = tiny_config()
    params = init_params(cfg, derive_rng(31, "init"))
    params["embed.bias"] = Tensor(derive_rng(32, "bias").normal(size=cfg.conv_kernels),
                                  requires_grad=True)
    x = Tensor(derive_rng(33, "series").normal(size=(*lead, cfg.n_rois, cfg.series_len)))
    upstream = derive_rng(34, "upstream").normal(size=(*lead, cfg.n_rois, cfg.embed_len))
    names = ("embed.kernels", "embed.bias", "embed.w")
    results = []
    for forward in (_composed_embed, embed):
        ad.zero_grads(params)
        with ad.recording():
            z = forward(x, params, cfg)
            ad.backward(ad.sum_all(ad.mul(z, Tensor(upstream))))
        results.append((z.data, [params[name].grad for name in names]))
    (z_ref, grads_ref), (z, grads) = results
    np.testing.assert_allclose(z, z_ref, rtol=0, atol=4e-16 * np.abs(z_ref).max())
    for name, got, want in zip(names, grads, grads_ref):
        assert got.tobytes() == want.tobytes(), name


def test_embed_is_one_tape_record_iff_a_parameter_needs_a_gradient(cfg, params, x):
    frozen = {name: Tensor(p.data) for name, p in params.items()}
    with ad.recording() as tape:
        z = embed(x, params, cfg)
        assert len(tape.records) == 1 and tape.records[0][0] is z
        embed(x, frozen, cfg)
        assert len(tape.records) == 1


def test_taped_embed_record_keeps_the_padded_rows_and_a_bool_mask():
    cfg = tiny_config(embed_len=7, conv_kernels=3)
    params = init_params(cfg, derive_rng(35, "init"))
    b, n, L, l, t = 2, cfg.n_rois, cfg.series_len, cfg.embed_len, cfg.kernel_size
    x = Tensor(derive_rng(36, "series").normal(size=(b, n, L)))
    blocks = [params[name] for name in ("embed.kernels", "embed.bias", "embed.w")]
    with ad.recording() as tape:
        out = embed(x, params, cfg)
    assert _kept_bytes(tape.records, (x, *blocks, out)) == 8 * b * n * (L + t - 1) + b * n * l


def test_tape_free_embed_keeps_nothing(cfg, params, x, monkeypatch):
    # Without a tape, the op still builds its record, but `_record` drops it.
    built = []
    monkeypatch.setattr(ad, "_record", lambda *record: built.append(record))
    out = embed(x, params, cfg)
    blocks = [params[name] for name in ("embed.kernels", "embed.bias", "embed.w")]
    assert len(built) == 1 and _kept_bytes(built, (x, *blocks, out)) == 0


# ---------------------------------------------------------------------------
# feature-extraction pathways


def test_sfe_preserves_shape(cfg, params):
    h = Tensor(derive_rng(1, "h").normal(size=(6, 8)))
    out = sfe_forward(h, params, cfg, level=1)
    assert out.data.shape == (6, 8)


def test_sfe_zeroed_sublayers_reduce_to_layer_norm(cfg, params):
    h = Tensor(derive_rng(2, "h").normal(size=(6, 8)))
    p = dict(params)
    for name in ("wq", "wk", "wv", "wo", "ffn.w1", "ffn.w2"):
        key = f"stfe1.sfe.{name}"
        p[key] = Tensor(np.zeros_like(params[key].data), requires_grad=True)
    out = sfe_forward(h, p, cfg, level=1)
    expected = _transpose(
        _layer_norm(_transpose(h), p["stfe1.sfe.ln_out.gain"], p["stfe1.sfe.ln_out.shift"])
    )
    np.testing.assert_allclose(out.data, expected.data, atol=1e-12)


def _layer_norm(x, gain, shift):
    """Layer norm over the last axis as one taped op with a hand-derived pull:
    the reference for the norms inside the kernels."""
    xc = x.data - x.data.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + ad.LAYERNORM_EPS)
    xhat = xc * inv

    def pull(g, acc):
        d = xhat.shape[-1]
        gx = g * gain.data
        acc(x, inv * (gx - gx.mean(axis=-1, keepdims=True)
                      - xhat * (gx * xhat).mean(axis=-1, keepdims=True)))
        acc(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        acc(shift, g.reshape(-1, d).sum(axis=0))

    return ad._op(xhat * gain.data + shift.data, (x, gain, shift), pull)


def _bmm(a, b):
    """Stacked product [..., p x q] @ [..., q x r] as one taped op with a
    hand-derived pull: the reference for the stacked products inside the
    kernels."""

    def pull(g, acc):
        if a.requires_grad:
            acc(a, np.matmul(g, np.swapaxes(b.data, -1, -2)))
        if b.requires_grad:
            acc(b, np.matmul(np.swapaxes(a.data, -1, -2), g))

    return ad._op(np.matmul(a.data, b.data), (a, b), pull)


def _transpose(x):
    """Swap the last two axes as one taped op: the reference for the token
    transposes inside the kernels."""

    def pull(g, acc):
        acc(x, np.swapaxes(g, -1, -2))

    return ad._op(np.ascontiguousarray(np.swapaxes(x.data, -1, -2)), (x,), pull)


def _dense(x, w):
    """x [..., d] @ w [d x e] as taped ops: the leading axes fold into the
    rows of one matmul. The reference for the shared-weight products inside
    the kernels."""
    out = ad.matmul(ad.reshape(x, (-1, x.data.shape[-1])), w)
    return ad.reshape(out, (*x.data.shape[:-1], w.data.shape[1]))


def _mean_nodes(h):
    """Mean over the node axis of h [..., n x g] as one taped op: the
    reference for the pooling inside `ad.gcn2`."""

    def pull(g, acc):
        shape = h.data.shape
        acc(h, np.broadcast_to(np.expand_dims(g, -2) / shape[-2], shape))

    return ad._op(h.data.mean(axis=-2), (h,), pull)


def _dropout(x, keep, rate):
    """Dropout by the bool mask `keep` as one taped op, survivors scaled by
    1/(1-rate); the identity without a mask. The reference for the masks
    inside the kernels."""
    if keep is None:
        return x
    scale = 1.0 / (1.0 - rate)

    def pull(g, acc):
        acc(x, g * keep * scale)

    return ad._op(x.data * keep * scale, (x,), pull)


def _composed_mlp2(x, params, prefix, keep=None, rate=0.0):
    """The ReLU two-layer perceptron as composed taped ops, its hidden units
    dropped by `keep`: the reference for `ad.mlp2`."""
    hidden = ad.relu(ad.add(_dense(x, params[prefix + "w1"]), params[prefix + "b1"]))
    hidden = _dropout(hidden, keep, rate)
    return ad.add(_dense(hidden, params[prefix + "w2"]), params[prefix + "b2"])


def _composed_attention(x, params, prefix, heads):
    """The attention sublayer as composed taped ops: the reference for `ad.encoder_layer`."""
    *lead, tokens, d_model = x.data.shape
    d = d_model // heads

    def split(name):  # [..., heads, d, tokens]
        projected = _transpose(_dense(x, params[prefix + name]))
        return ad.reshape(projected, (*lead, heads, d, tokens))

    q_t, k_t, v_t = split("wq"), split("wk"), split("wv")
    scores = ad.mul(_bmm(_transpose(q_t), k_t), Tensor(1.0 / np.sqrt(d)))
    attn = ad.softmax_rows(scores)
    merged_t = ad.reshape(_bmm(v_t, _transpose(attn)), (*lead, d_model, tokens))
    return _dense(_transpose(merged_t), params[prefix + "wo"])


def _composed_sfe(h_in, params, cfg, level, rng=None):
    """The spatial pathway as composed taped ops, one record per op."""
    p = f"stfe{level}.sfe."
    x = _transpose(h_in)
    rate = cfg.dropout_rate
    keep = [None if rng is None else rng.random(x.data.shape) >= rate for _ in range(2)]
    attn_in = _layer_norm(x, params[p + "ln1.gain"], params[p + "ln1.shift"])
    attn = _dropout(_composed_attention(attn_in, params, p, cfg.attention_heads), keep[0], rate)
    x = ad.add(x, attn)
    ffn_in = _layer_norm(x, params[p + "ln2.gain"], params[p + "ln2.shift"])
    ffn = _dropout(_composed_mlp2(ffn_in, params, p + "ffn."), keep[1], rate)
    x = ad.add(x, ffn)
    x = _layer_norm(x, params[p + "ln_out.gain"], params[p + "ln_out.shift"])
    return _transpose(x)


def _composed_tfe(h_in, params, cfg, level):
    """The temporal pathway as composed taped ops, one record per op."""
    p = f"stfe{level}.tfe."
    counts = Tensor(model_module._window_counts(cfg.embed_len, cfg.kernel_size))
    trend = ad.mul(_dense(h_in, counts), Tensor(1.0 / cfg.kernel_size))
    seasonal = ad.add(h_in, ad.mul(trend, Tensor(-1.0)))
    mixed = ad.add(ad.relu(_dense(trend, params[p + "wt"])),
                   ad.relu(_dense(seasonal, params[p + "ws"])))
    out = _composed_mlp2(mixed, params, p + "mlp.")
    return _layer_norm(out, params[p + "norm.gain"], params[p + "norm.shift"])


def _level_blocks(cfg, seed, pathway):
    """Random values for every level-1 block of a pathway ("sfe", "tfe",
    "fuse" or "gcn"), gains and shifts included."""
    rng = derive_rng(seed, f"{pathway}-blocks")
    prefix = "gcn1." if pathway == "gcn" else f"stfe1.{pathway}."
    return {name: Tensor(rng.normal(size=shape) / np.sqrt(shape[0]) + name.endswith(".gain"),
                         requires_grad=True)
            for name, shape in param_shapes(cfg).items() if name.startswith(prefix)}


def _value_and_grads(forward, h, blocks, upstream):
    """forward(h, blocks)'s value, and the gradients of its dot with upstream."""
    h = Tensor(h, requires_grad=True)
    blocks = {name: Tensor(t.data, requires_grad=True) for name, t in blocks.items()}
    with ad.recording():
        out = forward(h, blocks)
        ad.backward(ad.sum_all(ad.mul(out, Tensor(upstream))))
    return out.data, {"h": h.grad, **{name: t.grad for name, t in blocks.items()}}


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("lead", [(), (1,), (3,)], ids=["unbatched", "batch1", "batch3"])
@pytest.mark.parametrize("dropout", [False, True], ids=["eval", "dropout"])
def test_sfe_kernel_matches_the_composed_ops(heads, lead, dropout):
    cfg = tiny_config(attention_heads=heads, dropout_rate=0.3)
    rng = derive_rng(31, "sfe-kernel")
    h = rng.normal(size=(*lead, cfg.n_rois, cfg.embed_len))
    upstream = rng.normal(size=h.shape)
    blocks = _level_blocks(cfg, 32, "sfe")
    runs = [
        _value_and_grads(
            lambda h, b, _f=forward: _f(h, b, cfg, 1, derive_rng(33, "dropout") if dropout else None),
            h, blocks, upstream)
        for forward in (sfe_forward, _composed_sfe)
    ]
    (out, grads), (ref_out, ref_grads) = runs
    assert out.shape == ref_out.shape
    assert _rel(out, ref_out) <= 1e-12
    assert len(grads) == 15
    for name, ref in ref_grads.items():
        assert grads[name].shape == ref.shape
        assert _rel(grads[name], ref) <= 1e-10, name


def test_sfe_is_one_tape_record(cfg, params):
    h = Tensor(derive_rng(11, "h").normal(size=(3, 6, 8)), requires_grad=True)
    with ad.recording() as tape:
        sfe_forward(h, params, cfg, level=1, rng=derive_rng(12, "dropout"))
    assert len(tape.records) == 1


def test_sfe_dropout_draws_two_token_masks(cfg, params):
    h = Tensor(derive_rng(13, "h").normal(size=(3, 6, 8)))
    used, expected = derive_rng(14, "dropout"), derive_rng(14, "dropout")
    sfe_forward(h, params, cfg, level=1, rng=used)
    for _ in range(2):
        expected.random((3, 8, 6))
    assert used.bit_generator.state == expected.bit_generator.state


@pytest.mark.parametrize("lead", [(), (1,), (3,)], ids=["unbatched", "batch1", "batch3"])
def test_tfe_kernel_matches_the_composed_ops(lead):
    cfg = tiny_config()
    rng = derive_rng(34, "tfe-kernel")
    h = rng.normal(size=(*lead, cfg.n_rois, cfg.embed_len))
    upstream = rng.normal(size=h.shape)
    blocks = _level_blocks(cfg, 35, "tfe")
    (out, grads), (ref_out, ref_grads) = (
        _value_and_grads(lambda h, b, _f=forward: _f(h, b, cfg, 1), h, blocks, upstream)
        for forward in (tfe_forward, _composed_tfe)
    )
    assert out.tobytes() == ref_out.tobytes()
    assert len(grads) == 9
    for name, ref in ref_grads.items():
        assert grads[name].shape == ref.shape
        assert _rel(grads[name], ref) <= 1e-10, name


def test_mlp2_kernel_matches_the_composed_ops(cfg):
    rng = derive_rng(38, "mlp2-kernel")
    h = rng.normal(size=(3, cfg.n_rois, cfg.embed_len))
    upstream = rng.normal(size=h.shape)
    blocks = _level_blocks(cfg, 39, "fuse")
    (out, grads), (ref_out, ref_grads) = (
        _value_and_grads(lambda h, b, _f=forward: _f(h, b, "stfe1.fuse."), h, blocks, upstream)
        for forward in (model_module._mlp2, _composed_mlp2)
    )
    assert out.tobytes() == ref_out.tobytes()
    assert len(grads) == 5
    for name, ref in ref_grads.items():
        assert _rel(grads[name], ref) <= 1e-12, name


def test_masked_mlp2_matches_the_composed_ops_bit_for_bit(cfg):
    # The head's shape, [B x d] input; compared as bytes, so signed zeros
    # count too. Hidden unit 0 is dropped in every row, so it learns nothing.
    rng = derive_rng(44, "mlp2-mask")
    blocks = {name: Tensor(t.data, requires_grad=True)
              for name, t in init_params(cfg, derive_rng(45, "init")).items()
              if name.startswith("head.")}
    x = rng.normal(size=(16, blocks["head.w1"].data.shape[0]))
    upstream = rng.normal(size=(16, cfg.classes))
    keep = rng.random((16, cfg.hidden_size)) >= 0.4
    keep[:, 0] = False
    (out, grads), (ref_out, ref_grads) = (
        _value_and_grads(lambda h, b, _f=forward: _f(h, b, "head.", keep, 0.4), x, blocks, upstream)
        for forward in (model_module._mlp2, _composed_mlp2)
    )
    assert out.tobytes() == ref_out.tobytes()
    assert len(grads) == 5
    for name, ref in ref_grads.items():
        assert grads[name].tobytes() == ref.tobytes(), name
    assert grads["head.b1"][0] == 0.0 and not grads["head.w1"][:, 0].any()
    assert grads["head.b1"][1:].all()


def test_tfe_is_one_tape_record(cfg, params):
    h = Tensor(derive_rng(15, "h").normal(size=(3, 6, 8)), requires_grad=True)
    with ad.recording() as tape:
        tfe_forward(h, params, cfg, level=1)
    assert len(tape.records) == 1


@pytest.mark.parametrize("pathways, records", [
    ({}, 4), ({"use_tfe": False}, 2), ({"use_sfe": False}, 2),
], ids=["both", "sfe-only", "tfe-only"])
def test_level_records_each_pathway_the_add_and_the_fuse_once(pathways, records):
    cfg = tiny_config(**pathways)
    params = init_params(cfg, derive_rng(16, "init"))
    h = Tensor(derive_rng(17, "h").normal(size=(3, 6, 8)), requires_grad=True)
    with ad.recording() as tape:
        stfe_forward(h, 1, params, cfg, rng=derive_rng(18, "dropout"))
    assert len(tape.records) == records  # no add when only one pathway runs


def test_tfe_constant_rows_have_no_seasonal_part(cfg, params):
    # Constant rows are their own trend, so ws sees zero rows: it changes
    # nothing and gets an exactly zero gradient.
    h = Tensor(np.tile(np.arange(1.0, 7.0)[:, None], (1, 8)))
    zero_ws = {**params, "stfe1.tfe.ws": Tensor(np.zeros((8, 8)))}
    upstream = Tensor(derive_rng(19, "g").normal(size=(6, 8)))
    with ad.recording():
        out = tfe_forward(h, params, cfg, level=1)
        ad.backward(ad.sum_all(ad.mul(out, upstream)))
    assert out.data.tobytes() == tfe_forward(h, zero_ws, cfg, level=1).data.tobytes()
    np.testing.assert_array_equal(params["stfe1.tfe.ws"].grad, np.zeros((8, 8)))


def test_tfe_decomposition_reconstructs_input(cfg):
    h = derive_rng(4, "h").normal(size=(6, 8))
    trend = (h @ model_module._window_counts(8, cfg.kernel_size)) * (1.0 / cfg.kernel_size)
    np.testing.assert_allclose(trend + (h - trend), h, atol=1e-15)


@pytest.mark.parametrize("pathway", ["sfe", "tfe", "gcn"])
def test_tape_free_kernel_peak_is_no_higher_than_the_composed_ops(pathway):
    # A forward that makes no record drops each array its pull would have
    # read once the forward is done with it, as the composed ops do.
    cfg = tiny_config(n_rois=32, embed_len=16, hidden_size=16, series_len=40)
    rng = derive_rng(36, "h")
    h = Tensor(rng.normal(size=(8, cfg.n_rois, cfg.embed_len)))
    blocks = _level_blocks(cfg, 37, pathway)
    kernel, composed = {"sfe": (sfe_forward, _composed_sfe),
                        "tfe": (tfe_forward, _composed_tfe),
                        "gcn": (gcn_forward, _composed_pooled_gcn)}[pathway]
    if pathway == "gcn":  # node features [8 x n x n] on a constant graph
        graph = Tensor(rng.normal(size=(8, cfg.n_rois, cfg.n_rois)))
        h = Tensor(rng.normal(size=graph.shape))
        kernel, composed = (functools.partial(f, graph) for f in (kernel, composed))
    peaks = []
    for forward in (composed, kernel):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = forward(h, blocks, cfg, 1)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert out.requires_grad  # the blocks need gradients; only the tape is missing
    assert peaks[1] <= peaks[0]


def test_tfe_weight_gradients(cfg, params):
    h = Tensor(derive_rng(5, "h").normal(size=(6, 8)))
    for name in ("stfe1.tfe.wt", "stfe1.tfe.ws"):
        def f(p, _n=name):
            return ad.sum_all(tfe_forward(h, {**params, _n: p}, cfg, level=1))

        assert ad.finite_diff_check(f, params[name], eps=1e-5) < 1e-4


def test_stfe_chainable_and_levels_differ(cfg, params):
    h = Tensor(derive_rng(6, "h").normal(size=(6, 8)))
    h1 = stfe_forward(h, 1, params, cfg)
    h2 = stfe_forward(h1, 2, params, cfg)
    assert h1.data.shape == h2.data.shape == (6, 8)
    assert not np.allclose(h1.data, h2.data)


def test_stfe_block_gradient(cfg, params):
    h = Tensor(derive_rng(21, "h").normal(size=(6, 8)))

    def f(p):
        return ad.sum_all(stfe_forward(h, 1, {**params, "stfe1.fuse.w1": p}, cfg))

    assert ad.finite_diff_check(f, params["stfe1.fuse.w1"], eps=1e-6) < 1e-4


def test_stfe_level_out_of_range(cfg, params):
    h = Tensor(np.zeros((6, 8)))
    with pytest.raises(ConfigError):
        stfe_forward(h, 3, params, cfg)


def test_disabling_sfe_changes_output():
    rng = derive_rng(7, "series")
    x = rng.normal(size=(6, 20))
    full = MLCGCN(tiny_config(), rng=derive_rng(8, "init"))
    notfe = MLCGCN(tiny_config(use_sfe=False), rng=derive_rng(8, "init"))
    p_full, _ = full.predict(Tensor(x))
    p_ablated, _ = notfe.predict(Tensor(x))
    assert not np.allclose(p_full.data, p_ablated.data)


# ---------------------------------------------------------------------------
# connectomes


def test_pearson_diagonal_is_one():
    rng = derive_rng(9, "p")
    f = pearson_connectome(Tensor(rng.normal(size=(5, 30)))).data
    np.testing.assert_array_equal(np.diag(f), 1.0)
    np.testing.assert_allclose(f, f.T, atol=0)


def test_pearson_perfect_linear_dependence():
    x = Tensor(np.array([[1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 6.0, 8.0]]))
    f = pearson_connectome(x).data
    assert f[0, 1] == pytest.approx(1.0)


def test_pearson_perfect_anticorrelation():
    x = Tensor(np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]]))
    f = pearson_connectome(x).data
    assert f[0, 1] == pytest.approx(-1.0)


def test_pearson_zero_variance_row_warns():
    x = Tensor(np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]]))
    with pytest.warns(ZeroNormRowsWarning) as caught:
        f = pearson_connectome(x).data
    assert [str(w.message) for w in caught] == ["pearson: 1 zero-norm row(s) left as zeros"]
    assert [w.message.rows for w in caught] == [1]
    assert f[0, 0] == 1.0
    assert f[0, 1] == 0.0 and f[1, 0] == 0.0


def _pearson_rows(case):
    x = derive_rng(9, "pearson-rows").normal(size=(5, 12))
    if case == "constant_row":
        x[2] = 1.5
    elif case == "correlated_rows":
        x[3] = 2.0 * x[1] - 1.0
    return x


@pytest.mark.filterwarnings("ignore:pearson:")
@pytest.mark.parametrize("case", ["random", "constant_row", "correlated_rows"])
def test_pearson_is_the_cosine_graph_of_the_centred_rows_bit_for_bit(case):
    x = _pearson_rows(case)
    for rows in (x, np.stack([x, x[::-1], 3.0 * x])):
        expected = ad.cosine_graph(rows - rows.mean(axis=-1, keepdims=True), "pearson").data
        assert pearson_connectome(Tensor(rows)).data.tobytes() == expected.tobytes()


def test_pearson_records_nothing_on_the_tape():
    with ad.recording() as tape:
        pearson_connectome(Tensor(_pearson_rows("random")))
    assert tape.records == []


@pytest.mark.filterwarnings("ignore:pearson:")  # the plain reference's exact-mean rows
@pytest.mark.parametrize("value", [0.1, 0.3, 0.001])
@pytest.mark.parametrize("length", [3, 176, 200])
def test_pearson_constant_rows_are_exactly_uncorrelated(value, length):
    # Their mean need not round to `value`, which used to leave ~1e-17 residues.
    x = derive_rng(9, "constant-rows", length).normal(size=(6, length))
    constant = [1, 4]
    x[constant] = value
    with pytest.warns(ZeroNormRowsWarning) as caught:
        f = pearson_connectome(Tensor(x)).data
    assert [w.message.rows for w in caught] == [2]
    np.testing.assert_array_equal(np.diag(f), 1.0)
    for i in constant:
        np.testing.assert_array_equal(np.delete(f[i], i), 0.0)
        np.testing.assert_array_equal(np.delete(f[:, i], i), 0.0)
    keep = np.ix_([0, 2, 3, 5], [0, 2, 3, 5])
    plain = ad.cosine_graph(x - x.mean(axis=-1, keepdims=True), "pearson").data
    assert f[keep].tobytes() == plain[keep].tobytes()


def test_adjacency_identical_rows():
    h = Tensor(np.array([[1.0, 2.0], [1.0, 2.0]]), requires_grad=True)
    a = generate_adjacency(h, 1).data
    assert a[0, 1] == pytest.approx(1.0)


def test_adjacency_orthogonal_rows():
    h = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    a = generate_adjacency(h, 1).data
    assert a[0, 1] == pytest.approx(0.0)


def test_adjacency_cosine_hand_case():
    h = Tensor(np.array([[1.0, 0.0], [1.0, 1.0]]))
    a = generate_adjacency(h, 1).data
    assert a[0, 1] == pytest.approx(1.0 / np.sqrt(2.0))


def test_adjacency_zero_row_handling():
    h = Tensor(np.array([[0.0, 0.0], [1.0, 1.0]]))
    with pytest.warns(UserWarning, match=r"^level 2: 1 zero-norm row\(s\)"):
        a = generate_adjacency(h, 2).data
    assert a[0, 0] == 1.0  # diagonal pinned even for a degenerate row
    assert a[0, 1] == 0.0


def test_adjacency_is_one_tape_record():
    h = Tensor(derive_rng(10, "h").normal(size=(3, 7, 5)), requires_grad=True)
    with ad.recording() as tape:
        generate_adjacency(h, 1)
    assert len(tape.records) == 1


def test_adjacency_contract_properties():
    rng = derive_rng(10, "h")
    a = generate_adjacency(Tensor(rng.normal(size=(7, 5))), 1).data
    assert np.abs(a - a.T).max() < 1e-9
    np.testing.assert_array_equal(np.diag(a), 1.0)
    assert a.min() >= -1.0 and a.max() <= 1.0


# ---------------------------------------------------------------------------
# GCN + readout


def test_gcn_zero_adjacency_reduces_to_self_connections(cfg, params):
    rng = derive_rng(11, "f")
    f = Tensor(rng.normal(size=(6, 6)))
    out = gcn_forward(Tensor(np.zeros((6, 6))), f, params, cfg, level=0)
    first = ad.relu(ad.matmul(f, params["gcn0.w0"]))
    expected = ad.relu(ad.matmul(first, params["gcn0.w1"])).data.mean(axis=0)
    np.testing.assert_allclose(out.data, expected, atol=1e-12)
    assert out.data.shape == (cfg.gcn_hidden,)


@pytest.mark.parametrize("level", [0, 1], ids=["pearson", "generated"])
def test_gcn_matches_dense_reference_on_a_batch(cfg, params, level):
    rng = derive_rng(31, "gcn")
    n = cfg.n_rois
    pearson = pearson_connectome(Tensor(rng.normal(size=(3, n, cfg.series_len))))
    features = Tensor(rng.normal(size=(3, n, cfg.embed_len)))
    graph = pearson if level == 0 else generate_adjacency(features, 1)
    assert np.abs(graph.data[:, ~np.eye(n, dtype=bool)]).min() > 0  # no zero edge
    a_hat = graph.data + np.eye(n)
    w0, w1 = params[f"gcn{level}.w0"].data, params[f"gcn{level}.w1"].data
    nodes = np.maximum(a_hat @ np.maximum(a_hat @ pearson.data @ w0, 0.0) @ w1, 0.0)
    expected = nodes.mean(axis=1)
    out = gcn_forward(graph, pearson, params, cfg, level).data
    assert out.shape == (3, cfg.gcn_hidden)
    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


def test_gcn_rejects_wrong_adjacency_shape(cfg, params):
    with pytest.raises(ShapeError):
        gcn_forward(Tensor(np.zeros((5, 5))), Tensor(np.zeros((6, 6))), params, cfg, 0)


def test_gcn_weight_gradients():
    cfg = tiny_config(n_rois=5, attention_heads=1)
    params = init_params(cfg, derive_rng(12, "init"))
    rng = derive_rng(13, "f")
    adj = generate_adjacency(Tensor(rng.normal(size=(5, 4))), 1)
    f = Tensor(rng.normal(size=(5, 5)))
    for name in ("gcn0.w0", "gcn0.w1"):
        def g(p, _n=name):
            return ad.sum_all(gcn_forward(adj, f, {**params, _n: p}, cfg, level=0))

        assert ad.finite_diff_check(g, params[name], eps=1e-5) < 1e-4


def _composed_gcn(adj, node_feats, params, cfg, level):
    """The two GCN layers as composed taped ops, one record per op: the node
    encodings [..., n x g]."""
    h = node_feats
    for name in ("w0", "w1"):
        y = _dense(h, params[f"gcn{level}.{name}"])
        h = ad.relu(ad.add(_bmm(adj, y), y))
    return h


def _composed_pooled_gcn(adj, node_feats, params, cfg, level):
    """`_composed_gcn` followed by the node mean: the reference for `ad.gcn2`."""
    return _mean_nodes(_composed_gcn(adj, node_feats, params, cfg, level))


@pytest.mark.parametrize("lead", [(), (1,), (3,)], ids=["unbatched", "batch1", "batch3"])
def test_gcn_kernel_matches_the_composed_ops_bit_for_bit(lead):
    # The graph also feeds a class_spread that the tape records after the
    # GCN, so its adjoint sums (class_spread + layer 1) + layer 0 on both sides.
    cfg = tiny_config()
    n = cfg.n_rois
    rng = derive_rng(40, "gcn-kernel")
    graph = generate_adjacency(Tensor(rng.normal(size=(*lead, n, 4))), 1).data
    feats = rng.normal(size=(*lead, n, n))
    upstream = rng.normal(size=(*lead, cfg.gcn_hidden))
    samples = len(graph)  # class_spread's rows: the scans, or one graph's rows
    mean_of, weight = rng.random((samples, samples)), rng.random((samples, 1))
    blocks = _level_blocks(cfg, 41, "gcn")
    runs = []
    for forward in (gcn_forward, _composed_pooled_gcn):
        leaves = {"adj": Tensor(graph, requires_grad=True), "feats": Tensor(feats, requires_grad=True),
                  **{name: Tensor(t.data, requires_grad=True) for name, t in blocks.items()}}
        with ad.recording():
            out = forward(leaves["adj"], leaves["feats"], leaves, cfg, 1)
            ad.backward(ad.add(ad.sum_all(ad.mul(out, Tensor(upstream))),
                               ad.class_spread(leaves["adj"], mean_of, weight)))
        runs.append((out.data, {name: t.grad for name, t in leaves.items()}))
    (out, grads), (ref_out, ref_grads) = runs
    assert out.shape == (*lead, cfg.gcn_hidden)
    nodes = _composed_gcn(Tensor(graph), Tensor(feats), blocks, cfg, 1).data
    assert 0.0 < (nodes == 0.0).mean() < 1.0  # the ReLU both passes and blocks
    assert out.tobytes() == ref_out.tobytes()
    assert len(grads) == 4
    for name, ref in ref_grads.items():
        assert grads[name].tobytes() == ref.tobytes(), name


def test_gcn_is_one_tape_record(cfg, params):
    rng = derive_rng(42, "gcn")
    adj = Tensor(rng.normal(size=(3, 6, 6)), requires_grad=True)
    with ad.recording() as tape:
        gcn_forward(adj, Tensor(rng.normal(size=(3, 6, 6))), params, cfg, level=1)
    assert len(tape.records) == 1


def _kept_bytes(records, exclude):
    """Bytes of the distinct array buffers the records hold, as outputs,
    inputs or arrays their pulls close over, apart from those of `exclude`."""
    def base(a):
        while isinstance(a.base, np.ndarray):
            a = a.base
        return a

    skip = {id(base(t.data)) for t in exclude}
    buffers, seen = {}, set()
    todo = [obj for record in records for obj in (record[0], *record[1], record[2])]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Tensor):
            todo.append(obj.data)
        elif isinstance(obj, np.ndarray):
            if id(base(obj)) not in skip:
                buffers[id(base(obj))] = base(obj).nbytes
        elif isinstance(obj, (tuple, list)):
            todo.extend(obj)
        elif callable(obj):
            todo.extend(cell.cell_contents for cell in getattr(obj, "__closure__", None) or ())
    return sum(buffers.values())


def test_taped_gcn_record_keeps_at_most_half_the_composed_bytes(cfg, params):
    rng = derive_rng(43, "gcn")
    adj = Tensor(rng.normal(size=(3, 6, 6)), requires_grad=True)
    feats = Tensor(rng.normal(size=(3, 6, 6)))
    inputs = (adj, feats, params["gcn1.w0"], params["gcn1.w1"])
    kept = []
    for forward in (_composed_pooled_gcn, gcn_forward):
        with ad.recording() as tape:
            out = forward(adj, feats, params, cfg, 1)
        kept.append(_kept_bytes(tape.records, (*inputs, out)))  # both keep the pooled output
    assert 0 < kept[1] <= kept[0] / 2


# The record tests below count what a kernel keeps beyond its inputs and its
# output, on shapes whose axes differ so that each kept array shows in the sum.


@pytest.mark.parametrize("graph_grad", [False, True], ids=["constant-graph", "learned-graph"])
def test_taped_gcn_record_keeps_what_its_docstring_lists(graph_grad):
    # h1 and h2's ReLU mask as bool; x·w0 and h1·w1 only for a learned graph.
    cfg = tiny_config(n_rois=5, attention_heads=1, gcn_hidden=7)
    params = init_params(cfg, derive_rng(46, "init"))
    b, n, g = 3, cfg.n_rois, cfg.gcn_hidden
    rng = derive_rng(47, "gcn")
    adj = Tensor(rng.normal(size=(b, n, n)), requires_grad=graph_grad)
    feats = Tensor(rng.normal(size=(b, n, n)))
    with ad.recording() as tape:
        out = gcn_forward(adj, feats, params, cfg, level=1)
    inputs = (adj, feats, params["gcn1.w0"], params["gcn1.w1"])
    floats = b * n * g * (3 if graph_grad else 1)
    assert _kept_bytes(tape.records, (*inputs, out)) == 8 * floats + b * n * g


def test_taped_sfe_record_keeps_what_its_docstring_lists():
    # The attention weights, the ln2 and ln_out normalised rows, the three
    # inverse stds, the hidden activations and the two masks as bool.
    cfg = tiny_config(embed_len=10, hidden_size=7)
    params = init_params(cfg, derive_rng(48, "init"))
    b, n, l = 3, cfg.n_rois, cfg.embed_len
    h = Tensor(derive_rng(49, "h").normal(size=(b, n, l)), requires_grad=True)
    with ad.recording() as tape:
        out = sfe_forward(h, params, cfg, level=1, rng=derive_rng(50, "dropout"))
    blocks = [params[f"stfe1.sfe.{name}"] for name in ad.ENCODER_BLOCKS]
    floats = b * cfg.attention_heads * l * l + 2 * b * l * n + 3 * b * l + b * l * cfg.hidden_size
    assert _kept_bytes(tape.records, (h, *blocks, out)) == 8 * floats + 2 * b * l * n


def test_taped_tfe_record_keeps_what_its_docstring_lists():
    # The MLP hidden activations and the norm's normalised rows and inverse
    # stds; the window counts are the caller's constant.
    cfg = tiny_config(embed_len=10)
    params = init_params(cfg, derive_rng(51, "init"))
    b, n, l = 3, cfg.n_rois, cfg.embed_len
    h = Tensor(derive_rng(52, "h").normal(size=(b, n, l)), requires_grad=True)
    with ad.recording() as tape:
        out = tfe_forward(h, params, cfg, level=1)
    blocks = [params[f"stfe1.tfe.{name}"] for name in ad.TFE_BLOCKS]
    counts = Tensor(model_module._window_counts(l, cfg.kernel_size))
    assert _kept_bytes(tape.records, (h, *blocks, counts, out)) == 8 * (2 * b * n * l + b * n)


def test_readout_identical_rows_pool_to_single_row(cfg, params):
    # On the complete graph every node sums the same n + 1 rows, so all node
    # rows stay equal, relu((n + 1)·h·W) of the shared row h in each layer,
    # and their mean is that one row.
    n = cfg.n_rois
    row = derive_rng(14, "r").normal(size=n)
    pooled = gcn_forward(Tensor(np.ones((n, n))), Tensor(np.tile(row, (n, 1))), params, cfg, level=0)
    first = np.maximum((n + 1) * row @ params["gcn0.w0"].data, 0.0)
    expected = np.maximum((n + 1) * first @ params["gcn0.w1"].data, 0.0)
    np.testing.assert_allclose(pooled.data, expected, rtol=1e-12, atol=1e-12)
    out = readout(ad.reshape(pooled, (1, cfg.gcn_hidden)), params, cfg, level=0)
    assert out.data.shape == (1, cfg.readout_dim)


def test_readout_size_independent_of_nodes():
    for n in (3, 6, 11):
        cfg = tiny_config(n_rois=n, attention_heads=1)
        params = init_params(cfg, derive_rng(15, "init"))
        graph = generate_adjacency(Tensor(derive_rng(16, "h", n).normal(size=(2, n, 4))), 1)
        pooled = gcn_forward(graph, Tensor(np.ones((2, n, n))), params, cfg, level=1)
        assert pooled.data.shape == (2, cfg.gcn_hidden)
        assert readout(pooled, params, cfg, level=1).data.shape == (2, cfg.readout_dim)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_readout_permutation_invariance(seed):
    cfg = tiny_config()
    params = init_params(cfg, derive_rng(15, "init"))
    rng = np.random.default_rng(seed)
    graph = generate_adjacency(Tensor(rng.normal(size=(6, 4))), 1).data
    feats = rng.normal(size=(6, 6))
    perm = rng.permutation(6)
    a = gcn_forward(Tensor(graph), Tensor(feats), params, cfg, level=0).data
    b = gcn_forward(Tensor(graph[np.ix_(perm, perm)]), Tensor(feats[perm]), params, cfg, level=0).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_encoded_level_is_gcn2_matmul_add_and_clamp(cfg, params):
    rng = derive_rng(47, "gcn")
    graph = Tensor(rng.normal(size=(3, 6, 6)), requires_grad=True)
    with ad.recording() as tape:
        pooled = gcn_forward(graph, Tensor(rng.normal(size=(3, 6, 6))), params, cfg, level=1)
        readout(pooled, params, cfg, level=1)
    ops = [pull.__qualname__.split(".")[0] for _, _, pull in tape.records]
    assert ops == ["gcn2", "matmul", "add", "clamp"]


# ---------------------------------------------------------------------------
# full forward


def test_predict_probability_contract(cfg, params, x):
    probs, levels = predict(x, params, cfg)
    assert probs.data.shape == (3,)
    assert abs(probs.data.sum() - 1.0) < 1e-12
    assert len(levels.embeddings) == cfg.levels + 1
    assert len(levels.adjacencies) == cfg.levels
    assert all(e.data.shape == (cfg.readout_dim,) for e in levels.embeddings)


@pytest.mark.filterwarnings("ignore:level 1:")  # the tiny level-1 graph has zero-norm rows
def test_head_is_concat_one_mlp2_record_and_softmax(cfg, params):
    series = derive_rng(52, "series").normal(size=(3, cfg.n_rois, cfg.series_len))
    with ad.recording() as tape:
        predict(Tensor(series), params, cfg, rng=derive_rng(48, "dropout"))
    ops = [pull.__qualname__.split(".")[0] for _, _, pull in tape.records]
    assert ops[-3:] == ["concat", "mlp2", "softmax_rows"]
    assert ops.count("mlp2") == cfg.levels + 1  # one fuse per level, and the head


@pytest.mark.filterwarnings("ignore:level 1:")  # the tiny level-1 graph has zero-norm rows
def test_predict_draws_the_sfe_masks_then_one_head_mask(cfg, params):
    series = derive_rng(52, "series").normal(size=(3, cfg.n_rois, cfg.series_len))
    used, expected = derive_rng(50, "dropout"), derive_rng(50, "dropout")
    predict(Tensor(series), params, cfg, rng=used)
    for _ in range(2 * cfg.levels):
        expected.random((3, cfg.embed_len, cfg.n_rois))
    expected.random((3, cfg.hidden_size))
    assert used.bit_generator.state == expected.bit_generator.state


def test_predict_at_rate_zero_with_an_rng_is_the_rng_free_predict(params, x):
    cfg = tiny_config(dropout_rate=0.0)
    rng = derive_rng(51, "dropout")
    before = rng.bit_generator.state
    assert predict(x, params, cfg, rng=rng)[0].data.tobytes() == predict(x, params, cfg)[0].data.tobytes()
    assert rng.bit_generator.state == before
    assert model_module._keep_mask((3, 4), tiny_config(), None) is None


def test_predict_deterministic_in_inference_mode(cfg, params, x):
    a, _ = predict(x, params, cfg)
    b, _ = predict(x, params, cfg)
    np.testing.assert_array_equal(a.data, b.data)


def test_predict_nonfinite_intermediate_names_stage(cfg, params, x):
    poisoned = dict(params)
    bad = params["stfe1.fuse.w2"].data.copy()
    bad[0, 0] = np.nan
    poisoned["stfe1.fuse.w2"] = Tensor(bad, requires_grad=True)
    with pytest.raises(ForwardError, match="level 1"):
        predict(x, poisoned, cfg)


def test_predict_level_subset_reduces_embeddings(x):
    cfg = tiny_config(level_subset=(0, 2))
    model = MLCGCN(cfg, rng=derive_rng(16, "init"))
    _, levels = model.predict(x)
    assert len(levels.embeddings) == 2
    assert len(levels.adjacencies) == cfg.levels  # graphs still produced at all levels


def test_batched_predict_matches_single_scan_calls(cfg, params):
    series = derive_rng(0, "test-batch").normal(size=(5, cfg.n_rois, cfg.series_len))
    probs, levels = predict(Tensor(series), params, cfg)
    assert probs.data.shape == (5, cfg.classes)
    assert levels.pearson.data.shape == (5, cfg.n_rois, cfg.n_rois)
    assert all(a.data.shape == (5, cfg.n_rois, cfg.n_rois) for a in levels.adjacencies)
    assert all(e.data.shape == (5, cfg.readout_dim) for e in levels.embeddings)
    for b, scan in enumerate(series):
        p1, one = predict(Tensor(scan), params, cfg)
        np.testing.assert_allclose(probs.data[b], p1.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(levels.pearson.data[b], one.pearson.data, rtol=0, atol=1e-12)
        for stacked, single in zip(levels.adjacencies, one.adjacencies):
            np.testing.assert_allclose(stacked.data[b], single.data, rtol=0, atol=1e-12)
        for stacked, single in zip(levels.embeddings, one.embeddings):
            np.testing.assert_allclose(stacked.data[b], single.data, rtol=0, atol=1e-12)


def test_full_model_gradient_sample(cfg, params, x):
    """End-to-end finite-difference spot check on two parameter blocks."""
    target = Tensor(np.array([1.0, 0.0, 0.0]))

    def loss_of(p):
        probs, _ = predict(x, p, cfg)
        return ad.mul(ad.sum_all(ad.mul(ad.log(ad.clamp(probs, 1e-12, np.inf)), target)), Tensor(-1.0))

    for name in ("stfe1.fuse.w1", "head.w1"):
        def f(p, _n=name):
            return loss_of({**params, _n: p})

        assert ad.finite_diff_check(f, params[name], eps=1e-5) < 1e-3


def test_permutation_equivariance_of_generated_graphs():
    """Permuting the ROI axis permutes every generated graph the same way.

    Holds for the ROI-anonymous configuration: positional encoding off (PE
    indexes ROI position) and the spatial-attention pathway off (its
    projections deliberately mix the ROI axis). The temporal pathway, the
    Pearson graph, and the dot-product graph construction are all
    row-equivariant.
    """
    cfg = tiny_config(use_positional_encoding=False, use_sfe=False)
    model = MLCGCN(cfg, rng=derive_rng(17, "init"))
    rng = derive_rng(18, "series")
    x = rng.normal(size=(6, 20))
    perm = rng.permutation(6)
    _, base = model.predict(Tensor(x))
    _, permuted = model.predict(Tensor(x[perm]))
    for a, b in zip(base.adjacencies, permuted.adjacencies):
        np.testing.assert_allclose(b.data, a.data[np.ix_(perm, perm)], atol=1e-9)
    np.testing.assert_allclose(
        permuted.pearson.data, base.pearson.data[np.ix_(perm, perm)], atol=1e-9
    )


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_identical_predictions(tmp_path, x):
    model = MLCGCN(tiny_config(), rng=derive_rng(19, "init"))
    path = tmp_path / "model.ckpt"
    model.save(path)
    loaded = MLCGCN.load(path)
    a, _ = model.predict(x)
    b, _ = loaded.predict(x)
    np.testing.assert_array_equal(a.data, b.data)


def test_checkpoint_bytes_stable_across_saves(tmp_path):
    model = MLCGCN(tiny_config(), rng=derive_rng(20, "init"))
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    model.save(p1)
    MLCGCN.load(p1).save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def _split_checkpoint(path):
    """(header dict, body bytes) of a saved checkpoint."""
    line, body = path.read_bytes().split(b"\n", 1)
    return json.loads(line), body


def _write_checkpoint(path, header, body):
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)


def test_checkpoint_config_key_mismatch_names_the_keys(tmp_path):
    model = MLCGCN(tiny_config(), rng=derive_rng(22, "init"))
    path = tmp_path / "model.ckpt"
    model.save(path)
    header, body = _split_checkpoint(path)
    header["config"]["gcn_layers"] = 2
    del header["config"]["levels"]
    _write_checkpoint(path, header, body)
    with pytest.raises(ConfigError) as err:
        MLCGCN.load(path)
    assert "missing keys ['levels']" in str(err.value)
    assert "unknown keys ['gcn_layers']" in str(err.value)


def _drop_body(header, body):
    return header, b"", str(len(body))


def _short_body(header, body):
    return header, body[:-8], str(len(body))


def _trailing_bytes(header, body):
    return header, body + bytes(8), str(len(body))


def _levels_as_text(header, body):
    header["config"]["levels"] = "two"
    return header, body, repr("levels")


def _config_not_an_object(header, body):
    header["config"] = 5
    return header, body, "not an object: 5"


def _levels_zero(header, body):
    header["config"]["levels"] = 0
    return header, body, "levels must be >= 1, got 0"


def _v1_document(header, body):
    doc = {"format": "mlcgcn-checkpoint-v1", "config": header["config"], "params": {}}
    return doc, b"", repr("mlcgcn-checkpoint-v1")


@pytest.mark.parametrize("damage", [
    "missing", "truncated", "format-only", _drop_body, _short_body, _trailing_bytes,
    _levels_as_text, _config_not_an_object, _levels_zero, _v1_document,
], ids=["missing", "truncated", "format-only", "no-data", "data-misfits-shape",
        "trailing-bytes", "levels-text", "config-not-object", "levels-zero", "v1-json"])
def test_checkpoint_unreadable_file_names_the_path(tmp_path, damage):
    path = tmp_path / "model.ckpt"
    key = ""
    if damage != "missing":
        MLCGCN(tiny_config(), rng=derive_rng(23, "init")).save(path)
        header, body = _split_checkpoint(path)
        if damage == "truncated":
            data = path.read_bytes()
            path.write_bytes(data[: data.index(b"\n") // 2])  # cut inside the header line
        elif damage == "format-only":
            _write_checkpoint(path, {"format": header["format"]}, body)
        else:
            header, body, key = damage(header, body)
            _write_checkpoint(path, header, body)
    with pytest.raises(ConfigError) as err:
        MLCGCN.load(path)
    assert str(path) in str(err.value)
    assert key in str(err.value)


def test_checkpoint_rejects_block_shape_that_does_not_fit_config(tmp_path):
    model = MLCGCN(tiny_config(), rng=derive_rng(21, "init"))
    path = tmp_path / "model.ckpt"
    model.save(path)
    header, body = _split_checkpoint(path)
    name, shape = header["blocks"][0]
    bad = [shape[0] + 1, *shape[1:]]
    header["blocks"][0] = [name, bad]
    grown = 8 * (int(np.prod(bad)) - int(np.prod(shape)))
    _write_checkpoint(path, header, bytes(grown) + body)
    with pytest.raises(ConfigError) as err:
        MLCGCN.load(path)
    assert name in str(err.value)
    assert str(bad) in str(err.value) and str(shape) in str(err.value)


def test_checkpoint_load_builds_no_random_model(tmp_path, monkeypatch, x):
    model = MLCGCN(tiny_config(), rng=derive_rng(24, "init"))
    path = tmp_path / "model.ckpt"
    model.save(path)

    def refuse(*args, **kwargs):
        raise AssertionError("load must not draw parameters")

    monkeypatch.setattr(model_module, "init_params", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    loaded = MLCGCN.load(path)
    np.testing.assert_array_equal(model.predict(x)[0].data, loaded.predict(x)[0].data)


def test_checkpoint_bytes_ignore_params_dict_order(tmp_path):
    model = MLCGCN(tiny_config(), rng=derive_rng(25, "init"))
    flipped = MLCGCN(model.config, params=dict(reversed(model.params.items())))
    model.save(tmp_path / "a.ckpt")
    flipped.save(tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_checkpoint_blocks_load_as_own_writeable_arrays(tmp_path, x):
    cfg = tiny_config()
    path = tmp_path / "model.ckpt"
    MLCGCN(cfg, rng=derive_rng(26, "init")).save(path)
    loaded = MLCGCN.load(path)
    assert list(loaded.params) == list(param_shapes(cfg))
    for p in loaded.params.values():
        assert p.data.flags.writeable and p.data.flags.c_contiguous and p.data.flags.owndata
    weights = Tensor(np.array([1.0, 2.0, 3.0]))

    def f(p):  # finite_diff_check perturbs the loaded block in place
        return ad.sum_all(ad.mul(predict(x, {**loaded.params, "head.w2": p}, cfg)[0], weights))

    assert ad.finite_diff_check(f, loaded.params["head.w2"], eps=1e-5) < 1e-3
