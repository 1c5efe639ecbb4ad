"""Optimizer, mixup, epoch loop, and cross-validation driver tests."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlcgcn import autodiff as ad
from mlcgcn import model as model_module
from mlcgcn import training
from mlcgcn.autodiff import Tensor
from mlcgcn.data import SyntheticSpec, generate_synthetic
from mlcgcn.errors import ConfigError, TrainingError
from mlcgcn.losses import BatchTargets
from mlcgcn.metrics import FoldReport
from mlcgcn.model import MLCGCN, ModelConfig, predict
from mlcgcn.seeding import derive_rng
from mlcgcn.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    OptimizerState,
    TrainConfig,
    adamw_step,
    class_balanced_batches,
    cv_splits,
    evaluate_model,
    fit_fold,
    graph_stats,
    mixup_batch,
    run_ablation,
    run_cv,
    train_epoch,
)


def small_model_config(**overrides):
    base = dict(
        series_len=30,
        classes=2,
        n_rois=8,
        embed_len=8,
        conv_kernels=4,
        hidden_size=8,
        levels=2,
        attention_heads=2,
        gcn_hidden=8,
        readout_dim=8,
    )
    base.update(overrides)
    return ModelConfig(**base)


def small_dataset(per_class=8, classes=2, seed=0):
    spec = SyntheticSpec(
        classes=classes, per_class=per_class, n_rois=8, series_len=30,
        latent_rank=4, seed=seed, hubs=1,
    )
    samples, _ = generate_synthetic(spec)
    return samples


# ---------------------------------------------------------------------------
# optimizer


def _single_param(value=1.0):
    return {"w": Tensor(np.array([value]), requires_grad=True)}


def test_adamw_zero_gradient_zero_decay_is_fixed_point():
    params = _single_param(2.5)
    state = OptimizerState.for_params(params)
    cfg = TrainConfig(weight_decay=0.0)
    params["w"].grad = np.zeros(1)
    adamw_step(params, state, cfg)
    assert params["w"].data[0] == 2.5


def test_adamw_constant_gradient_update_approaches_lr():
    params = _single_param(0.0)
    state = OptimizerState.for_params(params)
    cfg = TrainConfig(learning_rate=0.001, weight_decay=0.0)
    prev = params["w"].data[0]
    for _ in range(500):
        params["w"].grad = np.array([0.37])
        prev = params["w"].data[0]
        adamw_step(params, state, cfg)
    step_size = abs(params["w"].data[0] - prev)
    assert step_size == pytest.approx(cfg.learning_rate, rel=0.02)


def test_adamw_decay_only_shrink_factor():
    params = _single_param(1.0)
    state = OptimizerState.for_params(params)
    cfg = TrainConfig(learning_rate=0.001, weight_decay=0.1)
    params["w"].grad = np.zeros(1)
    adamw_step(params, state, cfg)
    assert params["w"].data[0] == pytest.approx(1.0 - 1e-4, abs=1e-15)


def test_adamw_nonfinite_gradient_names_parameter():
    params = _single_param()
    state = OptimizerState.for_params(params)
    params["w"].grad = np.array([np.nan])
    with pytest.raises(TrainingError, match="'w'"):
        adamw_step(params, state, TrainConfig())


def test_adamw_refused_step_changes_nothing():
    params = {name: Tensor(np.array([1.0, -2.0]), requires_grad=True) for name in "abc"}
    params["a"].grad = np.array([0.5, 0.5])
    params["b"].grad = np.array([0.1, np.nan])
    params["c"].grad = np.array([np.inf, 0.0])
    state = OptimizerState.for_params(params)
    before = {name: p.data.tobytes() for name, p in params.items()}
    with pytest.raises(TrainingError, match="'b'"):
        adamw_step(params, state, TrainConfig())
    assert {name: p.data.tobytes() for name, p in params.items()} == before
    assert not state.m.any() and not state.v.any()
    assert state.step == 0


def _per_block_adamw(values, grads, m, v, step, cfg):
    """AdamW one block at a time, in the textbook's order of operations:
    the reference for the flat step. Returns the new values and moments."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1, bc2 = 1.0 - b1 ** step, 1.0 - b2 ** step
    out = {}
    for name, p in values.items():
        g = grads[name] if grads[name] is not None else np.zeros_like(p)
        mn = b1 * m[name] + (1 - b1) * g
        vn = b2 * v[name] + (1 - b2) * g * g
        update = cfg.learning_rate * (mn / bc1) / (np.sqrt(vn / bc2) + ADAM_EPS)
        update += cfg.learning_rate * cfg.weight_decay * p
        out[name] = (p - update, mn, vn)
    return tuple({name: o[k] for name, o in out.items()} for k in range(3))


def test_adamw_flat_step_matches_a_per_block_reference_bit_for_bit():
    # Blocks of mixed sizes, one of 4,480 entries; grads of mixed magnitudes,
    # and one block without a grad in the second step.
    rng = np.random.default_rng(11)
    shapes = {"big": (70, 64), "vec": (5,), "one": (1,), "mat": (6, 3)}
    params = {name: Tensor(rng.normal(size=shape), requires_grad=True)
              for name, shape in shapes.items()}
    cfg = TrainConfig(learning_rate=0.003, weight_decay=0.01)
    state = OptimizerState.for_params(params)
    values = {name: p.data.copy() for name, p in params.items()}
    m = {name: np.zeros(shape) for name, shape in shapes.items()}
    v = {name: np.zeros(shape) for name, shape in shapes.items()}
    for step in (1, 2, 3):
        grads = {name: rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 2, size=shape)
                 for name, shape in shapes.items()}
        if step == 2:
            grads["vec"] = None
        for name, p in params.items():
            p.grad = grads[name]
        adamw_step(params, state, cfg)
        values, m, v = _per_block_adamw(values, grads, m, v, step, cfg)
        assert state.step == step
        for name, p in params.items():
            assert p.data.shape == shapes[name]
            assert p.data.tobytes() == values[name].tobytes(), (step, name)
        assert state.m.tobytes() == np.concatenate([m[name].ravel() for name in shapes]).tobytes()
        assert state.v.tobytes() == np.concatenate([v[name].ravel() for name in shapes]).tobytes()


def test_adamw_step_refused_for_a_non_finite_result_changes_nothing():
    # Every gradient is finite, but b's update takes it to nan (inf - inf).
    params = {"a": Tensor(np.array([1.0]), requires_grad=True),
              "b": Tensor(np.array([np.inf]), requires_grad=True)}
    for p in params.values():
        p.grad = np.array([0.5])
    state = OptimizerState.for_params(params)
    before = {name: p.data.tobytes() for name, p in params.items()}
    with pytest.raises(TrainingError, match="non-finite gradient or update in 'b'"):
        adamw_step(params, state, TrainConfig())
    assert {name: p.data.tobytes() for name, p in params.items()} == before
    assert not state.m.any() and not state.v.any()
    assert state.step == 0


# ---------------------------------------------------------------------------
# mixup


def test_mixup_single_sample_identity():
    series = [np.ones((3, 4))]
    targets = BatchTargets.from_labels([0], 2)
    mixed, mixed_targets, lam = mixup_batch(series, targets, 0.2, np.random.default_rng(0))
    assert lam == 1.0
    np.testing.assert_array_equal(mixed[0], series[0])
    np.testing.assert_array_equal(mixed_targets.probs, targets.probs)


def test_mixup_alpha_zero_identity():
    series = [np.zeros((2, 2)), np.ones((2, 2))]
    targets = BatchTargets.from_labels([0, 1], 2)
    mixed, mixed_targets, lam = mixup_batch(series, targets, 0.0, np.random.default_rng(0))
    assert lam == 1.0
    np.testing.assert_array_equal(mixed[1], series[1])


def test_mixup_midpoint():
    class FixedRng:
        def beta(self, a, b):
            return 0.5

        def permutation(self, n):
            return np.array([1, 0])

    series = [np.zeros((2, 2)), np.ones((2, 2))]
    targets = BatchTargets.from_labels([0, 1], 2)
    for batch in (series, np.stack(series)):  # a list of scans or one [B x n x L] array
        mixed, mixed_targets, lam = mixup_batch(batch, targets, 0.2, FixedRng())
        assert lam == 0.5
        np.testing.assert_array_equal(mixed, np.full((2, 2, 2), 0.5))
        np.testing.assert_array_equal(mixed_targets.probs, np.full((2, 2), 0.5))


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_mixup_target_rows_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    series = [rng.normal(size=(2, 3)) for _ in range(5)]
    targets = BatchTargets.from_labels(rng.integers(0, 3, 5), 3)
    _, mixed_targets, _ = mixup_batch(series, targets, 0.2, rng)
    np.testing.assert_allclose(mixed_targets.probs.sum(axis=1), 1.0, atol=1e-12)


def test_class_balanced_batches_cover_everything():
    labels = [0] * 6 + [1] * 6 + [2] * 4
    batches = class_balanced_batches(labels, 4, np.random.default_rng(0))
    flat = [i for b in batches for i in b]
    assert sorted(flat) == list(range(16))
    # the first batches mix classes rather than exhausting one class first
    assert len({labels[i] for i in batches[0]}) >= 2


# ---------------------------------------------------------------------------
# epoch loop


def _fresh_training(samples, cfg, tcfg, fold=0):
    model = MLCGCN(cfg, rng=derive_rng(tcfg.seed, "init", fold))
    opt = OptimizerState.for_params(model.params)
    rngs = tuple(derive_rng(tcfg.seed, tag, fold) for tag in ("batches", "mixup", "dropout"))
    return model, opt, rngs


def test_overfit_single_batch_loss_decreases():
    samples = small_dataset(per_class=3)
    cfg = small_model_config()
    tcfg = TrainConfig(epochs=1, batch_size=6, mixup_alpha=0.0, seed=1)
    model, opt, (rb, rm, rd) = _fresh_training(samples, cfg, tcfg)
    losses = []
    for epoch in range(1, 31):
        stats = train_epoch(model, samples, tcfg, opt, rb, rm, rd, epoch)
        losses.append(stats["total"])
    assert losses[-1] < 0.5 * losses[0]


def test_lr_zero_keeps_parameters_frozen():
    samples = small_dataset(per_class=3)
    cfg = small_model_config()
    tcfg = TrainConfig(epochs=1, batch_size=4, seed=2)
    model, opt, (rb, rm, rd) = _fresh_training(samples, cfg, tcfg)
    before = {k: v.data.copy() for k, v in model.params.items()}
    frozen = TrainConfig(epochs=1, batch_size=4, seed=2)
    frozen.learning_rate = 0.0  # bypass the constructor guard for this oracle
    frozen.weight_decay = 0.0
    train_epoch(model, samples, frozen, opt, rb, rm, rd, 1)
    for name, value in before.items():
        np.testing.assert_array_equal(model.params[name].data, value)


def test_same_seed_identical_loss_trajectory():
    samples = small_dataset(per_class=4)
    cfg = small_model_config()
    tcfg = TrainConfig(epochs=1, batch_size=4, seed=3)

    def run():
        model, opt, (rb, rm, rd) = _fresh_training(samples, cfg, tcfg)
        return [
            train_epoch(model, samples, tcfg, opt, rb, rm, rd, epoch)["total"]
            for epoch in range(1, 4)
        ]

    assert run() == run()


def test_alpha_zero_reports_zero_group_loss():
    samples = small_dataset(per_class=3)
    cfg = small_model_config()
    tcfg = TrainConfig(epochs=1, batch_size=6, alpha=0.0, seed=4)
    model, opt, (rb, rm, rd) = _fresh_training(samples, cfg, tcfg)
    stats = train_epoch(model, samples, tcfg, opt, rb, rm, rd, 1)
    assert stats["group"] == 0.0


# ---------------------------------------------------------------------------
# cross-validation driver


def test_run_cv_cardinality_and_aggregate():
    samples = small_dataset(per_class=6)
    cfg = small_model_config()
    tcfg = TrainConfig(epochs=2, batch_size=6, folds=3, seed=5)
    result = run_cv(samples, cfg, tcfg)
    assert len(result.report.folds) == 3
    assert len(result.models) == 3
    table = np.array([r.values() for r in result.report.folds])
    np.testing.assert_allclose(result.report.mean().values(), table.mean(axis=0), atol=1e-12)
    # test folds never overlap their training split
    for train, test in cv_splits(samples, tcfg):
        assert np.intersect1d(train, test).size == 0


def test_run_cv_is_fit_fold_over_cv_splits():
    samples = small_dataset(per_class=4)
    cfg = small_model_config()
    tcfg = TrainConfig(epochs=1, batch_size=4, folds=2, seed=9)
    result = run_cv(samples, cfg, tcfg)
    folds = [fit_fold(samples, split, cfg, tcfg, fold)
             for fold, split in enumerate(cv_splits(samples, tcfg))]
    assert result.report.to_text() == FoldReport([r for _, _, r in folds]).to_text()
    for cv_model, (model, _, _) in zip(result.models, folds, strict=True):
        assert cv_model.params.keys() == model.params.keys()
        for name in model.params:
            assert cv_model.params[name].data.tobytes() == model.params[name].data.tobytes()


def test_fit_fold_refuses_an_overlapping_split():
    samples = small_dataset(per_class=4)
    split = (np.array([0, 1, 2, 4, 5]), np.array([2, 3]))
    with pytest.raises(TrainingError, match="fold 3: train/test overlap"):
        fit_fold(samples, split, small_model_config(), TrainConfig(epochs=1, folds=2), 3)


def test_run_cv_parameters_stay_finite():
    samples = small_dataset(per_class=4)
    cfg = small_model_config()
    tcfg = TrainConfig(epochs=2, batch_size=4, folds=2, seed=6)
    result = run_cv(samples, cfg, tcfg)
    for model in result.models:
        for p in model.params.values():
            assert np.isfinite(p.data).all()


def test_run_cv_bit_reproducible():
    samples = small_dataset(per_class=4)
    cfg = small_model_config()
    tcfg = TrainConfig(epochs=2, batch_size=4, folds=2, seed=7)
    a = run_cv(samples, cfg, tcfg)
    b = run_cv(samples, cfg, tcfg)
    assert a.report.to_text() == b.report.to_text()
    for ma, mb in zip(a.models, b.models):
        for name in ma.params:
            np.testing.assert_array_equal(ma.params[name].data, mb.params[name].data)


def test_group_loss_trajectory_decreases_with_alpha_one():
    samples = small_dataset(per_class=5, seed=8)
    cfg = small_model_config()
    tcfg = TrainConfig(epochs=12, batch_size=5, alpha=1.0, mixup_alpha=0.0, folds=2, seed=8)
    model, opt, (rb, rm, rd) = _fresh_training(samples, cfg, tcfg)
    history = [
        train_epoch(model, samples, tcfg, opt, rb, rm, rd, epoch)["group"]
        for epoch in range(1, tcfg.epochs + 1)
    ]
    assert history[-1] < history[0]


def test_batch_loss_gradient_is_mean_of_single_scan_gradients(monkeypatch):
    samples = small_dataset(per_class=3)
    model = MLCGCN(small_model_config(), rng=derive_rng(13, "init"))
    series = [s.series for s in samples]
    targets = BatchTargets.from_labels([s.label for s in samples], 2)
    shapes = []

    def recording_predict(x, *args, **kwargs):
        shapes.append(np.shape(x.data if isinstance(x, Tensor) else x))
        return predict(x, *args, **kwargs)

    def grads(batch, rows):
        ad.zero_grads(model.params)
        with ad.recording():
            ad.backward(training.batch_loss(model, batch, BatchTargets(rows), 0.0)[2])
        return {name: p.grad for name, p in model.params.items()}

    monkeypatch.setattr(model_module, "predict", recording_predict)
    batched = grads(series, targets.probs)
    assert shapes == [(len(series), 8, 30)]  # one forward over the stacked batch
    singles = [grads([s], targets.probs[i : i + 1]) for i, s in enumerate(series)]
    for name, g in batched.items():
        want = np.mean([single[name] for single in singles], axis=0)
        np.testing.assert_allclose(g, want, rtol=1e-10, atol=1e-10 * np.abs(want).max(),
                                   err_msg=name)


def test_evaluate_model_shapes():
    samples = small_dataset(per_class=3)
    model = MLCGCN(small_model_config(), rng=derive_rng(9, "init"))
    probs, truth = evaluate_model(model, samples)
    assert probs.shape == (len(samples), 2)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert truth.tolist() == [s.label for s in samples]


def test_intra_group_dissimilarity_nonnegative():
    samples = small_dataset(per_class=3)
    model = MLCGCN(small_model_config(), rng=derive_rng(10, "init"))
    assert graph_stats(model, samples).dissimilarity() >= 0.0


def test_intra_group_dissimilarity_matches_numpy_reference():
    samples = small_dataset(per_class=6, classes=3)  # 16 + 2 scans: class 2 spans both slices
    model = MLCGCN(small_model_config(classes=3), rng=derive_rng(12, "init"))
    graphs = [[a.data for a in model.predict(Tensor(s.series))[1].adjacencies] for s in samples]
    labels = np.array([s.label for s in samples])
    want = 0.0
    for level in range(model.config.levels):
        for cls in np.unique(labels):
            members = np.stack([graphs[u][level] for u in np.flatnonzero(labels == cls)])
            want += ((members - members.mean(axis=0)) ** 2).sum() / len(members)
    want /= model.config.levels
    assert graph_stats(model, samples).dissimilarity() == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# ablation harness


def test_pearson_baseline_separates_synthetic_classes():
    """A Pearson-graph-only encoder (level subset {0}, no group penalty)
    beats chance by a clear margin on the separable synthetic dataset."""
    spec = SyntheticSpec(seed=4)  # 3 classes x 60, n=20, L=200
    samples, _ = generate_synthetic(spec)
    cfg = ModelConfig(
        series_len=200, classes=3, n_rois=20, embed_len=16, conv_kernels=4,
        hidden_size=16, levels=1, attention_heads=4, gcn_hidden=16,
        readout_dim=16, level_subset=(0,),
    )
    tcfg = TrainConfig(epochs=8, batch_size=16, alpha=0.0, folds=2, seed=4)
    train = [s for i, s in enumerate(samples) if i % 3 != 0]
    held_out = [s for i, s in enumerate(samples) if i % 3 == 0]
    model, opt, (rb, rm, rd) = _fresh_training(train, cfg, tcfg)
    for epoch in range(1, tcfg.epochs + 1):
        train_epoch(model, train, tcfg, opt, rb, rm, rd, epoch)
    probs, truth = evaluate_model(model, held_out)
    acc = float((probs.argmax(axis=1) == truth).mean())
    assert acc > 1.0 / 3.0 + 0.2, f"baseline accuracy {acc:.3f}"


def test_run_ablation_empty_variants():
    samples = small_dataset(per_class=4)
    rows = run_ablation(samples, small_model_config(), TrainConfig(epochs=1, folds=2), [])
    assert rows == []


def _fit_fold_never_called(*args, **kwargs):
    raise AssertionError("a fold trained before every variant was checked")


@pytest.mark.parametrize("deltas,named", [
    ({"model.use_sfe": False, "model.use_tfe": False}, "use_sfe/use_tfe"),
    ({"model.bogus": 1}, "model.bogus"),
    ({"train.folds": 5}, "fewer than 5 folds"),
], ids=["both-pathways-off", "unknown-key", "folds-above-class-count"])
def test_run_ablation_refuses_an_invalid_variant_before_any_fold(monkeypatch, deltas, named):
    monkeypatch.setattr(training, "fit_fold", _fit_fold_never_called)
    samples = small_dataset(per_class=4)
    variants = [("ok", {"train.alpha": 0.0}), ("broken", deltas)]
    with pytest.raises(ConfigError, match=f"^variant broken: .*{re.escape(named)}"):
        run_ablation(samples, small_model_config(), TrainConfig(epochs=1, folds=2), variants)


@pytest.mark.parametrize("key,value", [
    ("model.classes", 5), ("model.n_rois", 8), ("model.series_len", 30),
], ids=["classes", "n_rois-at-its-value", "series_len-at-its-value"])
def test_run_ablation_refuses_a_variant_that_sets_a_manifest_field(monkeypatch, key, value):
    monkeypatch.setattr(training, "fit_fold", _fit_fold_never_called)
    samples = small_dataset(per_class=4)
    cfg = small_model_config()
    with pytest.raises(ConfigError, match=f"^variant c5: key '{key}' is set by the dataset"):
        run_ablation(samples, cfg, TrainConfig(epochs=1, folds=2), [("ok", {}), ("c5", {key: value})])


def test_run_ablation_full_row_matches_run_cv():
    samples = small_dataset(per_class=4)
    cfg = small_model_config()
    tcfg = TrainConfig(epochs=1, batch_size=4, folds=2, seed=11)
    (row,) = run_ablation(samples, cfg, tcfg, [("full", {})])
    assert row.report.to_text() == run_cv(samples, cfg, tcfg).report.to_text()


def test_run_ablation_does_not_hide_type_errors(monkeypatch):
    def broken_fit_fold(*args):
        raise TypeError("a bug inside fit_fold")

    monkeypatch.setattr(training, "fit_fold", broken_fit_fold)
    samples = small_dataset(per_class=4)
    with pytest.raises(TypeError, match="a bug inside fit_fold"):
        run_ablation(samples, small_model_config(), TrainConfig(epochs=1, folds=2),
                     [("full", {})])
