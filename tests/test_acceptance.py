"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. The heavy end-to-end criteria (1, 3, 4) together
stay inside their stated runtime budgets on a desktop CPU.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from mlcgcn.autodiff import Tensor
from mlcgcn.cli import main
from mlcgcn.data import SyntheticSpec, generate_synthetic, load_connectome, node_importance, top_edges
from mlcgcn.data import export_connectome
from mlcgcn.losses import BatchTargets, cross_entropy, group_loss
from mlcgcn.metrics import compute_metrics, stratified_kfold
from mlcgcn.model import MLCGCN, ModelConfig
from mlcgcn.seeding import derive_rng
from mlcgcn.training import TrainConfig, gradcheck_config, run_ablation, run_cv, run_gradcheck


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({name}): PASS")


def synth_model_config(**overrides):
    base = dict(
        series_len=200, classes=3, n_rois=20, embed_len=32, conv_kernels=8,
        hidden_size=32, levels=2, attention_heads=4, gcn_hidden=32, readout_dim=32,
    )
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def synthetic_dataset():
    """3 classes x 60 scans, n=20, L=200, distinct latent connectomes,
    moderate noise."""
    samples, truth = generate_synthetic(SyntheticSpec(seed=0))
    return samples, truth


# ---------------------------------------------------------------------------


def test_criterion_1_gradient_soundness():
    """Every parameter block of the tiny config matches central finite
    differences within 1e-3 through the mixup-free composite loss (alpha=1)."""
    with criterion(1, "gradient soundness"):
        cfg = gradcheck_config()  # n=6, L=20, l=8, K=2, c=3
        assert (cfg.n_rois, cfg.series_len, cfg.embed_len, cfg.levels, cfg.classes) == (
            6, 20, 8, 2, 3,
        )
        t0 = time.perf_counter()
        results = run_gradcheck(cfg, tolerance=1e-3, seed=0)
        elapsed = time.perf_counter() - t0
        worst_name, worst_err, _ = max(results, key=lambda r: r[1])
        assert all(ok for _, _, ok in results), f"worst block {worst_name}: {worst_err:.3e}"
        assert worst_err < 1e-3
        assert elapsed < 120.0, f"gradcheck took {elapsed:.0f}s"


def test_criterion_2_architecture_contract():
    """predict yields K+1 embeddings of length e, K symmetric unit-diagonal
    adjacencies with entries in [-1, 1], and probabilities summing to 1."""
    with criterion(2, "architecture contract"):
        rng = derive_rng(0, "acceptance-arch")
        for k in (2, 6):
            cfg = ModelConfig(
                series_len=24, classes=3, n_rois=8, embed_len=8, conv_kernels=4,
                hidden_size=8, levels=k, attention_heads=2, gcn_hidden=8, readout_dim=8,
            )
            model = MLCGCN(cfg, rng=derive_rng(0, "acceptance-init", k))
            probs, levels = model.predict(Tensor(rng.normal(size=(8, 24))))
            assert len(levels.embeddings) == k + 1
            assert all(e.data.shape == (cfg.readout_dim,) for e in levels.embeddings)
            assert len(levels.adjacencies) == k
            for adj in levels.adjacencies:
                a = adj.data
                assert np.abs(a - a.T).max() < 1e-9
                np.testing.assert_array_equal(np.diag(a), 1.0)
                assert a.min() >= -1.0 and a.max() <= 1.0
            assert abs(probs.data.sum() - 1.0) < 1e-12


def test_criterion_3_synthetic_end_to_end(synthetic_dataset):
    """5-fold CV on the separable synthetic dataset reaches mean Acc >= 0.90
    and macro AUC >= 0.95 within 100 epochs; the indistinguishable-classes
    control stays at chance; both runs finish inside 15 minutes."""
    with criterion(3, "synthetic end-to-end"):
        samples, _ = synthetic_dataset
        cfg = synth_model_config()
        tcfg = TrainConfig(epochs=30, batch_size=16, folds=5, seed=0)
        assert tcfg.epochs <= 100

        t0 = time.perf_counter()
        result = run_cv(samples, cfg, tcfg)
        mean = result.report.mean()
        assert mean.acc >= 0.90, f"mean Acc {mean.acc:.3f}"
        assert mean.auc >= 0.95, f"mean AUC {mean.auc:.3f}"

        control_samples, _ = generate_synthetic(SyntheticSpec(seed=0, strength=0.0))
        control = run_cv(control_samples, cfg, tcfg)
        elapsed = time.perf_counter() - t0

        chance = 1.0 / 3.0
        half = 1.96 * np.sqrt(chance * (1 - chance) / len(control_samples))
        acc = control.report.mean().acc
        assert chance - half <= acc <= chance + half, (
            f"control Acc {acc:.3f} outside [{chance-half:.3f}, {chance+half:.3f}]"
        )
        assert elapsed < 900.0, f"end-to-end took {elapsed:.0f}s"


def test_criterion_4_ablation_direction(synthetic_dataset):
    """All six module-ablation rows complete with five metrics each, and the
    group penalty demonstrably acts: the full model's measured intra-group
    dissimilarity is strictly below the alpha=0 run's."""
    with criterion(4, "ablation direction"):
        samples, _ = synthetic_dataset
        cfg = synth_model_config()
        tcfg = TrainConfig(epochs=12, batch_size=16, folds=2, seed=0)
        rows = run_ablation(samples, cfg, tcfg)
        assert [row.name for row in rows] == [
            "sfe+group", "tfe+group", "sfe+tfe", "sfe", "tfe", "full",
        ]
        for row in rows:
            assert all(0.0 <= v <= 1.0 for v in row.report.mean().values())
        by_name = {row.name: row for row in rows}
        regularized = by_name["full"].group_dissimilarity
        unregularized = by_name["sfe+tfe"].group_dissimilarity
        assert regularized < unregularized, (
            f"group dissimilarity with alpha=1 ({regularized:.4f}) not below "
            f"alpha=0 ({unregularized:.4f})"
        )


def test_criterion_5_metric_oracle_equivalence():
    """Macro AUC equals an O(N^2) pairwise-concordance oracle on 50 random
    score sets within 1e-12; confusion-derived metrics match hand counts."""
    with criterion(5, "metric oracle equivalence"):
        rng = np.random.default_rng(12345)
        for trial in range(50):
            n = int(rng.integers(6, 40))
            c = int(rng.integers(2, 5))
            probs = rng.dirichlet(np.ones(c), size=n)
            if trial % 3 == 0:
                probs = np.round(probs, 1)  # force score ties
            truth = rng.integers(0, c, size=n)
            while len(np.unique(truth)) < 2:
                truth = rng.integers(0, c, size=n)

            vals = []
            for k in range(c):
                pos = truth == k
                n_pos = pos.sum()
                if n_pos == 0 or n_pos == n:
                    continue
                total = 0.0
                for s_p in probs[pos, k]:
                    for s_n in probs[~pos, k]:
                        total += 1.0 if s_p > s_n else (0.5 if s_p == s_n else 0.0)
                vals.append(total / (n_pos * (n - n_pos)))
            oracle = float(np.mean(vals))

            import warnings
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rep = compute_metrics(probs, truth)
            assert abs(rep.auc - oracle) < 1e-12

        # fixed 6-sample case, counts enumerated by hand:
        # truth 0,0,0,1,1,1 / predictions 0,0,1,1,1,0
        # per class: TP=2 FN=1 FP=1 TN=2 -> sen=spe=f1=2/3, acc=4/6
        probs = np.array(
            [[0.9, 0.1], [0.8, 0.2], [0.3, 0.7], [0.2, 0.8], [0.1, 0.9], [0.6, 0.4]]
        )
        rep = compute_metrics(probs, [0, 0, 0, 1, 1, 1])
        assert abs(rep.acc - 4 / 6) < 1e-12
        assert abs(rep.sen - 2 / 3) < 1e-12
        assert abs(rep.spe - 2 / 3) < 1e-12
        assert abs(rep.f1 - 2 / 3) < 1e-12

        # second fixed case: one class never predicted
        # truth 0,0,1,1,2,2 / predictions 0,0,1,1,1,1
        # class2: TP=0 FN=2 -> sen 0, f1 0; spe: class0 TN=4 FP=0 -> 1,
        # class1 TN=2 FP=2 -> 0.5, class2 TN=4 FP=0 -> 1
        probs = np.array(
            [[0.8, 0.1, 0.1], [0.7, 0.2, 0.1], [0.1, 0.8, 0.1],
             [0.2, 0.7, 0.1], [0.1, 0.6, 0.3], [0.2, 0.5, 0.3]]
        )
        rep = compute_metrics(probs, [0, 0, 1, 1, 2, 2])
        assert abs(rep.acc - 4 / 6) < 1e-12
        assert abs(rep.sen - (1.0 + 1.0 + 0.0) / 3) < 1e-12
        assert abs(rep.spe - (1.0 + 0.5 + 1.0) / 3) < 1e-12
        assert abs(rep.f1 - (1.0 + 2 / 3 + 0.0) / 3) < 1e-12


def test_criterion_6_loss_oracles():
    """group_loss reproduces the hand Frobenius example exactly; uniform
    4-class cross entropy equals ln 4 within 1e-12."""
    with criterion(6, "loss oracles"):
        a1 = np.zeros((4, 4))
        a2 = np.zeros((4, 4))
        a2[0, 1] = a2[1, 0] = 1.0
        loss = group_loss([[Tensor(a1)], [Tensor(a2)]], [0, 0], levels=1)
        assert loss.item() == 0.5

        probs = Tensor(np.full((3, 4), 0.25))
        targets = BatchTargets.from_labels([0, 1, 3], 4)
        ce = cross_entropy(probs, targets)
        assert abs(ce.item() - np.log(4.0)) < 1e-12


def test_criterion_7_determinism(tmp_path):
    """Two cmd_train runs with the same seed write byte-identical fold
    reports; stratified folds partition indices with per-class counts
    within +/- 1."""
    with criterion(7, "determinism"):
        data_dir = tmp_path / "data"
        rc = main([
            "synth", "--out", str(data_dir),
            "--set", "synth.per_class=10", "--set", "synth.n_rois=8",
            "--set", "synth.series_len=30", "--set", "synth.latent_rank=4",
            "--set", "synth.hubs=1", "--set", "synth.seed=2",
        ])
        assert rc == 0
        train_args = [
            "--set", "model.embed_len=8", "--set", "model.conv_kernels=4",
            "--set", "model.hidden_size=8", "--set", "model.levels=2",
            "--set", "model.attention_heads=2", "--set", "model.gcn_hidden=8",
            "--set", "model.readout_dim=8", "--set", "train.epochs=2",
            "--set", "train.batch_size=8", "--set", "train.folds=5",
            "--set", "train.seed=9",
        ]
        reports = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            rc = main([
                "train", "--manifest", str(data_dir / "manifest.json"),
                "--out", str(out), *train_args,
            ])
            assert rc == 0
            reports.append((out / "fold_report.txt").read_bytes())
        assert reports[0] == reports[1]

        labels = np.repeat([0, 1, 2, 3], [187, 182, 156, 118])
        splits = stratified_kfold(labels, 5, seed=0)
        covered = np.concatenate([test for _, test in splits])
        assert sorted(covered.tolist()) == list(range(len(labels)))
        for cls in range(4):
            sizes = [int((labels[test] == cls).sum()) for _, test in splits]
            assert max(sizes) - min(sizes) <= 1


def test_criterion_8_export_fidelity(tmp_path):
    """top_edges returns exactly 372 edges at 1% of a 273-node graph; star
    hubs rank first; matrix exports round-trip within 1e-12."""
    with criterion(8, "export fidelity"):
        rng = np.random.default_rng(99)
        big = rng.normal(size=(273, 273))
        big = (big + big.T) / 2
        edges = top_edges(big, 0.01)
        assert len(edges) == 372
        mags = [abs(w) for _, _, w in edges]
        assert mags == sorted(mags, reverse=True)

        n = 12
        star = np.eye(n)
        star[0, 1:] = 1.0
        star[1:, 0] = 1.0
        ranked = node_importance(star)
        assert ranked[0][0] == 0 and ranked[0][1] == float(n - 1)

        path = tmp_path / "conn.csv"
        export_connectome(big, path, fmt="matrix")
        back = load_connectome(path)
        assert np.abs(back - big).max() < 1e-12
