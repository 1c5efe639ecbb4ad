"""Optimization loop: AdamW, mixup augmentation, cross-validated experiments,
the ablation harness, and the finite-difference gradient check.

`fit_fold` is the one fold body: cross-validation and every ablation row
train through it. Each fold owns a private model, optimizer, and RNG streams
derived from (seed, fold index), so runs are bit-reproducible end to end.
"""

import logging
import time
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import GraphStats
from .errors import ConfigError, DataError, TrainingError, ZeroNormRowsWarning
from .losses import BatchTargets, cross_entropy, group_loss, total_loss
from .metrics import METRIC_LABELS, FoldReport, compute_metrics, stratified_kfold
from .model import DATA_FIELDS, MLCGCN, ModelConfig
from .seeding import derive_rng, derive_seed

log = logging.getLogger("mlcgcn")

# Scans per tape-free forward over a dataset. `mlcgcn eval` keeps only the
# [N x c] probabilities, and `mlcgcn export` and the ablation diagnostic a
# GraphStats, so their memory is bounded by one slice.
EVAL_BATCH = 16

# AdamW moment decay rates and denominator floor (the usual Adam defaults).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    weight_decay: float = 0.001
    epochs: int = 300
    batch_size: int = 16
    mixup_alpha: float = 0.2
    alpha: float = 1.0
    seed: int = 0
    folds: int = 5

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.folds < 2:
            raise ConfigError(f"folds must be >= 2, got {self.folds}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.alpha < 0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")
        if self.weight_decay < 0 or self.mixup_alpha < 0:
            raise ConfigError("weight_decay and mixup_alpha must be >= 0")


@dataclass
class OptimizerState:
    """Decoupled-weight-decay Adam moments as two flat vectors: every
    parameter block's entries in turn, in the order of the params mapping."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_params(cls, params):
        size = sum(p.data.size for p in params.values())
        return cls(np.zeros(size), np.zeros(size))


def adamw_step(params, state: OptimizerState, cfg: TrainConfig):
    """One optimizer step over all parameters, reading grads from `.grad`.

    Moments use bias correction; weight decay is decoupled from the adaptive
    update. The blocks' values and grads (zeros for a None grad) are gathered
    into two flat vectors and stepped in one pass, with the moments; each
    block is then rebound as a view of the new value vector. A step refused
    for a non-finite gradient or new value changes no block, moment or step
    count, and names the first bad block.
    """
    blocks = list(params.items())
    sizes = [p.data.size for _, p in blocks]
    ends = np.cumsum(sizes)
    step = state.step + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1 ** step
    bc2 = 1.0 - b2 ** step
    g = np.concatenate([np.zeros(size) if p.grad is None else p.grad.ravel()
                        for (_, p), size in zip(blocks, sizes)])
    value = np.concatenate([p.data.ravel() for _, p in blocks])
    with np.errstate(all="ignore"):  # non-finite values are what the check below looks for
        m = np.multiply(state.m, b1)
        v = np.multiply(state.v, b2)
        update = np.multiply(g, 1 - b2)  # scratch until the update itself
        update *= g
        v += update
        g *= 1 - b1
        m += g
        np.divide(m, bc1, out=update)
        update *= cfg.learning_rate
        np.divide(v, bc2, out=g)
        np.sqrt(g, out=g)
        g += ADAM_EPS
        update /= g
        update += np.multiply(value, cfg.learning_rate * cfg.weight_decay, out=g)
        value -= update
    bad = ~np.isfinite(value)  # as it always is for a non-finite gradient
    if bad.any():
        name = blocks[np.searchsorted(ends, bad.argmax(), side="right")][0]
        raise TrainingError(f"step aborted: non-finite gradient or update in {name!r}")
    state.m, state.v, state.step = m, v, step
    for (_, p), size, end in zip(blocks, sizes, ends):
        p.data = value[end - size:end].reshape(p.data.shape)


def mixup_batch(series_batch, targets: BatchTargets, mixup_alpha, rng):
    """Convex-combine the batch with a permuted copy of itself.

    One Beta(mixup_alpha, mixup_alpha) coefficient per batch mixes both the
    time series and the target rows; single-sample batches (or alpha 0) pass
    through untouched. The series come back as one [B x n x L] array.
    """
    series = np.asarray(series_batch)
    n = len(series)
    if n < 2 or mixup_alpha <= 0:
        return series, targets, 1.0
    lam = float(rng.beta(mixup_alpha, mixup_alpha))
    perm = rng.permutation(n)
    mixed_series = lam * series + (1.0 - lam) * series[perm]
    mixed_targets = BatchTargets(lam * targets.probs + (1.0 - lam) * targets.probs[perm])
    return mixed_series, mixed_targets, lam


def class_balanced_batches(labels, batch_size, rng):
    """Batch index lists that interleave classes round-robin after a shuffle."""
    labels = np.asarray(labels, dtype=int)
    queues = []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        queues.append(list(idx))
    order = []
    while any(queues):
        for q in queues:
            if q:
                order.append(q.pop())
    return [order[i : i + batch_size] for i in range(0, len(order), batch_size)]


def batch_loss(model: MLCGCN, series, targets: BatchTargets, alpha, rng=None):
    """Composite objective of one batch; returns (ce, group, total) tensors.

    One forward over the stacked scans [B x n x L], with dropout on iff `rng`
    is given, gives the probability rows for the cross entropy and the
    per-level graph stacks for alpha times the group penalty. The group term
    is skipped entirely when alpha is 0 (reported as 0).
    """
    probs, levels = model.predict(np.asarray(series), rng=rng)
    ce = cross_entropy(probs, targets)
    if alpha > 0:
        grp = group_loss(levels.adjacencies, targets.dominant, model.config.levels)
    else:
        grp = Tensor(0.0)
    return ce, grp, total_loss(ce, grp, alpha)


def train_epoch(model: MLCGCN, samples, cfg: TrainConfig, opt: OptimizerState,
                rng_batches, rng_mixup, rng_dropout, epoch):
    """One pass over the data; returns mean CE / group / total loss.

    Per batch: mixup, the batch objective with dropout on, backward, AdamW
    step. A non-finite loss aborts the epoch naming the batch.
    """
    labels = [s.label for s in samples]
    batches = class_balanced_batches(labels, cfg.batch_size, rng_batches)
    classes = model.config.classes
    sums = np.zeros(3)
    count = 0
    for batch_no, batch in enumerate(batches):
        series = [samples[i].series for i in batch]
        targets = BatchTargets.from_labels([samples[i].label for i in batch], classes)
        series, targets, _lam = mixup_batch(series, targets, cfg.mixup_alpha, rng_mixup)
        with ad.recording():
            ce, grp, loss = batch_loss(model, series, targets, cfg.alpha, rng=rng_dropout)
            if not np.isfinite(loss.data):
                raise TrainingError(f"epoch {epoch} aborted: non-finite loss in batch {batch_no}")
            ad.zero_grads(model.params)
            ad.backward(loss)
        adamw_step(model.params, opt, cfg)
        sums += (float(ce.data), float(grp.data), float(loss.data))
        count += 1
    means = sums / max(count, 1)
    return {"ce": means[0], "group": means[1], "total": means[2]}


def forward_slices(model: MLCGCN, samples):
    """Tape-free batched forward, EVAL_BATCH scans at a time: a generator of
    (slice, `predict` result) pairs, every tensor with a leading B axis. An
    empty sample list raises DataError on the call itself, not on first use."""
    if not samples:
        raise DataError("the dataset lists no scans to run the model on")
    slices = (samples[lo : lo + EVAL_BATCH] for lo in range(0, len(samples), EVAL_BATCH))
    return ((part, model.predict(np.stack([s.series for s in part]))) for part in slices)


def evaluate_model(model: MLCGCN, samples):
    """Inference probabilities [N x c] and truth labels for a sample list."""
    probs = np.concatenate([p.data for _, (p, _) in forward_slices(model, samples)])
    truth = np.array([s.label for s in samples], dtype=int)
    return probs, truth


def graph_stats(model: MLCGCN, samples, pick=lambda levels: levels.adjacencies):
    """A GraphStats of the stacks `pick` selects from each slice's LevelOutputs
    (by default the K generated graphs), fed with the slice's labels."""
    stats = GraphStats()
    for part, (_, levels) in forward_slices(model, samples):
        stats.add([t.data for t in pick(levels)], [s.label for s in part])
    return stats


@dataclass
class FoldResult:
    report: "FoldReport"
    models: list
    histories: list


def cv_splits(samples, train_cfg: TrainConfig):
    """A run's (train, test) index splits: stratified k-fold over the labels,
    shuffled by the seed's "folds" stream."""
    labels = [s.label for s in samples]
    return stratified_kfold(labels, train_cfg.folds, derive_seed(train_cfg.seed, "folds"))


def fit_fold(samples, split, model_cfg: ModelConfig, train_cfg: TrainConfig, fold):
    """Train a fresh model, seeded by (seed, fold), on the split's training
    scans for the full epoch budget; returns (model, history, report), the
    report holding the final-epoch metrics on the split's test scans."""
    train_idx, test_idx = split
    if np.intersect1d(train_idx, test_idx).size:
        raise TrainingError(f"fold {fold}: train/test overlap")
    train_samples = [samples[i] for i in train_idx]
    test_samples = [samples[i] for i in test_idx]
    model = MLCGCN(model_cfg, rng=derive_rng(train_cfg.seed, "init", fold))
    opt = OptimizerState.for_params(model.params)
    rngs = [derive_rng(train_cfg.seed, stream, fold) for stream in ("batches", "mixup", "dropout")]
    history = []
    for epoch in range(1, train_cfg.epochs + 1):
        t0 = time.perf_counter()
        stats = train_epoch(model, train_samples, train_cfg, opt, *rngs, epoch)
        stats["sec"] = time.perf_counter() - t0
        history.append(stats)
        log.info(
            "fold=%d epoch=%d ce=%.6f group=%.6f total=%.6f sec=%.2f",
            fold, epoch, stats["ce"], stats["group"], stats["total"], stats["sec"],
        )
    probs, truth = evaluate_model(model, test_samples)
    return model, history, compute_metrics(probs, truth)


def run_cv(samples, model_cfg: ModelConfig, train_cfg: TrainConfig) -> FoldResult:
    """Stratified cross-validation: `fit_fold` over each of `cv_splits`."""
    folds = [fit_fold(samples, split, model_cfg, train_cfg, fold)
             for fold, split in enumerate(cv_splits(samples, train_cfg))]
    models, histories, reports = (list(column) for column in zip(*folds))
    return FoldResult(FoldReport(reports), models, histories)


@dataclass
class AblationRow:
    name: str
    report: FoldReport
    group_dissimilarity: float


TABLE_VARIANTS = [
    ("sfe+group", {"model.use_tfe": False}),
    ("tfe+group", {"model.use_sfe": False}),
    ("sfe+tfe", {"train.alpha": 0.0}),
    ("sfe", {"model.use_tfe": False, "train.alpha": 0.0}),
    ("tfe", {"model.use_sfe": False, "train.alpha": 0.0}),
    ("full", {}),
]


def _apply_deltas(model_cfg, train_cfg, deltas):
    configs = {"model": model_cfg, "train": train_cfg}
    changes = {"model": {}, "train": {}}
    for key, value in deltas.items():
        scope, _, name = key.partition(".")
        if scope not in configs or name not in {f.name for f in fields(configs[scope])}:
            raise ConfigError(f"unknown variant key {key!r}")
        if scope == "model" and name in DATA_FIELDS:
            raise ConfigError(f"key {key!r} is set by the dataset's manifest")
        changes[scope][name] = value
    return replace(model_cfg, **changes["model"]), replace(train_cfg, **changes["train"])


def run_ablation(samples, model_cfg: ModelConfig, train_cfg: TrainConfig, variants=TABLE_VARIANTS):
    """Run a list of (name, config-delta) variants fold by fold.

    Every variant's configs and splits are built before any fold trains, so
    an invalid variant raises ConfigError naming it and nothing runs. Each
    row yields a FoldReport plus the post-training intra-group dissimilarity
    averaged over folds (measured on each fold's training split, whether or
    not the group term was optimized).
    """
    plans = []
    for name, deltas in variants:
        try:
            m_cfg, t_cfg = _apply_deltas(model_cfg, train_cfg, deltas)
            plans.append((name, m_cfg, t_cfg, cv_splits(samples, t_cfg)))
        except ConfigError as exc:
            raise ConfigError(f"variant {name}: {exc}") from exc
    rows = []
    for name, m_cfg, t_cfg, splits in plans:
        reports, dissims = [], []
        for fold, split in enumerate(splits):
            model, _, report = fit_fold(samples, split, m_cfg, t_cfg, fold)
            reports.append(report)
            dissims.append(graph_stats(model, [samples[i] for i in split[0]]).dissimilarity())
        rows.append(AblationRow(name, FoldReport(reports), float(np.mean(dissims))))
    return rows


def ablation_table(rows) -> str:
    """Comparison table: one CSV line per variant, metrics as mean +/- std."""
    lines = [",".join(["variant", *METRIC_LABELS, "group_dissimilarity"])]
    for row in rows:
        cells = row.report.mean_std_cells()
        lines.append(",".join([row.name, *cells, f"{row.group_dissimilarity:.6f}"]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# gradient check


def gradcheck_config(n_rois=6, series_len=20, levels=2):
    """The tiny model the finite-difference gradient check runs on."""
    return ModelConfig(
        series_len=series_len,
        classes=3,
        n_rois=n_rois,
        embed_len=min(8, series_len),
        conv_kernels=4,
        kernel_size=5,
        hidden_size=8,
        levels=levels,
        attention_heads=2,
        gcn_hidden=8,
        readout_dim=8,
        dropout_rate=0.2,
    )


def run_gradcheck(cfg: ModelConfig, tolerance, seed=0, zero_rows=None):
    """Finite-difference check of every parameter block; returns result rows.

    The objective is the batch loss with alpha 1, dropout and mixup off, over
    a deterministic batch of two random scans per class; the central
    differences step by 1e-6. A dict `zero_rows` receives, per block, how many
    zero-norm feature rows its forward passes met (their edges jump off zero).
    """
    base = MLCGCN(cfg, rng=derive_rng(seed, "gradcheck-init")).params
    rng = derive_rng(seed, "gradcheck-data")
    labels = np.repeat(np.arange(cfg.classes), 2)
    series = [rng.normal(size=(cfg.n_rois, cfg.series_len)) for _ in labels]
    targets = BatchTargets.from_labels(labels, cfg.classes)

    results = []
    for name, tensor in sorted(base.items()):
        def block_loss(p, _name=name):
            return batch_loss(MLCGCN(cfg, params={**base, _name: p}), series, targets, 1.0)[2]

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ZeroNormRowsWarning)
            err = ad.finite_diff_check(block_loss, tensor, eps=1e-6)
        for w in caught:
            if w.category is not ZeroNormRowsWarning:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        if zero_rows is not None:
            zero_rows[name] = sum(
                w.message.rows for w in caught if w.category is ZeroNormRowsWarning
            )
        results.append((name, err, err < tolerance))
    return results
