"""Optimization loop: AdamW, mixup augmentation, cross-validated experiments,
the ablation harness, and the finite-difference gradient check.

Every fold owns a private model, optimizer, and RNG streams derived from
(seed, fold index), so runs are bit-reproducible end to end.
"""

import logging
import time
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import GraphStats
from .errors import ConfigError, DataError, TrainingError, ZeroNormRowsWarning
from .losses import BatchTargets, cross_entropy, group_loss, total_loss
from .metrics import METRIC_LABELS, FoldReport, compute_metrics, stratified_kfold
from .model import MLCGCN, ModelConfig
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
    """Per-parameter moment accumulators for decoupled-weight-decay Adam."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0

    @classmethod
    def for_params(cls, params):
        state = cls()
        for name, p in params.items():
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        return state


def adamw_step(params, state: OptimizerState, cfg: TrainConfig):
    """One optimizer step over all parameters, reading grads from `.grad`.

    Moments use bias correction; weight decay is decoupled from the adaptive
    update. A step refused for a non-finite gradient or new value changes no
    block, moment or step count, and names the first bad block.
    """
    step = state.step + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1 ** step
    bc2 = 1.0 - b2 ** step

    def stepped(name, p):  # the block's new first and second moments and value
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m = b1 * state.m[name] + (1 - b1) * g
        v = b2 * state.v[name] + (1 - b2) * g * g
        update = cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        update += cfg.learning_rate * cfg.weight_decay * p.data
        return m, v, p.data - update

    held = {}  # the checked values of small blocks; large ones are stepped again, not held
    with np.errstate(all="ignore"):  # non-finite values are what this pass looks for
        for name, p in params.items():
            new = stepped(name, p)
            if not np.isfinite(new[2]).all():  # as it always is for a non-finite gradient
                raise TrainingError(f"step aborted: non-finite gradient or update in {name!r}")
            if p.data.size < 4096:
                held[name] = new
    state.step = step
    for name, p in params.items():
        state.m[name], state.v[name], p.data = held.get(name) or stepped(name, p)


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
    splits: list


def run_cv(samples, model_cfg: ModelConfig, train_cfg: TrainConfig) -> FoldResult:
    """Stratified cross-validation: fresh seeded model per fold, full epoch
    budget, final-epoch metrics on the held-out split."""
    labels = [s.label for s in samples]
    splits = stratified_kfold(labels, train_cfg.folds, derive_seed(train_cfg.seed, "folds"))
    reports = []
    models = []
    histories = []
    for fold, (train_idx, test_idx) in enumerate(splits):
        if np.intersect1d(train_idx, test_idx).size:
            raise TrainingError(f"fold {fold}: train/test overlap")  # pragma: no cover
        train_samples = [samples[i] for i in train_idx]
        test_samples = [samples[i] for i in test_idx]
        model = MLCGCN(model_cfg, rng=derive_rng(train_cfg.seed, "init", fold))
        opt = OptimizerState.for_params(model.params)
        rng_batches = derive_rng(train_cfg.seed, "batches", fold)
        rng_mixup = derive_rng(train_cfg.seed, "mixup", fold)
        rng_dropout = derive_rng(train_cfg.seed, "dropout", fold)
        history = []
        for epoch in range(1, train_cfg.epochs + 1):
            t0 = time.perf_counter()
            stats = train_epoch(
                model, train_samples, train_cfg, opt, rng_batches, rng_mixup, rng_dropout, epoch
            )
            stats["sec"] = time.perf_counter() - t0
            history.append(stats)
            log.info(
                "fold=%d epoch=%d ce=%.6f group=%.6f total=%.6f sec=%.2f",
                fold, epoch, stats["ce"], stats["group"], stats["total"], stats["sec"],
            )
        probs, truth = evaluate_model(model, test_samples)
        reports.append(compute_metrics(probs, truth))
        models.append(model)
        histories.append(history)
    return FoldResult(FoldReport(reports), models, histories, splits)


@dataclass
class AblationRow:
    name: str
    report: object  # FoldReport or None when the variant failed
    group_dissimilarity: float
    error: str = ""

    @property
    def failed(self):
        return self.report is None


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
        changes[scope][name] = value
    return replace(model_cfg, **changes["model"]), replace(train_cfg, **changes["train"])


def run_ablation(samples, model_cfg: ModelConfig, train_cfg: TrainConfig, variants=None):
    """Run a list of (name, config-delta) variants through run_cv.

    Each row yields a FoldReport plus the post-training intra-group
    dissimilarity averaged over folds (measured on each fold's training
    split, whether or not the group term was optimized). A variant with an
    invalid config is marked failed and the run continues.
    """
    if variants is None:
        variants = TABLE_VARIANTS
    rows = []
    for name, deltas in variants:
        try:
            m_cfg, t_cfg = _apply_deltas(model_cfg, train_cfg, deltas)
            result = run_cv(samples, m_cfg, t_cfg)
            dissim = float(np.mean([
                graph_stats(model, [samples[i] for i in split[0]]).dissimilarity()
                for model, split in zip(result.models, result.splits)
            ]))
            rows.append(AblationRow(name, result.report, dissim))
        except ConfigError as exc:
            log.warning("variant %s failed: %s", name, exc)
            rows.append(AblationRow(name, None, float("nan"), error=str(exc)))
    return rows


def ablation_table(rows) -> str:
    """Comparison table: one CSV line per variant, metrics as mean +/- std; a
    failed row's cause is one double-quoted cell, its own quotes doubled."""
    lines = [",".join(["variant", *METRIC_LABELS, "group_dissimilarity"])]
    for row in rows:
        if row.failed:
            cause = row.error.replace('"', '""')
            lines.append(f'{row.name},"failed: {cause}",,,,,')
            continue
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
