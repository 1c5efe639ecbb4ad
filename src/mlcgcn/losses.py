"""Composite training objective: cross entropy plus an intra-class graph penalty."""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import LOG_FLOOR, Tensor
from .errors import ContractError


@dataclass
class BatchTargets:
    """Per-sample target distributions [N x c]; one-hot rows or mixed rows."""

    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.ndim != 2:
            raise ContractError(f"targets must be [N x c], got shape {self.probs.shape}")

    @classmethod
    def from_labels(cls, labels, classes):
        labels = np.asarray(labels, dtype=int)
        onehot = np.zeros((len(labels), classes))
        onehot[np.arange(len(labels)), labels] = 1.0
        return cls(onehot)

    @property
    def dominant(self):
        """Hard class per row: the largest-weight class (ties to the lowest index)."""
        return self.probs.argmax(axis=1)


def cross_entropy(probs, targets: BatchTargets):
    """Mean soft-target cross entropy of predicted probabilities [N x c].

    Logs are clamped at 1e-12; with one-hot rows this is the standard
    multi-class cross entropy.
    """
    n = probs.data.shape[0]
    if n == 0:
        raise ContractError("cross_entropy on an empty batch")
    if probs.data.shape != targets.probs.shape:
        raise ContractError(
            f"probs shape {probs.data.shape} does not match targets {targets.probs.shape}"
        )
    logp = ad.log(ad.clamp(probs, LOG_FLOOR, np.inf))
    weighted = ad.mul(logp, Tensor(targets.probs))
    return ad.mul(ad.sum_all(weighted), Tensor(-1.0 / n))


def group_loss(adjacencies, labels, levels):
    """Mean squared Frobenius distance of each sample's generated graphs from
    its class's within-batch mean, averaged over levels.

    `adjacencies` is either a list (per level) of [B x n x n] stacks, as a
    batched `predict` returns them, or a list (per sample) of lists (per
    level) of [n x n] tensors, stacked per level first. One `ad.class_spread`
    record per level; a class with one member adds zero. Always >= 0; zero iff
    every graph equals its class mean, up to rounding (~1e-31 for identical graphs).
    """
    if levels < 1:
        raise ContractError(f"levels must be >= 1, got {levels}")
    if len(adjacencies) == 0:
        raise ContractError("group_loss on an empty batch")
    if not isinstance(adjacencies[0], Tensor):
        adjacencies = [ad.stack_rows([sample[k] for sample in adjacencies]) for k in range(levels)]
    labels = np.asarray(labels, dtype=int)
    batch = adjacencies[0].data.shape[0]
    if len(labels) != batch:
        raise ContractError("one label per sample required")

    # Row u of `mean_of` averages the graphs of sample u's class; a lone
    # sample's row picks out its own graph, so its difference is exactly 0.
    same = labels[:, None] == labels[None, :]
    size = same.sum(axis=1)
    mean_of, weight = same / size[:, None], (1.0 / size)[:, None]

    total = None
    for level in range(levels):
        term = ad.class_spread(adjacencies[level], mean_of, weight)
        total = term if total is None else ad.add(total, term)
    return ad.mul(total, Tensor(1.0 / levels))


def total_loss(ce, group, alpha=1.0):
    """Weighted objective: cross entropy + alpha * group penalty."""
    if alpha < 0:
        raise ContractError(f"alpha must be >= 0, got {alpha}")
    if alpha == 0:
        return ce
    return ad.add(ce, ad.mul(group, Tensor(alpha)))
