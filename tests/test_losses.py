"""Objective-function oracles: cross entropy, group penalty, combination."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlcgcn import autodiff as ad
from mlcgcn.autodiff import Tensor
from mlcgcn.errors import ContractError
from mlcgcn.losses import BatchTargets, cross_entropy, group_loss, total_loss


def test_cross_entropy_perfect_prediction_is_zero():
    probs = Tensor(np.array([[0.0, 1.0, 0.0]]))
    targets = BatchTargets.from_labels([1], 3)
    assert cross_entropy(probs, targets).item() == pytest.approx(0.0, abs=1e-12)


def test_cross_entropy_uniform_four_classes_is_ln4():
    probs = Tensor(np.full((2, 4), 0.25))
    targets = BatchTargets.from_labels([0, 3], 4)
    assert cross_entropy(probs, targets).item() == pytest.approx(np.log(4.0), abs=1e-12)


def test_cross_entropy_mixed_target_hand_case():
    probs = Tensor(np.array([[0.5, 0.5]]))
    targets = BatchTargets(np.array([[0.5, 0.5]]))
    assert cross_entropy(probs, targets).item() == pytest.approx(np.log(2.0), abs=1e-12)


def test_cross_entropy_empty_batch_rejected():
    with pytest.raises(ContractError):
        cross_entropy(Tensor(np.zeros((0, 3))), BatchTargets(np.zeros((0, 3))))


def test_cross_entropy_gradient():
    rng = np.random.default_rng(0)
    targets = BatchTargets.from_labels([0, 2, 1], 3)
    logits = Tensor(rng.normal(size=(3, 3)), requires_grad=True)

    def f(p):
        return cross_entropy(ad.softmax_rows(p), targets)

    assert ad.finite_diff_check(f, logits, eps=1e-5) < 1e-5


def test_cross_entropy_decreases_toward_target():
    targets = BatchTargets.from_labels([0], 2)
    losses = [
        cross_entropy(Tensor(np.array([[p, 1.0 - p]])), targets).item()
        for p in (0.2, 0.5, 0.8, 0.99)
    ]
    assert losses == sorted(losses, reverse=True)


@given(st.lists(st.integers(0, 2), min_size=1, max_size=8))
@settings(max_examples=25)
def test_mixed_target_rows_sum_to_one(labels):
    targets = BatchTargets.from_labels(labels, 3)
    np.testing.assert_allclose(targets.probs.sum(axis=1), 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# group loss


def _graphs(*mats):
    return [[Tensor(np.asarray(m, dtype=np.float64))] for m in mats]


def test_group_loss_identical_graphs_is_zero():
    a = np.arange(4.0).reshape(2, 2)
    loss = group_loss(_graphs(a, a, a), [0, 0, 0], levels=1)
    assert loss.item() == 0.0


def test_group_loss_single_sample_per_class_is_zero():
    a, b = np.eye(2), np.ones((2, 2))
    loss = group_loss(_graphs(a, b), [0, 1], levels=1)
    assert loss.item() == 0.0


def test_group_loss_hand_frobenius_case():
    a1 = np.zeros((3, 3))
    a2 = np.zeros((3, 3))
    a2[0, 1] = a2[1, 0] = 1.0  # one symmetric entry pair
    loss = group_loss(_graphs(a1, a2), [0, 0], levels=1)
    assert loss.item() == 0.5


def test_group_loss_empty_batch_rejected():
    with pytest.raises(ContractError):
        group_loss([], [], levels=1)


def test_group_loss_gradient_flows_to_graphs():
    rng = np.random.default_rng(1)
    g = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    other = Tensor(rng.normal(size=(3, 3)))

    def f(p):
        return group_loss([[p], [other]], [0, 0], levels=1)

    assert ad.finite_diff_check(f, g, eps=1e-5) < 1e-5


@given(st.integers(0, 2**31 - 1), st.integers(2, 6))
@settings(max_examples=25, deadline=None)
def test_group_loss_nonnegative(seed, batch):
    rng = np.random.default_rng(seed)
    graphs = [[Tensor(rng.normal(size=(3, 3))), Tensor(rng.normal(size=(3, 3)))] for _ in range(batch)]
    labels = rng.integers(0, 2, size=batch)
    assert group_loss(graphs, labels, levels=2).item() >= 0.0


def test_group_loss_per_level_stacks_match_per_sample_lists():
    rng = np.random.default_rng(2)
    data = rng.normal(size=(5, 2, 3, 3))  # [samples, levels, n, n]
    labels = [0, 1, 0, 0, 1]

    def value_and_grads(per_level):
        leaves = [[Tensor(d, requires_grad=True) for d in sample] for sample in data]
        with ad.recording():
            graphs = leaves
            if per_level:
                graphs = [ad.stack_rows([sample[k] for sample in leaves]) for k in range(2)]
            loss = group_loss(graphs, labels, levels=2)
            ad.backward(loss)
        return loss.item(), [leaf.grad for sample in leaves for leaf in sample]

    (v_stack, g_stack), (v_list, g_list) = value_and_grads(True), value_and_grads(False)
    assert v_stack == pytest.approx(v_list, rel=1e-12, abs=0)
    for a, b in zip(g_stack, g_list):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("levels", [1, 3])
def test_group_loss_records_at_most_three_per_level(levels):
    stacks = [Tensor(np.ones((4, 3, 3)) * k, requires_grad=True) for k in range(levels)]
    with ad.recording() as tape:
        group_loss(stacks, [0, 1, 0, 1], levels)
    assert len(tape.records) <= 3 * levels


def test_group_loss_gradient_is_the_closed_form():
    rng = np.random.default_rng(4)
    labels = np.array([0, 1, 0, 2, 1, 0])  # class 2 has one member
    a = Tensor(rng.normal(size=(6, 3, 3)), requires_grad=True)
    with ad.recording():
        ad.backward(group_loss([a], labels, levels=1))
    expected = np.empty_like(a.data)
    for u, label in enumerate(labels):
        members = labels == label
        expected[u] = 2.0 / members.sum() * (a.data[u] - a.data[members].mean(axis=0))
    np.testing.assert_allclose(a.grad, expected, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(a.grad[3], np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# total loss


def test_total_loss_alpha_zero_is_cross_entropy():
    assert total_loss(Tensor(0.7), Tensor(9.9), alpha=0.0).item() == 0.7


def test_total_loss_addition():
    assert total_loss(Tensor(0.7), Tensor(0.3), alpha=1.0).item() == pytest.approx(1.0)


def test_total_loss_scaling():
    assert total_loss(Tensor(1.0), Tensor(0.25), alpha=2.0).item() == pytest.approx(1.5)


def test_total_loss_negative_alpha_rejected():
    with pytest.raises(ContractError):
        total_loss(Tensor(1.0), Tensor(1.0), alpha=-0.1)
