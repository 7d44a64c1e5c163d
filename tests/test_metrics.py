import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from alma.errors import InvalidPartitionError
from alma.metrics import (
    avg_within_error,
    best_permutation_error,
    confusion_matrix,
    max_weight_assignment,
    score_result,
    within_layer_error,
)
from alma.clustering import cluster_factor_pair
from alma.sampling import substream
from conftest import make_truth


def test_confusion_matrix_counts():
    truth = np.array([0, 0, 1, 1, 2])
    est = np.array([1, 1, 0, 1, 2])
    counts = confusion_matrix(truth, est, 3)
    expected = np.array([[0, 2, 0], [1, 1, 0], [0, 0, 1]])
    assert np.array_equal(counts, expected)


def test_confusion_matrix_validation():
    with pytest.raises(InvalidPartitionError):
        confusion_matrix([0, 1], [0], 2)
    with pytest.raises(InvalidPartitionError):
        confusion_matrix([0, 2], [0, 1], 2)
    with pytest.raises(InvalidPartitionError):
        confusion_matrix([], [], 2)


def test_identity_labels_zero_error():
    labels = np.array([0, 1, 2, 0, 1, 2])
    rate, perm = best_permutation_error(labels, labels, 3)
    assert rate == 0.0
    assert perm == (0, 1, 2)


def test_relabeled_partition_zero_error():
    truth = np.array([0, 0, 1, 1, 2, 2])
    est = np.array([2, 2, 0, 0, 1, 1])
    rate, perm = best_permutation_error(truth, est, 3)
    assert rate == 0.0
    assert perm == (2, 0, 1)


def test_constant_estimate_rate():
    # 13 of each of three true groups, all predicted 0: best match keeps 13
    truth = np.repeat([0, 1, 2], 13)
    est = np.zeros(39, dtype=int)
    rate, _ = best_permutation_error(truth, est, 3)
    assert rate == pytest.approx(2.0 / 3.0)


def test_exhaustive_agrees_with_assignment():
    rng = np.random.default_rng(17)
    for _ in range(50):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(k, 40))
        truth = rng.integers(0, k, size=n)
        est = rng.integers(0, k, size=n)
        counts = confusion_matrix(truth, est, k)
        from alma.metrics import _align_assignment, _align_exhaustive

        _, hits_ex = _align_exhaustive(counts)
        _, hits_lp = _align_assignment(counts)
        assert hits_ex == hits_lp


@pytest.mark.parametrize("k", range(1, 11))
def test_assignment_matches_scipy_on_random_scores(k):
    rng = np.random.default_rng(100 + k)
    for _ in range(50):
        scores = rng.standard_normal((k, k))
        _, cols = linear_sum_assignment(scores, maximize=True)
        assert max_weight_assignment(scores) == cols.tolist()


@pytest.mark.parametrize("k", range(1, 11))
def test_assignment_reaches_scipys_total_on_tied_integer_scores(k):
    rng = np.random.default_rng(200 + k)
    for _ in range(50):
        scores = rng.integers(0, 3, size=(k, k))
        rows, cols = linear_sum_assignment(scores, maximize=True)
        perm = max_weight_assignment(scores)
        assert sorted(perm) == list(range(k))
        assert scores[np.arange(k), perm].sum() == scores[rows, cols].sum()


def test_assignment_tie_rule_and_input_checks():
    assert max_weight_assignment(np.ones((4, 4))) == [0, 1, 2, 3]
    assert max_weight_assignment(np.zeros((0, 0))) == []
    assert max_weight_assignment([[1.0, 5.0], [5.0, 1.0]]) == [1, 0]
    with pytest.raises(ValueError, match="square"):
        max_weight_assignment(np.ones((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        max_weight_assignment([[0.0, np.nan], [1.0, 0.0]])


@pytest.mark.parametrize("module", ["alma", "alma.cli"])
def test_importing_alma_does_not_load_scipy_optimize(module):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=10_000),
)
def test_rate_invariant_to_relabeling(k, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(k, 30))
    truth = rng.integers(0, k, size=n)
    est = rng.integers(0, k, size=n)
    base, _ = best_permutation_error(truth, est, k)
    perm = rng.permutation(k)
    shuffled, _ = best_permutation_error(truth, perm[est], k)
    assert shuffled == pytest.approx(base)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_rate_range(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 5))
    n = int(rng.integers(k, 25))
    truth = rng.integers(0, k, size=n)
    est = rng.integers(0, k, size=n)
    rate, _ = best_permutation_error(truth, est, k)
    assert 0.0 <= rate <= 1.0 - 1.0 / k + 1e-12


def test_layer_and_node_wrappers():
    truth = np.array([0, 1, 0, 1])
    assert within_layer_error(truth, truth, 2) == 0.0
    assert within_layer_error(truth, 1 - truth, 2) == 0.0
    assert within_layer_error(np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]), 2) == 0.5


def test_avg_within_error():
    assert avg_within_error([0.0, 0.1]) == pytest.approx(0.05)
    assert avg_within_error((0.2,)) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        avg_within_error([])


def test_score_result_zero_on_truth():
    inst, gt = make_truth(21, n=20, L=14, m=2, k=3, p_max=0.8, alpha=0.5)
    res = cluster_factor_pair(gt.p_star, gt.w_star, inst.K, substream(21, 9))
    report = score_result(inst, res)
    assert report.r_bl == 0.0
    assert report.r_wl == 0.0
    assert report.r_wl_per_group == (0.0, 0.0)
    assert sorted(report.group_perm) == [0, 1]
