import numpy as np
import pytest

from alma.errors import InvalidPartitionError
from alma.initialization import clustering_to_w, spectral_init
from alma.metrics import best_permutation_error
from alma.sampling import sample_adjacency, substream
from alma.tensors import Tensor3
from conftest import make_noisy, make_truth


def test_clustering_to_w_columns():
    labels = np.array([0, 1, 0, 0, 1])
    w = clustering_to_w(labels, 2)
    assert w.shape == (5, 2)
    assert np.allclose(w.T @ w, np.eye(2), atol=1e-12)
    assert w[0, 0] == pytest.approx(1.0 / np.sqrt(3.0))
    assert w[1, 1] == pytest.approx(1.0 / np.sqrt(2.0))
    assert w[0, 1] == 0.0


def test_clustering_to_w_requires_full_support():
    with pytest.raises(InvalidPartitionError):
        clustering_to_w(np.array([0, 0, 0]), 2)
    with pytest.raises(InvalidPartitionError):
        clustering_to_w(np.array([0, 2]), 2)
    with pytest.raises(InvalidPartitionError):
        clustering_to_w(np.array([]), 1)


def test_spectral_init_orthonormal_noisy():
    _, _, a = make_noisy(31, n=20, L=12, m=2, k=2)
    w = spectral_init(a, 2, substream(31, 2))
    assert w.shape == (12, 2)
    assert np.allclose(w.T @ w, np.eye(2), atol=1e-10)


def test_spectral_init_exact_on_noiseless_gram_branch():
    # n^2 > L: the Gram path
    inst, gt = make_truth(32, n=20, L=12, m=3, k=2, p_max=0.8)
    w = spectral_init(gt.p_star, 3, substream(32, 2))
    # the factor is a scaled indicator: one positive entry per row
    labels = np.array([int(np.abs(row).argmax()) for row in w])
    assert best_permutation_error(inst.layer_labels, labels, 3)[0] == 0.0


def test_spectral_init_exact_on_noiseless_input_with_more_layers_than_node_pairs():
    # L >= n^2: the Gram is larger than the unfolding is wide
    inst, gt = make_truth(0, n=3, L=10, m=2, k=2, p_max=0.9, alpha=0.2)
    w = spectral_init(gt.p_star, 2, substream(0, 2))
    labels = np.array([int(np.abs(row).argmax()) for row in w])
    assert best_permutation_error(inst.layer_labels, labels, 2)[0] == 0.0


@pytest.mark.parametrize("m", [1, 4, 5])
def test_spectral_init_takes_more_groups_than_node_pairs(m):
    # n^2 = 4 < m <= L: the unfolding has fewer columns than m, the Gram does not
    _, _, a = make_noisy(0, n=2, L=6, m=2, k=1, p_max=0.9, alpha=0.5)
    w = spectral_init(a, m, substream(0, 2))
    assert w.shape == (6, m)
    assert np.allclose(w.T @ w, np.eye(m), atol=1e-12)


def test_spectral_init_validates_args():
    _, _, a = make_noisy(34, n=10, L=6, m=2, k=2)
    with pytest.raises(ValueError):
        spectral_init(a, 0, substream(34, 2))
    with pytest.raises(ValueError):
        spectral_init(a, 7, substream(34, 2))
    bad = Tensor3(np.zeros((2, 3, 3)))
    ragged = bad.array[:, :, :2]
    with pytest.raises(ValueError):
        spectral_init(Tensor3(np.ascontiguousarray(ragged)), 1, substream(34, 2))


def test_spectral_init_deterministic():
    _, _, a = make_noisy(35, n=14, L=10, m=2, k=2)
    w1 = spectral_init(a, 2, substream(35, 2))
    w2 = spectral_init(a, 2, substream(35, 2))
    assert np.array_equal(w1, w2)
