import json

import numpy as np
import pytest

from alma.errors import InvalidPartitionError
from alma.model import (
    MmlsbmInstance,
    assemble_ground_truth,
    build_membership_matrix,
    instance_from_json,
    instance_to_json,
    load_instance,
    planted_connectivity,
    save_instance,
)
from alma.tensors import frobenius_norm, mode1_product
from conftest import make_truth


def test_membership_matrix_counts_classes():
    theta = build_membership_matrix(np.array([0, 2, 1, 0, 2]), 3)
    assert theta.shape == (5, 3)
    assert (theta.sum(axis=1) == 1).all()
    assert np.allclose(theta.T @ theta, np.diag([2.0, 1.0, 2.0]))


def test_membership_matrix_rejects_out_of_range():
    with pytest.raises(InvalidPartitionError):
        build_membership_matrix(np.array([0, 3]), 3)


def test_planted_connectivity_shape():
    b = planted_connectivity(3, 0.8, 0.5)
    assert np.allclose(np.diag(b), 0.8)
    off = b[~np.eye(3, dtype=bool)]
    assert np.allclose(off, 0.4)


def test_single_block_probability_slices():
    inst = MmlsbmInstance(
        n=4,
        L=3,
        M=1,
        K=(1,),
        layer_labels=np.zeros(3, dtype=int),
        memberships=(np.zeros(4, dtype=int),),
        B=(np.array([[0.6]]),),
        p_max=0.6,
    )
    gt = assemble_ground_truth(inst)
    expected = 0.6 * (np.ones((4, 4)) - np.eye(4))
    for l in range(3):
        assert np.allclose(gt.p_star.slice(l), expected)


def test_ground_truth_shapes_and_scaling():
    inst, gt = make_truth(0, n=20, L=9, m=2, k=2)
    assert gt.p_star.dims == (9, 20, 20)
    assert gt.q_star.dims == (2, 20, 20)
    assert gt.w_star.shape == (9, 2)
    # W columns: indicator / sqrt(group size), so W'W = I
    assert np.allclose(gt.w_star.T @ gt.w_star, np.eye(2), atol=1e-12)
    sizes = np.bincount(inst.layer_labels, minlength=2)
    for m in range(2):
        theta = build_membership_matrix(inst.memberships[m], inst.K[m])
        dense = theta @ inst.B[m] @ theta.T
        np.fill_diagonal(dense, 0.0)
        assert np.allclose(gt.q_star.slice(m), np.sqrt(sizes[m]) * dense)
        full = theta @ inst.B[m] @ theta.T
        assert np.allclose(gt.q_star_full.slice(m), np.sqrt(sizes[m]) * full)


def test_ground_truth_factorization_is_exact():
    _, gt = make_truth(1, n=15, L=8, m=2, k=3, p_max=0.9, alpha=0.4)
    rebuilt = mode1_product(gt.q_star, gt.w_star)
    assert frobenius_norm(gt.p_star.array - rebuilt.array) < 1e-12


def test_zero_diagonal_everywhere():
    _, gt = make_truth(2)
    for l in range(gt.p_star.dims[0]):
        assert np.allclose(np.diag(gt.p_star.slice(l)), 0.0)
    for m in range(gt.q_star.dims[0]):
        assert np.allclose(np.diag(gt.q_star.slice(m)), 0.0)


def test_group_sizes():
    inst, _ = make_truth(3, n=25, L=10, m=3, k=2)
    assert np.array_equal(inst.group_sizes, np.bincount(inst.layer_labels, minlength=3))


def test_instance_validation_rejects_empty_group():
    with pytest.raises(InvalidPartitionError):
        MmlsbmInstance(
            n=4,
            L=2,
            M=2,
            K=(1, 1),
            layer_labels=np.zeros(2, dtype=int),  # group 1 empty
            memberships=(np.zeros(4, dtype=int), np.zeros(4, dtype=int)),
            B=(np.array([[0.5]]), np.array([[0.5]])),
            p_max=0.5,
        )


def test_instance_validation_rejects_bad_connectivity():
    with pytest.raises(ValueError):
        MmlsbmInstance(
            n=4,
            L=2,
            M=1,
            K=(1,),
            layer_labels=np.zeros(2, dtype=int),
            memberships=(np.zeros(4, dtype=int),),
            B=(np.array([[0.9]]),),  # exceeds p_max
            p_max=0.5,
        )


def test_json_round_trip():
    inst, _ = make_truth(4, n=12, L=6, m=2, k=2)
    obj = instance_to_json(inst)
    parsed = json.loads(json.dumps(obj))
    assert parsed["n"] == 12 and parsed["L"] == 6
    back = instance_from_json(parsed)
    assert back.n == inst.n and back.K == inst.K
    assert np.array_equal(back.layer_labels, inst.layer_labels)
    for m in range(2):
        assert np.array_equal(back.memberships[m], inst.memberships[m])
        assert np.allclose(back.B[m], inst.B[m])


def test_save_load_instance(tmp_path):
    inst, _ = make_truth(5)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    back = load_instance(path)
    assert back.n == inst.n and back.L == inst.L
    assert np.array_equal(back.layer_labels, inst.layer_labels)
