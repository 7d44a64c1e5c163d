import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alma import sampling
from alma.errors import RetryExhaustedError
from alma.sampling import (
    MAX_RETRIES,
    as_generator,
    read_edge_list,
    sample_adjacency,
    sample_dataset,
    sample_instance,
    substream,
    write_edge_list,
)
from alma.tensors import Tensor3
from conftest import make_noisy, make_truth


def test_substream_is_deterministic():
    a = substream(7, 1, 2).random(5)
    b = substream(7, 1, 2).random(5)
    assert np.array_equal(a, b)


def test_substream_paths_differ():
    a = substream(7, 1, 2).random(5)
    b = substream(7, 2, 1).random(5)
    c = substream(8, 1, 2).random(5)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_as_generator_passthrough_and_seed():
    g = np.random.default_rng(3)
    assert as_generator(g) is g
    assert np.array_equal(as_generator(3).random(4), substream(3).random(4))


def test_sample_instance_hits_every_class():
    inst, _ = make_truth(0, n=20, L=9, m=3, k=2)
    assert np.bincount(inst.layer_labels, minlength=3).min() > 0
    for g in inst.memberships:
        assert np.bincount(g, minlength=2).min() > 0


def test_sample_instance_rejects_impossible_shapes():
    with pytest.raises(ValueError):
        sample_instance(10, 1, 2, 2, 0.5, 0.5, substream(0))
    with pytest.raises(ValueError):
        sample_instance(2, 10, 1, 3, 0.5, 0.5, substream(0))


def test_retry_exhaustion_on_tiny_draws():
    # 60 layers over 60 groups, one layer per group: a draw hits every group
    # with probability 60!/60^60, so all MAX_RETRIES tries miss
    with pytest.raises(RetryExhaustedError, match=f"in {MAX_RETRIES} tries"):
        sample_instance(60, 60, 60, 1, 0.5, 0.5, substream(0))


def test_adjacency_is_symmetric_binary_hollow():
    _, _, a = make_noisy(2, n=15, L=6)
    arr = a.array
    assert set(np.unique(arr)) <= {0.0, 1.0}
    for l in range(6):
        sl = a.slice(l)
        assert np.array_equal(sl, sl.T)
        assert np.all(np.diag(sl) == 0.0)


def test_adjacency_matches_rate():
    inst, gt = make_truth(5, n=60, L=30, m=1, k=1, p_max=0.4, alpha=1.0)
    a = sample_adjacency(gt, substream(5, 1))
    off = ~np.eye(60, dtype=bool)
    rate = a.array[:, off].mean()
    assert abs(rate - 0.4) < 0.02


def test_sample_dataset_consistent():
    inst, gt, a = sample_dataset(12, 8, 2, 2, 0.6, 0.5, substream(9))
    assert gt.p_star.dims == (8, 12, 12)
    assert a.dims == (8, 12, 12)
    assert inst.L == 8


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=500))
def test_edge_list_round_trip(tmp_path_factory, seed):
    _, _, a = make_noisy(seed, n=10, L=4)
    path = tmp_path_factory.mktemp("edges") / "a.edges"
    write_edge_list(a, path)
    back = read_edge_list(path, layers=4, nodes=10)
    assert back == a


def test_edge_list_infers_dims(tmp_path):
    path = tmp_path / "a.edges"
    path.write_text("# comment\n\n0 0 1\n2 3 4\n")
    t = read_edge_list(path)
    assert t.dims == (3, 5, 5)
    assert t.array[0, 1, 0] == 1.0
    assert t.array[2, 4, 3] == 1.0
    assert t.array.sum() == 4.0


def test_edge_list_rejects_bad_lines(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("0 1\n")
    with pytest.raises(ValueError):
        read_edge_list(path)
    path.write_text("0 2 2\n")
    with pytest.raises(ValueError):
        read_edge_list(path)
    path.write_text("0 0 1\n")
    with pytest.raises(ValueError):
        read_edge_list(path, layers=1, nodes=1)


def test_edge_list_names_the_line_of_a_bad_token(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("0 1 2\n0 1 x\n")
    with pytest.raises(ValueError, match=r"^line 2: .*'0 1 x'"):
        read_edge_list(path)


def test_edge_list_rejects_non_binary(tmp_path):
    t = Tensor3(np.full((1, 3, 3), 0.5))
    with pytest.raises(ValueError):
        write_edge_list(t, tmp_path / "x.edges")


@pytest.mark.parametrize("block", [2, sampling._EDGES_PER_WRITE])
def test_edge_list_file_holds_each_edge_once_in_layer_order(tmp_path, monkeypatch, block):
    monkeypatch.setattr(sampling, "_EDGES_PER_WRITE", block)
    x = np.zeros((3, 3, 3))
    for l, i, j in ((0, 0, 1), (0, 1, 2), (2, 0, 2)):
        x[l, i, j] = x[l, j, i] = 1.0
    path = tmp_path / "x.edges"
    write_edge_list(Tensor3(x), path)
    assert path.read_text() == "0 0 1\n0 1 2\n2 0 2\n"
    write_edge_list(Tensor3(np.zeros((2, 3, 3))), path)
    assert path.read_text() == ""


@pytest.mark.parametrize("entries, message", [
    pytest.param([(1, 0), (2, 2)], "layer 1 has a self-loop", id="below-and-loop"),
    pytest.param([(1, 0)], "layer 1 has an edge stored one way only", id="below-only"),
    pytest.param([(0, 2)], "layer 1 has an edge stored one way only", id="above-only"),
    pytest.param([(2, 2)], "layer 1 has a self-loop", id="loop-only"),
])
def test_edge_list_rejects_a_slice_the_file_cannot_hold(tmp_path, entries, message):
    x = np.zeros((2, 3, 3))
    x[0, 0, 1] = x[0, 1, 0] = 1.0
    for i, j in entries:
        x[1, i, j] = 1.0
    path = tmp_path / "x.edges"
    with pytest.raises(ValueError, match=message):
        write_edge_list(Tensor3(x), path)
    assert not path.exists()


def test_empty_edge_list_needs_dims(tmp_path):
    path = tmp_path / "empty.edges"
    path.write_text("# nothing\n")
    with pytest.raises(ValueError):
        read_edge_list(path)
    t = read_edge_list(path, layers=2, nodes=3)
    assert t.dims == (2, 3, 3)
    assert t.array.sum() == 0.0


@pytest.mark.parametrize("body, message", [
    pytest.param("0 1 2\n\n0 1\n", r"^line 3: expected 'l i j', got '0 1'$", id="2-fields"),
    pytest.param("0 1 2\n0 1 2 3\n", r"^line 2: expected 'l i j', got '0 1 2 3'$",
                 id="4-fields"),
    pytest.param("# head\n0 1 2\n0 1.5 2\n",
                 r"^line 3: expected integers 'l i j', got '0 1.5 2'$", id="non-integer"),
    pytest.param("0 1 2\n0 -1 2\n", r"^line 2: bad edge \(0, -1, 2\)$", id="negative"),
    pytest.param("0 1 2\n1 3 3\n", r"^line 2: bad edge \(1, 3, 3\)$", id="self-loop"),
    pytest.param("0 1 2\n\n2 0 1\n", r"^line 3: edge \(2, 0, 1\) outside dims \(2, 4\)$",
                 id="layer-out-of-range"),
    pytest.param("0 1 2\n1 0 4\n", r"^line 2: edge \(1, 0, 4\) outside dims \(2, 4\)$",
                 id="node-out-of-range"),
])
def test_edge_list_errors_name_the_first_bad_line(tmp_path, body, message):
    path = tmp_path / "bad.edges"
    path.write_text(body)
    with pytest.raises(ValueError, match=message):
        read_edge_list(path, layers=2, nodes=4)


def test_edge_list_skips_blank_and_comment_lines_and_trailing_comments(tmp_path):
    path = tmp_path / "a.edges"
    path.write_text("# l i j\n\n   \n0 0 1  # first edge\n\t# indented\n1 2 0\n")
    t = read_edge_list(path, layers=2, nodes=3)
    expect = np.zeros((2, 3, 3))
    expect[0, 0, 1] = expect[0, 1, 0] = expect[1, 0, 2] = expect[1, 2, 0] = 1.0
    assert t == Tensor3(expect)


def test_only_a_failed_bulk_parse_reads_the_file_line_by_line(tmp_path, monkeypatch):
    rescans = []

    def spy(*args):
        rescans.append(args)
        return scan_edge_lines(*args)

    scan_edge_lines = sampling._scan_edge_lines
    monkeypatch.setattr(sampling, "_scan_edge_lines", spy)
    path = tmp_path / "a.edges"
    path.write_text("0 0 1\n1 2 0\n")
    read_edge_list(path)
    assert rescans == []
    path.write_text("0 0 1\n1 2 2\n")
    with pytest.raises(ValueError, match="^line 2: "):
        read_edge_list(path)
    assert len(rescans) == 1


def test_comment_only_edge_list_raises_no_warning(tmp_path):
    path = tmp_path / "empty.edges"
    path.write_text("# nothing here\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = read_edge_list(path, layers=1, nodes=2)
    assert t == Tensor3(np.zeros((1, 2, 2)))


@pytest.mark.parametrize("dims, message", [
    pytest.param(dict(layers=0), "layers must be >= 1, got 0", id="layers"),
    pytest.param(dict(layers=2, nodes=-1), "nodes must be >= 1, got -1", id="nodes"),
])
def test_edge_list_names_dims_below_one(tmp_path, dims, message):
    path = tmp_path / "a.edges"
    path.write_text("0 0 1\n")
    with pytest.raises(ValueError, match=message):
        read_edge_list(path, **dims)
