import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from alma import cli, harness
from alma.cli import build_parser, main
from alma.errors import DegenerateIterateError
from alma.harness import fit_method
from alma.initialization import spectral_init
from alma.sampling import substream
from alma.tensors import Tensor3, read_tensor, write_tensor


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def usage_error(argv, capsys):
    """The stderr of a CLI call that must exit 2 on a usage error, printing nothing else."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    return captured.err


def generate_small(tmp_path, capsys, extra=()):
    argv = [
        "generate", "--n", "14", "--layers", "8", "--groups", "2",
        "--communities", "2", "--p-max", "0.7", "--alpha", "0.4",
        "--seed", "5", "--out", str(tmp_path),
    ] + list(extra)
    return run_cli(argv, capsys)


def test_generate_writes_files(tmp_path, capsys):
    code, out = generate_small(tmp_path, capsys, extra=["--edge-list"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].endswith("instance.json")
    assert lines[1].endswith("adjacency.bin")
    assert lines[2].endswith("adjacency.edges")
    inst = json.loads((tmp_path / "instance.json").read_text())
    assert inst["n"] == 14
    assert (tmp_path / "adjacency.bin").stat().st_size > 16


def test_fit_alma_stdout(tmp_path, capsys):
    generate_small(tmp_path, capsys)
    code, out = run_cli(
        ["fit", "--input", str(tmp_path / "adjacency.bin"),
         "--groups", "2", "--communities", "2", "--seed", "5"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "alma"
    assert len(payload["layer_labels"]) == 8
    assert len(payload["node_labels"]) == 2
    assert all(len(g) == 14 for g in payload["node_labels"])
    assert isinstance(payload["converged"], bool)
    assert payload["objective"] > 0.0
    assert payload["stop_reason"] == ("converged" if payload["converged"] else "budget")
    assert payload["final_step"] > 0.0
    # the new keys follow the ones fit.json had before them
    assert list(payload)[-3:] == ["objective", "stop_reason", "final_step"]


def test_fit_twist_to_file(tmp_path, capsys):
    generate_small(tmp_path, capsys)
    code, out = run_cli(
        ["fit", "--input", str(tmp_path / "adjacency.bin"),
         "--groups", "2", "--communities", "2,2", "--method", "twist",
         "--twist-r", "4", "--twist-iters", "5",
         "--out", str(tmp_path / "fitted")],
        capsys,
    )
    assert code == 0
    payload = json.loads((tmp_path / "fitted" / "fit.json").read_text())
    assert payload["method"] == "twist"
    assert payload["iters"] == 5
    assert payload["stop_reason"] == "budget"
    assert "final_step" not in payload


def test_fit_from_edge_list(tmp_path, capsys):
    generate_small(tmp_path, capsys, extra=["--edge-list"])
    code, out = run_cli(
        ["fit", "--edge-list", str(tmp_path / "adjacency.edges"),
         "--layers", "8", "--nodes", "14",
         "--groups", "2", "--communities", "2", "--seed", "5"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["method"] == "alma"


@pytest.mark.parametrize("method", ["alma", "twist"])
def test_fit_prints_the_fit_method_result(tmp_path, capsys, method):
    generate_small(tmp_path, capsys)
    path = tmp_path / "adjacency.bin"
    code, out = run_cli(
        ["fit", "--input", str(path), "--groups", "2", "--communities", "2",
         "--method", method, "--seed", "9"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    a = read_tensor(path)
    fit = fit_method(
        a, method, (2, 2), spectral_init(a, 2, substream(9, 2), restarts=20), (9,),
        eps_stop=1e-4, max_iter=100, restarts=20, twist_r=7, twist_iter_max=50,
    )
    assert payload["layer_labels"] == fit.result.layer_labels.tolist()
    assert payload["node_labels"] == [g.tolist() for g in fit.result.node_labels]
    assert (payload["iters"], payload["converged"]) == (fit.iters, fit.converged)
    assert payload["stop_reason"] == fit.stop_reason
    # a fit that ran its budget is flagged unconverged, twist's included
    assert payload["stop_reason"] == ("converged" if payload["converged"] else "budget")


def test_fit_requires_exactly_one_source(tmp_path, capsys):
    generate_small(tmp_path, capsys)
    message = "alma fit: error: pass exactly one of --input or --edge-list"
    assert message in usage_error(["fit", "--groups", "2", "--communities", "2"], capsys)
    assert message in usage_error([
        "fit", "--input", str(tmp_path / "adjacency.bin"),
        "--edge-list", str(tmp_path / "x.edges"),
        "--groups", "2", "--communities", "2",
    ], capsys)


def test_fit_rejects_wrong_rank_count(tmp_path, capsys):
    generate_small(tmp_path, capsys)
    err = usage_error([
        "fit", "--input", str(tmp_path / "adjacency.bin"),
        "--groups", "3", "--communities", "2,2",
    ], capsys)
    assert "alma fit: error: --communities needs 1 or 3 values, got 2" in err


def test_fit_rejects_non_integer_rank(tmp_path, capsys):
    generate_small(tmp_path, capsys)
    err = usage_error([
        "fit", "--input", str(tmp_path / "adjacency.bin"),
        "--groups", "2", "--communities", "2,x",
    ], capsys)
    assert "alma fit: error: --communities needs integers, got '2,x'" in err


def test_scenario_emits_results(tmp_path, capsys):
    code, out = run_cli(
        ["scenario", "--scenario", "1", "--grid-points", "2",
         "--replicates", "1", "--seed", "3", "--n", "16", "--layers", "10",
         "--methods", "alma", "--out", str(tmp_path / "res"),
         "--emit", "csv,svg"],
        capsys,
    )
    assert code == 0
    assert (tmp_path / "res" / "runs.csv").exists()
    assert (tmp_path / "res" / "summary.csv").exists()
    assert (tmp_path / "res" / "curves.svg").exists()
    header = (tmp_path / "res" / "runs.csv").read_text().splitlines()[0]
    assert header.startswith("scenario,sweep_param,sweep_value")


def test_scenario_rejects_a_bad_emit_list_before_any_sampling(tmp_path, capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("a cell was sampled")

    monkeypatch.setattr(harness, "sample_instance", no_sampling)
    err = usage_error(["scenario", "--scenario", "1", "--grid-points", "1", "--replicates", "1",
                       "--n", "30", "--methods", "alma", "--emit", "csv,png",
                       "--out", str(tmp_path / "res")], capsys)
    assert err.splitlines()[-1] == ("alma scenario: error: argument --emit: "
                                    "needs a comma list from csv,svg, got 'csv,png'")
    assert not (tmp_path / "res").exists()


def test_scenario_config_file_overrides(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "n": 16, "L": 10, "replicates": 1, "methods": ["alma"],
        "grid": [0.6], "master_seed": 2,
    }))
    code, _ = run_cli(
        ["scenario", "--scenario", "1", "--config", str(cfg_path),
         "--out", str(tmp_path / "res2")],
        capsys,
    )
    assert code == 0
    rows = (tmp_path / "res2" / "runs.csv").read_text().splitlines()
    assert len(rows) == 2  # header plus one record


def test_scenario_rejects_unknown_config_key(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"banana": 1}))
    err = usage_error(["scenario", "--scenario", "1", "--config", str(cfg_path)], capsys)
    assert "alma scenario: error: unknown config fields: ['banana']" in err


@pytest.mark.parametrize("flag", ["--threads", "--replicates", "--grid-points", "--max-iter",
                                  "--n", "--layers"])
def test_scenario_rejects_a_count_below_one(tmp_path, capsys, flag):
    with pytest.raises(SystemExit):
        main(["scenario", "--scenario", "3", flag, "0", "--out", str(tmp_path / "res")])
    assert f"argument {flag}: must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--max-iter", "0", "must be >= 1, got 0"),
    ("--eps", "-1", "must be >= 0, got -1"),
    ("--groups", "0", "must be >= 1, got 0"),
    ("--restarts", "0", "must be >= 1, got 0"),
])
def test_fit_rejects_a_bad_count_at_parse_time(tmp_path, capsys, flag, value, message):
    generate_small(tmp_path, capsys)
    argv = ["fit", "--input", str(tmp_path / "adjacency.bin"),
            "--groups", "2", "--communities", "2", flag, value]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"argument {flag}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--n", "--layers", "--groups", "--communities"])
def test_generate_rejects_a_size_below_one(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exit_info:
        generate_small(tmp_path / "out", capsys, extra=[flag, "0"])
    assert exit_info.value.code == 2
    assert f"argument {flag}: must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["fit", "elbow"])
@pytest.mark.parametrize("flag", ["--layers", "--nodes"])
def test_edge_list_dims_below_one_fail_at_parse_time(tmp_path, capsys, command, flag):
    generate_small(tmp_path, capsys, extra=["--edge-list"])
    argv = [command, "--edge-list", str(tmp_path / "adjacency.edges"),
            "--layers", "8", "--nodes", "14", flag, "0", "--communities", "2"]
    if command == "fit":
        argv += ["--groups", "2"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"argument {flag}: must be >= 1, got 0" in capsys.readouterr().err


def test_elbow_rejects_an_empty_candidate_range(tmp_path, capsys):
    generate_small(tmp_path, capsys)
    err = usage_error(["elbow", "--input", str(tmp_path / "adjacency.bin"),
                       "--m-min", "4", "--m-max", "2", "--communities", "2"], capsys)
    assert err == "alma elbow: error: --m-min 4 exceeds --m-max 2\n"


@pytest.mark.parametrize("argv, message", [
    (["--n", "2"], "--communities 3 exceeds --n 2"),
    (["--groups", "5", "--layers", "3"], "--groups 5 exceeds --layers 3"),
])
def test_generate_rejects_conflicting_sizes(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        main(["generate", "--out", str(tmp_path / "out")] + argv)
    assert exit_info.value.code == 2
    assert f"alma generate: error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["fit", "--groups", "9", "--communities", "2"],
     "alma fit: error: --groups 9 exceeds the input's 6 layers"),
    (["elbow", "--m-max", "9", "--communities", "2"],
     "alma elbow: error: --m-max 9 exceeds the input's 6 layers"),
    (["fit", "--groups", "2", "--communities", "40"],
     "alma fit: error: --communities 40 exceeds the input's 30 nodes"),
    (["fit", "--groups", "2", "--communities", "2,40"],
     "alma fit: error: --communities 40 exceeds the input's 30 nodes"),
    (["elbow", "--m-max", "3", "--communities", "40"],
     "alma elbow: error: --communities 40 exceeds the input's 30 nodes"),
    (["fit", "--method", "twist", "--twist-r", "2", "--groups", "3", "--communities", "2"],
     "alma fit: error: twist needs M <= twist_r <= n, got M=3, twist_r=2, n=30"),
    (["fit", "--method", "twist", "--twist-r", "40", "--groups", "2", "--communities", "2"],
     "alma fit: error: twist needs M <= twist_r <= n, got M=2, twist_r=40, n=30"),
])
def test_sizes_beyond_the_input_fail_before_any_fit(tmp_path, capsys, monkeypatch, argv, message):
    run_cli(["generate", "--n", "30", "--layers", "6", "--groups", "2", "--communities", "2",
             "--seed", "3", "--out", str(tmp_path)], capsys)

    def no_fit(*args, **kwargs):
        raise AssertionError("a fit started")

    monkeypatch.setattr(cli, "spectral_init", no_fit)
    monkeypatch.setattr(cli, "elbow_scan", no_fit)
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--input", str(tmp_path / "adjacency.bin")])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


@pytest.mark.parametrize("argv", [
    pytest.param(["fit", "--groups", "2", "--communities", "2"], id="fit-alma"),
    pytest.param(["fit", "--method", "twist", "--groups", "2", "--communities", "2"],
                 id="fit-twist"),
    pytest.param(["elbow", "--m-max", "3", "--communities", "2"], id="elbow"),
])
def test_a_non_symmetric_input_fails_before_any_fit(tmp_path, capsys, monkeypatch, argv):
    generate_small(tmp_path, capsys)
    arr = read_tensor(tmp_path / "adjacency.bin").array.copy()
    arr[3, 0, 1] = 1.0 - arr[3, 0, 1]  # one edge in one direction only
    path = tmp_path / "directed.bin"
    write_tensor(Tensor3(arr), path, flavor="u1")

    def no_fit(*args, **kwargs):
        raise AssertionError("a fit started")

    monkeypatch.setattr(cli, "spectral_init", no_fit)
    monkeypatch.setattr(cli, "elbow_scan", no_fit)
    err = usage_error(argv + ["--input", str(path)], capsys)
    assert err.splitlines()[-1] == (f"alma {argv[0]}: error: --input {path}: slices are not "
                                    "symmetric to relative tolerance 1e-8")


def test_twist_rank_is_checked_for_twist_only(tmp_path, capsys, monkeypatch):
    # --groups 8 is above the default --twist-r 7, which alma does not use
    run_cli(["generate", "--n", "30", "--layers", "10", "--groups", "2", "--communities", "2",
             "--seed", "3", "--out", str(tmp_path)], capsys)

    class FitStarted(Exception):
        pass

    def fit_started(*args, **kwargs):
        raise FitStarted

    monkeypatch.setattr(cli, "spectral_init", fit_started)
    with pytest.raises(FitStarted):
        main(["fit", "--input", str(tmp_path / "adjacency.bin"), "--groups", "8",
              "--communities", "2"])


@pytest.mark.parametrize("command, argv, message", [
    pytest.param("generate", ["--p-max", "1.5"], "argument --p-max: must lie in (0, 1], got 1.5",
                 id="generate-p-max-above-one"),
    pytest.param("generate", ["--p-max", "0"], "argument --p-max: must lie in (0, 1], got 0",
                 id="generate-p-max-zero"),
    pytest.param("generate", ["--p-max", "nan"], "argument --p-max: must lie in (0, 1], got nan",
                 id="generate-p-max-nan"),
    pytest.param("generate", ["--p-max", "x"], "argument --p-max: needs a number, got 'x'",
                 id="generate-p-max-not-a-number"),
    pytest.param("generate", ["--alpha", "-1"], "argument --alpha: must lie in [0, 1], got -1",
                 id="generate-alpha-negative"),
    pytest.param("generate", ["--alpha", "1.5"], "argument --alpha: must lie in [0, 1], got 1.5",
                 id="generate-alpha-above-one"),
    pytest.param("scenario", ["--scenario", "2", "--p-max", "1.5"],
                 "argument --p-max: must lie in (0, 1], got 1.5", id="scenario-p-max"),
    pytest.param("scenario", ["--scenario", "2", "--alpha", "nan"],
                 "argument --alpha: must lie in [0, 1], got nan", id="scenario-alpha"),
])
def test_probabilities_out_of_range_fail_at_parse_time(tmp_path, capsys, command, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--out", str(tmp_path / "out")] + argv)
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, fields, message", [
    pytest.param(["--n", "2"], None,
                 "at p_max=0.3: need K <= n and M <= L, got K=3, n=2, M=3, L=40", id="n-below-K"),
    pytest.param(["--layers", "2"], None,
                 "at p_max=0.3: need K <= n and M <= L, got K=3, n=100, M=3, L=2",
                 id="layers-below-M"),
    pytest.param(["--n", "5"], None,
                 "at p_max=0.3: twist needs M <= twist_r <= n, got M=3, twist_r=7, n=5",
                 id="twist-r-above-n"),
    pytest.param([], {"twist_r": 2},
                 "at p_max=0.3: twist needs M <= twist_r <= n, got M=3, twist_r=2, n=100",
                 id="twist-r-below-M"),
    pytest.param([], {"grid": [0.5, 1.5]},
                 "at p_max=1.5: p_max=1.5 must lie in (0, 1]", id="grid-p-max-above-one"),
])
def test_scenario_sizes_that_conflict_fail_before_sampling(
        tmp_path, capsys, monkeypatch, argv, fields, message):
    def no_run(*args, **kwargs):
        raise AssertionError("the scenario started")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    if fields is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(fields))
        argv = argv + ["--config", str(tmp_path / "cfg.json")]
    err = usage_error(["scenario", "--scenario", "1", "--out", str(tmp_path / "res")] + argv,
                      capsys)
    assert err == f"alma scenario: error: {message}\n"
    assert not (tmp_path / "res").exists()


def test_fit_rejects_a_zero_community_count(tmp_path, capsys):
    generate_small(tmp_path, capsys)
    err = usage_error(["fit", "--input", str(tmp_path / "adjacency.bin"),
                       "--groups", "2", "--communities", "2,0"], capsys)
    assert "alma fit: error: --communities must be >= 1, got '2,0'" in err


def test_elbow_rejects_a_zero_sweep_budget(tmp_path, capsys):
    generate_small(tmp_path, capsys)
    with pytest.raises(SystemExit) as exit_info:
        main(["elbow", "--input", str(tmp_path / "adjacency.bin"),
              "--communities", "2", "--max-iter", "0"])
    assert exit_info.value.code == 2
    assert "argument --max-iter: must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("fields, message", [
    ({"threads": 0}, "config field threads: must be >= 1, got 0"),
    ({"max_iter": 0}, "config field max_iter: must be >= 1, got 0"),
    ({"replicates": 2.5}, "config field replicates: needs an integer, got '2.5'"),
    ({"kmeans_restarts": True}, "config field kmeans_restarts: needs a number, got True"),
    ({"eps_stop": -0.5}, "config field eps_stop: must be >= 0, got -0.5"),
    ({"grid": 3}, "config field grid: needs a nonempty list of numbers, got 3"),
    ({"grid": []}, "config field grid: needs a nonempty list of numbers, got []"),
    ({"grid": [0.5, "x"]}, "config field grid: needs a nonempty list of numbers, got [0.5, 'x']"),
    ({"methods": "alma"},
     "config field methods: needs a nonempty list of names from alma, twist, got 'alma'"),
    ({"methods": ["alma", "foo"]},
     "config field methods: needs a nonempty list of names from alma, twist, "
     "got ['alma', 'foo']"),
    ({"p_max": "x"}, "config field p_max: needs a number, got 'x'"),
    ({"alpha": None}, "config field alpha: needs a number, got None"),
    ({"p_max": 1.5}, "config field p_max: must lie in (0, 1], got 1.5"),
    ({"alpha": -0.5}, "config field alpha: must lie in [0, 1], got -0.5"),
    ({"K": 0}, "config field K: must be >= 1, got 0"),
    ({"n": "x"}, "config field n: needs a number, got 'x'"),
    ({"master_seed": -1}, "config field master_seed: must be >= 0, got -1"),
    ({"master_seed": "x"}, "config field master_seed: needs a number, got 'x'"),
    ({"master_seed": 1.5}, "config field master_seed: needs an integer, got '1.5'"),
])
def test_scenario_rejects_a_bad_config_field_when_loading(tmp_path, capsys, fields, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(fields))
    err = usage_error(["scenario", "--scenario", "3", "--config", str(cfg_path),
                       "--out", str(tmp_path / "res")], capsys)
    assert err == f"alma scenario: error: {message}\n"
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("argv, message", [
    pytest.param(["elbow", "--input", "{dir}/adjacency.bin", "--m-min", "4", "--m-max", "2",
                  "--communities", "2"],
                 "alma elbow: error: --m-min 4 exceeds --m-max 2", id="elbow-empty-range"),
    pytest.param(["fit", "--groups", "2", "--communities", "2"],
                 "alma fit: error: pass exactly one of --input or --edge-list", id="fit-no-source"),
    pytest.param(["fit", "--input", "{dir}/adjacency.bin", "--edge-list", "{dir}/adjacency.edges",
                  "--groups", "2", "--communities", "2"],
                 "alma fit: error: pass exactly one of --input or --edge-list",
                 id="fit-two-sources"),
    pytest.param(["fit", "--input", "{dir}/adjacency.bin", "--groups", "2",
                  "--communities", "2,x"],
                 "alma fit: error: --communities needs integers, got '2,x'",
                 id="fit-non-integer-rank"),
    pytest.param(["fit", "--input", "{dir}/adjacency.bin", "--groups", "2",
                  "--communities", "2,2,2"],
                 "alma fit: error: --communities needs 1 or 2 values, got 3",
                 id="fit-wrong-rank-count"),
    pytest.param(["scenario", "--scenario", "1", "--config", "{dir}/unknown.json"],
                 "alma scenario: error: unknown config fields: ['banana']",
                 id="config-unknown-field"),
    pytest.param(["scenario", "--scenario", "1", "--config", "{dir}/bad.json"],
                 "alma scenario: error: config field threads: must be >= 1, got 0",
                 id="config-bad-field"),
    pytest.param(["scenario", "--scenario", "1", "--config", "{dir}/grid.json"],
                 "alma scenario: error: config field grid: "
                 "needs a nonempty list of numbers, got 3",
                 id="config-grid-not-a-list"),
    pytest.param(["scenario", "--scenario", "1", "--config", "{dir}/methods.json"],
                 "alma scenario: error: config field methods: needs a nonempty list of names "
                 "from alma, twist, got 'alma'", id="config-methods-not-a-list"),
    pytest.param(["scenario", "--scenario", "1", "--methods", "foo"],
                 "alma scenario: error: argument --methods: "
                 "needs a comma list from alma,twist, got 'foo'",
                 id="unknown-method"),
    pytest.param(["scenario", "--scenario", "1", "--grid-points", "1", "--replicates", "1",
                  "--n", "30", "--methods", "alma,alma", "--out", "{dir}/res"],
                 "alma scenario: error: need distinct methods from alma, twist, "
                 "got ('alma', 'alma')", id="repeated-method"),
    pytest.param(["scenario", "--scenario", "1", "--config", "{dir}/empty.json"],
                 "alma scenario: error: --config {dir}/empty.json: "
                 "Expecting value: line 1 column 1 (char 0)", id="config-not-json"),
    pytest.param(["scenario", "--scenario", "1", "--config", "{dir}/number.json"],
                 "alma scenario: error: --config {dir}/number.json: needs a JSON object",
                 id="config-not-an-object"),
    pytest.param(["fit", "--input", "{dir}/missing.bin", "--groups", "2", "--communities", "2"],
                 "alma fit: error: --input {dir}/missing.bin: no such file", id="missing-input"),
    pytest.param(["elbow", "--edge-list", "{dir}/missing.edges", "--communities", "2"],
                 "alma elbow: error: --edge-list {dir}/missing.edges: no such file",
                 id="missing-edge-list"),
    pytest.param(["scenario", "--scenario", "1", "--config", "{dir}/missing.json"],
                 "alma scenario: error: --config {dir}/missing.json: no such file",
                 id="missing-config"),
    pytest.param(["diagnostics", "--instance", "{dir}/missing.json"],
                 "alma diagnostics: error: --instance {dir}/missing.json: no such file",
                 id="missing-instance"),
    pytest.param(["scenario", "--scenario", "1", "--grid-points", "1", "--replicates", "1",
                  "--seed", "-1", "--out", "{dir}/res"],
                 "alma scenario: error: argument --seed: must be >= 0, got -1",
                 id="scenario-negative-seed"),
    pytest.param(["generate", "--seed", "-1", "--out", "{dir}/gen"],
                 "alma generate: error: argument --seed: must be >= 0, got -1",
                 id="generate-negative-seed"),
    pytest.param(["fit", "--input", "{dir}/adjacency.bin", "--groups", "2",
                  "--communities", "2", "--seed", "-1"],
                 "alma fit: error: argument --seed: must be >= 0, got -1",
                 id="fit-negative-seed"),
    pytest.param(["elbow", "--input", "{dir}/adjacency.bin", "--communities", "2",
                  "--seed", "-1"],
                 "alma elbow: error: argument --seed: must be >= 0, got -1",
                 id="elbow-negative-seed"),
    pytest.param(["scenario", "--scenario", "1", "--config", "{dir}/seed-negative.json"],
                 "alma scenario: error: config field master_seed: must be >= 0, got -1",
                 id="config-negative-seed"),
    pytest.param(["scenario", "--scenario", "1", "--config", "{dir}/seed-text.json"],
                 "alma scenario: error: config field master_seed: needs a number, got 'x'",
                 id="config-text-seed"),
])
def test_usage_errors_exit_2_with_the_command_prefix(tmp_path, capsys, argv, message):
    generate_small(tmp_path, capsys, extra=["--edge-list"])
    (tmp_path / "unknown.json").write_text(json.dumps({"banana": 1}))
    (tmp_path / "bad.json").write_text(json.dumps({"threads": 0}))
    (tmp_path / "grid.json").write_text(json.dumps({"grid": 3}))
    (tmp_path / "methods.json").write_text(json.dumps({"methods": "alma"}))
    (tmp_path / "empty.json").write_text("")
    (tmp_path / "number.json").write_text("3")
    (tmp_path / "seed-negative.json").write_text(json.dumps({"master_seed": -1}))
    (tmp_path / "seed-text.json").write_text(json.dumps({"master_seed": "x"}))
    err = usage_error([arg.format(dir=tmp_path) for arg in argv], capsys)
    # argparse prints the subcommand's usage, indented where it wraps, before its own errors
    *usage, last = err.splitlines()
    assert last == message.format(dir=tmp_path)
    if usage:
        assert usage[0].startswith(f"usage: alma {argv[0]} ")
        assert all(line.startswith(" ") for line in usage[1:])
    assert not (tmp_path / "res").exists() and not (tmp_path / "gen").exists()


@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out-dir"])
def test_a_fit_that_fails_exits_1_with_one_error_line(tmp_path, capsys, out):
    # five groups on an n=2 draw: the first W-step loses rank
    run_cli(["generate", "--n", "2", "--layers", "6", "--groups", "2", "--communities", "1",
             "--seed", "0", "--out", str(tmp_path)], capsys)
    argv = ["fit", "--input", str(tmp_path / "adjacency.bin"), "--groups", "5",
            "--communities", "1"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + (["--out", str(tmp_path / "fitted")] if out else []))
    assert exit_info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("alma fit: error: degenerate iterate at sweep 1: ")
    assert len(captured.err.splitlines()) == 1
    assert not (tmp_path / "fitted").exists()


def test_a_rank_deficient_fit_prints_no_negative_zero(tmp_path, capsys):
    # numpy's SVD returns the zero singular value of this W-step as -0.0
    run_cli(["generate", "--n", "2", "--layers", "6", "--groups", "2", "--communities", "1",
             "--seed", "0", "--out", str(tmp_path)], capsys)
    with pytest.raises(SystemExit):
        main(["fit", "--input", str(tmp_path / "adjacency.bin"), "--groups", "5",
              "--communities", "1"])
    err = capsys.readouterr().err
    assert "sigma_min=0.000e+00 vs sigma_max=" in err
    assert "-0.000" not in err


def test_a_scenario_that_aborts_exits_1_with_one_error_line(tmp_path, capsys, monkeypatch):
    def failing_fit(*args, **kwargs):
        raise DegenerateIterateError(1)

    monkeypatch.setattr(harness, "fit_method", failing_fit)
    with pytest.raises(SystemExit) as exit_info:
        main(["scenario", "--scenario", "1", "--grid-points", "1", "--replicates", "1",
              "--n", "30", "--methods", "alma", "--out", str(tmp_path / "res")])
    assert exit_info.value.code == 1
    assert capsys.readouterr() == ("", "alma scenario: error: 1/1 alma runs failed at p_max=0.3\n")
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("flag", ["--threads", "--grid-points", "--replicates"])
def test_reproduce_curves_rejects_a_count_below_one(tmp_path, flag):
    script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_curves.py"
    proc = subprocess.run(
        [sys.executable, str(script), flag, "0", "--out", str(tmp_path / "res")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert f"argument {flag}: must be >= 1, got 0" in proc.stderr
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("argv, message", [
    pytest.param(["--seeds", "1,x"], "needs a comma list of integers, got '1,x'", id="bad-seeds"),
    pytest.param(["--src", "{dir}"], "no alma package there", id="bad-src"),
    pytest.param([], "is not empty", id="out-not-empty"),
])
def test_output_digest_rejects_bad_arguments_before_running(tmp_path, argv, message):
    script = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "old.csv").write_text("")
    proc = subprocess.run(
        [sys.executable, str(script), str(tmp_path / "out")]
        + [arg.format(dir=tmp_path) for arg in argv],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert message in proc.stderr
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["old.csv"]


def write_digest(root, objective="1012.9298204455232", labels=(1, 0, 2), iters="52",
                 r_bl="0.55"):
    """A one-seed tree shaped like output_digest.py's, with the given values."""
    seed = root / "seed-1"
    (seed / "fit-large").mkdir(parents=True)
    (seed / "fit-large" / "fit.json").write_text(json.dumps(
        {"layer_labels": list(labels), "iters": 100, "converged": False,
         "objective": float(objective), "stop_reason": "budget",
         "final_step": 0.001777162744294804}))
    (seed / "elbow").mkdir()
    (seed / "elbow" / "draw0.csv").write_text(
        f"m,objective,iters,converged,stop_reason\n1,{objective},{iters},false,budget\n"
        "2,nan,0,false,degenerate\n")
    (seed / "sweep-threads1").mkdir()
    (seed / "sweep-threads1" / "runs.csv").write_text(
        f"method,R_BL,iters,seconds\nalma,{r_bl},{iters},\n")
    return root


@pytest.mark.parametrize("change, code, line", [
    pytest.param({}, 0, "fit-large/fit.json objective: largest relative difference 0",
                 id="same"),
    pytest.param({"objective": "1012.9298204455252"}, 0,
                 "elbow/draw0.csv objective: largest relative difference 2.02e-15",
                 id="float-within-tolerance"),
    pytest.param({"objective": "1012.93"}, 1,
                 "fit-large/fit.json objective: largest relative difference 1.77e-07  "
                 "exceeds 1e-09", id="float-past-tolerance"),
    pytest.param({"labels": (1, 0, 1)}, 1,
                 "seed-1/fit-large/fit.json: layer_labels differs: [1, 0, 2] != [1, 0, 1]",
                 id="labels"),
    pytest.param({"iters": "53"}, 1, "seed-1/elbow/draw0.csv: iters differs: '52' != '53'",
                 id="iters"),
    pytest.param({"r_bl": "0.5500000000000001"}, 1,
                 "seed-1/sweep-threads1/runs.csv: R_BL differs: '0.55' != '0.5500000000000001'",
                 id="rate-in-its-last-bit"),
])
def test_digest_diff_holds_all_but_float_fields_exact(tmp_path, change, code, line):
    script = Path(__file__).resolve().parents[1] / "scripts" / "digest_diff.py"
    parent = write_digest(tmp_path / "parent")
    ours = write_digest(tmp_path / "change", **change)
    proc = subprocess.run([sys.executable, str(script), str(parent), str(ours)],
                          capture_output=True, text=True)
    assert proc.returncode == code
    assert line in proc.stdout.splitlines()
    assert proc.stdout.splitlines()[-1] == ("digests agree" if code == 0 else "digests differ")


def test_digest_diff_names_a_file_only_one_tree_holds(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "digest_diff.py"
    parent = write_digest(tmp_path / "parent")
    ours = write_digest(tmp_path / "change")
    (ours / "seed-1" / "elbow" / "draw0.csv").rename(ours / "seed-1" / "elbow" / "draw1.csv")
    proc = subprocess.run([sys.executable, str(script), str(parent), str(ours)],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "only in parent: seed-1/elbow/draw0.csv" in proc.stdout
    assert "only in change: seed-1/elbow/draw1.csv" in proc.stdout


@pytest.mark.parametrize("value, message", [
    pytest.param("1,5", "scenario must be one of [1, 2, 3, 4], got 5", id="unknown"),
    pytest.param("1,x", "needs integers, got 'x'", id="non-integer"),
])
def test_reproduce_curves_rejects_a_bad_scenario_list(tmp_path, value, message):
    script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_curves.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--scenarios", value, "--out", str(tmp_path / "res")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert f"argument --scenarios: {message}" in proc.stderr
    assert not (tmp_path / "res").exists()


def test_elbow_prints_and_writes(tmp_path, capsys):
    generate_small(tmp_path, capsys)
    code, out = run_cli(
        ["elbow", "--input", str(tmp_path / "adjacency.bin"),
         "--m-min", "1", "--m-max", "2", "--communities", "2",
         "--seed", "4", "--out", str(tmp_path / "eres")],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m,objective,iters,converged,stop_reason"
    assert lines[1].startswith("1,")
    assert lines[2].startswith("2,")
    for line in lines[1:3]:
        converged, stop_reason = line.split(",")[3:]
        assert stop_reason == ("converged" if converged == "true" else "budget")
    saved = (tmp_path / "eres" / "elbow.csv").read_text().splitlines()
    assert saved[0] == lines[0]
    assert saved[1:] == lines[1:3]


def test_diagnostics_payload(tmp_path, capsys):
    generate_small(tmp_path, capsys)
    code, out = run_cli(
        ["diagnostics", "--instance", str(tmp_path / "instance.json")],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    for key in ("kappa_h", "kappa0", "kappa1", "kappa2", "beta_nl"):
        assert key in payload
    assert 0.0 <= payload["kappa_h"] <= 1.0 + 1e-12
    assert payload["kappa0"] >= 1.0 - 1e-9
    assert len(payload["a1a"]) == 2
    assert len(payload["span_residuals"]) == 2


def test_diagnostics_to_file(tmp_path, capsys):
    generate_small(tmp_path, capsys)
    code, out = run_cli(
        ["diagnostics", "--instance", str(tmp_path / "instance.json"),
         "--out", str(tmp_path / "diag")],
        capsys,
    )
    assert code == 0
    payload = json.loads((tmp_path / "diag" / "diagnostics.json").read_text())
    assert "beta_nl" in payload


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_module_entry_point_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "alma", "generate", "--n", "10", "--layers", "6",
         "--groups", "2", "--communities", "2", "--seed", "1",
         "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "instance.json").exists()
    proc2 = subprocess.run(
        [sys.executable, "-m", "alma", "fit",
         "--input", str(tmp_path / "adjacency.bin"),
         "--groups", "2", "--communities", "2"],
        capture_output=True, text=True,
    )
    assert proc2.returncode == 0
    assert json.loads(proc2.stdout)["method"] == "alma"
