import json
import subprocess
import sys

import numpy as np
import pytest

from alma.cli import build_parser, main
from alma.harness import fit_method
from alma.initialization import spectral_init
from alma.sampling import substream
from alma.tensors import read_tensor


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


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
    res, iters, converged, _ = fit_method(
        a, method, (2, 2), spectral_init(a, 2, substream(9, 2), restarts=20), (9,),
        eps_stop=1e-4, max_iter=100, restarts=20, twist_r=7, twist_iter_max=50,
    )
    assert payload["layer_labels"] == res.layer_labels.tolist()
    assert payload["node_labels"] == [g.tolist() for g in res.node_labels]
    assert (payload["iters"], payload["converged"]) == (iters, converged)


def test_fit_requires_exactly_one_source(tmp_path, capsys):
    generate_small(tmp_path, capsys)
    with pytest.raises(SystemExit):
        main(["fit", "--groups", "2", "--communities", "2"])
    with pytest.raises(SystemExit):
        main([
            "fit", "--input", str(tmp_path / "adjacency.bin"),
            "--edge-list", str(tmp_path / "x.edges"),
            "--groups", "2", "--communities", "2",
        ])


def test_fit_rejects_wrong_rank_count(tmp_path, capsys):
    generate_small(tmp_path, capsys)
    with pytest.raises(SystemExit):
        main([
            "fit", "--input", str(tmp_path / "adjacency.bin"),
            "--groups", "3", "--communities", "2,2",
        ])


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
    with pytest.raises(SystemExit):
        main(["scenario", "--scenario", "1", "--config", str(cfg_path)])


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
    assert lines[0] == "m,objective,iters,converged"
    assert lines[1].startswith("1,")
    assert lines[2].startswith("2,")
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
