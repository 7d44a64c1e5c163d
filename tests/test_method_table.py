"""Adding a method takes one entry in ``harness.METHODS``: a fixture adds a
dummy method there and nowhere else, and every entry point takes it."""

import csv
import json

import pytest

from alma import cli, harness
from alma.cli import main
from alma.harness import DEFAULT_METHODS, Fit, run_scenario, run_single, scenario_config


def dummy_fit(a, ranks, w_init, seed_path, **settings):
    # alma's labels under another name, with sweeps and a stop reason of its own
    alma_fit = harness.METHODS["alma"][0]
    return Fit(alma_fit(a, ranks, w_init, seed_path, **settings).result, 3, "budget")


def dummy_check(n, ranks, *, twist_iter_max, **settings):
    if twist_iter_max == 1:
        raise ValueError("dummy refuses twist_iter_max=1")


@pytest.fixture
def dummy(monkeypatch):
    monkeypatch.setitem(harness.METHODS, "dummy", (dummy_fit, dummy_check))


def no_run(*args, **kwargs):
    raise AssertionError("sampling or a fit started")


def test_run_single_fits_a_new_method(dummy):
    cfg = scenario_config(1, grid_points=2, n=16, L=10, replicates=1, kmeans_restarts=5,
                          max_iter=40, methods=("alma", "dummy"))
    alma, new = run_single(cfg, 0, 0)
    assert (new.method, new.iters, new.converged, new.stop_reason) == ("dummy", 3, False, "budget")
    assert (new.r_bl, new.r_wl, new.seed) == (alma.r_bl, alma.r_wl, alma.seed)


def test_scenario_methods_flag_takes_a_new_method(dummy, tmp_path, capsys):
    out = tmp_path / "res"
    assert main(["scenario", "--scenario", "1", "--grid-points", "1", "--replicates", "1",
                 "--n", "30", "--methods", "dummy", "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out / "runs.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["method"], r["iters"], r["converged"], r["stop_reason"]) for r in rows] == [
        ("dummy", "3", "false", "budget")]


def test_fit_method_flag_takes_a_new_method(dummy, tmp_path, capsys):
    main(["generate", "--n", "14", "--layers", "8", "--groups", "2", "--communities", "2",
          "--seed", "5", "--out", str(tmp_path)])
    capsys.readouterr()
    assert main(["fit", "--input", str(tmp_path / "adjacency.bin"), "--groups", "2",
                 "--communities", "2", "--method", "dummy"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # a fit without a factor pair reports what twist's fit.json reports
    assert list(payload) == ["method", "layer_labels", "node_labels", "iters", "converged",
                             "stop_reason"]
    assert (payload["method"], payload["iters"], payload["converged"]) == ("dummy", 3, False)


def test_a_new_methods_check_runs_before_any_sampling(dummy, tmp_path, capsys, monkeypatch):
    main(["generate", "--n", "14", "--layers", "8", "--groups", "2", "--communities", "2",
          "--seed", "5", "--out", str(tmp_path)])
    capsys.readouterr()
    (tmp_path / "cfg.json").write_text(json.dumps({"twist_iter_max": 1}))
    for name in ("sample_draw", "spectral_init", "run_single"):
        monkeypatch.setattr(harness, name, no_run)
    monkeypatch.setattr(cli, "spectral_init", no_run)
    monkeypatch.setattr(cli, "run_scenario", no_run)
    with pytest.raises(ValueError, match=r"^at p_max=0.3: dummy refuses twist_iter_max=1$"):
        scenario_config(1, methods=("alma", "dummy"), twist_iter_max=1)
    for argv, message in (
        (["scenario", "--scenario", "1", "--methods", "dummy", "--config",
          str(tmp_path / "cfg.json"), "--out", str(tmp_path / "res")],
         "alma scenario: error: at p_max=0.3: dummy refuses twist_iter_max=1\n"),
        (["fit", "--input", str(tmp_path / "adjacency.bin"), "--groups", "2",
          "--communities", "2", "--method", "dummy", "--twist-iters", "1"],
         "alma fit: error: dummy refuses twist_iter_max=1\n"),
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert capsys.readouterr() == ("", message)
    assert not (tmp_path / "res").exists()


def test_a_new_method_does_not_join_the_default_runs(dummy):
    # acceptance 10's sweep: scenario 3, two grid points, three replicates, seed 7
    cfg = scenario_config(3, grid_points=2, replicates=3, master_seed=7)
    assert cfg.methods == DEFAULT_METHODS == ("alma", "twist")
    records = run_scenario(cfg)
    assert len(records) == 12 and {r.method for r in records} == {"alma", "twist"}
