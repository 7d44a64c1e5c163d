"""The benchmark's workloads, driven through alma's public functions and CLI.

Each workload has a unit of work (a fit, a scenario cell, an elbow scan).
``op(i)`` runs one timed operation of one or more units and returns its
outcome; ``evaluate`` turns a run's outcomes into accuracies, pass/fail
output checks and workload-specific per-layer values. Modules are reached
through their attributes at call time (``cli.main``, not a name imported from
it) so that the traced run sees every call.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from contextlib import redirect_stdout

import numpy as np

import inputs
from stats import elbow_pick

from alma import cli, clustering, harness, metrics, model
from alma.errors import EstimationError


def _quiet_cli(argv) -> None:
    # the CLI prints output paths and elbow rows; keep them out of the report
    with redirect_stdout(io.StringIO()):
        cli.main(argv)


def _labels_ok(payload, inst) -> bool:
    layer, nodes = payload["layer_labels"], payload["node_labels"]
    return (
        len(layer) == inst.L and all(0 <= z < inst.M for z in layer)
        and len(nodes) == inst.M
        and all(len(g) == inst.n and all(0 <= c < k for c in g) for g, k in zip(nodes, inst.K))
    )


def _fit_and_score(argv, out_dir, inst) -> dict:
    """Run ``alma fit``, read fit.json back and score it against the instance."""
    try:
        _quiet_cli(argv + ["--out", out_dir])
    except EstimationError as exc:
        return {"failed": True, "labels_ok": False, "error": type(exc).__name__}
    with open(os.path.join(out_dir, "fit.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    out = {"failed": False, "labels_ok": _labels_ok(payload, inst),
           "iters": payload["iters"], "converged": payload["converged"]}
    if out["labels_ok"]:
        score = metrics.score_result(inst, clustering.ClusteringResult(
            np.asarray(payload["layer_labels"]), [np.asarray(g) for g in payload["node_labels"]]))
        out["r_bl"], out["r_wl"] = score.r_bl, score.r_wl
    return out


def _accuracy(scored) -> tuple:
    """(1 - mean R_BL, 1 - mean R_WL) over scored fits; zeros when none scored."""
    if not scored:
        return 0.0, 0.0
    return (1.0 - float(np.mean([s["r_bl"] for s in scored])),
            1.0 - float(np.mean([s["r_wl"] for s in scored])))


class FitLarge:
    """``alma fit --input`` on one n=600 instance, scored against it."""

    name = "fit-large"
    unit = "fit"
    cli_command = "fit"

    def __init__(self, seed, in_dir, work_dir):
        self.seed, self.in_dir, self.work_dir = seed, in_dir, work_dir
        self.inst = None

    def _argv(self, name):
        return ["fit", "--input", os.path.join(self.in_dir, name),
                "--groups", str(inputs.FIT["M"]), "--communities", str(inputs.FIT["K"]),
                "--eps", str(inputs.FIT_EPS), "--seed", str(self.seed)]

    def warm_up(self):
        # the real input, one sweep: every code path at full size, little time
        _quiet_cli(self._argv("adjacency.bin")
                   + ["--max-iter", "1", "--out", os.path.join(self.work_dir, "warm")])
        self.inst = model.load_instance(os.path.join(self.in_dir, "instance.json"))

    def op(self, i):
        out = _fit_and_score(self._argv("adjacency.bin"), os.path.join(self.work_dir, "fit"),
                             self.inst)
        out.update(units=1, attempted=1, failures=int(out["failed"]))
        return out

    def evaluate(self, outcomes, extra=None):
        fits = [o for o in outcomes if not o["failed"]]
        results = {(o["iters"], o.get("r_bl"), o.get("r_wl")) for o in fits}
        return {
            "accuracy": _accuracy([o for o in fits if o["labels_ok"]]),
            "checks": [
                ("no_failed_fit", len(fits) == len(outcomes),
                 f"{len(fits)}/{len(outcomes)} fits ok"),
                ("labels_in_range", all(o["labels_ok"] for o in fits), "fit.json labels in range"),
                ("exact_layer_recovery", all(o.get("r_bl") == 0.0 for o in fits),
                 "R_BL == 0 on every fit"),
                ("repeat_fits_agree", len(results) <= 1, f"{len(results)} distinct results"),
            ],
            "per_layer": {},
        }


def _masked_rows(records, out_dir) -> list:
    """runs.csv rows as the harness writes them, with the seconds column blanked."""
    path = harness.emit_results(records, out_dir, formats=("csv",))["runs"]
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("seconds")
    return [row[:col] + [""] + row[col + 1:] for row in rows]


def _mean_rate(outcomes, method, field) -> float:
    """Mean rate over the method's finished rows; 1.0 (all wrong) when none finished."""
    vals = [getattr(r, field) for o in outcomes for r in o["records"]
            if r.method == method and not r.failed]
    return float(np.mean(vals)) if vals else 1.0


class Sweep:
    """``harness.run_scenario`` on stock scenario 1, every grid point once."""

    name = "sweep"
    unit = "cell"
    cli_command = None

    def __init__(self, seed, in_dir, work_dir):
        self.seed, self.work_dir = seed, work_dir

    def config(self, threads):
        return harness.scenario_config(
            inputs.SWEEP["scenario"], grid_points=inputs.SWEEP["grid_points"],
            replicates=inputs.SWEEP["replicates"], master_seed=self.seed, threads=threads)

    def warm_up(self):
        harness.run_scenario(harness.scenario_config(
            inputs.SWEEP["scenario"], grid_points=1, replicates=1, master_seed=self.seed,
            max_iter=1, twist_iter_max=1))

    def op(self, i, threads=1):
        cfg = self.config(threads)
        cells = len(cfg.grid) * cfg.replicates
        out = {"units": cells, "attempted": cells * len(cfg.methods), "threads": threads}
        try:
            records = harness.run_scenario(cfg)
        except EstimationError as exc:
            out.update(failed=True, failures=out["attempted"], records=[],
                       error=type(exc).__name__)
            return out
        out.update(failed=False, failures=sum(r.failed for r in records), records=records)
        return out

    def evaluate(self, outcomes, extra=None):
        """``extra``, when given, is a pass at threads=2 over the same cells."""
        done = [o for o in outcomes if not o["failed"]]
        tables = [_masked_rows(o["records"], os.path.join(self.work_dir, f"pass{i}"))
                  for i, o in enumerate(done)]
        cfg = self.config(1)
        rows = len(cfg.grid) * cfg.replicates * len(cfg.methods)
        checks = [
            ("no_failed_pass", len(done) == len(outcomes),
             f"{len(done)}/{len(outcomes)} passes ok"),
            ("row_count", all(len(t) == 1 + rows for t in tables), f"{rows} rows per pass"),
            ("rates_in_range", all(0.0 <= v <= 1.0 for o in done for r in o["records"]
                                   if not r.failed for v in (r.r_bl, r.r_wl)),
             "R_BL and R_WL in [0, 1]"),
            ("passes_agree", all(t == tables[0] for t in tables),
             "runs.csv rows identical across threads=1 passes, seconds masked"),
        ]
        if extra is not None:
            two = [] if extra["failed"] else _masked_rows(
                extra["records"], os.path.join(self.work_dir, "threads2"))
            checks.append(("threads_agree", bool(tables) and two == tables[0],
                           "runs.csv rows identical at threads=1 and threads=2, seconds masked"))
        return {
            "accuracy": (1.0 - _mean_rate(done, "alma", "r_bl"),
                         1.0 - _mean_rate(done, "alma", "r_wl")),
            "checks": checks,
            "per_layer": {"twist.r_bl": _mean_rate(done, "twist", "r_bl")},
        }


class Elbow:
    """``alma elbow --edge-list --eps 0`` over m=1..5, cycling through noisy draws."""

    name = "elbow"
    unit = "scan"
    cli_command = "elbow"

    def __init__(self, seed, in_dir, work_dir):
        self.seed, self.in_dir, self.work_dir = seed, in_dir, work_dir

    def _argv(self, draw):
        p = inputs.ELBOW
        return ["elbow", "--edge-list", os.path.join(self.in_dir, f"draw{draw}.edges"),
                "--layers", str(p["L"]), "--nodes", str(p["n"]),
                "--m-min", str(inputs.ELBOW_M[0]), "--m-max", str(inputs.ELBOW_M[1]),
                "--communities", str(p["K"]), "--eps", str(inputs.ELBOW_EPS),
                "--seed", str(self.seed)]

    def warm_up(self):
        _quiet_cli(self._argv(0) + ["--max-iter", "1"])

    def op(self, i):
        draw = i % inputs.ELBOW_DRAWS
        out_dir = os.path.join(self.work_dir, "elbow")
        _quiet_cli(self._argv(draw) + ["--out", out_dir])
        with open(os.path.join(out_dir, "elbow.csv"), encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        ms = [int(r["m"]) for r in rows]
        objs = [float(r["objective"]) for r in rows]
        return {"units": 1, "attempted": len(rows), "failed": False, "draw": draw,
                "failures": sum(not math.isfinite(v) for v in objs),
                "sweeps": sum(int(r["iters"]) for r in rows),
                "ms": ms, "objectives": objs, "pick": elbow_pick(ms, objs)}

    def evaluate(self, outcomes, extra=None):
        """Accuracy comes from one ``alma fit`` at the true group count on draw 0."""
        inst = model.load_instance(os.path.join(self.in_dir, "draw0.json"))
        fit = _fit_and_score(
            ["fit", "--edge-list", os.path.join(self.in_dir, "draw0.edges"),
             "--layers", str(inst.L), "--nodes", str(inst.n), "--groups", str(inst.M),
             "--communities", str(inst.K[0]), "--seed", str(self.seed)],
            os.path.join(self.work_dir, "fit"), inst)
        true_m = inputs.ELBOW["M"]
        want = list(range(inputs.ELBOW_M[0], inputs.ELBOW_M[1] + 1))
        return {
            "accuracy": _accuracy([fit] if fit["labels_ok"] else []),
            "checks": [
                ("rows_complete", all(o["ms"] == want for o in outcomes),
                 f"one row per m in {want}"),
                ("finite_up_to_true_m",
                 all(math.isfinite(v) for o in outcomes
                     for m, v in zip(o["ms"], o["objectives"]) if m <= true_m),
                 f"objective finite for every m <= {true_m}"),
                ("true_m_fit_labels", fit["labels_ok"], "labels of the m=M fit in range"),
            ],
            "per_layer": {
                "elbow_hit_frac": float(np.mean([o["pick"] == true_m for o in outcomes])),
            },
        }


WORKLOADS = {w.name: w for w in (FitLarge, Sweep, Elbow)}
