"""Command-line entry points.

Subcommands:
  generate     sample an instance and one adjacency draw to files
  fit          estimate layer groups and communities from an adjacency tensor
  scenario     run a stock simulation sweep and emit CSV/SVG results
  elbow        objective-vs-group-count scan for model selection
  diagnostics  identifiability and difficulty constants for an instance file
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .diagnostics import beta_nl, check_a1, condition_numbers, kappa_h
from .harness import (
    ScenarioConfig,
    elbow_scan,
    emit_results,
    fit_method,
    run_scenario,
    scenario_config,
)
from .initialization import spectral_init
from .model import assemble_ground_truth, load_instance, save_instance
from .sampling import (
    sample_adjacency,
    sample_instance,
    substream,
    read_edge_list,
    write_edge_list,
)
from .solver import objective
from .tensors import read_tensor, write_tensor


def _add_generate(sub):
    p = sub.add_parser("generate", help="sample an instance and adjacency tensor")
    p.add_argument("--n", type=int, default=100, help="nodes per layer")
    p.add_argument("--layers", type=int, default=40, help="number of layers")
    p.add_argument("--groups", type=int, default=3, help="number of layer groups")
    p.add_argument("--communities", type=int, default=3, help="communities per group")
    p.add_argument("--p-max", type=float, default=0.5)
    p.add_argument("--alpha", type=float, default=0.9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--edge-list", action="store_true", help="also write text edges")


def _cmd_generate(args) -> int:
    inst = sample_instance(
        args.n, args.layers, args.groups, args.communities,
        args.p_max, args.alpha, substream(args.seed, 0),
    )
    gt = assemble_ground_truth(inst)
    a = sample_adjacency(gt, substream(args.seed, 1))
    os.makedirs(args.out, exist_ok=True)
    inst_path = os.path.join(args.out, "instance.json")
    save_instance(inst, inst_path)
    adj_path = os.path.join(args.out, "adjacency.bin")
    write_tensor(a, adj_path, flavor="u1")
    print(inst_path)
    print(adj_path)
    if args.edge_list:
        edge_path = os.path.join(args.out, "adjacency.edges")
        write_edge_list(a, edge_path)
        print(edge_path)
    return 0


def _add_fit(sub):
    p = sub.add_parser("fit", help="fit one adjacency tensor")
    p.add_argument("--input", help="binary tensor file")
    p.add_argument("--edge-list", help="text edge-list file (l i j per line)")
    p.add_argument("--layers", type=int, help="layer count for edge-list input")
    p.add_argument("--nodes", type=int, help="node count for edge-list input")
    p.add_argument("--groups", type=int, required=True)
    p.add_argument("--communities", required=True,
                   help="one count, or comma list per group")
    p.add_argument("--method", choices=("alma", "twist"), default="alma")
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--twist-r", type=int, default=7)
    p.add_argument("--twist-iters", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write fit.json here instead of stdout")


def _parse_ranks(text: str, m: int) -> tuple:
    parts = [int(p) for p in text.split(",")]
    if len(parts) == 1:
        parts = parts * m
    if len(parts) != m:
        raise SystemExit(f"--communities needs 1 or {m} values, got {len(parts)}")
    return tuple(parts)


def _load_adjacency(args):
    if bool(args.input) == bool(args.edge_list):
        raise SystemExit("pass exactly one of --input or --edge-list")
    if args.input:
        return read_tensor(args.input)
    return read_edge_list(args.edge_list, layers=args.layers, nodes=args.nodes)


def _cmd_fit(args) -> int:
    a = _load_adjacency(args)
    m = args.groups
    ranks = _parse_ranks(args.communities, m)
    w1 = spectral_init(a, m, substream(args.seed, 2), restarts=args.restarts)
    res, iters, converged, fit = fit_method(
        a, args.method, ranks, w1, (args.seed,),
        eps_stop=args.eps, max_iter=args.max_iter, restarts=args.restarts,
        twist_r=args.twist_r, twist_iter_max=args.twist_iters,
    )
    info = {"iters": iters, "converged": converged}
    if fit is not None:
        info["objective"] = objective(a, fit.q, fit.w)
    payload = {
        "method": args.method,
        "layer_labels": res.layer_labels.tolist(),
        "node_labels": [g.tolist() for g in res.node_labels],
        **info,
    }
    text = json.dumps(payload, indent=1)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "fit.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(path)
    else:
        print(text)
    return 0


def _add_scenario(sub):
    p = sub.add_parser("scenario", help="run a stock simulation sweep")
    p.add_argument("--scenario", type=int, choices=(1, 2, 3, 4), required=True)
    p.add_argument("--config", help="JSON file with ScenarioConfig overrides")
    p.add_argument("--replicates", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--methods", help="comma list from: alma,twist")
    p.add_argument("--eps", type=float)
    p.add_argument("--max-iter", type=int)
    p.add_argument("--threads", type=int)
    p.add_argument("--grid-points", type=int, default=8)
    p.add_argument("--p-max", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--layers", type=int)
    p.add_argument("--out", default="results")
    p.add_argument("--emit", default="csv", help="comma list from: csv,svg")


_FLAG_TO_FIELD = {
    "replicates": "replicates",
    "seed": "master_seed",
    "eps": "eps_stop",
    "max_iter": "max_iter",
    "threads": "threads",
    "p_max": "p_max",
    "alpha": "alpha",
    "n": "n",
    "layers": "L",
}


def _cmd_scenario(args) -> int:
    overrides = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        valid = set(ScenarioConfig.__dataclass_fields__)
        bad = set(raw) - valid
        if bad:
            raise SystemExit(f"unknown config fields: {sorted(bad)}")
        raw.pop("scenario", None)
        for key in ("grid", "methods"):
            if key in raw:
                raw[key] = tuple(raw[key])
        overrides.update(raw)
    for flag, fieldname in _FLAG_TO_FIELD.items():
        value = getattr(args, flag)
        if value is not None:
            overrides[fieldname] = value
    if args.methods is not None:
        overrides["methods"] = tuple(args.methods.split(","))
    cfg = scenario_config(args.scenario, grid_points=args.grid_points, **overrides)
    records = run_scenario(cfg)
    formats = tuple(args.emit.split(","))
    paths = emit_results(records, args.out, formats=formats, sweep_param=cfg.sweep_param)
    for path in paths.values():
        print(path)
    return 0


def _add_elbow(sub):
    p = sub.add_parser("elbow", help="objective vs group count")
    p.add_argument("--input", help="binary tensor file")
    p.add_argument("--edge-list", help="text edge-list file")
    p.add_argument("--layers", type=int)
    p.add_argument("--nodes", type=int)
    p.add_argument("--m-min", type=int, default=1)
    p.add_argument("--m-max", type=int, default=6)
    p.add_argument("--communities", type=int, required=True)
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--max-iter", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="also write elbow.csv here")


def _cmd_elbow(args) -> int:
    a = _load_adjacency(args)
    rows = elbow_scan(
        a, range(args.m_min, args.m_max + 1), args.communities,
        master_seed=args.seed, eps_stop=args.eps, max_iter=args.max_iter,
    )
    lines = ["m,objective,iters,converged"] + [
        f"{row.m},{row.objective!r},{row.iters},{str(row.converged).lower()}"
        for row in rows
    ]
    text = "\n".join(lines)
    print(text)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "elbow.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(path)
    return 0


def _add_diagnostics(sub):
    p = sub.add_parser("diagnostics", help="theory constants for an instance file")
    p.add_argument("--instance", required=True, help="instance JSON")
    p.add_argument("--out", help="write diagnostics.json here instead of stdout")


def _cmd_diagnostics(args) -> int:
    inst = load_instance(args.instance)
    gt = assemble_ground_truth(inst)
    cond = condition_numbers(gt, inst.K, inst.p_max)
    report = check_a1(gt, inst.K)
    payload = {
        "kappa_h": kappa_h(gt, inst.K),
        "kappa0": cond.kappa0,
        "kappa1": cond.kappa1,
        "kappa2": cond.kappa2,
        "beta_nl": beta_nl(inst.n, inst.L, inst.M, sum(inst.K), cond.kappa0, inst.p_max),
        "a1a": list(report.a1a),
        "a1b": list(report.a1b),
        "min_singular_values": [
            None if not np.isfinite(v) else v for v in report.min_singular_values
        ],
        "span_residuals": list(report.span_residuals),
    }
    text = json.dumps(payload, indent=1)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "diagnostics.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(path)
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alma",
        description="Joint layer-group and community recovery for multilayer networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_generate(sub)
    _add_fit(sub)
    _add_scenario(sub)
    _add_elbow(sub)
    _add_diagnostics(sub)
    return parser


_COMMANDS = {
    "generate": _cmd_generate,
    "fit": _cmd_fit,
    "scenario": _cmd_scenario,
    "elbow": _cmd_elbow,
    "diagnostics": _cmd_diagnostics,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
