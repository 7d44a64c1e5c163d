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
from .errors import EstimationError
from .harness import (
    EMIT_FORMATS,
    METHODS,
    SCENARIOS,
    STAGE_INIT,
    ScenarioConfig,
    elbow_scan,
    emit_results,
    fit_method,
    run_scenario,
    sample_draw,
    scenario_config,
)
from .initialization import spectral_init
from .linalg import _symmetric_slices
from .model import assemble_ground_truth, load_instance, save_instance
from .sampling import read_edge_list, substream, write_edge_list
from .tensors import read_tensor, write_tensor


class _UsageError(Exception):
    """A usage error argparse cannot see: flags that conflict with each other
    or with the input's dims, a bad ``--communities`` list or config file, or
    a missing input file, or an ``--input`` tensor whose slices are not
    symmetric. :func:`main` exits 2 with the message, as argparse
    does for a bad value."""


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"needs an integer, got {text!r}") from None


def positive_int(text: str) -> int:
    """argparse type for a count: an integer >= 1."""
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def seed_int(text: str) -> int:
    """argparse type for a seed: an integer >= 0, as numpy's SeedSequence takes."""
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"needs a number, got {text!r}") from None


def nonnegative_float(text: str) -> float:
    """argparse type for a tolerance: a float >= 0 (0 switches a stop test off)."""
    value = _number(text)
    if not value >= 0.0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def edge_probability(text: str) -> float:
    """argparse type for ``--p-max``: a float in (0, 1]."""
    value = _number(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1], got {text}")
    return value


def unit_fraction(text: str) -> float:
    """argparse type for ``--alpha``: a float in [0, 1]."""
    value = _number(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text}")
    return value


def comma_list(choices):
    """argparse type for a comma list of names from ``choices``, as a tuple."""
    def parse(text: str) -> tuple:
        names = tuple(text.split(","))
        if not all(name in choices for name in names):
            raise argparse.ArgumentTypeError(
                f"needs a comma list from {','.join(choices)}, got {text!r}")
        return names
    return parse


def _add_generate(sub):
    p = sub.add_parser("generate", help="sample an instance and adjacency tensor")
    p.add_argument("--n", type=positive_int, default=100, help="nodes per layer")
    p.add_argument("--layers", type=positive_int, default=40, help="number of layers")
    p.add_argument("--groups", type=positive_int, default=3, help="number of layer groups")
    p.add_argument("--communities", type=positive_int, default=3, help="communities per group")
    p.add_argument("--p-max", type=edge_probability, default=0.5)
    p.add_argument("--alpha", type=unit_fraction, default=0.9)
    p.add_argument("--seed", type=seed_int, default=0)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--edge-list", action="store_true", help="also write text edges")


def _cmd_generate(args) -> int:
    if args.communities > args.n:
        raise _UsageError(f"--communities {args.communities} exceeds --n {args.n}")
    if args.groups > args.layers:
        raise _UsageError(f"--groups {args.groups} exceeds --layers {args.layers}")
    inst, a = sample_draw((args.seed,), args.n, args.layers, args.groups, args.communities,
                          args.p_max, args.alpha)
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


def _write_output(out_dir: str, name: str, text: str) -> str:
    """Write ``text`` and a newline to ``name`` in ``out_dir``, which is made if
    missing; returns the file's path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    return path


def _add_fit(sub):
    p = sub.add_parser("fit", help="fit one adjacency tensor")
    p.add_argument("--input", help="binary tensor file")
    p.add_argument("--edge-list", help="text edge-list file (l i j per line)")
    p.add_argument("--layers", type=positive_int, help="layer count for edge-list input")
    p.add_argument("--nodes", type=positive_int, help="node count for edge-list input")
    p.add_argument("--groups", type=positive_int, required=True)
    p.add_argument("--communities", required=True,
                   help="one count, or comma list per group")
    p.add_argument("--method", choices=METHODS, default="alma")
    p.add_argument("--eps", type=nonnegative_float, default=1e-4,
                   help="step tolerance; also turns on the objective stop test, 0 runs "
                        "the full --max-iter budget")
    p.add_argument("--max-iter", type=positive_int, default=100)
    p.add_argument("--restarts", type=positive_int, default=20)
    p.add_argument("--twist-r", type=positive_int, default=7)
    p.add_argument("--twist-iters", type=positive_int, default=50)
    p.add_argument("--seed", type=seed_int, default=0)
    p.add_argument("--out", help="write fit.json here instead of stdout")


def _parse_ranks(text: str, m: int) -> tuple:
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        raise _UsageError(f"--communities needs integers, got {text!r}") from None
    if len(parts) == 1:
        parts = parts * m
    if len(parts) != m:
        raise _UsageError(f"--communities needs 1 or {m} values, got {len(parts)}")
    if min(parts) < 1:
        raise _UsageError(f"--communities must be >= 1, got {text!r}")
    return tuple(parts)


def _check_input_dims(a, groups_flag: str, groups: int, ranks) -> None:
    """Group and community counts against the loaded input, before any fit starts."""
    L, n, _ = a.dims
    if groups > L:
        raise _UsageError(f"{groups_flag} {groups} exceeds the input's {L} layers")
    if max(ranks) > n:
        raise _UsageError(f"--communities {max(ranks)} exceeds the input's {n} nodes")


def _existing_file(flag: str, path: str) -> str:
    if not os.path.isfile(path):
        raise _UsageError(f"{flag} {path}: no such file")
    return path


def _load_adjacency(args):
    if bool(args.input) == bool(args.edge_list):
        raise _UsageError("pass exactly one of --input or --edge-list")
    if args.input:
        a = read_tensor(_existing_file("--input", args.input))
        if not _symmetric_slices(a.array):
            raise _UsageError(f"--input {args.input}: slices are not symmetric "
                              "to relative tolerance 1e-8")
        return a
    return read_edge_list(_existing_file("--edge-list", args.edge_list),
                          layers=args.layers, nodes=args.nodes)


def _cmd_fit(args) -> int:
    a = _load_adjacency(args)
    m = args.groups
    ranks = _parse_ranks(args.communities, m)
    _check_input_dims(a, "--groups", m, ranks)
    settings = dict(eps_stop=args.eps, max_iter=args.max_iter, restarts=args.restarts,
                    twist_r=args.twist_r, twist_iter_max=args.twist_iters)
    try:
        METHODS[args.method][1](a.dims[1], ranks, **settings)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    w1 = spectral_init(a, m, substream(args.seed, STAGE_INIT), restarts=args.restarts)
    fit = fit_method(a, args.method, ranks, w1, (args.seed,), **settings)
    # a method without a factor pair has no objective or final step to report
    payload = {
        "method": args.method,
        "layer_labels": fit.result.layer_labels.tolist(),
        "node_labels": [g.tolist() for g in fit.result.node_labels],
        "iters": fit.iters,
        "converged": fit.converged,
        "objective": getattr(fit.pair, "objective", None),
        "stop_reason": fit.stop_reason,
        "final_step": getattr(fit.pair, "final_step", None),
    }
    payload = {key: value for key, value in payload.items() if value is not None}
    text = json.dumps(payload, indent=1)
    print(_write_output(args.out, "fit.json", text) if args.out else text)
    return 0


def _add_scenario(sub):
    p = sub.add_parser("scenario", help="run a stock simulation sweep")
    p.add_argument("--scenario", type=int, choices=tuple(SCENARIOS), required=True)
    p.add_argument("--config", help="JSON file with ScenarioConfig overrides")
    p.add_argument("--replicates", type=positive_int)
    p.add_argument("--seed", type=seed_int)
    p.add_argument("--methods", type=comma_list(METHODS),
                   help=f"comma list from: {','.join(METHODS)}")
    p.add_argument("--eps", type=nonnegative_float)
    p.add_argument("--max-iter", type=positive_int)
    p.add_argument("--threads", type=positive_int)
    p.add_argument("--grid-points", type=positive_int, default=8)
    p.add_argument("--p-max", type=edge_probability)
    p.add_argument("--alpha", type=unit_fraction)
    p.add_argument("--n", type=positive_int)
    p.add_argument("--layers", type=positive_int)
    p.add_argument("--out", default="results")
    p.add_argument("--emit", type=comma_list(EMIT_FORMATS), default="csv",
                   help=f"comma list from: {','.join(EMIT_FORMATS)}")


# the config file's number fields, checked as their flags are
_CONFIG_TYPES = {
    "n": positive_int,
    "L": positive_int,
    "M": positive_int,
    "K": positive_int,
    "replicates": positive_int,
    "threads": positive_int,
    "max_iter": positive_int,
    "kmeans_restarts": positive_int,
    "twist_r": positive_int,
    "twist_iter_max": positive_int,
    "master_seed": seed_int,
    "eps_stop": nonnegative_float,
    "p_max": edge_probability,
    "alpha": unit_fraction,
}


def _is_number(value) -> bool:
    # a JSON true is an int to Python, but not a number here
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _config_list(key: str, value, valid, what: str) -> tuple:
    """A config field that must be a nonempty JSON list whose items all pass ``valid``."""
    if not isinstance(value, list) or not value or not all(valid(v) for v in value):
        raise _UsageError(f"config field {key}: needs a nonempty list of {what}, got {value!r}")
    return tuple(value)


def _load_config(path) -> dict:
    """ScenarioConfig overrides from a JSON file, with every field name and value type checked."""
    with open(_existing_file("--config", path), "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise _UsageError(f"--config {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise _UsageError(f"--config {path}: needs a JSON object")
    bad = set(raw) - set(ScenarioConfig.__dataclass_fields__)
    if bad:
        raise _UsageError(f"unknown config fields: {sorted(bad)}")
    raw.pop("scenario", None)
    for key, parse in _CONFIG_TYPES.items():
        if key in raw:
            value = raw[key]
            try:
                # int() would take a JSON true or "3"; neither is a count
                if not _is_number(value):
                    raise argparse.ArgumentTypeError(f"needs a number, got {value!r}")
                raw[key] = parse(repr(value))
            except argparse.ArgumentTypeError as exc:
                raise _UsageError(f"config field {key}: {exc}") from None
    if "grid" in raw:
        raw["grid"] = _config_list("grid", raw["grid"], _is_number, "numbers")
    if "methods" in raw:
        raw["methods"] = _config_list(
            "methods", raw["methods"], METHODS.__contains__, f"names from {', '.join(METHODS)}"
        )
    return raw


_FLAG_TO_FIELD = {
    "replicates": "replicates",
    "seed": "master_seed",
    "methods": "methods",
    "eps": "eps_stop",
    "max_iter": "max_iter",
    "threads": "threads",
    "p_max": "p_max",
    "alpha": "alpha",
    "n": "n",
    "layers": "L",
}


def _cmd_scenario(args) -> int:
    overrides = _load_config(args.config) if args.config else {}
    for flag, fieldname in _FLAG_TO_FIELD.items():
        value = getattr(args, flag)
        if value is not None:
            overrides[fieldname] = value
    try:
        cfg = scenario_config(args.scenario, grid_points=args.grid_points, **overrides)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    records = run_scenario(cfg)
    paths = emit_results(records, args.out, formats=args.emit, sweep_param=cfg.sweep_param)
    for path in paths.values():
        print(path)
    return 0


def _add_elbow(sub):
    p = sub.add_parser("elbow", help="objective vs group count")
    p.add_argument("--input", help="binary tensor file")
    p.add_argument("--edge-list", help="text edge-list file")
    p.add_argument("--layers", type=positive_int)
    p.add_argument("--nodes", type=positive_int)
    p.add_argument("--m-min", type=positive_int, default=1)
    p.add_argument("--m-max", type=positive_int, default=6)
    p.add_argument("--communities", type=positive_int, required=True)
    p.add_argument("--eps", type=nonnegative_float, default=1e-4)
    p.add_argument("--max-iter", type=positive_int, default=100)
    p.add_argument("--seed", type=seed_int, default=0)
    p.add_argument("--out", help="also write elbow.csv here")


def _cmd_elbow(args) -> int:
    if args.m_min > args.m_max:
        raise _UsageError(f"--m-min {args.m_min} exceeds --m-max {args.m_max}")
    a = _load_adjacency(args)
    _check_input_dims(a, "--m-max", args.m_max, (args.communities,))
    rows = elbow_scan(
        a, range(args.m_min, args.m_max + 1), args.communities,
        master_seed=args.seed, eps_stop=args.eps, max_iter=args.max_iter,
    )
    lines = ["m,objective,iters,converged,stop_reason"] + [
        f"{row.m},{row.objective!r},{row.iters},{str(row.converged).lower()},{row.stop_reason}"
        for row in rows
    ]
    text = "\n".join(lines)
    print(text)
    if args.out:
        print(_write_output(args.out, "elbow.csv", text))
    return 0


def _add_diagnostics(sub):
    p = sub.add_parser("diagnostics", help="theory constants for an instance file")
    p.add_argument("--instance", required=True, help="instance JSON")
    p.add_argument("--out", help="write diagnostics.json here instead of stdout")


def _cmd_diagnostics(args) -> int:
    inst = load_instance(_existing_file("--instance", args.instance))
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
    print(_write_output(args.out, "diagnostics.json", text) if args.out else text)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        parser.exit(2, f"alma {args.command}: error: {exc}\n")
    except EstimationError as exc:
        parser.exit(1, f"alma {args.command}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
