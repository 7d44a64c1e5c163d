"""Benchmark of the alma estimator, one workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload in turn and exits non-zero if any
output check failed.

Run it from a checkout that holds ``src/alma`` and ``bench/``; it imports the
package from ``src`` and needs no build. Inputs are generated from ``--seed``
into ``.bench_work/`` and the program receives only those files. Workloads:

* ``fit-large``: ``alma fit --input --eps 0`` at n=600, L=20, M=K=3,
  p_max=0.2, alpha=0.8, scored against the saved instance. The dense eigen
  kernels do almost all the work and every fit runs the full 100-sweep budget
  (see ``inputs.py`` for why the step tolerance is 0).
* ``sweep``: ``harness.run_scenario`` on stock scenario 1 (n=100, L=40, eight
  p_max points from 0.3 to 1.0, methods alma and twist) at threads=1. Small
  cells, so per-call overhead, k-means, twist and sampling carry weight; the
  default step tolerance, so the stop rule sets how many sweeps a fit runs.
* ``elbow``: ``alma elbow --edge-list --eps 0`` over m=1..5 on four noisy
  draws (n=100, L=40, p_max=1.0, alpha=0.9). Parses text input, runs the
  solver above the true group count and shows the wrong picks on noisy data.

With ``--trace 0`` the run sets up ``SETUP_REPS`` times, repeats the
workload's operation for about ``--seconds`` and prints the end-to-end
metrics. With ``--trace 1`` it alternates untraced runs of the operation with
runs that record spans around the calls into every alma module (see
``tracer.py``) and prints per-layer metrics: self seconds and call counts per
public function, per unit of work (fit, cell or scan). Exceptions to self
time: ``harness.run_single_s`` is the median cell, ``cli.fit_s`` /
``cli.elbow_s`` the whole ``main`` call and ``solver.sweep_s`` the fit time
per sweep. A layer a workload does not call reports 0. The sweep is traced at
threads=1 only, because spans inside pool workers are not collected; its
traced run also makes one untraced pass at threads=2, for the 2-process rate
and the check that both thread counts write the same rows.

The last line of standard output is the result as JSON. The full result, with
the environment and every sample, goes to ``.bench_work/results/`` and the
spans of a traced run to ``.bench_work/traces/``. The exit code is 1 when an
output check fails. The BLAS/OpenMP thread environment is left as the caller
has it and recorded.

Tune with seeds 1-10 (``TUNING_SEEDS``); check a claimed gain again on the
held-out seeds 1001-1010, which were not used while tuning.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

TUNING_SEEDS = tuple(range(1, 11))
HELD_OUT_SEEDS = tuple(range(1001, 1011))
SETUP_REPS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Public functions timed in the traced run, as "module.function".
TARGETS = (
    "sampling.sample_instance", "sampling.sample_adjacency", "sampling.read_edge_list",
    "model.assemble_ground_truth",
    "tensors.read_tensor", "tensors.mode1_product", "tensors.mode23_product",
    "linalg.rank_project", "linalg.polar_project", "linalg.sym_eig_topk",
    "linalg.svd_top_left",
    "initialization.spectral_init",
    "solver.alma_fit", "solver.q_update", "solver.w_update", "solver.objective",
    "clustering.cluster_factor_pair", "clustering.kmeans",
    "twist.twist_fit",
    "metrics.score_result",
    "harness.run_scenario", "harness.run_single", "harness.elbow_scan",
    "cli.main",
)
COUNTED = ("linalg.rank_project", "tensors.mode1_product", "tensors.mode23_product",
           "clustering.kmeans")
# Reported by their inclusive time instead of a self time.
INCLUSIVE = ("harness.run_single", "cli.main")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    *((t + "_s", "s", "lower") for t in TARGETS if t not in INCLUSIVE),
    *((t + "_calls", "count", "lower") for t in COUNTED),
    ("tensors.mode1_product_gb", "GB_computed", "lower"),
    ("tensors.mode23_product_gb", "GB_computed", "lower"),
    ("solver.sweeps", "count", "lower"),
    ("solver.sweep_s", "s", "lower"),
    ("solver.converged_frac", "frac", "higher"),
    ("twist.r_bl", "frac", "lower"),
    ("harness.run_single_s", "s", "lower"),
    ("harness.cells_per_s_serial", "1/s", "higher"),
    ("harness.cells_per_s_2proc", "1/s", "higher"),
    ("harness.scaling_2proc", "ratio", "higher"),
    ("cli.fit_s", "s", "lower"),
    ("cli.elbow_s", "s", "lower"),
    ("elbow_hit_frac", "frac", "higher"),
    ("failed_frac", "frac", "lower"),
    ("trace_overhead_frac", "frac", "lower"),
    ("trace_cover_frac", "frac", "higher"),
)


def _after_fit(tracer, args, result):
    tracer.counters["fits"] += 1
    tracer.counters["sweeps"] += result.iters_used
    tracer.counters["converged"] += bool(result.converged)


def _after_mode1(tracer, args, result):
    # bytes computed from shapes: read x and the factor, write the product
    x, a = args[0], args[1]
    d1, d2, d3 = x.dims
    m = len(a)
    tracer.counters["mode1_bytes"] += 8 * (d1 * d2 * d3 + m * d1 + m * d2 * d3)


def _after_mode23(tracer, args, result):
    x, y = args[0], args[1]
    (d1, d2, d3), e1 = x.dims, y.dims[0]
    tracer.counters["mode23_bytes"] += 8 * ((d1 + e1) * d2 * d3 + d1 * e1)


HOOKS = {"solver.alma_fit": _after_fit, "tensors.mode1_product": _after_mode1,
         "tensors.mode23_product": _after_mode23}


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}: {blas.get('openblas configuration', '')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": " ".join(blas.split()),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def seed_set(seed: int) -> str:
    if seed in TUNING_SEEDS:
        return "tuning"
    return "held-out" if seed in HELD_OUT_SEEDS else "other"


def set_up(workload, seed, in_dir, reps) -> list:
    """Seconds of each set-up: import, generate and write the inputs in a child
    process, then warm up in this one."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.join(HERE, "inputs.py"), workload.name,
                        str(seed), in_dir], check=True)
        workload.warm_up()
        times.append(time.perf_counter() - t0)
    return times


def timed_op(workload, i, **kw) -> dict:
    t0 = time.perf_counter()
    out = workload.op(i, **kw)
    out["seconds"] = time.perf_counter() - t0
    return out


def repeat(step, seconds) -> None:
    """Call ``step(i)`` for i = 0, 1, ... within ``seconds``, at least once.

    Another call starts only if, at the mean pace so far, it ends within the
    time budget: operations last up to half of it, so "until the time is up"
    would add a whole operation at random.
    """
    start = time.perf_counter()
    calls = 0
    while True:
        step(calls)
        calls += 1
        if (time.perf_counter() - start) * (calls + 1) / calls > seconds:
            return


def per_layer_metrics(workload, tracer, untraced, wall_untraced, wall_traced, two_proc, ev):
    from tracer import self_times

    units = sum(o["units"] for o in untraced)
    rows = tracer.by_name()

    def total(name, key):
        return rows[name][key] if name in rows else 0

    out = {}
    for t in TARGETS:
        if t not in INCLUSIVE:
            out[t + "_s"] = total(t, "self_s") / units
    for t in COUNTED:
        out[t + "_calls"] = total(t, "calls") / units
    c = tracer.counters
    out["tensors.mode1_product_gb"] = c["mode1_bytes"] / 1e9 / units
    out["tensors.mode23_product_gb"] = c["mode23_bytes"] / 1e9 / units
    fit_s = sum(total("solver.alma_fit", "durations") or [])
    out["solver.sweeps"] = c["sweeps"] / c["fits"] if c["fits"] else 0.0
    out["solver.sweep_s"] = fit_s / c["sweeps"] if c["sweeps"] else 0.0
    out["solver.converged_frac"] = c["converged"] / c["fits"] if c["fits"] else 0.0
    out["twist.r_bl"] = 0.0
    cells = total("harness.run_single", "durations")
    out["harness.run_single_s"] = statistics.median(cells) if cells else 0.0
    serial = units / sum(o["seconds"] for o in untraced) if two_proc else 0.0
    parallel = two_proc["units"] / two_proc["seconds"] if two_proc else 0.0
    out["harness.cells_per_s_serial"] = serial
    out["harness.cells_per_s_2proc"] = parallel
    out["harness.scaling_2proc"] = parallel / serial if two_proc else 0.0
    main_s = sum(total("cli.main", "durations") or []) / units
    out["cli.fit_s"] = main_s if workload.cli_command == "fit" else 0.0
    out["cli.elbow_s"] = main_s if workload.cli_command == "elbow" else 0.0
    out["elbow_hit_frac"] = 0.0
    out.update(ev["per_layer"])
    out["trace_overhead_frac"] = wall_traced / wall_untraced - 1.0
    out["trace_cover_frac"] = sum(self_times(tracer.spans)) / wall_untraced
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "alma", "__init__.py")):
        print(f"alma sources not found under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    from workloads import WORKLOADS
    import_s = time.perf_counter() - t0
    if args.workload == "all":
        # one child per workload, so each has its own peak RSS and set-up
        codes = [subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        return max(codes)
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = os.path.join(WORK, f"{tag}-{os.getpid()}")
    in_dir = os.path.join(run_dir, "inputs")
    workload = WORKLOADS[args.workload](args.seed, in_dir, os.path.join(run_dir, "out"))
    env = environment()
    print(f"alma benchmark: workload={args.workload} seed={args.seed} "
          f"({seed_set(args.seed)} set) seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    try:
        if args.trace:
            result = _traced_run(args, workload, in_dir)
        else:
            result = _untraced_run(args, workload, in_dir, import_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for name, ok, detail in result["checks"]:
        print(f"check {name:<24} {'ok' if ok else 'FAILED':<6} {detail}")
    correct = all(ok for _, ok, _ in result["checks"])
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seed_set": seed_set(args.seed),
                   "seconds": args.seconds, "trace": args.trace, "env": env, "correct": correct,
                   **result}, fh, indent=1, default=str)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if correct else 1


def _report(name, value, unit, note=""):
    print(f"{name:<36} {value:>14.6g} {unit:<12} {note}")
    return {"value": value, "unit": unit}


def _scalars(outcome) -> dict:
    return {k: v for k, v in outcome.items() if isinstance(v, (bool, int, float, str))}


def _counts(outcomes):
    return (sum(o["attempted"] for o in outcomes), sum(o["failures"] for o in outcomes))


def _untraced_run(args, workload, in_dir, import_s) -> dict:
    from stats import summarize

    setups = set_up(workload, args.seed, in_dir, SETUP_REPS)
    outcomes = []
    repeat(lambda i: outcomes.append(timed_op(workload, i)), args.seconds)
    ev = workload.evaluate(outcomes)
    per_unit = summarize([o["seconds"] / o["units"] for o in outcomes])
    units = sum(o["units"] for o in outcomes)
    pct = (f", p{per_unit['pct']:g} {per_unit['pct_value']:.6g} s" if per_unit["pct"]
           else ", no percentile has 10 samples beyond it")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed = _counts(outcomes)
    metrics = {
        "setup_s": _report("setup_s", statistics.median(setups), "s",
                           f"median of {len(setups)} set-ups, each importing the package"),
        "op_s": _report("op_s", per_unit["median"], "s",
                        f"median s per {workload.unit}, n={per_unit['n']} operations "
                        f"covering {units} {workload.unit}s{pct}"),
        "peak_rss_mb": _report("peak_rss_mb", rss_mb, "MB", "max RSS of this process"),
        "layer_acc": _report("layer_acc", ev["accuracy"][0], "frac",
                             f"1 - mean R_BL of alma, {attempted} attempted"),
        "node_acc": _report("node_acc", ev["accuracy"][1], "frac", "1 - mean R_WL of alma"),
    }
    return {"metrics": metrics, "checks": ev["checks"], "attempted": attempted, "failed": failed,
            "setup_samples": setups, "import_s": import_s,
            "outcomes": [_scalars(o) for o in outcomes]}


def _traced_run(args, workload, in_dir) -> dict:
    from tracer import Tracer, instrument

    set_up(workload, args.seed, in_dir, 1)
    untraced, traced, tracer = [], [], Tracer()

    def pair(i):
        # untraced and traced runs of the same operation alternate, so that
        # drift in the host's speed falls on both alike
        untraced.append(timed_op(workload, i))
        with instrument(tracer, TARGETS, HOOKS):
            traced.append(timed_op(workload, i))

    repeat(pair, args.seconds)
    wall_u = sum(o["seconds"] for o in untraced)
    wall_t = sum(o["seconds"] for o in traced)
    two_proc = None
    if workload.name == "sweep":
        print("note: sweep traced at threads=1 only; spans inside pool workers are not collected")
        two_proc = timed_op(workload, 0, threads=2)
    everything = untraced + traced + ([two_proc] if two_proc else [])
    ev = workload.evaluate(untraced + traced, two_proc)
    values = per_layer_metrics(workload, tracer, untraced, wall_u, wall_t, two_proc, ev)
    attempted, failed = _counts(everything)
    values["failed_frac"] = failed / attempted
    units = dict(((n, u) for n, u, _ in PER_LAYER))
    metrics = {name: _report(name, values[name], units[name]) for name, _, _ in PER_LAYER}
    cover = values["trace_cover_frac"]
    print(f"trace: self times sum to {cover:.4f} of the untraced wall time ({wall_u:.3f} s) "
          f"and {cover * wall_u / wall_t:.4f} of the traced one ({wall_t:.3f} s); "
          f"overhead {values['trace_overhead_frac']:+.4f}")
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    tracer.dump(os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.json"))
    return {"metrics": metrics, "checks": ev["checks"], "attempted": attempted, "failed": failed,
            "wall_untraced": wall_u, "wall_traced": wall_t, "ops": len(untraced)}


if __name__ == "__main__":
    sys.exit(main())
