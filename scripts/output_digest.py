#!/usr/bin/env python3
"""Write the deterministic outputs of the benchmark workloads to one directory.

    python3 scripts/output_digest.py OUT_DIR [--seeds 1,2,3,4] [--src PATH]

For every seed S it writes under ``OUT_DIR/seed-S/``:

* ``fit-large/fit.json``: ``alma fit --input --eps 0`` on the fit-large input
  (n=600, the full 100-sweep budget);
* ``sweep-threads1/runs.csv`` and ``sweep-threads2/runs.csv``: ``alma
  scenario`` on the sweep workload's cells of stock scenario 1 at
  ``--threads 1`` and ``--threads 2``, with the ``seconds`` column blanked;
* ``elbow/drawJ.csv``: ``alma elbow --edge-list --eps 0`` over m=1..5 on each
  elbow draw J;
* ``elbow-cpu1/drawJ.csv``: the same scans with the CLI held to one CPU, so
  that it fits the candidates one after another instead of in worker
  processes.

The inputs are generated from the seed by ``bench/inputs.py`` of the checkout
that holds this script, so runs against different ``--src`` trees read the
same files. The CLI runs from ``--src`` (default: this checkout's ``src``) in
a subprocess. Two trees that give the same outputs write directories that
``diff -r`` finds equal. Four seeds take a few minutes on two cores.
"""

import argparse
import csv
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import inputs  # noqa: E402  (workload parameters; the module imports no alma code)


def seed_list(text: str) -> list:
    """argparse type for --seeds: a comma list of integers."""
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"needs a comma list of integers, got {text!r}") from None


def _one_cpu() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _run(argv, src, cwd, one_cpu=False) -> None:
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          preexec_fn=_one_cpu if one_cpu else None)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")


def _masked_runs(src_path, dst_path) -> None:
    with open(src_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("seconds")
    for row in rows[1:]:
        row[col] = ""
    with open(dst_path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def digest_seed(seed: int, out: str, src: str, tmp: str) -> None:
    alma = ["-m", "alma"]
    gen = os.path.join(ROOT, "bench", "inputs.py")

    fit_in = os.path.join(tmp, "fit-large")
    _run([gen, "fit-large", str(seed), fit_in], src, tmp)
    _run(alma + ["fit", "--input", os.path.join(fit_in, "adjacency.bin"),
                 "--groups", str(inputs.FIT["M"]), "--communities", str(inputs.FIT["K"]),
                 "--eps", str(inputs.FIT_EPS), "--seed", str(seed),
                 "--out", os.path.join(out, "fit-large")], src, tmp)

    for threads in (1, 2):
        res = os.path.join(tmp, f"sweep-threads{threads}")
        _run(alma + ["scenario", "--scenario", str(inputs.SWEEP["scenario"]),
                     "--grid-points", str(inputs.SWEEP["grid_points"]),
                     "--replicates", str(inputs.SWEEP["replicates"]),
                     "--seed", str(seed), "--threads", str(threads), "--out", res], src, tmp)
        dst = os.path.join(out, f"sweep-threads{threads}")
        os.makedirs(dst)
        _masked_runs(os.path.join(res, "runs.csv"), os.path.join(dst, "runs.csv"))

    elbow_in = os.path.join(tmp, "elbow")
    _run([gen, "elbow", str(seed), elbow_in], src, tmp)
    p = inputs.ELBOW
    for name, one_cpu in (("elbow", False), ("elbow-cpu1", True)):
        os.makedirs(os.path.join(out, name))
        for draw in range(inputs.ELBOW_DRAWS):
            res = os.path.join(tmp, f"{name}-{draw}")
            _run(alma + ["elbow", "--edge-list", os.path.join(elbow_in, f"draw{draw}.edges"),
                         "--layers", str(p["L"]), "--nodes", str(p["n"]),
                         "--m-min", str(inputs.ELBOW_M[0]), "--m-max", str(inputs.ELBOW_M[1]),
                         "--communities", str(p["K"]), "--eps", str(inputs.ELBOW_EPS),
                         "--seed", str(seed), "--out", res], src, tmp, one_cpu=one_cpu)
            shutil.copyfile(os.path.join(res, "elbow.csv"),
                            os.path.join(out, name, f"draw{draw}.csv"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", metavar="OUT_DIR", help="new or empty output directory")
    ap.add_argument("--seeds", type=seed_list, default="1,2,3,4")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="the src directory whose alma package runs the CLI")
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(args.src, "alma")):
        ap.error(f"--src {args.src}: no alma package there")
    if os.path.exists(args.out) and os.listdir(args.out):
        ap.error(f"{args.out} is not empty")
    src = os.path.abspath(args.src)
    for seed in args.seeds:
        out = os.path.join(os.path.abspath(args.out), f"seed-{seed}")
        os.makedirs(out)
        with tempfile.TemporaryDirectory() as tmp:
            digest_seed(seed, out, src, tmp)
        print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
