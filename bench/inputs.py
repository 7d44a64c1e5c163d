"""Workload parameters and the input files generated from a seed.

Run as ``python3 bench/inputs.py WORKLOAD SEED OUT_DIR`` to write one
workload's inputs; the benchmark does so in a child process, so that the
memory the generator touches does not count towards the measured process's
peak. The same seed always writes the same files.
"""

from __future__ import annotations

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# fit-large: the layer groups come back exactly at p_max 0.2, but whether a
# fit converges is chaotic in the seed (10 to 100 sweeps at 0.2, 4 to 85 even
# at 0.5), and at 0.15, where fits do run the budget, some seeds misgroup
# layers. So the fit runs with a zero step tolerance: always the 100-sweep
# budget, and fit time measures the cost of a sweep, not the stop rule.
FIT = dict(n=600, L=20, M=3, K=3, p_max=0.2, alpha=0.8)
FIT_EPS = 0.0
# elbow: noisy draws at p_max 1.0, where the layer groups are recoverable.
# Whether the fit at the true group count converges early differs by draw
# (it cuts a scan's sweeps by up to a fifth on many draws), so the scan
# also runs with a zero step tolerance and every fit does the full budget.
ELBOW = dict(n=100, L=40, M=3, K=3, p_max=1.0, alpha=0.9)
ELBOW_DRAWS = 4
ELBOW_EPS = 0.0
ELBOW_M = (1, 5)
# sweep: stock scenario 1, every grid point once, default tolerance: the one
# workload where the stop rule decides how many sweeps a fit runs
SWEEP = dict(scenario=1, grid_points=8, replicates=1)


def _draw(params, seed, *path):
    from alma.model import assemble_ground_truth
    from alma.sampling import sample_adjacency, sample_instance, substream

    inst = sample_instance(params["n"], params["L"], params["M"], params["K"],
                           params["p_max"], params["alpha"], substream(seed, *path, 0))
    return inst, sample_adjacency(assemble_ground_truth(inst), substream(seed, *path, 1))


def generate(workload: str, seed: int, out: str) -> None:
    from alma.model import save_instance
    from alma.sampling import write_edge_list
    from alma.tensors import write_tensor

    os.makedirs(out, exist_ok=True)
    if workload == "sweep":
        return  # the scenario samples its own cells from the seed
    if workload == "fit-large":
        inst, a = _draw(FIT, seed, 0)
        write_tensor(a, os.path.join(out, "adjacency.bin"), flavor="u1")
        save_instance(inst, os.path.join(out, "instance.json"))
    elif workload == "elbow":
        for j in range(ELBOW_DRAWS):
            inst, a = _draw(ELBOW, seed, j)
            write_edge_list(a, os.path.join(out, f"draw{j}.edges"))
            save_instance(inst, os.path.join(out, f"draw{j}.json"))
    else:
        raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    sys.path.insert(0, SRC)
    generate(sys.argv[1], int(sys.argv[2]), sys.argv[3])
