"""End-to-end acceptance gate.

Each test checks one shipped guarantee at its stated tolerance and prints a
single pass/fail line so the whole gate can be read off a terminal at a
glance. Seeds are fixed; every number here is reproducible.
"""

import math
import subprocess
import sys
import time
from itertools import combinations, permutations

import numpy as np
import pytest

from alma.clustering import cluster_factor_pair
from alma.diagnostics import condition_numbers, kappa_h
from alma.harness import elbow_scan, run_single, scenario_config
from alma.initialization import spectral_init
from alma.linalg import _from_pairs, rank_project, sym_eig_topk
from alma.metrics import confusion_matrix, score_result
from alma.metrics import _align_assignment, _align_exhaustive
from alma.model import assemble_ground_truth
from alma.sampling import sample_adjacency, sample_instance, substream
from alma.solver import alma_fit, q_update, w_update
from alma.tensors import (
    Tensor3,
    mode1_dematricize,
    mode1_matricize,
    mode1_product,
    mode23_product,
)
from conftest import checkerboard_truth, make_truth


def _report(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"[{num:02d} {name}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def _noiseless_setup(seed):
    inst = sample_instance(100, 40, 3, 3, 0.6, 0.9, substream(seed, 0))
    gt = assemble_ground_truth(inst)
    return inst, gt.p_star


def test_01_noiseless_exact_recovery(capsys):
    t0 = time.perf_counter()
    ranks = (3, 3, 3)
    worst_iters = 0
    failures = []
    for seed in range(10):
        inst, a = _noiseless_setup(seed)
        w1 = spectral_init(a, 3, substream(seed, 2))
        fit = alma_fit(a, ranks, w1, max_iter=50)
        res = cluster_factor_pair(a, fit.w, ranks, substream(seed, 3))
        report = score_result(inst, res)
        worst_iters = max(worst_iters, fit.iters_used)
        if report.r_bl != 0.0 or report.r_wl != 0.0 or fit.iters_used > 50:
            failures.append((seed, report.r_bl, report.r_wl, fit.iters_used))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _report(
        capsys, 1, "noiseless exact recovery", ok,
        f"10/10 seeds exact, max {worst_iters} sweeps, {elapsed:.1f}s"
        if not failures else f"failed seeds: {failures}",
    )


def _scenario1_alma_means(cfg, grid_idx):
    bl, wl = [], []
    for rep in range(cfg.replicates):
        recs = [r for r in run_single(cfg, grid_idx, rep) if r.method == "alma"]
        bl.append(recs[0].r_bl)
        wl.append(recs[0].r_wl)
    return float(np.mean(bl)), float(np.mean(wl))


def test_02_dense_endpoint_error_rates(capsys):
    t0 = time.perf_counter()
    cfg = scenario_config(1, replicates=20, master_seed=0, methods=("alma",))
    assert cfg.grid[7] == pytest.approx(1.0)
    mean_bl, mean_wl = _scenario1_alma_means(cfg, 7)
    elapsed = time.perf_counter() - t0
    ok = mean_bl <= 0.02 and mean_wl <= 0.05 and elapsed < 300.0
    _report(
        capsys, 2, "dense endpoint rates", ok,
        f"p=1.0 over 20 reps: mean R_BL={mean_bl:.4f} (<=0.02), "
        f"mean R_WL={mean_wl:.4f} (<=0.05), {elapsed:.1f}s",
    )


def test_03_denser_is_not_worse(capsys):
    cfg = scenario_config(1, replicates=20, master_seed=0, methods=("alma",))
    assert cfg.grid[1] == pytest.approx(0.4)
    assert cfg.grid[6] == pytest.approx(0.9)
    bl_04, _ = _scenario1_alma_means(cfg, 1)
    bl_09, _ = _scenario1_alma_means(cfg, 6)
    ok = bl_09 <= bl_04 + 0.01
    _report(
        capsys, 3, "denser is not worse", ok,
        f"mean R_BL: {bl_09:.4f} at p=0.9 vs {bl_04:.4f} at p=0.4 (+0.01 slack)",
    )


def test_04_alternating_beats_baseline(capsys):
    cfg = scenario_config(4, grid_points=2, replicates=20, master_seed=1)
    assert cfg.grid[0] == pytest.approx(50.0)
    sums = {m: [0.0, 0.0] for m in ("alma", "twist")}
    for rep in range(cfg.replicates):
        for rec in run_single(cfg, 0, rep):
            sums[rec.method][0] += rec.r_bl
            sums[rec.method][1] += rec.r_wl
    means = {m: (v[0] / 20.0, v[1] / 20.0) for m, v in sums.items()}
    d_bl = means["alma"][0] - means["twist"][0]
    d_wl = means["alma"][1] - means["twist"][1]
    ok = d_bl <= 0.02 and d_wl <= 0.02
    _report(
        capsys, 4, "alternating vs baseline", ok,
        f"mean diffs (alternating minus baseline): R_BL {d_bl:+.4f}, "
        f"R_WL {d_wl:+.4f} (both <= +0.02)",
    )


def _random_noisy_case(i):
    dims = substream(900, i)
    n = int(dims.integers(20, 61))
    L = int(dims.integers(8, 31))
    m = int(dims.integers(2, 4))
    k = int(dims.integers(2, 4))
    p = float(dims.uniform(0.4, 0.9))
    alpha = float(dims.uniform(0.3, 0.8))
    inst = sample_instance(n, L, m, k, p, alpha, substream(901, i))
    gt = assemble_ground_truth(inst)
    a = sample_adjacency(gt, substream(902, i))
    w1 = spectral_init(a, m, substream(903, i))
    return inst, a, w1


def test_05_monotone_descent_trace(capsys):
    worst = 0.0
    checked = 0
    for i in range(50):
        inst, a, w1 = _random_noisy_case(i)
        fit = alma_fit(a, inst.K, w1, max_iter=40)
        trace = np.array(fit.objective_trace)
        rises = np.diff(trace)
        worst = max(worst, float(rises.max() / trace[0])) if rises.size else worst
        checked += 1
        if np.any(rises > 1e-9 * trace[0]):
            break
    ok = checked == 50 and worst <= 1e-9
    _report(
        capsys, 5, "monotone descent", ok,
        f"50 noisy fits, worst relative half-step rise {worst:.2e} (<=1e-9)",
    )


def test_06_iterate_invariants(capsys):
    worst_orth = 0.0
    worst_rank = 0.0
    for i in range(10):
        inst, a, w = _random_noisy_case(i)
        for sweep in range(6):
            q = q_update(a, w, inst.K)
            for m in range(inst.M):
                vals = np.abs(np.linalg.eigvalsh(_from_pairs(q[m])))
                vals.sort()
                vals = vals[::-1]
                worst_rank = max(worst_rank, vals[inst.K[m]] / vals[0])
            w = w_update(a, q)
            worst_orth = max(
                worst_orth,
                float(np.linalg.norm(w.T @ w - np.eye(inst.M))),
            )
    ok = worst_orth <= 1e-10 and worst_rank <= 1e-8
    _report(
        capsys, 6, "iterate invariants", ok,
        f"10 fits x 6 sweeps: max ||W'W-I||={worst_orth:.1e} (<=1e-10), "
        f"max relative rank leak {worst_rank:.1e} (<=1e-8)",
    )


def _brute_force_rank_k(sym, k):
    vals, vecs = np.linalg.eigh(sym)
    best, best_err = None, np.inf
    for subset in combinations(range(sym.shape[0]), k):
        idx = list(subset)
        approx = vecs[:, idx] @ np.diag(vals[idx]) @ vecs[:, idx].T
        err = float(np.linalg.norm(sym - approx))
        if err < best_err:
            best, best_err = approx, err
    return best


def test_07_kernel_oracles(capsys):
    rng = substream(700)
    worst_proj = 0.0
    for _ in range(100):
        g = rng.normal(size=(6, 6))
        sym = (g + g.T) / 2.0
        k = int(rng.integers(1, 6))
        gap = np.linalg.norm(_from_pairs(rank_project(sym, k)) - _brute_force_rank_k(sym, k))
        worst_proj = max(worst_proj, float(gap))

    rng2 = substream(701)
    mismatches = 0
    for _ in range(200):
        k = int(rng2.integers(2, 6))
        n = int(rng2.integers(k, 40))
        counts = confusion_matrix(
            rng2.integers(0, k, size=n), rng2.integers(0, k, size=n), k
        )
        if _align_exhaustive(counts)[1] != _align_assignment(counts)[1]:
            mismatches += 1

    rng3 = substream(702)
    x = Tensor3(rng3.random((4, 5, 6)))
    y = Tensor3(rng3.random((3, 5, 6)))
    mat = rng3.random((3, 4))
    ident = 0.0
    ident = max(ident, float(np.abs(
        mode1_dematricize(mode1_matricize(x), x.dims).array - x.array
    ).max()))
    ident = max(ident, float(np.abs(
        mode1_matricize(mode1_product(x, mat)) - mat @ mode1_matricize(x)
    ).max()))
    ident = max(ident, float(np.abs(
        mode23_product(x, y) - np.einsum("lij,mij->lm", x.array, y.array)
    ).max()))
    ident = max(ident, float(np.abs(
        mode23_product(mode1_product(x, mat), y) - mat @ mode23_product(x, y)
    ).max()))

    ok = worst_proj <= 1e-10 and mismatches == 0 and ident <= 1e-12
    _report(
        capsys, 7, "kernel oracles", ok,
        f"projection vs brute force {worst_proj:.1e} (<=1e-10); "
        f"assignment vs exhaustive {mismatches}/200 mismatches; "
        f"mode identities {ident:.1e} (<=1e-12)",
    )


def _two_group_closed_form(inst, gt):
    n = inst.n
    q0 = np.array(gt.q_star_full.slice(0))
    q1 = np.array(gt.q_star_full.slice(1))
    perps = []
    for sl, k in zip((q0, q1), inst.K):
        u = sym_eig_topk(sl, k, by_magnitude=True).vectors
        perps.append(np.eye(n) - u @ u.T)
    num = (
        np.linalg.norm(q1 - perps[0] @ q1 @ perps[0]) ** 2
        + np.linalg.norm(q0 - perps[1] @ q0 @ perps[1]) ** 2
    )
    den = np.linalg.norm(q0) ** 2 + np.linalg.norm(q1) ** 2
    return math.sqrt(num / den)


def test_08_difficulty_constants(capsys):
    inst_cb, gt_cb = checkerboard_truth()
    cb = kappa_h(gt_cb, inst_cb.K)
    cb_ok = abs(cb - 1.0) <= 1e-8

    inst2, gt2 = make_truth(71, n=25, L=14, m=2, k=3, p_max=0.9, alpha=0.3)
    closed = _two_group_closed_form(inst2, gt2)
    two_gap = abs(kappa_h(gt2, inst2.K) - closed)

    range_ok = True
    cond_ok = True
    for i in range(50):
        dims = substream(800, i)
        n = int(dims.integers(15, 31))
        L = int(dims.integers(10, 21))
        m = int(dims.integers(1, 4))
        k = int(dims.integers(2, 4))
        p = float(dims.uniform(0.4, 0.9))
        alpha = float(dims.uniform(0.2, 0.8))
        inst = sample_instance(n, L, m, k, p, alpha, substream(801, i))
        gt = assemble_ground_truth(inst)
        v = kappa_h(gt, inst.K)
        range_ok = range_ok and -1e-12 <= v <= 1.0 + 1e-12
        cond = condition_numbers(gt, inst.K, inst.p_max)
        cond_ok = cond_ok and min(cond) >= 1.0 - 1e-9
    ok = cb_ok and two_gap <= 1e-8 and range_ok and cond_ok
    _report(
        capsys, 8, "difficulty constants", ok,
        f"shared-eigenspace value {cb:.10f} (=1 +/- 1e-8); two-group closed "
        f"form gap {two_gap:.1e} (<=1e-8); 50 random: range and >=1 checks "
        f"{'clean' if range_ok and cond_ok else 'violated'}",
    )


def test_09_elbow_selects_group_count(capsys):
    inst = sample_instance(100, 40, 3, 3, 0.6, 0.9, substream(5, 0))
    gt = assemble_ground_truth(inst)
    rows = elbow_scan(gt.p_star, [1, 2, 3, 4, 5], 3, master_seed=5)
    objs = [r.objective for r in rows]
    drops = []
    for i in range(len(objs) - 1):
        if math.isfinite(objs[i]) and math.isfinite(objs[i + 1]):
            drops.append((objs[i] - objs[i + 1], rows[i + 1].m))
    best_drop, best_m = max(drops)
    ok = best_m == 3
    _report(
        capsys, 9, "elbow group count", ok,
        f"largest successive drop {best_drop:.4f} enters m={best_m} "
        f"(objectives: {', '.join(f'{o:.2f}' for o in objs)})",
    )


def test_10_thread_count_invariance(capsys, tmp_path):
    def run(threads, out):
        cmd = [
            sys.executable, "-m", "alma", "scenario", "--scenario", "3",
            "--grid-points", "2", "--replicates", "3", "--seed", "7",
            "--threads", str(threads), "--out", str(out), "--emit", "csv",
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        lines = (out / "runs.csv").read_text().splitlines()
        header, rows = lines[0], lines[1:]
        masked = []
        for row in rows:
            cells = row.split(",")
            cells[9] = "MASKED"  # wall-clock seconds differ by design
            masked.append(",".join(cells))
        return header, sorted(masked)

    h1, rows1 = run(1, tmp_path / "t1")
    h8, rows8 = run(8, tmp_path / "t8")
    ok = h1 == h8 and rows1 == rows8 and len(rows1) == 12
    _report(
        capsys, 10, "thread count invariance", ok,
        f"{len(rows1)} rows byte-identical across 1 vs 8 workers "
        f"(seconds masked)",
    )
