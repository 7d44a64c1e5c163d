"""Simulation scenarios: sweep a difficulty knob, replicate, score, emit.

Four stock scenarios sweep edge density (1), node count (2), and layer count
with more or fewer layers than nodes (3, 4). Every (grid point, replicate)
task derives all of its randomness from the master seed and its own integer
path, so runs can fan out across processes and still produce byte-identical
results; wall-clock seconds are the only nondeterministic column.
:func:`fit_method` is the fit pipeline shared by the cells and ``alma fit``.
"""

from __future__ import annotations

import csv
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, replace

import numpy as np

from .clustering import cluster_factor_pair
from .errors import DegenerateIterateError, EstimationError
from .initialization import spectral_init
from .linalg import pin_blas_threads, sym_eig_topk
from .metrics import score_result
from .model import assemble_ground_truth
from .sampling import sample_adjacency, sample_instance, substream
from .solver import _check_fit_args, alma_fit
from .tensors import Tensor3
from .twist import twist_fit

METHODS = ("alma", "twist")
EMIT_FORMATS = ("csv", "svg")

# stream-path stage tags
STAGE_INSTANCE = 0
STAGE_ADJACENCY = 1
STAGE_INIT = 2
STAGE_ALMA_CLUSTER = 3
STAGE_TWIST_CLUSTER = 4
_ELBOW_TAG = 97


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: int
    n: int
    L: int
    M: int
    K: int
    p_max: float
    alpha: float
    sweep_param: str
    grid: tuple
    replicates: int = 20
    master_seed: int = 0
    methods: tuple = METHODS
    eps_stop: float = 1e-4
    max_iter: int = 100
    kmeans_restarts: int = 20
    twist_r: int = 7
    twist_iter_max: int = 50
    threads: int = 1

    def __post_init__(self):
        if self.sweep_param not in ("p_max", "n", "L"):
            raise ValueError(f"unknown sweep parameter {self.sweep_param!r}")
        if len(self.grid) < 1:
            raise ValueError("grid must be nonempty")
        if self.replicates < 1 or self.threads < 1:
            raise ValueError("replicates and threads must be >= 1")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha={self.alpha} must lie in [0, 1]")
        # every cell is checked before any is sampled
        for value in self.grid:
            n, L, p_max = _sweep_params(self, value)
            at = f"at {self.sweep_param}={value:g}"
            if not 0.0 < p_max <= 1.0:
                raise ValueError(f"{at}: p_max={p_max} must lie in (0, 1]")
            if self.K > n or self.M > L:
                raise ValueError(f"{at}: need K <= n and M <= L, got K={self.K}, n={n}, "
                                 f"M={self.M}, L={L}")
            if "twist" in self.methods and not self.M <= self.twist_r <= n:
                raise ValueError(f"{at}: twist needs M <= twist_r <= n, got M={self.M}, "
                                 f"twist_r={self.twist_r}, n={n}")


# per-scenario fixed parameters and sweep ranges
SCENARIOS = {
    1: dict(n=100, L=40, M=3, K=3, p_max=0.6, alpha=0.9, sweep_param="p_max", lo=0.3, hi=1.0),
    2: dict(n=100, L=40, M=3, K=3, p_max=0.6, alpha=0.9, sweep_param="n", lo=30, hi=300),
    3: dict(n=40, L=40, M=3, K=3, p_max=0.5, alpha=0.8, sweep_param="L", lo=40, hi=140),
    4: dict(n=100, L=50, M=3, K=3, p_max=0.5, alpha=0.9, sweep_param="L", lo=50, hi=100),
}


def scenario_config(scenario: int, grid_points: int = 8, **overrides) -> ScenarioConfig:
    """Stock configuration for scenarios 1-4 with optional field overrides."""
    if scenario not in SCENARIOS:
        raise ValueError(f"scenario must be one of {sorted(SCENARIOS)}, got {scenario}")
    if grid_points < 1:
        raise ValueError("grid_points must be >= 1")
    base = SCENARIOS[scenario]
    sweep = base["sweep_param"]
    raw = np.linspace(base["lo"], base["hi"], grid_points)
    if sweep == "p_max":
        grid = tuple(float(v) for v in raw)
    else:
        grid = tuple(float(int(round(v))) for v in raw)
    cfg = ScenarioConfig(
        scenario=scenario,
        n=base["n"],
        L=base["L"],
        M=base["M"],
        K=base["K"],
        p_max=base["p_max"],
        alpha=base["alpha"],
        sweep_param=sweep,
        grid=grid,
    )
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


@dataclass
class RunRecord:
    scenario: int
    sweep_param: str
    sweep_value: float
    replicate: int
    method: str
    r_bl: float
    r_wl: float
    iters: int
    converged: bool
    seconds: float
    seed: int
    # "converged", "budget", "degenerate", or the class of the error that ended the fit
    stop_reason: str

    @property
    def failed(self) -> bool:
        return not np.isfinite(self.r_bl)


def _sweep_params(cfg: ScenarioConfig, value: float):
    n, L, p_max = cfg.n, cfg.L, cfg.p_max
    if cfg.sweep_param == "p_max":
        p_max = float(value)
    elif cfg.sweep_param == "n":
        n = int(round(value))
    else:
        L = int(round(value))
    return n, L, p_max


def _seed_id(cfg: ScenarioConfig, grid_idx: int, replicate: int) -> int:
    ss = np.random.SeedSequence(
        cfg.master_seed, spawn_key=(cfg.scenario, grid_idx, replicate)
    )
    return int(ss.generate_state(1, np.uint64)[0])


def fit_method(
    a: Tensor3, method: str, ranks, w_init: np.ndarray, seed_path, *,
    eps_stop: float, max_iter: int, restarts: int, twist_r: int, twist_iter_max: int,
):
    """Fit one method from a layer-factor warm start and extract its labels.

    ``method`` is ``"alma"`` (alternating sweeps) or ``"twist"`` (the Tucker
    baseline, warm-started with the HOSVD node factor: the top ``twist_r``
    eigenvectors of sum_l A_l^2, as De Lathauwer, De Moor & Vandewalle 2000
    take it). Labels come from :func:`cluster_factor_pair` on stream
    ``substream(*seed_path, 3)`` for alma and ``substream(*seed_path, 4)`` for
    twist. Returns ``(result, iters, converged, fit)``, where ``fit`` is the
    alma :class:`FactorPair` and None for twist. Twist has no stop test and
    always runs ``twist_iter_max`` sweeps, so its stop reason is ``"budget"``
    and, like any fit that runs its budget, it is flagged unconverged.
    """
    if method == "alma":
        fit = alma_fit(a, ranks, w_init, eps_stop=eps_stop, max_iter=max_iter)
        res = cluster_factor_pair(
            a, fit.w, ranks, substream(*seed_path, STAGE_ALMA_CLUSTER), restarts=restarts
        )
        return res, fit.iters_used, fit.converged, fit
    if method != "twist":
        raise ValueError(f"unknown method {method!r}")
    # the HOSVD node factor: top eigenvectors of sum_l A_l^2. A's array, read
    # as (L n, n) rows, stacks the rows of every slice, and R^T R = sum_l
    # A_l^T A_l, which is sum_l A_l^2 since the slices are symmetric
    unfolding_t = a.array.reshape(-1, a.dims[1])
    u0 = sym_eig_topk(unfolding_t.T @ unfolding_t, twist_r).vectors
    _, w_hat = twist_fit(a, u0, w_init, iter_max=twist_iter_max)
    res = cluster_factor_pair(
        a, w_hat, ranks, substream(*seed_path, STAGE_TWIST_CLUSTER), restarts=restarts
    )
    return res, twist_iter_max, False, None


def _failure_reason(exc: EstimationError) -> str:
    """The stop reason of a fit that ``exc`` ended."""
    return "degenerate" if isinstance(exc, DegenerateIterateError) else type(exc).__name__


def sample_draw(seed_path, n: int, L: int, M: int, K: int, p_max: float, alpha: float):
    """``(instance, adjacency)``: an instance and one draw of its adjacency
    tensor, on the ``STAGE_INSTANCE`` and ``STAGE_ADJACENCY`` streams under
    ``seed_path``."""
    inst = sample_instance(n, L, M, K, p_max, alpha, substream(*seed_path, STAGE_INSTANCE))
    gt = assemble_ground_truth(inst)
    return inst, sample_adjacency(gt, substream(*seed_path, STAGE_ADJACENCY))


def run_single(cfg: ScenarioConfig, grid_idx: int, replicate: int) -> list:
    """All method records for one (grid point, replicate) cell."""
    value = cfg.grid[grid_idx]
    n, L, p_max = _sweep_params(cfg, value)
    path = (cfg.scenario, grid_idx, replicate)
    seed_id = _seed_id(cfg, grid_idx, replicate)
    inst, a = sample_draw((cfg.master_seed, *path), n, L, cfg.M, cfg.K, p_max, cfg.alpha)
    ranks = (cfg.K,) * cfg.M
    w1 = spectral_init(
        a, cfg.M, substream(cfg.master_seed, *path, STAGE_INIT),
        restarts=cfg.kmeans_restarts,
    )
    records = []
    for method in cfg.methods:
        t0 = time.perf_counter()
        r_bl = r_wl = float("nan")
        iters = 0
        converged = False
        try:
            res, iters, converged, fit = fit_method(
                a, method, ranks, w1, (cfg.master_seed, *path),
                eps_stop=cfg.eps_stop, max_iter=cfg.max_iter,
                restarts=cfg.kmeans_restarts,
                twist_r=cfg.twist_r, twist_iter_max=cfg.twist_iter_max,
            )
            stop_reason = "budget" if fit is None else fit.stop_reason
            score = score_result(inst, res)
            r_bl, r_wl = score.r_bl, score.r_wl
        except EstimationError as exc:
            converged = False
            stop_reason = _failure_reason(exc)
        records.append(
            RunRecord(
                scenario=cfg.scenario,
                sweep_param=cfg.sweep_param,
                sweep_value=float(value),
                replicate=replicate,
                method=method,
                r_bl=r_bl,
                r_wl=r_wl,
                iters=iters,
                converged=converged,
                seconds=time.perf_counter() - t0,
                seed=seed_id,
                stop_reason=stop_reason,
            )
        )
    return records


def _usable_cpus() -> int:
    # the CPUs this process may run on; called only where the BLAS pin
    # exists, i.e. on Linux
    return len(os.sched_getaffinity(0))


# the (fn, shared) pair a worker process runs its calls with, set once per worker
_worker_job = None


def _start_worker(fn, shared) -> None:
    global _worker_job
    # one BLAS thread per worker process, so the workers do not oversubscribe the cores
    if pin_blas_threads is not None:
        pin_blas_threads(1)
    _worker_job = (fn, shared)


def _call_in_worker(call):
    fn, shared = _worker_job
    return fn(shared, *call)


def _fan_out(fn, shared, calls, workers: int) -> list:
    """``[fn(shared, *call) for call in calls]``, on up to ``workers`` processes.

    With ``min(workers, len(calls))`` at 1 the calls run one after another
    on the calling thread. Otherwise they go, in list order, to that many
    forked worker processes, each on one numpy BLAS thread. Fork hands
    ``fn`` and ``shared`` to each worker in the pages it shares with this
    process, so no call pickles them; a spawned worker would also import
    numpy and scipy again, about 0.6 s. The first error cancels the calls
    not yet handed to a worker (the pool's queue holds ``workers + 1``) and
    propagates once the workers have finished the rest; none is left running.
    """
    workers = min(workers, len(calls))
    if workers <= 1:
        return [fn(shared, *call) for call in calls]
    pool = ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_start_worker, initargs=(fn, shared))
    try:
        futures = [pool.submit(_call_in_worker, call) for call in calls]
        for future in as_completed(futures):
            future.result()  # raises the first error to come back
        return [future.result() for future in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def run_scenario(cfg: ScenarioConfig) -> list:
    """Every record for the scenario, sorted by (sweep value, replicate, method).

    The cells run by :func:`_fan_out` on ``cfg.threads`` workers, at most
    one per cell. Aborts if more than half of the runs at any grid point fail.
    """
    cells = [(gi, rep) for gi in range(len(cfg.grid)) for rep in range(cfg.replicates)]
    chunks = _fan_out(run_single, cfg, cells, cfg.threads)
    records = [rec for chunk in chunks for rec in chunk]
    records.sort(key=lambda r: (r.sweep_value, r.replicate, r.method))
    for gi, value in enumerate(cfg.grid):
        for method in cfg.methods:
            cell = [r for r in records if r.sweep_value == float(value) and r.method == method]
            failed = sum(1 for r in cell if r.failed)
            if cell and failed * 2 > len(cell):
                raise EstimationError(
                    f"{failed}/{len(cell)} {method} runs failed at "
                    f"{cfg.sweep_param}={value}"
                )
    return records


@dataclass
class ElbowRow:
    m: int
    objective: float
    iters: int
    converged: bool
    # "converged", "budget", "degenerate", or the class of the error that ended the fit
    stop_reason: str


def _elbow_row(a: Tensor3, m: int, k: int, master_seed: int, eps_stop: float,
               max_iter: int) -> ElbowRow:
    """The row of candidate ``m``: spectral init, then the fit from it."""
    try:
        w1 = spectral_init(a, m, substream(master_seed, _ELBOW_TAG, m, STAGE_INIT))
        fit = alma_fit(a, (k,) * m, w1, eps_stop=eps_stop, max_iter=max_iter)
        return ElbowRow(m, fit.objective, fit.iters_used, fit.converged, fit.stop_reason)
    except EstimationError as exc:
        return ElbowRow(m, float("nan"), 0, False, _failure_reason(exc))


def elbow_scan(
    a: Tensor3,
    m_grid,
    k: int,
    master_seed: int = 0,
    eps_stop: float = 1e-4,
    max_iter: int = 100,
) -> list:
    """Final fit objective for each candidate group count, one row per m in grid order.

    Every group of a candidate m gets ``k`` communities. The objective
    decreases in m; the largest successive drop marks the group count to pick.
    A candidate m whose fit degenerates (rank-deficient Procrustes step,
    typical for m above the true group count on clean data) is recorded as a
    NaN row rather than dropped. Every m, ``k``, ``eps_stop`` and
    ``max_iter`` are checked before any fit starts.

    Each distinct m is fitted once, largest first, since fit cost grows with m,
    by :func:`_fan_out` on one worker per usable CPU: forked processes, each
    on one BLAS thread, that share ``a``'s pages. Processes, not threads:
    the dense Q-step runs in scipy's LAPACK wrappers, which hold the GIL.
    With one usable CPU, one candidate or no BLAS pin
    (``linalg.pin_blas_threads`` is None), the candidates are fitted one
    after another on the calling thread, with its BLAS thread count left as
    it is. The rows are the same either way.
    """
    L, n, _ = a.dims
    grid = [int(m) for m in m_grid]
    for m in grid:
        if not 1 <= m <= L:
            raise ValueError(f"candidate m={m} out of range for L={L}")
    (k,) = _check_fit_args(n, (k,), eps_stop, max_iter)
    workers = _usable_cpus() if pin_blas_threads is not None else 1
    calls = [(m, k, master_seed, eps_stop, max_iter) for m in sorted(set(grid), reverse=True)]
    rows = {row.m: row for row in _fan_out(_elbow_row, a, calls, workers)}
    return [rows[m] for m in grid]


CSV_COLUMNS = (
    "scenario", "sweep_param", "sweep_value", "replicate", "method",
    "R_BL", "R_WL", "iters", "converged", "seconds", "seed", "stop_reason",
)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_runs_csv(records, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([
                r.scenario, r.sweep_param, _fmt(r.sweep_value), r.replicate, r.method,
                _fmt(r.r_bl), _fmt(r.r_wl), r.iters, _fmt(r.converged),
                _fmt(r.seconds), r.seed, r.stop_reason,
            ])


def aggregate(records) -> list:
    """Per (sweep value, method) means/stds over non-failed runs.

    Returns dict rows sorted by (sweep_value, method); stds use ddof=1 (one
    run gives 0.0).
    """
    keys = sorted({(r.sweep_value, r.method) for r in records})
    rows = []
    for value, method in keys:
        cell = [r for r in records if r.sweep_value == value and r.method == method]
        ok = [r for r in cell if not r.failed]
        bl = np.array([r.r_bl for r in ok])
        wl = np.array([r.r_wl for r in ok])
        rows.append({
            "sweep_value": value,
            "method": method,
            "n_runs": len(cell),
            "n_failed": len(cell) - len(ok),
            "mean_R_BL": float(bl.mean()) if len(ok) else float("nan"),
            "mean_R_WL": float(wl.mean()) if len(ok) else float("nan"),
            "std_R_BL": float(bl.std(ddof=1)) if len(ok) > 1 else 0.0,
            "std_R_WL": float(wl.std(ddof=1)) if len(ok) > 1 else 0.0,
        })
    return rows


def write_summary_csv(records, path) -> None:
    rows = aggregate(records)
    cols = ("sweep_value", "method", "n_runs", "n_failed",
            "mean_R_BL", "mean_R_WL", "std_R_BL", "std_R_WL")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in cols])


_METHOD_COLORS = {"alma": "#1f77b4", "twist": "#d62728"}


def _svg_panel(rows, methods, metric, x0, title):
    # one panel: mean rate vs sweep value, one polyline per method
    width, height = 360, 300
    ml, mr, mt, mb = 52, 16, 34, 44
    xs = sorted({row["sweep_value"] for row in rows})
    if len(xs) == 1:
        xs = [xs[0] - 0.5, xs[0] + 0.5]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, 1.0
    inner_w, inner_h = width - ml - mr, height - mt - mb

    def px(v):
        return x0 + ml + (v - x_lo) / (x_hi - x_lo) * inner_w

    def py(v):
        return mt + (y_hi - v) / (y_hi - y_lo) * inner_h

    parts = [
        f'<rect x="{x0 + ml}" y="{mt}" width="{inner_w}" height="{inner_h}" '
        'fill="none" stroke="#888"/>',
        f'<text x="{x0 + ml + inner_w / 2:.1f}" y="{mt - 12}" text-anchor="middle" '
        f'font-size="13">{title}</text>',
    ]
    for frac in (0.0, 0.5, 1.0):
        y = py(frac)
        parts.append(
            f'<text x="{x0 + ml - 6}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-size="11">{frac:.1f}</text>'
        )
        if frac > 0.0:
            parts.append(
                f'<line x1="{x0 + ml}" y1="{y:.1f}" x2="{x0 + ml + inner_w}" '
                f'y2="{y:.1f}" stroke="#ddd"/>'
            )
    for v in (x_lo, x_hi):
        parts.append(
            f'<text x="{px(v):.1f}" y="{mt + inner_h + 16}" text-anchor="middle" '
            f'font-size="11">{v:g}</text>'
        )
    for method in methods:
        pts = [
            (row["sweep_value"], row[metric])
            for row in rows
            if row["method"] == method and np.isfinite(row[metric])
        ]
        if not pts:
            continue
        pts.sort()
        coords = " ".join(f"{px(x):.2f},{py(min(max(y, 0.0), 1.0)):.2f}" for x, y in pts)
        color = _METHOD_COLORS.get(method, "#2ca02c")
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for x, y in pts:
            parts.append(
                f'<circle cx="{px(x):.2f}" cy="{py(min(max(y, 0.0), 1.0)):.2f}" '
                f'r="3" fill="{color}"/>'
            )
    return parts


def write_curves_svg(records, path, sweep_param: str) -> None:
    """Two-panel chart: mean between- and within-rates vs the sweep value."""
    rows = aggregate(records)
    methods = sorted({row["method"] for row in rows})
    width, height = 760, 300
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    parts += _svg_panel(rows, methods, "mean_R_BL", 0, f"between-layer rate vs {sweep_param}")
    parts += _svg_panel(rows, methods, "mean_R_WL", 380, f"within-layer rate vs {sweep_param}")
    for i, method in enumerate(methods):
        color = _METHOD_COLORS.get(method, "#2ca02c")
        x = 60 + i * 120
        parts.append(
            f'<line x1="{x}" y1="{height - 12}" x2="{x + 24}" y2="{height - 12}" '
            f'stroke="{color}" stroke-width="3"/>'
        )
        parts.append(
            f'<text x="{x + 30}" y="{height - 8}" font-size="12">{method}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")


def emit_results(records, out_dir, formats=("csv",), sweep_param: str = "") -> dict:
    """Write runs.csv / summary.csv and optionally curves.svg; returns paths."""
    unknown = set(formats) - set(EMIT_FORMATS)
    if unknown:
        raise ValueError(f"unknown emit formats: {sorted(unknown)}")
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    if "csv" in formats:
        paths["runs"] = os.path.join(out_dir, "runs.csv")
        write_runs_csv(records, paths["runs"])
        paths["summary"] = os.path.join(out_dir, "summary.csv")
        write_summary_csv(records, paths["summary"])
    if "svg" in formats:
        if not sweep_param and records:
            sweep_param = records[0].sweep_param
        paths["curves"] = os.path.join(out_dir, "curves.svg")
        write_curves_svg(records, paths["curves"], sweep_param)
    return paths
