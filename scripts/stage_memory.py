#!/usr/bin/env python3
"""Traced memory of each stage of one ``alma fit``, run in this process.

    python3 scripts/stage_memory.py INPUT [FIT_OPTION ...]

Runs ``alma fit --input INPUT FIT_OPTION...`` under tracemalloc and prints,
for each stage, the traced megabytes when it starts, at its peak and when it
ends: ``read`` (the tensor file), ``init`` (the spectral start), ``fit`` (the
alternating sweeps, which also take the objective the fit reports) and
``clustering`` (the labels). The default options are the fit-large
workload's, ``--groups 3 --communities 3 --eps 0``; any option given replaces
them all. The fit's JSON is discarded. tracemalloc sees numpy's array
buffers but not what BLAS or LAPACK allocate for themselves. So the first
line is the process's max RSS right after the ``alma`` import, the floor
every stage starts from, and the last line is its max RSS at the end, which
counts everything.

An input at the fit-large size comes from ``python3 bench/inputs.py fit-large
SEED DIR`` (``DIR/adjacency.bin``) or from ``alma generate --n 600 --layers
20 --p-max 0.2 --alpha 0.8``.
"""

import contextlib
import os
import resource
import sys
import tracemalloc

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from alma import cli, harness  # noqa: E402

# max RSS once alma and its numpy and scipy imports are loaded: the floor
# under every stage below
IMPORT_RSS_MB = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

DEFAULT_OPTIONS = ["--groups", "3", "--communities", "3", "--eps", "0"]
# (module, function) of each stage, in the order a fit runs them
STAGES = [
    ("read", cli, "read_tensor"),
    ("init", cli, "spectral_init"),
    ("fit", harness, "alma_fit"),
    ("clustering", harness, "cluster_factor_pair"),
]


def _staged(name, fn, rows):
    def wrapped(*args, **kwargs):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return fn(*args, **kwargs)
        finally:
            end, peak = tracemalloc.get_traced_memory()
            rows.append((name, start, peak, end))
    return wrapped


def main(argv) -> int:
    if not argv or argv[0].startswith("-"):
        sys.exit(__doc__.split("\n\n")[1])
    argv = ["fit", "--input", argv[0]] + (argv[1:] or DEFAULT_OPTIONS)
    rows = []
    for name, module, attr in STAGES:
        setattr(module, attr, _staged(name, getattr(module, attr), rows))
    tracemalloc.start()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code = cli.main(argv)
    tracemalloc.stop()
    if code != 0:
        return code
    mb = 1024.0 * 1024.0
    print(f"max RSS after importing alma: {IMPORT_RSS_MB:.1f} MB")
    print(f"{'stage':<12}{'start MB':>10}{'peak MB':>10}{'end MB':>10}")
    for name, start, peak, end in rows:
        print(f"{name:<12}{start / mb:>10.1f}{peak / mb:>10.1f}{end / mb:>10.1f}")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"max RSS of this process: {rss:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
