#!/bin/sh
# Smoke test of the benchmark: its own tests, then every workload for a few
# seconds, untraced and traced. Exits non-zero if any of the three commands
# does; each runs even when an earlier one failed.
#
#   scripts/smoke_bench.sh          (about 2-3 minutes on two cores)

cd "$(dirname "$0")/.." || exit 2
status=0

run() {
    echo "== $*"
    if ! "$@"; then
        echo "== FAILED: $*"
        status=1
    fi
}

run python3 -m pytest bench -q
run python3 bench/run.py --workload all --seed 1 --seconds 3 --trace 0
run python3 bench/run.py --workload all --seed 1 --seconds 3 --trace 1

if [ "$status" -eq 0 ]; then
    echo "== smoke_bench: all passed"
fi
exit "$status"
