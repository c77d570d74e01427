#!/usr/bin/env bash
# Run every workload end to end and print each one's metrics.
#   bash perfbench/all.sh [SECONDS] [SEED]
# Exits non-zero when any workload's output check failed.
set -uo pipefail
seconds=${1:-25}
seed=${2:-1}
status=0
for w in ground-truth bounds-mix bounds-governed serve-burst; do
  echo "== $w" >&2
  bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 || status=1
done
exit "$status"
