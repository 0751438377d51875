#!/usr/bin/env bash
# Chaos smoke test: run the CI-sized chaos recipes against real vbsd
# subprocesses behind an in-process gateway.
#
#   1. build vbsd and vbschaos
#   2. vbschaos -recipe nodekill   -short -vbsd: SIGKILL one node under
#      a live load/get/unload mix; failover must hold and read-repair
#      must bring every blob back to R replicas after restart
#   3. vbschaos -recipe corruptblob -short -vbsd: flip bytes in an
#      on-disk blob, kill -9, restart; the boot recovery scan must
#      quarantine the rot and no read may ever serve corrupt bytes
#   4. vbschaos -recipe nodeadd -short -vbsd: SIGKILL + forget one
#      node, join a fresh empty subprocess under traffic; replicas
#      must rebalance back to R and a blob deleted mid-rebalance must
#      stay dead (tombstones honored)
#   5. vbschaos -recipe gwrestart -short -vbsd: crash and restart the
#      gateway under traffic; every task id the workload held across
#      the restart must unload through the new one
#
# Each run emits a JSON report and exits non-zero on any invariant
# violation. Full-length soaks: drop -short, or -recipe all.
#
# Run from the repository root: ./scripts/chaos_smoke.sh
set -euo pipefail

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

echo "== build"
go build -o "$work/bin/" ./cmd/vbsd ./cmd/vbschaos

for recipe in nodekill corruptblob nodeadd gwrestart; do
  echo "== recipe $recipe (3 vbsd subprocesses, replicas=2, short)"
  "$work/bin/vbschaos" -recipe "$recipe" -short \
    -vbsd "$work/bin/vbsd" -work-dir "$work/$recipe" \
    >"$work/$recipe.report.json"
  cat "$work/$recipe.report.json"
done

echo "PASS: chaos smoke"
