#!/usr/bin/env bash
# Persistence smoke test: prove the vbsd -data-dir durability loop
# end-to-end against a real daemon and a hard kill.
#
#   1. generate a VBS with the offline flow
#   2. start vbsd with a fresh -data-dir and load the task
#   3. SIGKILL the daemon (no shutdown hook runs)
#   4. restart it over the same directory
#   5. assert the blob is recovered, listed, and served byte-identical
#      from disk without re-upload
#   6. run vbsrepo verify over the data dir
#
# Run from the repository root: ./scripts/persistence_smoke.sh
set -euo pipefail

addr=127.0.0.1:8971
work=$(mktemp -d)
pid=""
cleanup() {
  [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

echo "== build"
go build -o "$work/bin/" ./cmd/vbsd ./cmd/vbsgen ./cmd/vbsrepo

echo "== generate task"
"$work/bin/vbsgen" -bench tseng -scale 8 -effort 1 -w 12 -o "$work/task.vbs"

data="$work/data"
start_vbsd() {
  "$work/bin/vbsd" -addr "$addr" -fabrics 1 -size 32x32 -w 12 -data-dir "$data" -warm -1 &
  pid=$!
  for _ in $(seq 1 100); do
    if curl -fsS "http://$addr/healthz" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  echo "FAIL: vbsd did not become healthy" >&2
  exit 1
}

echo "== first boot: load task"
start_vbsd
digest=$(curl -fsS -XPOST --data-binary "{\"vbs\":\"$(base64 -w0 "$work/task.vbs")\"}" \
  "http://$addr/tasks" | sed -n 's/.*"digest":"\([0-9a-f]\{64\}\)".*/\1/p')
if [ -z "$digest" ]; then
  echo "FAIL: load did not return a digest" >&2
  exit 1
fi
echo "   loaded digest $digest"

echo "== SIGKILL daemon"
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=""

echo "== second boot: recover from disk"
start_vbsd
metrics=$(curl -fsS "http://$addr/metrics")
grep -qx 'vbs_repo_recovered_blobs 1' <<<"$metrics" || {
  echo "FAIL: /metrics does not report one recovered blob: $(grep vbs_repo_recovered <<<"$metrics")" >&2
  exit 1
}

curl -fsS "http://$addr/vbs" | grep -q "$digest" || {
  echo "FAIL: /vbs listing lost the blob" >&2
  exit 1
}

echo "== download blob, compare bytes and digest"
curl -fsS "http://$addr/vbs/$digest" -o "$work/roundtrip.vbs"
cmp "$work/task.vbs" "$work/roundtrip.vbs"
sum=$(sha256sum "$work/roundtrip.vbs" | cut -d' ' -f1)
if [ "$sum" != "$digest" ]; then
  echo "FAIL: served bytes hash to $sum, expected $digest" >&2
  exit 1
fi

echo "== load again: deduplicates against the recovered blob"
digest2=$(curl -fsS -XPOST --data-binary "{\"vbs\":\"$(base64 -w0 "$work/task.vbs")\"}" \
  "http://$addr/tasks" | sed -n 's/.*"digest":"\([0-9a-f]\{64\}\)".*/\1/p')
if [ "$digest2" != "$digest" ]; then
  echo "FAIL: re-load produced digest $digest2, expected $digest" >&2
  exit 1
fi
# Still exactly one stored blob, and the daemon persisted nothing new:
# the load was served from what the recovery scan indexed.
nblobs=$(curl -fsS "http://$addr/vbs" | grep -o '"digest"' | wc -l)
if [ "$nblobs" -ne 1 ]; then
  echo "FAIL: expected 1 stored blob after re-load, found $nblobs" >&2
  exit 1
fi
grep -qx 'vbs_repo_writes_total 0' <<<"$(curl -fsS "http://$addr/metrics")" || {
  echo "FAIL: re-load wrote to disk instead of reusing the recovered blob" >&2
  exit 1
}

kill "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
pid=""

echo "== vbsrepo verify + ls"
"$work/bin/vbsrepo" verify -dir "$data"
"$work/bin/vbsrepo" ls -dir "$data"

echo "PASS: persistence smoke"
