#!/usr/bin/env bash
# Cluster smoke test: prove the vbsgw sharded-serving loop end-to-end
# against three real vbsd nodes.
#
#   1. generate distinct VBS tasks with the offline flow
#   2. import one of them into a node's data dir with vbsrepo
#      (out-of-band arrival: the gateway must still find it)
#   3. start 3 vbsd nodes + vbsgw -replicas 2
#   4. load the other tasks through the gateway; every blob must land
#      on exactly its replica set
#   5. download every digest through the gateway, byte-compare
#      (this read-repairs the imported blob onto its ring owners)
#   6. scrape /metrics on the gateway and a node (required families
#      present); a task loaded directly on a node is listed by the
#      gateway under the node's id and unloads through it; run a
#      rebalance job end-to-end via POST /jobs
#   7. drive a concurrent load/get/unload mix at the gateway with
#      vbsload under a strict error budget, then the same mix batched
#      over POST /tasks:batch at a zero error budget
#   8. join a fresh fourth node via `vbsgw node add` while a second
#      vbsload mix runs with -max-error-rate 0: elastic membership
#      must be invisible to clients
#
# Kill/failover coverage lives in scripts/chaos_smoke.sh (the chaos
# harness nodekill, corruptblob, and nodeadd recipes), not here.
#
# Run from the repository root: ./scripts/cluster_smoke.sh
set -euo pipefail

gwaddr=127.0.0.1:8960
node_addrs=(127.0.0.1:8961 127.0.0.1:8962 127.0.0.1:8963)
work=$(mktemp -d)
pids=()
cleanup() {
  for p in "${pids[@]:-}"; do kill -9 "$p" 2>/dev/null || true; done
  rm -rf "$work"
}
trap cleanup EXIT

echo "== build"
go build -o "$work/bin/" ./cmd/vbsd ./cmd/vbsgw ./cmd/vbsgen ./cmd/vbsrepo ./cmd/vbsload

echo "== generate tasks"
for i in 1 2 3 4; do
  "$work/bin/vbsgen" -bench tseng -scale 8 -effort 1 -w 12 -seed "$i" -o "$work/task$i.vbs" >/dev/null
done

echo "== import task4 into node 3's repository (out-of-band)"
"$work/bin/vbsrepo" import -dir "$work/data3" "$work/task4.vbs"
digest4=$(sha256sum "$work/task4.vbs" | cut -d' ' -f1)

wait_healthy() {
  for _ in $(seq 1 100); do
    if curl -fsS "http://$1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "FAIL: $1 did not become healthy" >&2
  exit 1
}

echo "== start 3 nodes + gateway"
i=0
for addr in "${node_addrs[@]}"; do
  i=$((i + 1))
  "$work/bin/vbsd" -addr "$addr" -fabrics 1 -size 32x32 -w 12 \
    -data-dir "$work/data$i" >"$work/node$i.log" 2>&1 &
  pids+=($!)
done
for addr in "${node_addrs[@]}"; do wait_healthy "$addr"; done
nodes_flag=$(printf 'http://%s,' "${node_addrs[@]}")
"$work/bin/vbsgw" -addr "$gwaddr" -nodes "${nodes_flag%,}" -replicas 2 \
  -probe-interval 500ms -rebalance-interval 1s >"$work/gw.log" 2>&1 &
pids+=($!)
gwpid=$!
wait_healthy "$gwaddr"

echo "== load tasks 1-3 through the gateway"
digests=()
for i in 1 2 3; do
  d=$(curl -fsS -XPOST --data-binary "{\"vbs\":\"$(base64 -w0 "$work/task$i.vbs")\"}" \
    "http://$gwaddr/tasks" | sed -n 's/.*"digest":"\([0-9a-f]\{64\}\)".*/\1/p')
  if [ -z "$d" ]; then
    echo "FAIL: load of task$i returned no digest" >&2
    exit 1
  fi
  digests+=("$d")
done
digests+=("$digest4")

echo "== every loaded blob sits on exactly 2 nodes (write-through replication)"
for d in "${digests[@]:0:3}"; do
  copies=0
  for addr in "${node_addrs[@]}"; do
    if curl -fsS "http://$addr/vbs" | grep -q "$d"; then copies=$((copies + 1)); fi
  done
  if [ "$copies" -ne 2 ]; then
    echo "FAIL: digest $d on $copies node(s), want 2" >&2
    exit 1
  fi
done

echo "== merged /vbs listing covers all 4 digests (incl. the import)"
listing=$(curl -fsS "http://$gwaddr/vbs")
for d in "${digests[@]}"; do
  case "$listing" in
    *"$d"*) ;;
    *) echo "FAIL: merged listing misses $d" >&2; exit 1 ;;
  esac
done

echo "== byte-identical serving through the gateway (read-repairs the import)"
for i in 1 2 3 4; do
  d=${digests[$((i - 1))]}
  curl -fsS "http://$gwaddr/vbs/$d" -o "$work/rt$i.vbs"
  cmp "$work/task$i.vbs" "$work/rt$i.vbs"
done

echo "== replication factor and ring version"
grep -qx 'vbs_cluster_replicas 2' <<<"$(curl -fsS "http://$gwaddr/metrics")" || {
  echo "FAIL: gateway /metrics does not report 2 replicas" >&2
  exit 1
}
members=$(curl -fsS "http://$gwaddr/cluster/nodes")
case "$members" in
  *'"ring_version":"'*) ;;
  *) echo "FAIL: /cluster/nodes missing ring_version: $members" >&2; exit 1 ;;
esac

echo "== /metrics exposition on the gateway and a node"
gw_metrics=$(curl -fsS "http://$gwaddr/metrics")
for fam in vbs_gateway_op_duration_seconds_bucket vbs_cluster_nodes \
           vbs_cluster_alive_nodes vbs_rebalance_passes_total vbs_jobs_running \
           vbs_transport_streams_open vbs_transport_frames_sent_total; do
  case "$gw_metrics" in
    *"$fam"*) ;;
    *) echo "FAIL: gateway /metrics missing family $fam" >&2; exit 1 ;;
  esac
done
node_metrics=$(curl -fsS "http://${node_addrs[0]}/metrics")
for fam in vbs_server_op_duration_seconds_bucket vbs_cache_hits_total vbs_jobs_running \
           vbs_transport_streams_open vbs_transport_frames_received_total; do
  case "$node_metrics" in
    *"$fam"*) ;;
    *) echo "FAIL: node /metrics missing family $fam" >&2; exit 1 ;;
  esac
done

echo "== a task loaded directly on a node is listed and unloaded through the gateway"
direct=$(curl -fsS -XPOST --data-binary "{\"vbs\":\"$(base64 -w0 "$work/task1.vbs")\"}" \
  "http://${node_addrs[0]}/tasks")
direct_id=$(printf '%s' "$direct" | sed -n 's/.*"id":\([0-9]\+\).*/\1/p')
if [ -z "$direct_id" ]; then
  echo "FAIL: direct node load returned no task id: $direct" >&2
  exit 1
fi
case "$(curl -fsS "http://$gwaddr/tasks")" in
  *"\"id\":$direct_id,"*"\"node\":\"http://${node_addrs[0]}\""*) ;;
  *) echo "FAIL: gateway does not list task $direct_id on http://${node_addrs[0]}" >&2; exit 1 ;;
esac
code=$(curl -sS -o /dev/null -w '%{http_code}' -XDELETE "http://$gwaddr/tasks/$direct_id")
if [ "$code" != 204 ]; then
  echo "FAIL: DELETE /tasks/$direct_id through the gateway answered $code, want 204" >&2
  exit 1
fi
case "$(curl -fsS "http://${node_addrs[0]}/tasks")" in
  *"\"id\":$direct_id,"*) echo "FAIL: task $direct_id still on its node after the gateway unload" >&2; exit 1 ;;
esac

echo "== rebalance job via POST /jobs runs to done"
# The background rebalancer runs its passes as the same exclusive job
# kind, so a start can collide with one (409): retry briefly.
job_id=""
for _ in $(seq 1 50); do
  job=$(curl -sS -XPOST --data '{"kind":"rebalance"}' "http://$gwaddr/jobs")
  job_id=$(printf '%s' "$job" | sed -n 's/.*"id":\([0-9]\+\).*/\1/p')
  if [ -n "$job_id" ]; then break; fi
  sleep 0.1
done
if [ -z "$job_id" ]; then
  echo "FAIL: POST /jobs returned no job id: $job" >&2
  exit 1
fi
job_done=""
for _ in $(seq 1 100); do
  snap=$(curl -fsS "http://$gwaddr/jobs/$job_id")
  case "$snap" in
    *'"status":"done"'*) job_done=1; break ;;
    *'"status":"failed"'* | *'"status":"aborted"'*)
      echo "FAIL: rebalance job did not finish cleanly: $snap" >&2
      exit 1 ;;
  esac
  sleep 0.1
done
if [ -z "$job_done" ]; then
  echo "FAIL: rebalance job still running after 10s" >&2
  exit 1
fi

echo "== vbsload mix against the cluster, strict error budget"
"$work/bin/vbsload" -url "http://$gwaddr" -ops 60 -workers 4 -tasks 2 \
  -mix 30:50:20 -max-error-rate 0.05

echo "== batched vbsload mix over POST /tasks:batch (zero error budget)"
"$work/bin/vbsload" -url "http://$gwaddr" -ops 120 -workers 4 -batch 8 \
  -tasks 2 -mix 30:50:20 -max-error-rate 0

echo "== join a fresh node under live vbsload (zero error budget)"
join_addr=127.0.0.1:8964
"$work/bin/vbsd" -addr "$join_addr" -fabrics 1 -size 32x32 -w 12 \
  -data-dir "$work/data4" >"$work/node4.log" 2>&1 &
pids+=($!)
wait_healthy "$join_addr"
"$work/bin/vbsload" -url "http://$gwaddr" -ops 600 -workers 4 -tasks 2 \
  -mix 30:50:20 -max-error-rate 0 &
loadpid=$!
sleep 0.1
"$work/bin/vbsgw" node add -gw "http://$gwaddr" "http://$join_addr"
if ! wait "$loadpid"; then
  echo "FAIL: vbsload saw client errors while the node joined" >&2
  exit 1
fi

echo "== membership lists the joined node, rebalance is running"
members=$("$work/bin/vbsgw" node ls -gw "http://$gwaddr")
echo "$members"
case "$members" in
  *"http://$join_addr"*) ;;
  *) echo "FAIL: membership does not list http://$join_addr" >&2; exit 1 ;;
esac
"$work/bin/vbsgw" rebalance -gw "http://$gwaddr"
case "$(curl -fsS "http://$gwaddr/cluster/nodes")" in
  *'"version":1,'*) ;;
  *) echo "FAIL: /cluster/nodes does not report membership version 1" >&2; exit 1 ;;
esac
grep -q '^vbs_rebalance_blobs_examined_total ' <<<"$(curl -fsS "http://$gwaddr/metrics")" || {
  echo "FAIL: gateway /metrics missing rebalance progress" >&2
  exit 1
}

echo "== graceful gateway shutdown"
kill "$gwpid"
for _ in $(seq 1 50); do
  if ! kill -0 "$gwpid" 2>/dev/null; then break; fi
  sleep 0.1
done
if kill -0 "$gwpid" 2>/dev/null; then
  echo "FAIL: vbsgw did not shut down on SIGTERM" >&2
  exit 1
fi

echo "PASS: cluster smoke"
