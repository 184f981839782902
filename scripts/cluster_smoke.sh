#!/usr/bin/env bash
# Multi-process cluster smoke: split a v2 index into two shards, bring up
# the shard primaries, a WAL-tailing replica of shard 0 and the
# scatter-gather router, and require every routed response to be
# byte-identical to a single-node simrank_server over the full index —
# before an update, after a live /v1/update broadcast, and after the
# shard-0 primary is killed and reads fail over to the replica. Every
# routed /v1/topk and /v1/pair is read twice, the second time from the
# router's row cache (revalidated with the row's owner), and the router
# must report cache hits.
#
# usage: scripts/cluster_smoke.sh [BUILD_DIR]   (default: build)
set -euo pipefail

BUILD_DIR=${1:-build}
CLI=$BUILD_DIR/simrank_cli
SERVER=$BUILD_DIR/simrank_server
ROUTER=$BUILD_DIR/simrank_router

WORK=$(mktemp -d /tmp/simrank-cluster-smoke.XXXXXX)
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill -KILL "$pid" 2>/dev/null || true; done
  rm -rf "$WORK"
}
trap cleanup EXIT

BASE=http://127.0.0.1
SINGLE_PORT=18411
SHARD0_PORT=18412
SHARD1_PORT=18413
REPLICA_PORT=18414
ROUTER_PORT=18415

wait_healthz() {
  local port=$1
  for _ in $(seq 1 200); do
    if curl -fs "$BASE:$port/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.05
  done
  echo "FAIL: server on :$port never became healthy" >&2
  return 1
}

# The routed response for PATH-AND-QUERY must be byte-identical to the
# single-node one (shortest-round-trip doubles make body equality a
# bitwise check on every score).
expect_same() {
  local target=$1
  curl -fs "$BASE:$SINGLE_PORT$target" >"$WORK/single.body"
  curl -fs "$BASE:$ROUTER_PORT$target" >"$WORK/routed.body"
  if ! cmp -s "$WORK/single.body" "$WORK/routed.body"; then
    echo "FAIL: router diverges from single-node on $target" >&2
    echo "--- single-node ---" >&2
    cat "$WORK/single.body" >&2
    echo "--- router ---" >&2
    cat "$WORK/routed.body" >&2
    return 1
  fi
}

# expect_same twice: the first read caches the row it answers from (a
# top-k) or finds one cached (a pair after a read of either endpoint), so
# the second is a router cache hit, revalidated with the row's owner.
expect_same_twice() {
  expect_same "$1"
  expect_same "$1"
}

expect_same_post() {
  local target=$1 data=$2
  printf '%s' "$data" |
    curl -fs -X POST --data-binary @- "$BASE:$SINGLE_PORT$target" \
      >"$WORK/single.body"
  printf '%s' "$data" |
    curl -fs -X POST --data-binary @- "$BASE:$ROUTER_PORT$target" \
      >"$WORK/routed.body"
  if ! cmp -s "$WORK/single.body" "$WORK/routed.body"; then
    echo "FAIL: router diverges from single-node on POST $target" >&2
    echo "--- single-node ---" >&2
    cat "$WORK/single.body" >&2
    echo "--- router ---" >&2
    cat "$WORK/routed.body" >&2
    return 1
  fi
}

http_code() {
  curl -s -o /dev/null -w '%{http_code}' "$@"
}

# curl | grep -q trips pipefail (grep quits at the first match and curl
# reports a write error); fetch to a file, then grep it.
fetch_expect() {
  local url=$1
  shift
  curl -fs "$url" >"$WORK/fetch.body"
  local pattern
  for pattern in "$@"; do
    if ! grep -q "$pattern" "$WORK/fetch.body"; then
      echo "FAIL: $url does not match '$pattern'" >&2
      cat "$WORK/fetch.body" >&2
      return 1
    fi
  done
}

echo "== build the graph and the full v2 index"
# The chain introduces ids 0..23 in numeric order so the reader's
# first-seen interning keeps external ids == internal ids.
{
  for i in $(seq 0 22); do echo "$i $((i + 1))"; done
  for i in $(seq 0 23); do
    echo "$i $(((i * 7 + 3) % 24))"
    echo "$i $(((i * 5 + 11) % 24))"
    echo "$(((i * 13 + 2) % 24)) $i"
  done
} | awk '$1 != $2 && !seen[$0]++' >"$WORK/graph.txt"
"$CLI" build-index "$WORK/graph.txt" --index="$WORK/full.widx" \
  --fingerprints=128 --format=v2

echo "== shard-plan: split into 2 shards"
"$CLI" shard-plan "$WORK/graph.txt" --index="$WORK/full.widx" --shards=2 \
  --out-dir="$WORK"
test -f "$WORK/plan.txt"
test -f "$WORK/shard-0.widx"
test -f "$WORK/shard-1.widx"
test -f "$WORK/graph.bin"

echo "== start single-node reference, shard primaries, replica, router"
"$SERVER" serve --index="$WORK/full.widx" --port=$SINGLE_PORT \
  --graph="$WORK/graph.bin" --wal="$WORK/single.wal" &
SINGLE_PID=$!
PIDS+=($SINGLE_PID)
"$SERVER" serve --index="$WORK/shard-0.widx" --port=$SHARD0_PORT \
  --graph="$WORK/graph.bin" --wal="$WORK/shard-0.wal" \
  --shard-plan="$WORK/plan.txt" --shard-id=0 &
SHARD0_PID=$!
PIDS+=($SHARD0_PID)
"$SERVER" serve --index="$WORK/shard-1.widx" --port=$SHARD1_PORT \
  --graph="$WORK/graph.bin" --wal="$WORK/shard-1.wal" \
  --shard-plan="$WORK/plan.txt" --shard-id=1 &
SHARD1_PID=$!
PIDS+=($SHARD1_PID)
"$SERVER" serve --index="$WORK/shard-0.widx" --port=$REPLICA_PORT \
  --graph="$WORK/graph.bin" --wal="$WORK/replica-0.wal" \
  --shard-plan="$WORK/plan.txt" --shard-id=0 --replica \
  --tail-from=$SHARD0_PORT &
REPLICA_PID=$!
PIDS+=($REPLICA_PID)
for port in $SINGLE_PORT $SHARD0_PORT $SHARD1_PORT $REPLICA_PORT; do
  wait_healthz $port
done
"$ROUTER" --plan="$WORK/plan.txt" --port=$ROUTER_PORT \
  --shard 0=$SHARD0_PORT,$REPLICA_PORT --shard 1=$SHARD1_PORT \
  --scrape-interval-ms=200 --scrape-timeout-ms=300 &
ROUTER_PID=$!
PIDS+=($ROUTER_PID)
wait_healthz $ROUTER_PORT

echo "== fleet health: every target scraped healthy"
for _ in $(seq 1 100); do
  curl -fs "$BASE:$ROUTER_PORT/v1/cluster/health" >"$WORK/health.body" || true
  if grep -q '"healthy":true' "$WORK/health.body" &&
    ! grep -q '"healthy":false' "$WORK/health.body"; then break; fi
  sleep 0.1
done
fetch_expect "$BASE:$ROUTER_PORT/v1/cluster/health" '"scraping":true' \
  '"role":"replica"' '"uptime_seconds"'
if grep -q '"healthy":false' "$WORK/health.body"; then
  echo "FAIL: a scraped target never became healthy" >&2
  cat "$WORK/health.body" >&2
  exit 1
fi
fetch_expect "$BASE:$ROUTER_PORT/metrics" \
  'simrank_fleet_target_healthy{shard="0",role="primary"} 1' \
  'simrank_fleet_target_healthy{shard="1",role="primary"} 1' \
  'simrank_uptime_seconds{shard="0",role="primary"}' \
  'simrank_uptime_seconds{shard="1",role="primary"}'

echo "== routed queries are byte-identical to single-node"
expect_same_twice '/v1/pair?a=0&b=1'     # both in shard 0, no row cached
expect_same_twice '/v1/pair?a=3&b=20'    # cross-shard, no row cached
expect_same '/v1/single_source?v=5'
expect_same '/v1/single_source?v=17'     # a row shard 1 owns
expect_same_twice '/v1/topk?v=0&k=24'    # k spans the boundary
expect_same_twice '/v1/topk?v=17&k=5'
expect_same_twice '/v1/topk?v=17&k=1000' # k beyond n: the zero fill
expect_same_twice '/v1/pair?a=0&b=1'     # from 0's cached row
expect_same_twice '/v1/pair?a=11&b=17'   # across the boundary, from 17's
expect_same_post '/v1/batch_pair' '0 13
5 12
3 3
'

echo "== shards reject misdirected queries with 421"
test "$(http_code "$BASE:$SHARD0_PORT/v1/pair?a=0&b=20")" = 421
test "$(http_code "$BASE:$SHARD1_PORT/v1/topk?v=0&k=3")" = 421
fetch_expect "$BASE:$SHARD0_PORT/v1/stats" '"role":"primary"'
fetch_expect "$BASE:$SHARD0_PORT/metrics" \
  'simrank_rejected_total{reason="misdirected"} 1'

echo "== /v1/update broadcast matches single-node"
UPDATES='+ 0 12
- 0 3
+ 23 1
'
printf '%s' "$UPDATES" |
  curl -fs -X POST --data-binary @- "$BASE:$SINGLE_PORT/v1/update" \
    >"$WORK/single.body"
printf '%s' "$UPDATES" |
  curl -fs -X POST --data-binary @- "$BASE:$ROUTER_PORT/v1/update" \
    >"$WORK/routed.body"
# changed_slots counts per-shard re-simulation work (each shard walks the
# full graph for its own rows), so it is the one field that does not sum
# to the single-node figure; everything else must agree byte-for-byte.
sed 's/"changed_slots":[0-9]*/"changed_slots":_/' "$WORK/single.body" \
  >"$WORK/single.norm"
sed 's/"changed_slots":[0-9]*/"changed_slots":_/' "$WORK/routed.body" \
  >"$WORK/routed.norm"
if ! cmp -s "$WORK/single.norm" "$WORK/routed.norm"; then
  echo "FAIL: update ack diverges from single-node" >&2
  cat "$WORK/single.body" "$WORK/routed.body" >&2
  exit 1
fi
grep -q '"applied":3' "$WORK/routed.body"
# Rows cached before the batch: each owner answers the revalidation with
# its new walk row, so the first reads are recomputed.
expect_same_twice '/v1/pair?a=0&b=1'
expect_same '/v1/single_source?v=3'
expect_same '/v1/single_source?v=17'
expect_same_twice '/v1/topk?v=0&k=24'
expect_same_twice '/v1/topk?v=17&k=1000'
expect_same_twice '/v1/pair?a=11&b=17'

echo "== replica tails the primary WAL"
test "$(printf '+ 1 0\n' |
  curl -s -o /dev/null -w '%{http_code}' -X POST --data-binary @- \
    "$BASE:$REPLICA_PORT/v1/update")" = 403
for _ in $(seq 1 200); do
  curl -fs "$BASE:$REPLICA_PORT/v1/stats" >"$WORK/replica.stats" || true
  if grep -q '"batches_applied":1' "$WORK/replica.stats"; then break; fi
  sleep 0.05
done
fetch_expect "$BASE:$REPLICA_PORT/v1/stats" '"batches_applied":1' \
  '"role":"replica"'

echo "== kill the shard-0 primary: reads fail over to the replica"
kill -TERM $SHARD0_PID
wait $SHARD0_PID
# Row 0 is cached: the replica revalidates it.
expect_same_twice '/v1/pair?a=0&b=1'
expect_same '/v1/single_source?v=2'
expect_same '/v1/single_source?v=17'
expect_same_twice '/v1/topk?v=0&k=24'
expect_same_twice '/v1/topk?v=17&k=1000'
expect_same_twice '/v1/pair?a=11&b=17'
curl -fs "$BASE:$ROUTER_PORT/metrics" >"$WORK/router.metrics"
FAILOVERS=$(awk '$1 == "simrank_router_failovers_total" {print $2}' \
  "$WORK/router.metrics")
test "${FAILOVERS:-0}" -ge 1
fetch_expect "$BASE:$ROUTER_PORT/v1/stats" '"failovers":'

echo "== the router answered cached reads"
curl -fs "$BASE:$ROUTER_PORT/metrics" >"$WORK/router.metrics"
CACHE_HITS=$(awk '$1 == "simrank_router_cache_hits_total" {print $2}' \
  "$WORK/router.metrics")
curl -fs "$BASE:$ROUTER_PORT/v1/stats" >"$WORK/router.stats"
STATS_HITS=$(sed -n 's/.*"cache":{[^}]*"hits":\([0-9]*\).*/\1/p' \
  "$WORK/router.stats")
if [ "${STATS_HITS:-0}" -lt 1 ] || [ "${CACHE_HITS:-0}" -lt 1 ]; then
  echo "FAIL: the router reports no cache hits" >&2
  cat "$WORK/router.stats" >&2
  exit 1
fi
echo "router cache hits: $STATS_HITS"

echo "== fleet health reflects the killed primary within a scrape interval"
for _ in $(seq 1 100); do
  curl -fs "$BASE:$ROUTER_PORT/v1/cluster/health" >"$WORK/health.body" || true
  if grep -q '"healthy":false' "$WORK/health.body"; then break; fi
  sleep 0.1
done
grep -q '"healthy":false' "$WORK/health.body"
fetch_expect "$BASE:$ROUTER_PORT/metrics" \
  'simrank_fleet_target_healthy{shard="0",role="primary"} 0' \
  'simrank_fleet_target_healthy{shard="0",role="replica"} 1'

echo "== updates need every primary: 503 + Retry-After with one dead"
DEAD_CODE=$(printf '+ 1 0\n' |
  curl -s -o "$WORK/dead.body" -D "$WORK/dead.headers" \
    -w '%{http_code}' -X POST --data-binary @- \
    "$BASE:$ROUTER_PORT/v1/update")
test "$DEAD_CODE" = 503
grep -qi '^retry-after:' "$WORK/dead.headers"

echo "== graceful drain"
kill -TERM $ROUTER_PID
wait $ROUTER_PID
kill -TERM $REPLICA_PID
wait $REPLICA_PID
kill -TERM $SHARD1_PID
wait $SHARD1_PID
kill -TERM $SINGLE_PID
wait $SINGLE_PID

echo "cluster smoke: all routed responses byte-identical to single-node"
