#!/usr/bin/env bash
# cluster-smoke: end-to-end check of the multi-node cluster tier.
#
# Builds oddserve + oddrouter + oddload, starts a 3-node cluster behind
# a router, and walks the full operational story with oddload's twin
# verdict oracle enforcing bit-identical agreement at every step:
#   1. seeded load through the router over the ODWP binary wire with a
#      verified /subscribe stream attached,
#   2. a live migration of shard 0 to another node mid-stream, then more
#      load (oddload catches up and keeps verifying across the move),
#   3. a hard kill of shard 0's primary, a health tick that promotes the
#      replicas, then more load across the failover, and
#   4. clean SIGTERM shutdown of the router and surviving nodes.
#
# The router runs with -health-interval 0 so the script triggers the
# probe round explicitly — failover timing is deterministic, not racy.
#
# Usage: scripts/cluster_smoke.sh [readings-per-phase]   (default 6000)
set -euo pipefail

READINGS="${1:-6000}"
ROUTER_PORT="${ODDS_SMOKE_ROUTER_PORT:-8078}"
NODE_BASE_PORT="${ODDS_SMOKE_NODE_PORT:-9101}"
SHARDS=8
ROUTER="http://127.0.0.1:${ROUTER_PORT}"
WORK="$(mktemp -d)"
NODE_PIDS=()
ROUTER_PID=""

cleanup() {
    if [[ -n "$ROUTER_PID" ]] && kill -0 "$ROUTER_PID" 2>/dev/null; then
        kill -9 "$ROUTER_PID" 2>/dev/null || true
    fi
    for pid in "${NODE_PIDS[@]}"; do
        if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
            kill -9 "$pid" 2>/dev/null || true
        fi
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

wait_healthy() { # url name pid
    local url="$1" name="$2" pid="$3" i
    for i in $(seq 1 50); do
        if curl -fsS "$url/healthz" >/dev/null 2>&1; then
            return 0
        fi
        if ! kill -0 "$pid" 2>/dev/null; then
            echo "cluster-smoke: $name died during startup" >&2
            cat "$WORK/$name.log" >&2
            exit 1
        fi
        sleep 0.2
    done
    echo "cluster-smoke: $name never became healthy" >&2
    cat "$WORK/$name.log" >&2
    exit 1
}

map_field() { # field (of shard 0's placement)
    curl -fsS "$ROUTER/admin/map?shard=0" | grep -o "\"$1\":-\?[0-9]*" | cut -d: -f2
}

echo "cluster-smoke: building binaries"
go build -o "$WORK/oddserve" ./cmd/oddserve
go build -o "$WORK/oddrouter" ./cmd/oddrouter
go build -o "$WORK/oddload" ./cmd/oddload

NODE_URLS=""
for i in 0 1 2; do
    port=$((NODE_BASE_PORT + i))
    "$WORK/oddserve" -addr "127.0.0.1:${port}" -cluster -shards "$SHARDS" \
        -window 2000 >"$WORK/node$i.log" 2>&1 &
    NODE_PIDS[$i]=$!
    NODE_URLS="${NODE_URLS}${NODE_URLS:+,}http://127.0.0.1:${port}"
done
for i in 0 1 2; do
    wait_healthy "http://127.0.0.1:$((NODE_BASE_PORT + i))" "node$i" "${NODE_PIDS[$i]}"
done
echo "cluster-smoke: 3 cluster nodes up ($NODE_URLS)"

"$WORK/oddrouter" -addr "127.0.0.1:${ROUTER_PORT}" -nodes "$NODE_URLS" \
    -shards "$SHARDS" -health-interval 0 -health-threshold 1 \
    >"$WORK/router.log" 2>&1 &
ROUTER_PID=$!
wait_healthy "$ROUTER" "router" "$ROUTER_PID"
echo "cluster-smoke: router up (map epoch $(map_field epoch))"

echo "cluster-smoke: phase 1 — $READINGS readings over ODWP binary with a verified /subscribe stream"
"$WORK/oddload" -addr "$ROUTER" -n "$READINGS" -sensors 16 -batch 128 \
    -max-retries 200 -wire binary -subscribe

OWNER="$(map_field owner)"
TO=$(((OWNER + 1) % 3))
echo "cluster-smoke: migrating shard 0 from node $OWNER to node $TO (live)"
curl -fsS -X POST "$ROUTER/admin/migrate?shard=0&to=$TO" >/dev/null
NEW_OWNER="$(map_field owner)"
if [[ "$NEW_OWNER" != "$TO" ]]; then
    echo "cluster-smoke: migration did not move shard 0 (owner=$NEW_OWNER, want $TO)" >&2
    exit 1
fi

# Shard 0 starts on node 0 with its replica on node 1, so this move landed
# on the replica; the migration itself must have re-chained the old
# primary, or the upcoming failover has nowhere to promote to.
if [[ "$(map_field replica)" != "$OWNER" ]]; then
    echo "cluster-smoke: shard 0's replica is $(map_field replica) after the migration, want node $OWNER" >&2
    exit 1
fi

echo "cluster-smoke: phase 2 — load continues across the migration (catch-up, then fresh verdicts)"
"$WORK/oddload" -addr "$ROUTER" -n "$((READINGS * 2))" -sensors 16 -batch 128 \
    -max-retries 200 -wire binary

VICTIM="$NEW_OWNER"
echo "cluster-smoke: killing node $VICTIM (shard 0's primary), then forcing a health tick"
kill -9 "${NODE_PIDS[$VICTIM]}"
wait "${NODE_PIDS[$VICTIM]}" 2>/dev/null || true
NODE_PIDS[$VICTIM]=""
curl -fsS -X POST "$ROUTER/admin/healthtick" >"$WORK/tick.json"
grep -q '"promoted":\[' "$WORK/tick.json"
SURVIVOR="$(map_field owner)"
if [[ "$SURVIVOR" == "$VICTIM" || "$SURVIVOR" == "-1" ]]; then
    echo "cluster-smoke: failover did not promote shard 0 (owner=$SURVIVOR)" >&2
    cat "$WORK/tick.json" >&2
    exit 1
fi
curl -fsS "$ROUTER/metrics" | grep -q "odds_router_nodes_live 2" || {
    echo "cluster-smoke: metrics still count the dead node as live" >&2
    curl -fsS "$ROUTER/metrics" >&2
    exit 1
}

echo "cluster-smoke: phase 3 — load continues across the failover (verdict agreement incl. promoted shards)"
"$WORK/oddload" -addr "$ROUTER" -n "$((READINGS * 3))" -sensors 16 -batch 128 \
    -max-retries 200 -wire binary

echo "cluster-smoke: SIGTERM — expecting clean shutdown of router and surviving nodes"
kill -TERM "$ROUTER_PID"
STATUS=0
wait "$ROUTER_PID" || STATUS=$?
ROUTER_PID=""
if [[ "$STATUS" -ne 0 ]]; then
    echo "cluster-smoke: router exited with status $STATUS" >&2
    cat "$WORK/router.log" >&2
    exit 1
fi
for i in 0 1 2; do
    pid="${NODE_PIDS[$i]}"
    [[ -n "$pid" ]] || continue
    kill -TERM "$pid"
    STATUS=0
    wait "$pid" || STATUS=$?
    NODE_PIDS[$i]=""
    if [[ "$STATUS" -ne 0 ]]; then
        echo "cluster-smoke: node $i exited with status $STATUS" >&2
        cat "$WORK/node$i.log" >&2
        exit 1
    fi
done

echo "cluster-smoke: OK"
