#!/usr/bin/env bash
# serve-smoke: end-to-end check of the serving subsystem.
#
# Builds oddserve + oddload, starts a sharded server with periodic
# checkpoints, replays a bounded seeded load against it, and asserts
#   1. every served verdict agreed bit-identically with oddload's twin
#      (oddload exits non-zero on any disagreement) — first over JSON,
#      then over the ODWP binary wire with a verified /subscribe stream
#      attached (same seeded run, so the encodings are A/B'd),
#   2. a plain SSE /subscribe stream delivers verdict events,
#   3. the server shuts down cleanly on SIGTERM (final checkpoint, exit 0), and
#   4. a second server started with -drift serves a shifting stream to full
#      twin agreement and reports a drift block in /stats (and -drift with a
#      non-kernelchain default backend is refused before it listens).
#
# Usage: scripts/serve_smoke.sh [readings]   (default 20000)
set -euo pipefail

READINGS="${1:-20000}"
PORT="${ODDS_SMOKE_PORT:-8077}"
ADDR="http://127.0.0.1:${PORT}"
WORK="$(mktemp -d)"
SERVER_PID=""

cleanup() {
    if [[ -n "$SERVER_PID" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
        kill -9 "$SERVER_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

echo "serve-smoke: building binaries"
go build -o "$WORK/oddserve" ./cmd/oddserve
go build -o "$WORK/oddload" ./cmd/oddload

# wait_healthy polls /healthz until the server started last answers.
wait_healthy() {
    for i in $(seq 1 50); do
        if curl -fsS "$ADDR/healthz" >/dev/null 2>&1; then
            return
        fi
        if ! kill -0 "$SERVER_PID" 2>/dev/null; then
            echo "serve-smoke: server died during startup" >&2
            cat "$WORK/server.log" >&2
            exit 1
        fi
        sleep 0.2
    done
    curl -fsS "$ADDR/healthz" >/dev/null
}

# stop_server sends SIGTERM and requires a clean exit.
stop_server() {
    kill -TERM "$SERVER_PID"
    STATUS=0
    wait "$SERVER_PID" || STATUS=$?
    SERVER_PID=""
    if [[ "$STATUS" -ne 0 ]]; then
        echo "serve-smoke: server exited with status $STATUS" >&2
        cat "$WORK/server.log" >&2
        exit 1
    fi
}

echo "serve-smoke: starting oddserve on $ADDR"
"$WORK/oddserve" -addr "127.0.0.1:${PORT}" -shards 4 -window 2000 \
    -snapshot "$WORK/snap" -snapshot-interval 2s >"$WORK/server.log" 2>&1 &
SERVER_PID=$!
wait_healthy

echo "serve-smoke: replaying $READINGS readings over JSON (verdict agreement enforced by oddload)"
"$WORK/oddload" -addr "$ADDR" -n "$READINGS" -sensors 16 -batch 128 -max-retries 200

echo "serve-smoke: opening an SSE /subscribe stream"
curl -sN --max-time 60 "$ADDR/subscribe" >"$WORK/sse.out" 2>/dev/null &
SSE_PID=$!
sleep 0.3

echo "serve-smoke: replaying $((READINGS * 2)) readings over ODWP binary with a verified /subscribe stream (catch-up skips the JSON phase)"
"$WORK/oddload" -addr "$ADDR" -n "$((READINGS * 2))" -sensors 16 -batch 128 -max-retries 200 \
    -wire binary -subscribe

kill "$SSE_PID" 2>/dev/null || true
wait "$SSE_PID" 2>/dev/null || true
grep -q "event: verdict" "$WORK/sse.out" || {
    echo "serve-smoke: SSE stream delivered no verdict events" >&2
    head -c 512 "$WORK/sse.out" >&2 || true
    exit 1
}

echo "serve-smoke: scraping /metrics and /stats"
curl -fsS "$ADDR/metrics" | grep -q "odds_serve_ingested_total $((READINGS * 2))" || {
    echo "serve-smoke: metrics do not account for all readings" >&2
    curl -fsS "$ADDR/metrics" >&2
    exit 1
}
curl -fsS "$ADDR/stats" >/dev/null

echo "serve-smoke: SIGTERM — expecting clean shutdown with a final checkpoint"
stop_server
if [[ ! -s "$WORK/snap" ]]; then
    echo "serve-smoke: no snapshot written on shutdown" >&2
    exit 1
fi

echo "serve-smoke: -drift with a non-kernelchain default backend must be refused before listening"
if "$WORK/oddserve" -addr "127.0.0.1:${PORT}" -drift -backend ewma >"$WORK/server.log" 2>&1; then
    echo "serve-smoke: oddserve accepted -drift -backend ewma" >&2
    exit 1
fi
grep -q "drift monitoring requires the kernelchain default backend" "$WORK/server.log" || {
    echo "serve-smoke: -drift -backend ewma failed for another reason" >&2
    cat "$WORK/server.log" >&2
    exit 1
}

echo "serve-smoke: starting oddserve -drift on $ADDR"
"$WORK/oddserve" -addr "127.0.0.1:${PORT}" -shards 2 -window 2000 -drift >"$WORK/server.log" 2>&1 &
SERVER_PID=$!
wait_healthy

echo "serve-smoke: replaying $READINGS shifting readings against the drift-armed server (the twin arms itself from /stats)"
"$WORK/oddload" -addr "$ADDR" -n "$READINGS" -sensors 16 -batch 128 -max-retries 200 \
    -wire binary -stream shifting

curl -fsS "$ADDR/stats" >"$WORK/stats.json"
grep -q '"drift":{"enabled":true,"detector":{"observed":[1-9]' "$WORK/stats.json" || {
    echo "serve-smoke: /stats of the drift-armed server has no live drift block" >&2
    cat "$WORK/stats.json" >&2
    exit 1
}
stop_server

echo "serve-smoke: OK"
