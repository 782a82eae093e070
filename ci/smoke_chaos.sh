#!/usr/bin/env bash
# Chaos/resilience smoke test: start beaconserved with the fault
# injector armed hard (every simulation after the first fails
# transiently, breaker threshold 1), prime one result, then assert the
# daemon answers from degraded mode — stale 200 + X-Degraded — instead
# of 5xxing while the circuit is open. Also runs the deterministic
# availability sweep (-exp chaos) and the live driver against the
# faulted daemon. The sweep runs quick and full: only the full catalog
# carries baseline, chan-outage, uncorr-storm and drop-storm (the
# front-door drop path).
#
# Run from the repo root: ./ci/smoke_chaos.sh
# Needs: go, curl. Uses its own loopback port.
set -euo pipefail

cd "$(dirname "$0")/.."
. ci/lib.sh
smoke_init smoke-chaos

echo "== deterministic availability sweep (-exp chaos)"
go run ./cmd/beaconbench -exp chaos -quick -check >/tmp/smoke_chaos_a.txt
go run ./cmd/beaconbench -exp chaos -quick -check -parallel 8 >/tmp/smoke_chaos_b.txt
cmp -s /tmp/smoke_chaos_a.txt /tmp/smoke_chaos_b.txt \
    || fail "-exp chaos report differs between -parallel defaults and 8"
grep -q "availability under fault" /tmp/smoke_chaos_a.txt || fail "chaos report malformed"

echo "== full availability sweep (all seven scenarios, incl. baseline and drop-storm)"
go run ./cmd/beaconbench -exp chaos -check >/tmp/smoke_chaos_full_a.txt
go run ./cmd/beaconbench -exp chaos -check -parallel 8 >/tmp/smoke_chaos_full_b.txt
cmp -s /tmp/smoke_chaos_full_a.txt /tmp/smoke_chaos_full_b.txt \
    || fail "full -exp chaos report differs between -parallel defaults and 8"
grep -q "drop-storm" /tmp/smoke_chaos_full_a.txt || fail "full chaos report missing drop-storm"

build_daemon
start_daemon 127.0.0.1:18474 -workers 2 -timeout 60s \
    -chaos-seed 7 -chaos-engine-fail-rate 1 -chaos-engine-fail-after 1 \
    -max-attempts 1 -breaker-threshold 1 -breaker-cooldown 5m
grep -q "CHAOS INJECTION ARMED" "$LOG" || fail "daemon did not announce armed chaos"

echo "== prime (grace period lets the first simulation through)"
BODY='{"platform":"BG-2","dataset":"amazon","nodes":2000,"batches":2}'
CODE="$(curl -sS -o /tmp/smoke_chaos1.json -w '%{http_code}' \
    -H 'Content-Type: application/json' -d "$BODY" "http://$ADDR/v1/simulate")"
[[ "$CODE" == "200" ]] || fail "prime returned $CODE: $(cat /tmp/smoke_chaos1.json)"

echo "== degraded mode: faulted family serves stale 200, not a 5xx"
BODY2='{"platform":"BG-2","dataset":"amazon","nodes":2000,"batches":2,"seed":2}'
HDRS="$(curl -sS -D - -o /tmp/smoke_chaos2.json \
    -H 'Content-Type: application/json' -d "$BODY2" "http://$ADDR/v1/simulate")"
echo "$HDRS" | head -1 | grep -q ' 200' || fail "faulted request not a 200: $(echo "$HDRS" | head -1)"
echo "$HDRS" | grep -qi '^X-Degraded: *true' || fail "degraded response missing X-Degraded"
echo "$HDRS" | grep -qi '^Warning: *110' || fail "degraded response missing Warning 110"
grep -q '"degraded": *true' /tmp/smoke_chaos2.json || fail "degraded body not marked"

echo "== open circuit keeps serving degraded 200s"
CODE="$(curl -sS -o /dev/null -w '%{http_code}' \
    -H 'Content-Type: application/json' -d "$BODY2" "http://$ADDR/v1/simulate")"
[[ "$CODE" == "200" ]] || fail "open-circuit request returned $CODE, want degraded 200"

echo "== live driver sees full availability through degraded mode"
go run ./cmd/beaconbench -drive "http://$ADDR" -drive-requests 12 -drive-concurrency 3 \
    >/tmp/smoke_chaos_drive.txt || fail "driver saw hard failures: $(cat /tmp/smoke_chaos_drive.txt)"
grep -q "availability 100.00%" /tmp/smoke_chaos_drive.txt \
    || fail "driver availability below 100%: $(cat /tmp/smoke_chaos_drive.txt)"

echo "== metrics recorded the outage"
METRICS="$(curl -fsS "http://$ADDR/metrics")"
echo "$METRICS" | grep -q 'beaconserved_degraded_total' || fail "missing degraded counter"
echo "$METRICS" | grep -Eq 'beaconserved_breaker_state\{platform="BG-2",dataset="amazon"\} 1' \
    || fail "breaker state gauge not open (1): $(echo "$METRICS" | grep breaker_state)"

term_daemon

echo "smoke-chaos: PASS"
