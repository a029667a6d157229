#!/bin/sh
# End-to-end live-tracing smoke: launch a real fleet (one DM, two CE
# replicas — one lossy — and the AD) with -tracing, curl every /trace and
# /healthz endpoint, and assert that `condmon-trace follow` stitches a
# cross-process per-seq timeline that names the suppressing AD rule.
#
# Usage: scripts/e2e_trace_smoke.sh  (from the repository root)
set -eu

workdir=$(mktemp -d)
trap 'kill $(cat "$workdir"/*.pid 2>/dev/null) 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir" ./cmd/condmon-ad ./cmd/condmon-ce ./cmd/condmon-dm ./cmd/condmon-trace

AD_LISTEN=127.0.0.1:7260
CE1_LISTEN=127.0.0.1:7261
CE2_LISTEN=127.0.0.1:7262
AD_OBS=127.0.0.1:9260
CE1_OBS=127.0.0.1:9261
CE2_OBS=127.0.0.1:9262
DM_OBS=127.0.0.1:9263

"$workdir/condmon-ad" -listen "$AD_LISTEN" -ad-algo AD-1 -vars x \
    -metrics "$AD_OBS" -tracing > "$workdir/ad.log" 2>&1 &
echo $! > "$workdir/ad.pid"
sleep 0.3
"$workdir/condmon-ce" -id CE1 -listen "$CE1_LISTEN" -ad "$AD_LISTEN" \
    -cond 'x[0] > 3000' -metrics "$CE1_OBS" -tracing > "$workdir/ce1.log" 2>&1 &
echo $! > "$workdir/ce1.pid"
"$workdir/condmon-ce" -id CE2 -listen "$CE2_LISTEN" -ad "$AD_LISTEN" \
    -cond 'x[0] > 3000' -drop 0.4 -seed 7 -metrics "$CE2_OBS" -tracing > "$workdir/ce2.log" 2>&1 &
echo $! > "$workdir/ce2.pid"
sleep 0.3
"$workdir/condmon-dm" -var x -ce "$CE1_LISTEN,$CE2_LISTEN" -source reactor \
    -n 30 -interval 10ms -metrics "$DM_OBS" -tracing -linger 10s > "$workdir/dm.log" 2>&1 &
echo $! > "$workdir/dm.pid"
sleep 0.5

"$workdir/condmon-trace" follow \
    -endpoints "$DM_OBS,$CE1_OBS,$CE2_OBS,$AD_OBS" -var x -for 2s > "$workdir/follow.log" 2>&1

fail() { echo "FAIL: $1"; echo "--- follow.log:"; cat "$workdir/follow.log"; exit 1; }

# The stitched timeline crosses all four processes: the DM's emit span, a
# per-replica link verdict, a CE feed span, both halves of a back-link
# crossing, and the displayer's verdict naming the suppressing rule.
grep -q 'emit .*DM .*emitted'        "$workdir/follow.log" || fail "no emit span stitched"
grep -q 'link .*CE1 .*delivered'     "$workdir/follow.log" || fail "no delivered link span"
grep -q 'link .*CE2 .*lost'          "$workdir/follow.log" || fail "lossy replica lost nothing"
grep -q 'feed .*fired'               "$workdir/follow.log" || fail "no fired feed span"
grep -q 'backlink .*sent'            "$workdir/follow.log" || fail "no backlink sent span"
grep -q 'backlink .*arrived'         "$workdir/follow.log" || fail "no backlink arrived span"
grep -q 'ad .*displayed'             "$workdir/follow.log" || fail "no displayed verdict"
grep -q 'ad .*suppressed  by AD-1'   "$workdir/follow.log" || fail "no suppression naming AD-1"

# Raw /trace endpoints serve JSON spans; /healthz reports healthy with the
# links fresh and the CE readiness gate passed.
curl -sf "http://$CE1_OBS/trace?var=x" | grep -q '"stage": "feed"' || fail "CE1 /trace has no feed spans"
curl -sf "http://$AD_OBS/trace"        | grep -q '"stage": "ad"'   || fail "AD /trace has no verdict spans"
curl -sf "http://$CE1_OBS/healthz"     | grep -q '"healthy": true' || fail "CE1 /healthz not healthy"
curl -sf "http://$CE1_OBS/healthz"     | grep -q '"ready": true'   || fail "CE1 readiness gate not passed"
curl -sf "http://$AD_OBS/healthz"      | grep -q '"healthy": true' || fail "AD /healthz not healthy"
# The Prometheus exposition negotiates via ?format=prom and terminates
# with the OpenMetrics EOF marker.
curl -sf "http://$CE1_OBS/metrics?format=prom" | grep -q '^# EOF' || fail "no OpenMetrics exposition"
# The shipped CE runs the back link's quiet path at this rate (an update
# every 10 ms): each alert left in a write of its own, so the sender counted
# exactly as many flushes as alerts. A count, not a timing.
prom=$(curl -sf "http://$CE1_OBS/metrics?format=prom")
alerts=$(echo "$prom" | awk '/^transport_mux_alerts\{/ {print $2}')
flushes=$(echo "$prom" | awk '/^transport_mux_flushes\{/ {print $2}')
[ "${alerts:-0}" -gt 0 ] && [ "$alerts" = "$flushes" ] ||
    fail "CE1 back link not on the quiet path: mux.alerts=$alerts mux.flushes=$flushes"

echo "e2e trace smoke OK"
