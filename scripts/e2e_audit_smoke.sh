#!/bin/sh
# End-to-end online-auditor smoke: launch a real fleet (one DM publishing
# evidence digests, two CE replicas — one lossy — forwarding them, and an
# auditing AD), scrape the live /audit matrix with `condmon-trace audit`,
# and assert a clean verdict; then rerun with the -audit-break dedup
# negative control and assert the auditor flips Complete to VIOLATED.
#
# Usage: scripts/e2e_audit_smoke.sh  (from the repository root)
set -eu

workdir=$(mktemp -d)
trap 'kill $(cat "$workdir"/*.pid 2>/dev/null) 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir" ./cmd/condmon-ad ./cmd/condmon-ce ./cmd/condmon-dm ./cmd/condmon-trace

AD_LISTEN=127.0.0.1:7280
CE1_LISTEN=127.0.0.1:7281
CE2_LISTEN=127.0.0.1:7282
AD_OBS=127.0.0.1:9280

fail() { echo "FAIL: $1"; echo "--- ad.log:"; cat "$workdir/ad.log"; echo "--- audit.log:"; cat "$workdir/audit.log" 2>/dev/null || true; exit 1; }

# --- Phase 1: clean fleet; the matrix must stay violation-free. ---------
"$workdir/condmon-ad" -listen "$AD_LISTEN" -ad-algo AD-1 -vars x \
    -audit -audit-cond 'x[0] > 3000' -metrics "$AD_OBS" > "$workdir/ad.log" 2>&1 &
echo $! > "$workdir/ad.pid"
sleep 0.3
"$workdir/condmon-ce" -id CE1 -listen "$CE1_LISTEN" -ad "$AD_LISTEN" \
    -cond 'x[0] > 3000' -audit -stream 1 > "$workdir/ce1.log" 2>&1 &
echo $! > "$workdir/ce1.pid"
"$workdir/condmon-ce" -id CE2 -listen "$CE2_LISTEN" -ad "$AD_LISTEN" \
    -cond 'x[0] > 3000' -drop 0.4 -seed 7 -audit -stream 2 > "$workdir/ce2.log" 2>&1 &
echo $! > "$workdir/ce2.pid"
sleep 0.3
"$workdir/condmon-dm" -var x -ce "$CE1_LISTEN,$CE2_LISTEN" -source reactor \
    -n 30 -interval 10ms -audit-evidence 8 > "$workdir/dm.log" 2>&1
sleep 0.5

# The live fleet matrix renders the audited condition and a clean fleet ∧.
"$workdir/condmon-trace" audit -endpoints "$AD_OBS" > "$workdir/audit.log" 2>&1
grep -q 'cond'        "$workdir/audit.log" || fail "audited condition missing from the matrix"
grep -q '(fleet ∧)'   "$workdir/audit.log" || fail "no fleet And row"
grep -q 'violations=0' "$workdir/audit.log" || fail "clean fleet reported violations"

# Raw /audit JSON: confirmed orderedness, zero violations, and the DM's
# evidence digests arrived through the CE forwarding path.
curl -sf "http://$AD_OBS/audit" > "$workdir/audit.json"
grep -q '"ordered": "CONFIRMED"' "$workdir/audit.json" || fail "orderedness not confirmed on /audit"
grep -q '"violations": 0'        "$workdir/audit.json" || fail "/audit reports violations on a clean run"
grep -q '"var": "x"'             "$workdir/audit.json" || fail "no DM evidence reached the auditor"

# The exit summary prints the finalized matrix.
kill -INT "$(cat "$workdir/ad.pid")"
sleep 0.5
grep -q 'audit: ordered=CONFIRMED' "$workdir/ad.log" || fail "no finalized matrix in the AD exit summary"
grep -q 'violations=0'             "$workdir/ad.log" || fail "clean run finalized with violations"
# Evidence and alerts shared each CE's one connection; the alerts kept
# their replica's stream tag.
grep -q 'from CE2 \[stream 2\]'     "$workdir/ad.log" || fail "CE2's alerts lost their stream tag"
kill "$(cat "$workdir/ce1.pid")" "$(cat "$workdir/ce2.pid")" 2>/dev/null || true

# --- Phase 2: negative control; broken dedup must flip Complete. --------
AD_LISTEN=127.0.0.1:7283
CE1_LISTEN=127.0.0.1:7284
CE2_LISTEN=127.0.0.1:7285
AD_OBS=127.0.0.1:9283

"$workdir/condmon-ad" -listen "$AD_LISTEN" -ad-algo AD-1 -vars x \
    -audit -audit-cond 'x[0] > 3000' -audit-break dedup -metrics "$AD_OBS" > "$workdir/ad2.log" 2>&1 &
echo $! > "$workdir/ad2.pid"
sleep 0.3
# Both replicas lossless: every CE2 alert duplicates CE1's, and the broken
# filter displays the duplicates anyway.
"$workdir/condmon-ce" -id CE1 -listen "$CE1_LISTEN" -ad "$AD_LISTEN" \
    -cond 'x[0] > 3000' > "$workdir/ce1b.log" 2>&1 &
echo $! > "$workdir/ce1b.pid"
"$workdir/condmon-ce" -id CE2 -listen "$CE2_LISTEN" -ad "$AD_LISTEN" \
    -cond 'x[0] > 3000' > "$workdir/ce2b.log" 2>&1 &
echo $! > "$workdir/ce2b.pid"
sleep 0.3
"$workdir/condmon-dm" -var x -ce "$CE1_LISTEN,$CE2_LISTEN" -source reactor \
    -n 20 -interval 10ms > "$workdir/dm2.log" 2>&1
sleep 0.5

fail2() { echo "FAIL: $1"; echo "--- ad2.log:"; cat "$workdir/ad2.log"; exit 1; }

curl -sf "http://$AD_OBS/audit" > "$workdir/audit2.json"
grep -q '"complete": "VIOLATED"' "$workdir/audit2.json" || fail2 "broken dedup not flagged on /audit"

kill -INT "$(cat "$workdir/ad2.pid")"
sleep 0.5
grep -q 'complete=VIOLATED'          "$workdir/ad2.log" || fail2 "exit summary missing the violation"
grep -q 'duplicate displayed alert'  "$workdir/ad2.log" || fail2 "violation detail missing"

echo "e2e audit smoke OK"
