#!/bin/sh
# Network serving smoke for CI, in two legs, each booting hamserve on
# ephemeral loopback ports and driving hamload over BOTH wire protocols.
#
# Leg 1 (fresh model): a freshly trained hamserve under a short load run,
# then SIGTERM. Leg 2 (hot reload): hamserve -load DIR serves a langid
# -save snapshot; under load a second snapshot, trained with another -seed,
# is renamed into the directory, and /classify must report generation 2.
# Both legs assert the drain guarantee end to end:
#   - the load run saw zero transport errors and zero sheds,
#   - the server's final accounting shows every accepted query answered,
#   - the process exited 0 ("drained clean").
# In-process goroutine-leak accounting for the same drain path is asserted
# by TestDrainUnderLoad in internal/netserve, which CI runs under -race.
set -eu

tmp=$(mktemp -d)
srv_pid=
trap 'kill "$srv_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT

go build -o "$tmp/hamserve" ./cmd/hamserve
go build -o "$tmp/hamload" ./cmd/hamload
go build -o "$tmp/langid" ./cmd/langid

# boot LEG ARGS...: start hamserve with ARGS, wait for both listeners and
# set srv_pid, bin_addr and http_addr.
boot() {
    leg=$1
    shift
    "$tmp/hamserve" -listen 127.0.0.1:0 -http 127.0.0.1:0 "$@" \
        >"$tmp/$leg.out" 2>"$tmp/$leg.err" &
    srv_pid=$!
    # Training or loading delays the listeners a moment.
    for i in $(seq 1 100); do
        n=$(grep -c '^listening' "$tmp/$leg.out" 2>/dev/null) || n=0
        if [ "$n" -ge 2 ]; then
            break
        fi
        if ! kill -0 "$srv_pid" 2>/dev/null; then
            echo "netsmoke: $leg: hamserve died during startup" >&2
            cat "$tmp/$leg.err" >&2
            exit 1
        fi
        sleep 0.2
    done
    bin_addr=$(sed -n 's/^listening binary=//p' "$tmp/$leg.out")
    http_addr=$(sed -n 's/^listening http=//p' "$tmp/$leg.out")
    if [ -z "$bin_addr" ] || [ -z "$http_addr" ]; then
        echo "netsmoke: $leg: listeners never came up" >&2
        cat "$tmp/$leg.out" "$tmp/$leg.err" >&2
        exit 1
    fi
    echo "netsmoke: $leg: hamserve up (binary=$bin_addr http=$http_addr)"
}

# drive LEG DURATION: one hamload point per protocol; every request must be
# answered OK, with no sheds and no errors.
drive() {
    "$tmp/hamload" -addr "$bin_addr" -http "$http_addr" -protocol both \
        -qps 1000 -duration "$2" -json >"$tmp/$1.json" 2>"$tmp/$1.load.err"
    python3 - "$1" "$tmp/$1.json" <<'EOF'
import json, sys
leg, path = sys.argv[1], sys.argv[2]
results = json.load(open(path))
assert len(results) == 2, f"{leg}: expected 2 protocol points, got {len(results)}"
for r in results:
    assert r["requests"] > 0, f"{leg} {r['name']}: no requests dispatched"
    assert r["shed_rate"] == 0, f"{leg} {r['name']}: shed rate {r['shed_rate']}"
    assert r["error_rate"] == 0, f"{leg} {r['name']}: error rate {r['error_rate']}"
    assert r["qps"] > 0 and r["p99_us"] > 0, f"{leg} {r['name']}: implausible {r}"
    print(f"netsmoke: {leg}: {r['name']}: {r['requests']} requests, "
          f"{r['qps']:.0f} qps, p99 {r['p99_us']:.0f}us, 0 shed, 0 errors")
EOF
}

# drain LEG: SIGTERM must drain and exit 0, with the server's own
# accounting showing queries accepted == queries answered.
drain() {
    kill -TERM "$srv_pid"
    rc=0
    wait "$srv_pid" || rc=$?
    if [ "$rc" -ne 0 ]; then
        echo "netsmoke: $1: hamserve exited $rc after SIGTERM" >&2
        cat "$tmp/$1.err" >&2
        exit 1
    fi
    if ! grep -q 'drained clean' "$tmp/$1.err"; then
        echo "netsmoke: $1: no clean-drain report" >&2
        cat "$tmp/$1.err" >&2
        exit 1
    fi
    queries=$(sed -n 's/.*drained clean:.*[^0-9]\([0-9][0-9]*\) queries.*/\1/p' "$tmp/$1.err")
    answered=$(sed -n 's/.*drained clean:.*[^0-9]\([0-9][0-9]*\) answered.*/\1/p' "$tmp/$1.err")
    if [ -z "$queries" ] || [ "$queries" != "$answered" ]; then
        echo "netsmoke: $1: accounting mismatch: queries=$queries answered=$answered" >&2
        cat "$tmp/$1.err" >&2
        exit 1
    fi
    echo "netsmoke: $1: drained clean: $queries queries accepted, $answered answered"
}

boot fresh -train 2000
drive fresh 1s
drain fresh

# Hot reload. The second snapshot is saved outside the watched directory
# and renamed in, so the registry only ever sees a complete file.
mkdir "$tmp/models"
"$tmp/langid" -train 2000 -save "$tmp/models/first.hds" </dev/null 2>"$tmp/langid.err"
"$tmp/langid" -train 2000 -seed 7 -save "$tmp/second.hds" </dev/null 2>>"$tmp/langid.err"
boot reload -load "$tmp/models"
drive reload 2s &
load_pid=$!
sleep 1
mv "$tmp/second.hds" "$tmp/models/second.hds"
python3 - "$http_addr" <<'EOF'
import json, sys, time, urllib.request
url = f"http://{sys.argv[1]}/classify"
body = json.dumps({"text": "der schnelle braune fuchs springt"}).encode()
deadline = time.time() + 20
while True:
    req = urllib.request.Request(url, data=body, headers={"Content-Type": "application/json"})
    ans = json.load(urllib.request.urlopen(req, timeout=5))["answers"][0]
    assert not ans.get("err"), f"reload: /classify error {ans['err']}"
    assert "#" not in ans["label"], f"reload: centroid label {ans['label']!r}"
    if ans["gen"] >= 2:
        print(f"netsmoke: reload: /classify answers {ans['label']!r} at generation {ans['gen']}")
        break
    assert time.time() < deadline, f"reload: still at generation {ans['gen']} after the swap"
    time.sleep(0.2)
EOF
wait "$load_pid"
if ! grep -q "serving $tmp/models/second.hds" "$tmp/reload.err"; then
    echo "netsmoke: reload: no hot-swap report for second.hds" >&2
    cat "$tmp/reload.err" >&2
    exit 1
fi
drain reload
