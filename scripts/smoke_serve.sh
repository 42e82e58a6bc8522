#!/usr/bin/env bash
# Smoke test for the zac_serve daemon (ISSUE 8).
#
# Starts zac_serve on an ephemeral port, waits for /healthz to answer
# with the counter sections, submits a manifest through zac_client,
# and compares the served records against a zac_batch offline run of
# the same manifest — they must be byte-identical once the wall-clock
# timing fields are stripped. The manifest is the example's three jobs
# plus a 4-qubit QASM file with no label, so the diff also checks that
# both frontends label a job the same way. Then SIGTERMs the daemon
# and asserts a clean drain (exit code 0).
#
# Usage: scripts/smoke_serve.sh [BUILD_DIR]     (default: build)

set -euo pipefail

BUILD_DIR="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
SERVE="$ROOT/$BUILD_DIR/zac_serve"
CLIENT="$ROOT/$BUILD_DIR/zac_client"
BATCH="$ROOT/$BUILD_DIR/zac_batch"
EXAMPLE="$ROOT/examples/batch_manifest.json"

for bin in "$SERVE" "$CLIENT" "$BATCH"; do
    if [ ! -x "$bin" ]; then
        echo "smoke_serve: missing $bin (build the project first)" >&2
        exit 2
    fi
done

WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    if [ -n "$SERVER_PID" ]; then
        kill -9 "$SERVER_PID" 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

cat >"$WORK/ghz4.qasm" <<'EOF'
OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
cx q[2],q[3];
EOF
MANIFEST="$WORK/manifest.json"
python3 - "$EXAMPLE" "$WORK/ghz4.qasm" "$MANIFEST" <<'EOF'
import json, sys
manifest = json.load(open(sys.argv[1]))
manifest["jobs"].append({"circuit": sys.argv[2]})  # no label
json.dump(manifest, open(sys.argv[3], "w"), indent=2)
EOF

echo "smoke_serve: starting zac_serve on an ephemeral port"
"$SERVE" "$MANIFEST" --port 0 --workers 2 \
    >"$WORK/serve.out" 2>"$WORK/serve.err" &
SERVER_PID=$!

# The daemon prints "zac_serve: listening on HOST:PORT" once bound;
# the format is kept stable for exactly this kind of scripting.
PORT=""
for _ in $(seq 1 100); do
    PORT="$(sed -n \
        's/^zac_serve: listening on [^:]*:\([0-9][0-9]*\)$/\1/p' \
        "$WORK/serve.out")"
    [ -n "$PORT" ] && break
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
        cat "$WORK/serve.err" >&2
        echo "smoke_serve: daemon exited before listening" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$PORT" ]; then
    echo "smoke_serve: never saw the listening line" >&2
    exit 1
fi
echo "smoke_serve: daemon is on port $PORT"

HEALTH_OK=""
for _ in $(seq 1 50); do
    if "$CLIENT" --port "$PORT" --healthz \
        --out "$WORK/health.json" 2>/dev/null; then
        HEALTH_OK=1
        break
    fi
    sleep 0.1
done
if [ -z "$HEALTH_OK" ]; then
    echo "smoke_serve: /healthz never answered" >&2
    exit 1
fi
python3 - "$WORK/health.json" <<'EOF'
import json, sys
h = json.load(open(sys.argv[1]))
assert h["status"] == "ok", h
for key in ("uptime_seconds", "workers", "queue_depth", "lanes",
            "jobs", "cache", "connections", "requests"):
    assert key in h, f"healthz missing {key!r}: {h}"
print("smoke_serve: healthz OK "
      f"(workers={h['workers']}, queue_depth={h['queue_depth']})")
EOF

# Submit the manifest through the daemon, then run the identical
# manifest offline through zac_batch.
"$CLIENT" --port "$PORT" --manifest "$MANIFEST" \
    --out "$WORK/served.jsonl"
"$BATCH" "$MANIFEST" --out "$WORK/offline.jsonl" >/dev/null

python3 - "$WORK/served.jsonl" "$WORK/offline.jsonl" <<'EOF'
import json, sys

# Wall-clock fields (and per-run identifiers) are the only allowed
# difference between served and offline records.
VOLATILE = ("queue_seconds", "service_seconds", "compile_seconds",
            "phase_seconds", "job_id", "attempts", "cache_hit")

def canonical(path):
    out = []
    for line in open(path):
        rec = json.loads(line)
        if rec.get("type") not in ("result", "error"):
            continue  # offline runs also log submit records
        for key in VOLATILE:
            rec.pop(key, None)
        out.append(json.dumps(rec, sort_keys=True))
    return sorted(out)

served = canonical(sys.argv[1])
offline = canonical(sys.argv[2])
assert len(served) == 4, f"expected 4 served records, got {len(served)}"
assert served == offline, (
    "served records differ from offline zac_batch output")
print(f"smoke_serve: {len(served)} served records byte-identical to "
      "offline (timing fields stripped)")
EOF

# Graceful drain: SIGTERM must finish in-flight work and exit 0.
kill -TERM "$SERVER_PID"
RC=0
wait "$SERVER_PID" || RC=$?
SERVER_PID=""
if [ "$RC" -ne 0 ]; then
    cat "$WORK/serve.err" >&2
    echo "smoke_serve: drain exited $RC (want 0)" >&2
    exit 1
fi
if ! grep -q "drained (clean)" "$WORK/serve.err"; then
    cat "$WORK/serve.err" >&2
    echo "smoke_serve: daemon did not report a clean drain" >&2
    exit 1
fi
echo "smoke_serve: clean SIGTERM drain (exit 0)"
echo "smoke_serve: OK"
