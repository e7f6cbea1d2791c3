#!/usr/bin/env bash
# cluster-smoke.sh — end-to-end chaos check for distributed dedupd.
#
# Starts one coordinator plus three workers, ingests a corpus of typo
# clusters, and runs the same diameter sweep twice on the coordinator:
# once through the plain batch path and once with "distributed": true,
# kill -9ing one worker while the distributed job runs. The coordinator
# must absorb the death (retry, reassign, or solve locally) and the
# distributed result must be byte-identical to the batch one.
set -euo pipefail

workdir=$(mktemp -d)
coord_addr="127.0.0.1:18341"
base="http://$coord_addr"
worker_ports=(18342 18343 18344)
pids=()

cleanup() {
  for p in "${pids[@]}"; do kill -9 "$p" 2>/dev/null || true; done
  rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/dedupd" ./cmd/dedupd

wait_healthy() { # $1 = base url, $2 = log file
  for _ in $(seq 1 100); do
    if curl -fsS "$1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  echo "daemon at $1 did not come up; log:" >&2
  cat "$2" >&2
  exit 1
}

wait_job() { # $1 = job id
  for _ in $(seq 1 600); do
    state=$(curl -fsS "$base/v1/jobs/$1" | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')
    case "$state" in
      done) return 0 ;;
      failed|cancelled) echo "job $1 ended $state" >&2; cat "$workdir/coordinator.log" >&2; exit 1 ;;
    esac
    sleep 0.1
  done
  echo "job $1 never finished" >&2
  exit 1
}

# Coordinator first, so the workers have someone to announce to.
"$workdir/dedupd" -addr "$coord_addr" -role coordinator -workers 2 \
  >"$workdir/coordinator.log" 2>&1 &
pids+=($!)
disown $!
wait_healthy "$base" "$workdir/coordinator.log"

for port in "${worker_ports[@]}"; do
  "$workdir/dedupd" -addr "127.0.0.1:$port" -role worker \
    -advertise "http://127.0.0.1:$port" -peers "$base" -workers 1 \
    >"$workdir/worker-$port.log" 2>&1 &
  pids+=($!)
  disown $!
done
for port in "${worker_ports[@]}"; do
  wait_healthy "http://127.0.0.1:$port" "$workdir/worker-$port.log"
done

# Registration flows worker -> coordinator; wait until all three beat.
for _ in $(seq 1 100); do
  alive=$(curl -fsS "$base/v1/internal/cluster/workers" \
    | python3 -c 'import json,sys; print(sum(1 for w in json.load(sys.stdin)["workers"] if w["alive"]))')
  if [ "$alive" -eq 3 ]; then break; fi
  sleep 0.1
done
if [ "$alive" -ne 3 ]; then
  echo "only $alive/3 workers registered" >&2
  exit 1
fi

# A corpus of tight typo clusters: long words with tail edits, the shape
# the blocking strategy shards into many certified blocks.
python3 - > "$workdir/corpus.ndjson" <<'EOF'
import json, random
r = random.Random(7)
letters = "abcdefghijklmnopqrstuvwxyz"
def word():
    return "".join(r.choice(letters) for _ in range(14 + r.randrange(6)))
def mutate(s):
    pos = 4 + r.randrange(len(s) - 4)
    op = r.randrange(3)
    if op == 0:
        return s[:pos] + r.choice(letters) + s[pos + 1:]
    if op == 1:
        return s[:pos] + s[pos + 1:]
    return s[:pos] + r.choice(letters) + s[pos:]
rows = []
while len(rows) < 600:
    base = word()
    rows.append(base)
    for _ in range(4 + r.randrange(3)):
        rows.append(mutate(base))
for row in rows[:600]:
    print(json.dumps([row]))
EOF

ds=$(curl -fsS -X POST "$base/v1/datasets" -H 'Content-Type: application/json' \
  -d '{"name":"cluster-smoke"}' \
  | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
curl -fsS -X POST "$base/v1/datasets/$ds/records" -H 'Content-Type: application/x-ndjson' \
  --data-binary @"$workdir/corpus.ndjson" >/dev/null

spec='{"dataset":"'"$ds"'","mode":"diameter","theta":[0.3],"c":[3]'

# Reference: the plain batch path on the same node and snapshot.
batch=$(curl -fsS -X POST "$base/v1/jobs" -H 'Content-Type: application/json' \
  -d "$spec}" | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
wait_job "$batch"
curl -fsS "$base/v1/jobs/$batch/result" \
  | python3 -c 'import json,sys; r=json.load(sys.stdin); print(json.dumps(r["results"], sort_keys=True))' \
  > "$workdir/result.batch"

# Chaos run: submit the distributed job, then SIGKILL one worker while
# its blocks are in flight.
dist=$(curl -fsS -X POST "$base/v1/jobs" -H 'Content-Type: application/json' \
  -d "$spec,\"distributed\":true}" | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])')
kill -9 "${pids[1]}" # the first worker
wait_job "$dist"
curl -fsS "$base/v1/jobs/$dist/result" \
  | python3 -c 'import json,sys; r=json.load(sys.stdin); print(json.dumps(r["results"], sort_keys=True))' \
  > "$workdir/result.distributed"

if ! cmp -s "$workdir/result.batch" "$workdir/result.distributed"; then
  echo "MISMATCH: distributed result diverged from the batch result:" >&2
  diff "$workdir/result.batch" "$workdir/result.distributed" >&2 || true
  exit 1
fi

# The workers counted the distances their block solves measured, and
# the coordinator's roll-up of their counters sees them.
agg_calls=$(curl -fsS "$base/metrics?format=prometheus" \
  | awk '$1 == "dedupd_cluster_agg_distance_calls_total" { print $2 }')
if ! awk -v v="${agg_calls:-0}" 'BEGIN { exit !(v > 0) }'; then
  echo "coordinator's dedupd_cluster_agg_distance_calls_total is '${agg_calls}', want > 0" >&2
  exit 1
fi

# The fleet view must have noticed the death (a routed solve marks the
# worker dead immediately; otherwise the 3s heartbeat TTL expires it).
sleep 3.5
survivors=$(curl -fsS "$base/v1/internal/cluster/workers" \
  | python3 -c 'import json,sys; print(sum(1 for w in json.load(sys.stdin)["workers"] if w["alive"]))')
if [ "$survivors" -gt 2 ]; then
  echo "coordinator still reports $survivors alive workers after kill -9" >&2
  exit 1
fi

echo "cluster-smoke OK: distributed result identical to batch with a worker SIGKILLed mid-run (survivors: $survivors/3, worker distance calls: $agg_calls)"
