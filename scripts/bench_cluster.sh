#!/usr/bin/env bash
# bench_cluster.sh — 3-node cluster smoke over the real binaries.
#
# Builds colord and colorgate, boots three WAL-backed colord nodes on
# ephemeral ports (each with -peers/-self so cross-node cache fill is live),
# fronts them with a colorgate, and proves the deployed topology end to end:
#
#   1. each of five coloring requests, one per fast-tier algorithm (edge be,
#      pr and greedy; vertex be and greedy), answers 200 through the gateway,
#      and asking it again returns the same bytes;
#   2. a durable session mutated through the gateway survives a node being
#      killed and restarted on the same WAL dir — same fingerprint after;
#   3. the gateway /statz shows all peers healthy.
#
# This is a smoke, not a measurement: the committed gateway numbers come
# from colordbench's gateway-read workload.
#
# Usage:
#   scripts/bench_cluster.sh   # a few seconds once the binaries are built
set -euo pipefail
cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill -9 "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/colord" ./cmd/colord
go build -o "$WORK/colorgate" ./cmd/colorgate

# Every node needs the full peer list at boot, so ephemeral :0 ports can't be
# used directly. Pick three free loopback ports up front with a quick
# bind-and-release, then start the nodes on those fixed ports.
pick_port() {
  "$WORK/colord" -addr 127.0.0.1:0 -addr-file "$WORK/probe" &
  local pid=$!
  for _ in $(seq 100); do [ -s "$WORK/probe" ] && break; sleep 0.05; done
  local addr; addr="$(cat "$WORK/probe")"
  kill "$pid" 2>/dev/null; wait "$pid" 2>/dev/null || true
  rm -f "$WORK/probe"
  echo "${addr##*:}"
}
P0="$(pick_port)"; P1="$(pick_port)"; P2="$(pick_port)"
PEERS="http://127.0.0.1:$P0,http://127.0.0.1:$P1,http://127.0.0.1:$P2"

start_node() { # idx port
  local i="$1" port="$2"
  mkdir -p "$WORK/wal$i"
  "$WORK/colord" -addr "127.0.0.1:$port" -wal-dir "$WORK/wal$i" \
    -peers "$PEERS" -self "http://127.0.0.1:$port" -workers 2 \
    -addr-file "$WORK/addr$i" 2>"$WORK/node$i.log" &
  PIDS+=($!)
  for _ in $(seq 100); do [ -s "$WORK/addr$i" ] && return 0; sleep 0.05; done
  echo "node $i never came up" >&2; cat "$WORK/node$i.log" >&2; exit 1
}
start_node 0 "$P0"
start_node 1 "$P1"
start_node 2 "$P2"

"$WORK/colorgate" -addr 127.0.0.1:0 -addr-file "$WORK/gwaddr" -peers "$PEERS" \
  -health-interval 100ms 2>"$WORK/gw.log" &
GW_PID=$!
PIDS+=("$GW_PID")
for _ in $(seq 100); do [ -s "$WORK/gwaddr" ] && break; sleep 0.05; done
GW="http://$(cat "$WORK/gwaddr")"
echo "cluster: nodes $PEERS behind $GW"

# 1. Stable bytes through the gateway, one request per fast-tier algorithm.
COLOR_REQS=(
  '{"kind":"edge","alg":"be","graph":{"family":"gnm","n":64,"m":192,"seed":1}}'
  '{"kind":"edge","alg":"pr","graph":{"family":"regular","n":48,"deg":4,"seed":2}}'
  '{"kind":"edge","alg":"greedy","graph":{"family":"tree","n":64,"seed":3}}'
  '{"kind":"vertex","alg":"be","graph":{"family":"powercycle","n":40,"deg":3}}'
  '{"kind":"vertex","alg":"greedy","graph":{"family":"cycle","n":64}}'
)
for req in "${COLOR_REQS[@]}"; do
  A="$(curl -fsS -X POST -d "$req" "$GW/v1/color")"
  B="$(curl -fsS -X POST -d "$req" "$GW/v1/color")"
  [ -n "$A" ] && [ "$A" = "$B" ] || { echo "FAIL: bodies differ for $req" >&2; exit 1; }
done
echo "smoke: ${#COLOR_REQS[@]} coloring reads, each byte-stable on repeat"

# 2. Durable session through the gateway: create, mutate, kill+restart every
# node, re-read — fingerprint must survive the cluster-wide restart.
curl -fsS -X POST -d '{"session":"smoke","base":{"family":"cycle","n":24}}' "$GW/v1/mutate" >/dev/null
FP1="$(curl -fsS -X POST -d '{"session":"smoke","ops":[{"op":"insert","u":0,"v":9},{"op":"insert","u":3,"v":14}]}' "$GW/v1/mutate" | sed 's/.*"fingerprint":"\([^"]*\)".*/\1/')"
for pid in "${PIDS[@]}"; do
  [ "$pid" = "$GW_PID" ] && continue
  kill -9 "$pid" 2>/dev/null || true
  wait "$pid" 2>/dev/null || true
done
PIDS=("$GW_PID")
rm -f "$WORK/addr0" "$WORK/addr1" "$WORK/addr2"
start_node 0 "$P0"
start_node 1 "$P1"
start_node 2 "$P2"
sleep 0.3  # give the gateway's prober a beat to re-mark peers healthy
FP2="$(curl -fsS -X POST -d '{"session":"smoke"}' "$GW/v1/mutate" | sed 's/.*"fingerprint":"\([^"]*\)".*/\1/')"
[ -n "$FP1" ] && [ "$FP1" = "$FP2" ] && echo "smoke: session fingerprint survived a full-cluster SIGKILL ($FP1)" \
  || { echo "FAIL: fingerprint $FP1 -> $FP2 across restart" >&2; exit 1; }

# 3. Gateway statz sanity.
STATZ="$(curl -fsS "$GW/statz")"
echo "$STATZ" | grep -q '"healthyPeers":3' || { echo "FAIL: not all peers healthy: $STATZ" >&2; exit 1; }
echo "smoke: gateway reports 3 healthy peers"

echo "cluster smoke passed" >&2
