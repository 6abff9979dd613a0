#!/usr/bin/env bash
# Daemon lifecycle smoke (run by CI's serve-smoke job, usable locally):
#   1. start hetsched_serve with a worker death injected into every batch,
#   2. submit a batch of small jobs through hetsched_cli and wait for them,
#   3. fetch metrics over the socket,
#   4. send hostile request lines (64 KiB without a newline, binary junk)
#      and check the daemon rejects them and still answers a fresh client,
#   5. SIGTERM the daemon and assert it drains to exit 0 with a non-empty
#      metrics JSON report on stdout.
#
# Usage: tools/serve_smoke.sh [BIN_DIR]   (default: build/tools)
set -euo pipefail

BIN_DIR="${1:-build/tools}"
SOCK="$(mktemp -u "${TMPDIR:-/tmp}/hetsched_serve_XXXXXX.sock")"
OUT="$(mktemp)"
ERR="$(mktemp)"
# A failed step must not leave the daemon running.
trap 'kill "${SERVE_PID:-}" 2>/dev/null || true; rm -f "$SOCK" "$OUT" "$ERR"' EXIT

"$BIN_DIR/hetsched_serve" --socket="$SOCK" --threads=2 --max-batch=4 \
    --kill-worker=1 --kill-at=0.001 >"$OUT" 2>"$ERR" &
SERVE_PID=$!

# The client retries the connect while the daemon binds its socket.
"$BIN_DIR/hetsched_cli" submit --socket="$SOCK" --tiles=6 --nb=64 \
    --count=8 --wait
# Separate probe call: --metrics alone fetches the live snapshot.
"$BIN_DIR/hetsched_cli" submit --socket="$SOCK" --metrics

python3 - "$SOCK" <<'PY'
import socket
import sys

path = sys.argv[1]


def connect():
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(10)
    s.connect(path)
    return s


def read_all(s):
    # Linux reports the close of a socket that still held unread input as
    # a reset rather than EOF; both mean the daemon closed the connection.
    data = b""
    while True:
        try:
            chunk = s.recv(4096)
        except ConnectionResetError:
            return data
        if not chunk:
            return data
        data += chunk


def expect(got, want, what):
    if got != want:
        sys.exit(f"FAIL: {what}: expected {want!r}, got {got!r}")


s = connect()
try:
    s.sendall(b"A" * 65536)  # no newline
except (BrokenPipeError, ConnectionResetError):
    pass  # the daemon may close before the whole flood is written
expect(read_all(s), b"ERR request too long\n", "oversized request")
s.close()

s = connect()
junk = bytes(b for b in range(256) if b != ord("\n"))
s.sendall(junk + b"\n")
expect(s.recv(4096), b"ERR bad request\n", "binary junk")
s.close()

s = connect()
s.sendall(b"PING\n")
expect(s.recv(4096), b"PONG\n", "fresh connection")
s.close()
PY

kill -TERM "$SERVE_PID"
if ! wait "$SERVE_PID"; then
  echo "FAIL: daemon did not exit 0 after SIGTERM" >&2
  cat "$ERR" >&2
  exit 1
fi

# The drained daemon prints its final metrics JSON on stdout.
if ! [ -s "$OUT" ]; then
  echo "FAIL: no metrics JSON on daemon stdout" >&2
  cat "$ERR" >&2
  exit 1
fi
grep -q '"completed":8' "$OUT" || {
  echo "FAIL: expected 8 completed jobs in: $(cat "$OUT")" >&2
  exit 1
}
grep -q '"worker_deaths":' "$OUT" || {
  echo "FAIL: no worker_deaths counter in: $(cat "$OUT")" >&2
  exit 1
}
echo "serve smoke OK: $(cat "$OUT")"
