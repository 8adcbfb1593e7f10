#!/bin/sh
# Live smoke: the serialization attack's gateway on real loopback TCP.
#
# Builds h2serve, h2proxy and h2get, serves the synthetic survey site
# with h2serve, relays it through h2proxy -spacing 50ms -monitor, and
# fetches the whole survey page with h2get -survey -burst, all on free
# loopback ports. Asserts that h2get exits 0, that it prints one
# status-200 line per survey object whose byte count equals the size
# the site model gives that object (h2serve -verbose logs it), and
# that the proxy logs one c->s HEADERS line per request. Mirrors the
# CI live-smoke job; scratch in campaigns/ (gitignored).
#
# Usage: scripts/live_smoke.sh [scratch-dir]
set -eu

cd "$(dirname "$0")/.."
DIR=${1:-campaigns/livesmoke}
rm -rf "$DIR"
mkdir -p "$DIR"

pids=""
cleanup() {
	for pid in $pids; do
		kill "$pid" 2>/dev/null || true
	done
	wait 2>/dev/null || true
}
trap cleanup EXIT
trap 'exit 1' INT TERM

go build -o "$DIR/" ./cmd/h2serve ./cmd/h2proxy ./cmd/h2get

# addr FILE SED-EXPR: wait up to 10s for the listen address a command
# logs on stderr when it binds.
addr() {
	tries=0
	while :; do
		a=$(sed -n "$2" "$1")
		if [ -n "$a" ]; then
			echo "$a"
			return 0
		fi
		tries=$((tries + 1))
		if [ "$tries" -gt 100 ]; then
			echo "live_smoke: no listen address in $1 after 10s:" >&2
			cat "$1" >&2
			return 1
		fi
		sleep 0.1
	done
}

"$DIR/h2serve" -addr 127.0.0.1:0 -verbose 2>"$DIR/serve.log" &
pids="$pids $!"
origin=$(addr "$DIR/serve.log" 's|.*h2serve: serving .* on \(127\.0\.0\.1:[0-9]*\)$|\1|p')

"$DIR/h2proxy" -listen 127.0.0.1:0 -target "$origin" -spacing 50ms -monitor \
	2>"$DIR/proxy.log" &
pids="$pids $!"
proxy=$(addr "$DIR/proxy.log" 's|.*h2proxy: \(127\.0\.0\.1:[0-9]*\) -> .*|\1|p')

if ! "$DIR/h2get" -addr "$proxy" -survey -burst >"$DIR/get.out" 2>"$DIR/get.err"; then
	echo "live_smoke: h2get failed:" >&2
	cat "$DIR/get.err" >&2
	exit 1
fi

objects=$(sed -n 's/^total: \([0-9]*\) objects.*/\1/p' "$DIR/get.out")
if [ -z "$objects" ] || [ "$objects" -eq 0 ]; then
	echo "live_smoke: h2get fetched no objects" >&2
	cat "$DIR/get.out" >&2
	exit 1
fi

# h2serve -verbose logs "<date> <time> GET <path> -> <size> bytes";
# h2get prints "<path> <status>  <bytes> bytes" per object.
ok=$(awk -v want="$objects" '
	FNR == NR { if ($3 == "GET") size[$4] = $6; next }
	$4 == "bytes" {
		n++
		if ($2 != 200) { printf "%s: status %s\n", $1, $2; bad++ }
		else if (!($1 in size)) { printf "%s: not in the h2serve log\n", $1; bad++ }
		else if ($3 != size[$1]) { printf "%s: %s bytes, object is %s\n", $1, $3, size[$1]; bad++ }
	}
	END {
		if (n != want) { printf "%d object lines, want %d\n", n, want; bad++ }
		if (!bad) print "ok"
	}' "$DIR/serve.log" "$DIR/get.out")
if [ "$ok" != "ok" ]; then
	echo "live_smoke: responses do not match the site's objects:" >&2
	echo "$ok" >&2
	exit 1
fi

headers=$(grep -c 'c->s HEADERS' "$DIR/proxy.log" || true)
if [ "$headers" -ne "$objects" ]; then
	echo "live_smoke: proxy logged $headers request HEADERS, want $objects" >&2
	exit 1
fi

echo "live-smoke OK ($objects objects through h2proxy -spacing 50ms)"
