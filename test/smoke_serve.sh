#!/bin/sh
# rtlsat serve smoke test (wired into `dune runtest` — see the rule in
# test/dune):
#   1. two identical solve requests over one connection: the first is
#      cold, the second must hit the warm session (warm=true,
#      unroll_cache=hit) and agree on the verdict
#   2. a malformed line produces an error response but keeps the loop
#      alive for the next request
#   3. shutdown ends the loop; every response carries the
#      rtlsat.serve/1 schema stamp
#   4. the serve ledger records one rtlsat.run/1 record per solve with
#      subcommand "serve" and the warm flag in options
#   5. a rejected request ("bound": -3, or an unknown field such as
#      "timeout" for "timeout_s") leaves no pool session behind: stats
#      counts the errors and lists no session, and the next good solve
#      on that key is cold (warm=false)
# Pass the rtlsat binary as $1 (the dune rule does); standalone runs
# build it first.
set -eu

here=$(dirname "$0")

if [ $# -ge 1 ]; then
  rtlsat=$1
else
  root=$(cd "$here/.." && pwd)
  dune build --root "$root" bin/rtlsat.exe
  rtlsat="$root/_build/default/bin/rtlsat.exe"
fi

out=$(mktemp /tmp/rtlsat_serve.XXXXXX.out)
ledger=$(mktemp /tmp/rtlsat_serve.XXXXXX.ledger)
bad=$(mktemp /tmp/rtlsat_serve.XXXXXX.bad)
trap 'rm -f "$out" "$ledger" "$bad"' EXIT

req='{"op":"solve","id":%d,"circuit":"b01","prop":"1","bound":10,"timeout_s":60}'

# 1.-3. one connection: solve, solve again, garbage, ping, shutdown
{
  printf "$req\n" 1
  printf "$req\n" 2
  printf 'this is not json\n'
  printf '{"op":"ping","id":4}\n'
  printf '{"op":"shutdown","id":5}\n'
} | "$rtlsat" serve --ledger "$ledger" > "$out" 2>/dev/null

[ "$(wc -l < "$out")" -eq 5 ]
[ "$(grep -c '"schema":"rtlsat.serve/1"' "$out")" -eq 5 ]

first=$(sed -n 1p "$out")
second=$(sed -n 2p "$out")

echo "$first" | grep -q '"ok":true'
echo "$first" | grep -q '"warm":false'
echo "$first" | grep -q '"unroll_cache":"miss"'

# the warm boundary: same session, cached unroll prefix, same verdict
echo "$second" | grep -q '"ok":true'
echo "$second" | grep -q '"warm":true'
echo "$second" | grep -q '"unroll_cache":"hit"'
echo "$second" | grep -q '"solves":2'
v1=$(echo "$first" | sed 's/.*"verdict":"\([^"]*\)".*/\1/')
v2=$(echo "$second" | sed 's/.*"verdict":"\([^"]*\)".*/\1/')
[ "$v1" = "$v2" ]

# the bad line answered with an error, not a dead connection
sed -n 3p "$out" | grep -q '"ok":false'
sed -n 4p "$out" | grep -q '"op":"ping"'
sed -n 5p "$out" | grep -q '"op":"shutdown"'

# 4. the ledger carries one serve record per solve request
[ "$(grep -c '"schema":"rtlsat.run/1"' "$ledger")" -eq 2 ]
[ "$(grep -c '"subcommand":"serve"' "$ledger")" -eq 2 ]
grep -q 'warm=false' "$ledger"
grep -q 'warm=true' "$ledger"
"$rtlsat" runs --ledger "$ledger" | grep -q "b01_1(10)"

# 5. rejected requests create no session
{
  printf '{"op":"solve","id":1,"circuit":"b02","prop":"1","bound":-3}\n'
  printf '{"op":"solve","id":2,"circuit":"b02","prop":"1","bound":5,"timeout":-1}\n'
  printf '{"op":"stats","id":3}\n'
  printf '{"op":"solve","id":4,"circuit":"b02","prop":"1","bound":5,"timeout_s":60}\n'
  printf '{"op":"shutdown","id":5}\n'
} | "$rtlsat" serve > "$bad" 2>/dev/null

[ "$(wc -l < "$bad")" -eq 5 ]
sed -n 1p "$bad" | grep -q '"ok":false'
sed -n 2p "$bad" | grep -q '"ok":false'
sed -n 2p "$bad" | grep -q 'unknown field'
stats=$(sed -n 3p "$bad")
echo "$stats" | grep -q '"served":0'
echo "$stats" | grep -q '"errors":2'
echo "$stats" | grep -q '"sessions":\[\]'
good=$(sed -n 4p "$bad")
echo "$good" | grep -q '"ok":true'
echo "$good" | grep -q '"warm":false'

echo "smoke_serve: all checks passed"
