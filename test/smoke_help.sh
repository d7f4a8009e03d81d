#!/bin/sh
# CLI surface smoke test (wired into `dune runtest` — see the rule in
# test/dune):
#   1. every registered subcommand answers --help with exit 0, so no
#      refactor can leave a command with a broken term
#   2. the subcommands on the shared exit-code convention document it:
#      0 success / 1 negative finding / 2 invalid input
#   3. the top-level help lists the serve daemon next to solve/sweep
#   4. solve, sweep, sat, fuzz, prove and check offer exactly their
#      pinned flag set, with docv and default
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

out=$(mktemp /tmp/rtlsat_help.XXXXXX.out)
trap 'rm -f "$out" "$out.want" "$out.got"' EXIT

# 1. every subcommand answers --help
"$rtlsat" --help=plain > "$out"
grep -q "COMMANDS" "$out"
grep -q "serve" "$out"

for sub in list show solve sweep serve check prove export sat fuzz \
           profile top metrics runs trace-diff bench-diff bench-history \
           table1 table2; do
  "$rtlsat" "$sub" --help=plain > "$out"
done

# 2. the 0/1/2 exit-code convention is documented on the commands that
#    share it
for sub in show solve sweep serve check prove sat fuzz profile top \
           metrics runs trace-diff bench-diff bench-history; do
  "$rtlsat" "$sub" --help=plain > "$out"
  grep -q "on a negative finding" "$out"
  grep -q "on unreadable or invalid input" "$out"
done

# 4. the flag set of the solving and checking subcommands, with docv
#    and default, is pinned: a refactor can neither add nor drop a
#    flag silently
flags() {
  "$rtlsat" "$1" --help=plain | sed -n 's/^       \(-.*\)$/\1/p' \
    | grep -v -e '^--help' -e '^--version$'
}
check_flags() {
  sub=$1
  shift
  printf '%s\n' "$@" > "$out.want"
  flags "$sub" > "$out.got"
  if ! diff "$out.want" "$out.got"; then
    echo "FAIL: $sub --help flag set changed" >&2
    exit 1
  fi
}
check_flags solve \
  '-c NAME, --circuit=NAME' \
  '--cube' \
  '--dump-graph=DIR' \
  '--dump-graph-max=N (absent=10)' \
  '-e VAL, --engine=VAL (absent=hdpll+s+p)' \
  '--flight-recorder=FILE (absent=rtlsat.flight.jsonl)' \
  '--flight-recorder-on' \
  '--heartbeat=SECONDS (absent=1.)' \
  '--inprocess=CONFLICTS (absent=0)' \
  '-j N, --jobs=N (absent=1)' \
  '-k FRAMES, --bound=FRAMES' \
  '--ledger=FILE' \
  '--metrics-out=FILE' \
  '--no-flight-recorder' \
  '--no-ledger' \
  '--no-simplify' \
  '--no-split' \
  '-p PROP, --property=PROP' \
  '--simplify' \
  '--split' \
  '--stats-json=FILE' \
  '--timeout=SECONDS (absent=1200.)' \
  '--trace=FILE' \
  '-v, --progress'
check_flags sweep \
  '--bounds=K1,K2,.. (absent=10,20,30)' \
  '-c NAME, --circuit=NAME (required)' \
  '--compare-scratch' \
  '-e VAL, --engine=VAL (absent=hdpll+s+p)' \
  '--flight-recorder=FILE (absent=rtlsat.flight.jsonl)' \
  '--flight-recorder-on' \
  '--heartbeat=SECONDS (absent=1.)' \
  '--inprocess=CONFLICTS (absent=0)' \
  '-j N, --jobs=N (absent=1)' \
  '--ledger=FILE' \
  '--metrics-out=FILE' \
  '--no-flight-recorder' \
  '--no-ledger' \
  '--no-simplify' \
  '--no-split' \
  '-p PROP, --property=PROP (required)' \
  '--simplify' \
  '--split' \
  '--timeout=SECONDS (absent=1200.)' \
  '--trace=FILE'
check_flags sat \
  '--flight-recorder=FILE (absent=rtlsat.flight.jsonl)' \
  '--flight-recorder-on' \
  '--inprocess=CONFLICTS (absent=0)' \
  '--ledger=FILE' \
  '--no-flight-recorder' \
  '--no-ledger' \
  '--no-simplify' \
  '--no-split' \
  '--simplify' \
  '--split' \
  '--stats-json=FILE' \
  '--timeout=VAL (absent=1200.)'
check_flags fuzz \
  '--count=N (absent=100)' \
  '--deadline=SECONDS' \
  '--inprocess=CONFLICTS (absent=0)' \
  '--json=FILE' \
  '--ledger=FILE' \
  '--max-nodes=N (absent=32)' \
  '--max-regs=N (absent=2)' \
  '--no-ledger' \
  '--no-simplify' \
  '--no-split' \
  '-o DIR, --out=DIR' \
  '--seed=N (absent=0)' \
  '--simplify' \
  '--split' \
  '--timeout=SECONDS (absent=2.)' \
  '--trace=FILE' \
  '-v, --verbose'
check_flags prove \
  '-c NAME, --circuit=NAME (required)' \
  '--max-k=VAL (absent=20)' \
  '-p PROP, --property=PROP (required)'
check_flags check \
  '--any' \
  '-k VAL, --bound=VAL (required)' \
  '-p OUTPUT, --property=OUTPUT (required)' \
  '--timeout=VAL (absent=1200.)' \
  '--vcd=FILE'

echo "smoke_help: all checks passed"
