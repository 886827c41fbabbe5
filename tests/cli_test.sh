#!/bin/sh
# CLI regression: malformed numeric flags must exit 2 with the usage text
# (not crash, not silently run with a garbage value), and a valid
# invocation must still succeed. Run as: cli_test.sh <path-to-vsd>.
set -u

VSD="$1"
fails=0

expect_usage_error() {
  desc="$1"; shift
  out=$("$@" 2>&1)
  code=$?
  if [ "$code" -ne 2 ]; then
    echo "FAIL: $desc: expected exit 2, got $code"
    fails=$((fails + 1))
    return
  fi
  case "$out" in
    *"error: --"*) ;;
    *) echo "FAIL: $desc: no flag error message in output"
       fails=$((fails + 1)); return ;;
  esac
  case "$out" in
    *"vsd — verifiable software dataplane tool"*) ;;
    *) echo "FAIL: $desc: usage text not printed"
       fails=$((fails + 1)); return ;;
  esac
  echo "ok: $desc"
}

expect_usage_error "--jobs abc rejected" \
  "$VSD" verify "Classifier" --property crash --jobs abc
expect_usage_error "--jobs -1 rejected" \
  "$VSD" verify "Classifier" --property crash --jobs -1
expect_usage_error "--seed 8x rejected" \
  "$VSD" run "Classifier" --count 1 --seed 8x
expect_usage_error "--len trailing garbage rejected" \
  "$VSD" verify "Classifier" --property crash --len 64garbage
expect_usage_error "--jobs out-of-range rejected" \
  "$VSD" verify "Classifier" --property crash --jobs 99999999999999999999999

# serve/submit/--cache-dir validation: every malformed invocation must be
# a usage error (exit 2 with the usage text), never a hung daemon or a
# half-written cache.
expect_exit2() {
  desc="$1"; shift
  out=$("$@" 2>&1)
  code=$?
  if [ "$code" -ne 2 ]; then
    echo "FAIL: $desc: expected exit 2, got $code"
    fails=$((fails + 1))
    return
  fi
  case "$out" in
    *"error:"*) ;;
    *) echo "FAIL: $desc: no error message in output"
       fails=$((fails + 1)); return ;;
  esac
  echo "ok: $desc"
}

expect_exit2 "serve without --socket rejected" \
  "$VSD" serve
expect_exit2 "serve with empty --socket rejected" \
  "$VSD" serve --socket ""
expect_exit2 "submit without --socket rejected" \
  "$VSD" submit /dev/null
expect_usage_error "check with empty --cache-dir rejected" \
  "$VSD" check /dev/null --cache-dir ""
# /proc rejects directory creation even for root.
expect_usage_error "check with unwritable --cache-dir rejected" \
  "$VSD" check /dev/null --cache-dir /proc/vsd-no-such-dir
expect_usage_error "fuzz with unwritable --cache-dir rejected" \
  "$VSD" fuzz --pipelines 1 --cache-dir /proc/vsd-no-such-dir

# submit to a socket nobody listens on: a connection error (exit 2), not a
# hang.
expect_exit2 "submit to dead socket fails with exit 2" \
  "$VSD" submit /dev/null --socket /tmp/vsd-cli-test-no-daemon.sock

# Flag matrix: the global --trace/--metrics/--cache-dir/--stats flags are
# accepted exactly where the docs claim them; a flag a subcommand does not
# document is a usage error (exit 2 + usage), never silently ignored.
expect_ok() {
  desc="$1"; shift
  if "$@" > /dev/null 2>&1; then
    echo "ok: $desc"
  else
    echo "FAIL: $desc: expected exit 0, got $?"
    fails=$((fails + 1))
  fi
}

MTX=$(mktemp -d)
expect_ok "verify accepts --stats/--trace/--metrics/--cache-dir" \
  "$VSD" verify "Classifier" --property crash --stats \
  --trace "$MTX/t.json" --metrics "$MTX/m.jsonl" --cache-dir "$MTX/cache"
expect_ok "reach accepts --stats/--trace/--metrics" \
  "$VSD" reach "Classifier" --dst 10.0.0.1 --stats \
  --trace "$MTX/t2.json" --metrics "$MTX/m2.jsonl"
expect_ok "state accepts --stats/--trace/--metrics" \
  "$VSD" state "Counter" --bound 4 --stats \
  --trace "$MTX/t3.json" --metrics "$MTX/m3.jsonl"
expect_ok "fuzz accepts --trace/--metrics/--cache-dir" \
  "$VSD" fuzz --pipelines 1 --packets 5 \
  --trace "$MTX/t4.json" --metrics "$MTX/m4.jsonl" --cache-dir "$MTX/cache2"
expect_usage_error "show rejects --stats" \
  "$VSD" show "Classifier" --stats
expect_usage_error "list rejects --cache-dir" \
  "$VSD" list --cache-dir "$MTX/nope"
expect_usage_error "certify rejects --stats" \
  "$VSD" certify "CheckIPHeader" --candidate DecIPTTL --stats
expect_usage_error "run rejects --stats" \
  "$VSD" run "Classifier" --packets 1 --stats
expect_usage_error "verify rejects a typo flag" \
  "$VSD" verify "Classifier" --property crash --job 2
rm -rf "$MTX"

# vsd run: numeric flags go through the strict parser, the compiled-engine
# kill switch is accepted, and malformed values are usage errors.
expect_usage_error "run --packets abc rejected" \
  "$VSD" run "Classifier" --packets abc
expect_usage_error "run --packets trailing garbage rejected" \
  "$VSD" run "Classifier" --packets 10x
expect_usage_error "run --batch 0 rejected" \
  "$VSD" run "Classifier" --packets 1 --batch 0
expect_usage_error "run --batch junk rejected" \
  "$VSD" run "Classifier" --packets 1 --batch junk
expect_usage_error "run --seed -3 rejected" \
  "$VSD" run "Classifier" --packets 1 --seed -3
expect_usage_error "run --pcap-like missing file rejected" \
  "$VSD" run "Classifier" --pcap-like /no/such/file.pkt
expect_usage_error "run --packets 0 rejected" \
  "$VSD" run "Classifier" --packets 0
expect_ok "run valid invocation exits 0" \
  "$VSD" run "Classifier" --packets 16 --batch 4 --seed 7
expect_ok "run --no-compiled exits 0" \
  "$VSD" run "Classifier" --packets 16 --no-compiled

# The per-rung query-avoidance switches are gone from the CLI: each
# retired flag is now a usage error, even on a spec that checks clean.
PACK="$(dirname "$0")/packs/Null.vspec"
for flag in --no-rewrite --no-independence --no-cex-cache \
    --no-core-grouping --no-clause-gc; do
  expect_usage_error "check rejects retired $flag" \
    "$VSD" check "$PACK" "$flag"
done

# verify, reach, state and profile check the spec their flags describe
# through the same checker as `vsd check`. The exit codes of the
# verification commands in the README and the verify skill must not change.
expect_code() {
  desc="$1"; want="$2"; shift 2
  "$@" > /dev/null 2>&1
  code=$?
  if [ "$code" -eq "$want" ]; then
    echo "ok: $desc"
  else
    echo "FAIL: $desc: expected exit $want, got $code"
    fails=$((fails + 1))
  fi
}

ROUTER="Classifier -> EthDecap -> CheckIPHeader -> IPLookup(10.0.0.0/8 0)"
expect_code "verify crash of the router proven" 0 \
  "$VSD" verify "$ROUTER" --property crash
expect_code "verify bound proven" 0 \
  "$VSD" verify "CheckIPHeader -> DecIPTTL -> IPOptions" --property bound \
  --len 46
expect_code "reach 10.1.2.3 proven" 0 "$VSD" reach "$ROUTER" --dst 10.1.2.3
expect_code "reach 8.8.8.8 violated" 1 "$VSD" reach "$ROUTER" --dst 8.8.8.8
expect_code "state NetFlow violated" 1 \
  "$VSD" state "NetFlow" --bound 2 --len 40
expect_code "state Counter proven" 0 "$VSD" state "Counter" --bound 2
expect_code "verify UnsafeStrip crash violated" 1 \
  "$VSD" verify "UnsafeStrip(14) -> CheckIPHeader -> Discard" \
  --property crash --len 8
expect_code "verify NetFlow(strict) crash violated" 1 \
  "$VSD" verify "NetFlow(strict)" --property crash --len 40

# reach prints the counterexample `vsd check` finds for the same property
# written as a spec file.
SPECS=$(mktemp -d)
cat > "$SPECS/reach.vspec" <<EOF
pipeline "$ROUTER";
let to_dst = wellformed_checksummed && ip.dst == 8.8.8.8;
assert never(drop) when to_dst;
EOF
reach_ce=$("$VSD" reach "$ROUTER" --dst 8.8.8.8 | grep -E '^  (packet|replay):')
check_ce=$("$VSD" check "$SPECS/reach.vspec" | grep -E '^  (packet|replay):')
if [ -n "$reach_ce" ] && [ "$reach_ce" = "$check_ce" ]; then
  echo "ok: reach and check print the same counterexample"
else
  echo "FAIL: reach and check counterexamples differ:"
  echo "$reach_ce"
  echo "$check_ce"
  fails=$((fails + 1))
fi

# The retired --unroll flag, a misspelled element (with its did-you-mean),
# an out-of-range --len, and arguments that would add statements to the
# written spec are usage or spec errors.
expect_usage_error "verify rejects the retired --unroll" \
  "$VSD" verify "Classifier" --property crash --unroll
expect_exit2 "verify --len 0 rejected" \
  "$VSD" verify "Classifier" --property crash --len 0
expect_exit2 "state --element Countr rejected" \
  "$VSD" state "Counter" --bound 2 --element Countr
if "$VSD" state "Counter" --bound 2 --element Countr 2>&1 |
    grep -q "did you mean 'Counter'"; then
  echo "ok: state --element Countr suggests Counter"
else
  echo "FAIL: state --element Countr printed no did-you-mean"
  fails=$((fails + 1))
fi
expect_exit2 "a quote in the pipeline rejected" \
  "$VSD" verify 'Classifier"; assert never(drop); #' --property crash
expect_usage_error "a non-identifier --element rejected" \
  "$VSD" state "NetFlow" --bound 2 --element 'NetFlow) <= 9; assert crash_free'
expect_usage_error "a non-address --dst rejected" \
  "$VSD" reach "$ROUTER" --dst '8.8.8.8; assert crash_free'
expect_usage_error "a --dst with whitespace and a sign rejected" \
  "$VSD" reach "$ROUTER" --dst " +8.8.8.8"

# Only a trap counterexample prints a trap kind: a dropped packet and the
# packets of a bounded-state sequence carry none.
expect_no_trap_line() {
  desc="$1"; shift
  if "$@" 2>&1 | grep -q '^  trap:'; then
    echo "FAIL: $desc: printed a trap line"
    fails=$((fails + 1))
  else
    echo "ok: $desc"
  fi
}
expect_no_trap_line "reach 8.8.8.8 drop has no trap line" \
  "$VSD" reach "$ROUTER" --dst 8.8.8.8
expect_no_trap_line "state NetFlow sequence has no trap line" \
  "$VSD" state "NetFlow" --bound 2 --len 40
if "$VSD" verify "UnsafeStrip(14) -> CheckIPHeader -> Discard" \
    --property crash --len 8 | grep -q '^  trap: pull-underflow$'; then
  echo "ok: the UnsafeStrip crash prints its trap kind"
else
  echo "FAIL: the UnsafeStrip crash printed no trap kind"
  fails=$((fails + 1))
fi

# vsd asm and vsd verify-ir on hand-written elements: a TTL checker that
# guards its packet read, and one that does not.
cat > "$SPECS/ttl.vsd" <<'EOF'
program MiniTtl ports=2
func main
block b0
  %len:32 = pkt.len
  %min:32 = const 9
  %ok:1 = ule %min, %len
  br %ok, @b1, @b2
block b1
  %ttl:8 = pkt.load off=8 n=1
  %one:8 = const 1
  %alive:1 = ult %one, %ttl
  br %alive, @b3, @b4
block b2
  drop
block b3
  %dec:8 = sub %ttl, %one
  pkt.store off=8 n=1, %dec
  emit 0
block b4
  emit 1
EOF
cat > "$SPECS/unguarded.vsd" <<'EOF'
program Unguarded ports=1
func main
block b0
  %ttl:8 = pkt.load off=8 n=1
  emit 0
EOF
if "$VSD" asm "$SPECS/ttl.vsd" --print | grep -q "^assembled @MiniTtl"; then
  echo "ok: asm assembles a hand-written element"
else
  echo "FAIL: asm did not assemble ttl.vsd"
  fails=$((fails + 1))
fi
expect_code "verify-ir crash of the guarded element proven" 0 \
  "$VSD" verify-ir "$SPECS/ttl.vsd" --property crash --len 4
expect_code "verify-ir bound proven" 0 \
  "$VSD" verify-ir "$SPECS/ttl.vsd" --property bound
expect_code "verify-ir crash of the unguarded element violated" 1 \
  "$VSD" verify-ir "$SPECS/unguarded.vsd" --property crash --len 4
rm -rf "$SPECS"

# A valid invocation still works.
if "$VSD" verify "Classifier -> EthDecap" --property crash --jobs 2 \
    > /dev/null 2>&1; then
  echo "ok: valid invocation exits 0"
else
  echo "FAIL: valid invocation failed (exit $?)"
  fails=$((fails + 1))
fi

[ "$fails" -eq 0 ] || exit 1
echo "cli_test: all checks passed"
