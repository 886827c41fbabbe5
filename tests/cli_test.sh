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
