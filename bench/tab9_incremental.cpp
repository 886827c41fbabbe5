// TAB9 — incremental assumption-based solving vs one-shot decisions.
//
// The decision layer's query-heavy inner loops (Step-2 stitched-path
// decisions, bounded-state key enumeration, unroll-refinement re-walks)
// issue long runs of SAT queries sharing a path-constraint prefix. With
// DecomposedConfig::incremental (default), each solver keeps a live
// assumption-based context: shared conjuncts Tseitin-blast once and learnt
// clauses persist across queries. This bench A/Bs the two modes on three
// workloads and reports solver *stats* (conflicts, decisions, blast nodes)
// rather than only wall time — the counters are scheduling-independent, so
// the comparison is meaningful on a single-core CI runner.
//
// With --assert-improvement <percent>, exits 1 unless the incremental path
// reduces conflicts+decisions by at least <percent> on BOTH the stitched
// Step-2 workload and the key-enumeration workload (the CI perf-smoke).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "elements/registry.hpp"
#include "net/headers.hpp"
#include "verify/decomposed.hpp"
#include "verify/predicates.hpp"

using namespace vsd;

namespace {

struct Measured {
  std::string verdict;
  uint64_t conflicts = 0;
  uint64_t decisions = 0;
  uint64_t blast_nodes = 0;
  double seconds = 0.0;
};

using Workload = Measured (*)(bool incremental);

verify::DecomposedConfig base_config(bool incremental, size_t len) {
  verify::DecomposedConfig cfg;
  cfg.packet_len = len;
  cfg.incremental = incremental;
  return cfg;
}

Measured from_report(verify::Verdict v, const verify::VerifyStats& s,
                     double seconds) {
  return Measured{verify::verdict_name(v), s.sat_conflicts, s.sat_decisions,
                  s.blast_nodes, seconds};
}

// Workload 1 — Step-2 stitched queries: the paper's worked IP-router chain
// at 64 B with the operator property "well-formed packets to 10.1.2.3 reach
// output 0". Wrong-exit suspects are decided against stitched constraints
// sharing the chain's path prefix, and the per-path unroll refinement's
// exact re-walk issues long runs of fork-check queries differing only in a
// small suffix over an identical path prefix — the motivating workload.
// IPOptions@64B makes it arithmetic-heavy (checksum circuits) and is the
// case the refinement time budget used to demote.
Measured stitched_step2(bool incremental) {
  pipeline::Pipeline pl = elements::parse_pipeline(
      "Classifier -> EthDecap -> CheckIPHeader -> "
      "IPLookup(10.0.0.0/8 0, 192.168.0.0/16 1, 172.16.0.0/12 0) -> "
      "DecIPTTL -> IPOptions -> EthEncap");
  verify::DecomposedVerifier v(base_config(incremental, 64));
  verify::TerminalSpec spec;
  spec.required_exit_port = 0;
  const uint32_t dst = net::parse_ipv4("10.1.2.3");
  const auto predicate = [&](const symbex::SymPacket& p) {
    return verify::both(verify::wellformed_ipv4_checksummed(p, 0),
                        verify::dst_ip_is(p, dst, 14));
  };
  const verify::ReachabilityReport r = v.verify_reach_never(pl, predicate, spec);
  return from_report(r.verdict, r.stats, r.seconds);
}

// Workload 2 — the tab3 chain (k=7, 46 B): crash freedom across the
// branch-rich IPOptions-bearing pipeline. Reported for context; suspects
// here mostly fold or collapse before the SAT layer, so the absolute
// counter deltas are small.
Measured tab3_chain(bool incremental) {
  pipeline::Pipeline pl = elements::parse_pipeline(
      "CheckIPHeader(nochecksum) -> DecIPTTL -> IPOptions -> SetIPChecksum "
      "-> IPOptions -> DecIPTTL -> IPOptions");
  verify::DecomposedVerifier v(base_config(incremental, 46));
  const verify::CrashFreedomReport r = v.verify_crash_freedom(pl);
  return from_report(r.verdict, r.stats, r.seconds);
}

// Workload 3 — NetFlow occupancy key enumeration: every model is one new
// flow-table entry; blocking clauses accumulate query over query against a
// fixed site constraint — the incremental context's home turf.
Measured netflow_enumeration(bool incremental) {
  pipeline::Pipeline pl = elements::parse_pipeline(
      "CheckIPHeader(nochecksum) -> "
      "IPFilter(deny tcp port 22; default allow) -> NetFlow");
  verify::DecomposedVerifier v(base_config(incremental, 48));
  verify::StateBoundSpec spec;
  spec.element = "NetFlow";
  spec.bound = 6;  // violated: enumerates bound+1 = 7 distinct keys
  const verify::StateBoundReport r = v.verify_bounded_state(
      pl, [](const symbex::SymPacket&) { return bv::mk_bool(true); }, spec);
  return from_report(r.verdict, r.stats, r.seconds);
}

double reduction_percent(uint64_t one_shot, uint64_t incremental) {
  if (one_shot == 0) return 0.0;
  return 100.0 * (1.0 - static_cast<double>(incremental) /
                            static_cast<double>(one_shot));
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args =
      benchutil::parse_bench_args(argc, argv);  // enables --json <file>
  double assert_improvement = -1.0;  // disabled
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--assert-improvement" && i + 1 < args.size()) {
      assert_improvement = std::stod(args[i + 1]);
      ++i;
    }
  }

  benchutil::section(
      "TAB9: incremental assumption-based solving vs one-shot decisions");
  std::printf(
      "stat-based A/B: identical workloads, identical verdicts; conflicts+"
      "decisions\nand blast nodes are scheduling-independent (meaningful on "
      "1-core runners).\n\n");

  struct Row {
    const char* name;
    Workload run;
    bool asserted;  // participates in --assert-improvement
  };
  const std::vector<Row> workloads = {
      {"stitched Step-2 (ip_router reach, 64B)", &stitched_step2, true},
      {"tab3 chain crash freedom (k=7, 46B)", &tab3_chain, false},
      {"NetFlow key enumeration (bound 6, 48B)", &netflow_enumeration, true},
  };

  benchutil::Table t({"workload", "verdict", "mode", "conflicts", "decisions",
                      "conf+dec", "blast nodes", "time"});
  bool ok = true;
  for (const Row& w : workloads) {
    const Measured one = w.run(false);
    const Measured inc = w.run(true);
    if (one.verdict != inc.verdict) {
      std::printf("FAIL: verdict mismatch on '%s' (%s vs %s)\n", w.name,
                  one.verdict.c_str(), inc.verdict.c_str());
      ok = false;
    }
    const uint64_t one_total = one.conflicts + one.decisions;
    const uint64_t inc_total = inc.conflicts + inc.decisions;
    const double red = reduction_percent(one_total, inc_total);
    t.add_row({w.name, one.verdict, "one-shot", benchutil::fmt_u64(one.conflicts),
               benchutil::fmt_u64(one.decisions), benchutil::fmt_u64(one_total),
               benchutil::fmt_u64(one.blast_nodes),
               benchutil::fmt_seconds(one.seconds)});
    char redbuf[64];
    std::snprintf(redbuf, sizeof(redbuf), "incremental (%+.0f%%)", -red);
    t.add_row({"", inc.verdict, redbuf, benchutil::fmt_u64(inc.conflicts),
               benchutil::fmt_u64(inc.decisions), benchutil::fmt_u64(inc_total),
               benchutil::fmt_u64(inc.blast_nodes),
               benchutil::fmt_seconds(inc.seconds)});
    if (w.asserted && assert_improvement >= 0.0 && red < assert_improvement) {
      std::printf(
          "FAIL: '%s' reduced conflicts+decisions by %.1f%% "
          "(required >= %.1f%%)\n",
          w.name, red, assert_improvement);
      ok = false;
    }
  }
  t.print();

  std::printf(
      "\nexpected shape: the asserted workloads (stitched Step-2 decisions, "
      "key\nenumeration) drop well past the 40%% bar — shared prefixes blast "
      "once and\nlearnt clauses survive across queries (ip_router reach "
      "about -76%%, key\nenumeration about -78%%). A live context branches "
      "only on the live query's\ncone, so a Sat-heavy workload costs about "
      "what one-shot solving does (tab3\nchain about +1%% decisions+conflicts); "
      "the CI assertion targets the\nquery-heavy loops only.\n");
  return ok ? 0 : 1;
}
