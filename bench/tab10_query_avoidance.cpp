// TAB10 — the query-avoidance pack vs the raw decision layer.
//
// Three query-avoidance rungs sit above the CDCL core in the solver's one
// verdict ladder (see docs/architecture.md "Query avoidance"): unsat-core
// subsumption that discharges whole stitched-suspect families from one
// core, small-domain exhaustion, and a counterexample cache replaying
// recent models. DecomposedConfig::avoidance switches all three.
//
// This bench A/Bs avoidance on vs off on the two query-heavy
// workloads and reports the number of queries that actually reached the
// CDCL core (one-shot blasts + incremental assumption solves) — a
// scheduling-independent counter, meaningful on 1-core CI runners. It also
// replays every workload across {on,off} x jobs {1,8} x
// {incremental,one-shot} and byte-compares verdicts, counterexample
// packets, and bounded-state packet sequences: the rungs are verdict-only
// front-runs, so the output fingerprint must be identical in every cell.
//
// With --assert-improvement <percent>, exits 1 unless avoidance cuts
// CDCL-reaching queries by at least <percent> on BOTH asserted workloads
// (the CI perf-smoke), or if any fingerprint differs.
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
  uint64_t sat_solves = 0;  // queries that reached the CDCL core
  uint64_t exhausted = 0;
  uint64_t cex_hits = 0;
  uint64_t core_discharges = 0;
  // Everything output-visible, serialized: verdict + counterexample bytes
  // + packet sequences. Must be identical across every mode.
  std::string fingerprint;
  double seconds = 0.0;
};

struct Mode {
  bool avoidance = true;
  size_t jobs = 1;
  bool incremental = true;
};

using Workload = Measured (*)(const Mode&);

verify::DecomposedConfig make_config(const Mode& m, size_t len) {
  verify::DecomposedConfig cfg;
  cfg.packet_len = len;
  cfg.jobs = m.jobs;
  cfg.incremental = m.incremental;
  cfg.avoidance = m.avoidance;
  return cfg;
}

void fill_stats(Measured* out, const verify::VerifyStats& s, double seconds) {
  out->sat_solves = s.sat_solves;
  out->exhausted = s.exhaustion_decided;
  out->cex_hits = s.cex_cache_hits;
  out->core_discharges = s.core_discharges;
  out->seconds = seconds;
}

void add_counterexamples(std::string* fp,
                         const std::vector<verify::Counterexample>& ces) {
  for (const verify::Counterexample& ce : ces) {
    *fp += "|ce:" + ce.packet.hex(96) + ":" +
           (ce.trap ? ir::trap_name(*ce.trap) : "-");
    for (const std::string& n : ce.element_path) *fp += ">" + n;
  }
}

// Workload 1 — stitched Step-2 suspect decisions: the paper's worked
// IP-router chain with the operator property "well-formed packets to
// 10.1.2.3 reach output 0" (proven). Unsat-heavy: wrong-exit suspects
// stitched over a shared infeasible prefix are exactly what core
// subsumption discharges without solving.
Measured ip_router_reach(const Mode& m) {
  pipeline::Pipeline pl = elements::parse_pipeline(
      "Classifier -> EthDecap -> CheckIPHeader -> "
      "IPLookup(10.0.0.0/8 0, 192.168.0.0/16 1, 172.16.0.0/12 0) -> "
      "DecIPTTL -> IPOptions -> EthEncap");
  verify::DecomposedVerifier v(make_config(m, 64));
  verify::TerminalSpec spec;
  spec.required_exit_port = 0;
  const uint32_t dst = net::parse_ipv4("10.1.2.3");
  const verify::ReachabilityReport r = v.verify_reach_never(
      pl,
      [&](const symbex::SymPacket& p) {
        return verify::both(verify::wellformed_ipv4_checksummed(p, 0),
                            verify::dst_ip_is(p, dst, 14));
      },
      spec);
  Measured out;
  out.verdict = verify::verdict_name(r.verdict);
  out.fingerprint = out.verdict;
  add_counterexamples(&out.fingerprint, r.counterexamples);
  fill_stats(&out, r.stats, r.seconds);
  return out;
}

// Workload 1b — never-dropped over a filter that drops ssh traffic:
// Violated, so the determinism matrix byte-compares real counterexample
// packets (not just a verdict string).
Measured filter_drop_violation(const Mode& m) {
  pipeline::Pipeline pl = elements::parse_pipeline(
      "CheckIPHeader(nochecksum) -> "
      "IPFilter(deny tcp port 22; default allow) -> NetFlow");
  verify::DecomposedVerifier v(make_config(m, 48));
  const verify::ReachabilityReport r = v.verify_never_dropped(
      pl, [](const symbex::SymPacket& p) {
        return verify::wellformed_ipv4_at(p, 0);
      });
  Measured out;
  out.verdict = verify::verdict_name(r.verdict);
  out.fingerprint = out.verdict;
  add_counterexamples(&out.fingerprint, r.counterexamples);
  fill_stats(&out, r.stats, r.seconds);
  return out;
}

// Workload 2 — NetFlow occupancy key enumeration (bound 6, violated at 7
// keys): the blocking-clause enumeration itself must reach the solver (each
// model is a new flow-table entry), but the surrounding feasibility and
// suspect queries are avoidable, and the enumerated packet sequence must
// come out byte-identical regardless.
Measured netflow_enumeration(const Mode& m) {
  pipeline::Pipeline pl = elements::parse_pipeline(
      "CheckIPHeader(nochecksum) -> "
      "IPFilter(deny tcp port 22; default allow) -> NetFlow");
  verify::DecomposedVerifier v(make_config(m, 48));
  verify::StateBoundSpec spec;
  spec.element = "NetFlow";
  spec.bound = 6;
  const verify::StateBoundReport r = v.verify_bounded_state(
      pl, [](const symbex::SymPacket&) { return bv::mk_bool(true); }, spec);
  Measured out;
  out.verdict = verify::verdict_name(r.verdict);
  out.fingerprint =
      out.verdict + "|occ:" + std::to_string(r.occupancy);
  for (const net::Packet& p : r.packet_sequence) {
    out.fingerprint += "|seq:" + p.hex(96);
  }
  for (const verify::TableOccupancy& t : r.tables) {
    out.fingerprint += "|tab:" + t.element_name + "." + t.table_name + "=" +
                       std::to_string(t.keys_found) +
                       (t.exhausted ? "!" : "?");
  }
  fill_stats(&out, r.stats, r.seconds);
  return out;
}

double reduction_percent(uint64_t off, uint64_t on) {
  if (off == 0) return 0.0;
  return 100.0 * (1.0 - static_cast<double>(on) / static_cast<double>(off));
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

  benchutil::section("TAB10: query avoidance vs raw decision layer");
  std::printf(
      "stat-based A/B at jobs=1: 'sat solves' counts queries reaching the "
      "CDCL core\n(one-shot blasts + incremental assumption solves), which "
      "is scheduling-\nindependent. The determinism matrix then re-runs "
      "every workload across\n{on,off} x jobs {1,8} x {incremental,one-shot} "
      "and byte-compares outputs.\n\n");

  struct Row {
    const char* name;
    Workload run;
    bool asserted;  // participates in --assert-improvement
  };
  const std::vector<Row> workloads = {
      {"stitched Step-2 (ip_router reach, 64B)", &ip_router_reach, true},
      {"ssh-filter drop (violated, 48B)", &filter_drop_violation, false},
      {"NetFlow key enumeration (bound 6, 48B)", &netflow_enumeration, true},
  };

  bool ok = true;

  benchutil::Table t({"workload", "verdict", "mode", "sat solves", "exhausted",
                      "cex hits", "core disch", "time"});
  for (const Row& w : workloads) {
    Mode off_mode;
    off_mode.avoidance = false;
    Mode on_mode;
    on_mode.avoidance = true;
    const Measured off = w.run(off_mode);
    const Measured on = w.run(on_mode);
    if (off.fingerprint != on.fingerprint) {
      std::printf("FAIL: output fingerprint differs on '%s' (on vs off)\n",
                  w.name);
      ok = false;
    }
    const double red = reduction_percent(off.sat_solves, on.sat_solves);
    t.add_row({w.name, off.verdict, "layers off",
               benchutil::fmt_u64(off.sat_solves), "-", "-", "-",
               benchutil::fmt_seconds(off.seconds)});
    char modebuf[64];
    std::snprintf(modebuf, sizeof(modebuf), "layers on (-%.0f%%)", red);
    t.add_row({"", on.verdict, modebuf, benchutil::fmt_u64(on.sat_solves),
               benchutil::fmt_u64(on.exhausted),
               benchutil::fmt_u64(on.cex_hits),
               benchutil::fmt_u64(on.core_discharges),
               benchutil::fmt_seconds(on.seconds)});
    if (w.asserted && assert_improvement >= 0.0 && red < assert_improvement) {
      std::printf(
          "FAIL: '%s' cut CDCL-reaching queries by %.1f%% "
          "(required >= %.1f%%)\n",
          w.name, red, assert_improvement);
      ok = false;
    }
  }
  t.print();

  // The avoidance layers must not change a single output byte, so compare
  // all-on against all-off within each (jobs, incremental) cell. The
  // incremental flag itself may pick a different — equally valid — Sat
  // model than one-shot solving (a pre-existing property the fuzz harness
  // pins per mode), so cells are compared pairwise, not against one global
  // reference. jobs never changes bytes: each pair also covers jobs 1 vs 8.
  benchutil::section("TAB10: determinism matrix (byte-identical outputs)");
  benchutil::Table dm({"workload", "on-vs-off cells", "jobs 1-vs-8", "outputs"});
  for (const Row& w : workloads) {
    size_t cells = 0;
    bool identical = true;
    std::string jobs1_ref;  // layers on, incremental, jobs=1
    bool jobs_identical = true;
    for (const size_t jobs : {size_t{1}, size_t{8}}) {
      for (const bool incremental : {true, false}) {
        Mode on_mode{true, jobs, incremental};
        Mode off_mode{false, jobs, incremental};
        const Measured on = w.run(on_mode);
        const Measured off = w.run(off_mode);
        ++cells;
        if (on.fingerprint != off.fingerprint) {
          std::printf(
              "FAIL: '%s' layers-on output differs from layers-off at "
              "jobs=%zu incremental=%d\n",
              w.name, jobs, incremental ? 1 : 0);
          identical = false;
        }
        if (incremental) {
          if (jobs1_ref.empty()) {
            jobs1_ref = on.fingerprint;
          } else if (on.fingerprint != jobs1_ref) {
            std::printf("FAIL: '%s' output differs between jobs 1 and %zu\n",
                        w.name, jobs);
            jobs_identical = false;
          }
        }
      }
    }
    dm.add_row({w.name, benchutil::fmt_u64(cells),
                jobs_identical ? "identical" : "MISMATCH",
                identical ? "byte-identical" : "MISMATCH"});
    ok = ok && identical && jobs_identical;
  }
  dm.print();

  std::printf(
      "\nexpected shape: the proven reach workload is Unsat-suspect-heavy — "
      "core\nsubsumption kills stitched families after the first core, so "
      "most queries\nnever reach the CDCL core. The\nenumeration workload keeps its irreducible "
      "model-producing solves (each\nenumerated key needs a fresh model "
      "under new blocking clauses) and sheds\nthe rest; its packet sequence "
      "is byte-identical in every cell because\nmodels are always derived "
      "one-shot from the original constraint.\n");
  return ok ? 0 : 1;
}
