// TAB8 — parallel decomposed verification scaling.
//
// Decomposition doesn't just collapse 2^(k·n) to k·2^n — it makes Step 2
// embarrassingly parallel: each stitched path is walked and decided
// independently. Step 1 summaries are computed lazily, by whichever worker
// first reaches an element, so they fan out only as far as the walk does.
// This bench runs the tab3 decomposed workload (the branch-rich IPOptions
// chain) with 1/2/4/8 worker threads and reports wall-clock speedup.
// Verdicts and suspect sets are identical at every job count (enforced by
// tests/parallel_test.cpp); only the clock should move.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "elements/registry.hpp"
#include "verify/decomposed.hpp"

using namespace vsd;

namespace {

std::string chain_of_length(size_t k) {
  // Same stage mix as tab3: branch-rich, loop-bearing elements.
  static const std::vector<std::string> stages = {
      "CheckIPHeader(nochecksum)", "DecIPTTL",  "IPOptions",
      "SetIPChecksum",             "IPOptions", "DecIPTTL",
      "IPOptions",
  };
  std::string out;
  for (size_t i = 0; i < k; ++i) {
    if (i) out += " -> ";
    out += stages[i % stages.size()];
  }
  return out;
}

// Hardware threads actually available to this process; 0 when the runtime
// cannot tell (treated as "unknown, trust nothing").
unsigned hardware_cores() { return std::thread::hardware_concurrency(); }

template <typename RunFn>
void scaling_table(const std::string& workload_name, const RunFn& run) {
  const unsigned cores = hardware_cores();
  std::printf("workload: %s\n", workload_name.c_str());
  benchutil::Table t({"jobs", "verdict", "time", "composed paths",
                      "solver queries", "speedup vs 1"});
  double base_seconds = 0.0;
  bool any_advisory = false;
  for (const size_t jobs : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    verify::VerifyStats stats;
    verify::Verdict verdict = verify::Verdict::Unknown;
    double seconds = run(jobs, &verdict, &stats);
    if (jobs == 1) base_seconds = seconds;
    // A scaling row is only meaningful when the machine can actually run
    // that many workers; otherwise mark it advisory (ROADMAP: single-core
    // containers silently reported ~1.0x as if it were a result).
    const bool advisory = cores == 0 || jobs > cores;
    any_advisory = any_advisory || advisory;
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx%s",
                  seconds > 0 ? base_seconds / seconds : 0.0,
                  advisory ? " *" : "");
    t.add_row({std::to_string(jobs), verify::verdict_name(verdict),
               benchutil::fmt_seconds(seconds),
               benchutil::fmt_u64(stats.composed_paths_checked),
               benchutil::fmt_u64(stats.solver_queries), speedup});
  }
  t.print();
  if (any_advisory) {
    std::printf("  * advisory: requested jobs exceed the %u hardware "
                "thread(s); expect ~1x here, rerun on real multicore "
                "hardware\n",
                cores);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args =
      benchutil::parse_bench_args(argc, argv);  // enables --json <file>
  size_t k = 7;
  if (!args.empty()) k = std::stoul(args[0]);

  benchutil::section(
      "TAB8: parallel decomposed verification — 1/2/4/8 worker scaling");
  const unsigned cores = hardware_cores();
  std::printf("hardware threads available: %u%s\n\n", cores,
              cores == 0 ? " (undetected — all scaling rows advisory)"
              : cores < 8 ? " (rows above that are marked advisory)"
                          : "");

  // Workload A — the tab3 decomposed workload: crash freedom of the
  // branch-rich IPOptions chain. Step 1 (per-element summarization) is
  // all of it: no element has a feasible trap segment, so no path is
  // stitched. Step 1 of crash freedom runs on the caller — the entry
  // length each element sees depends on its upstream summaries — so this
  // row is the control: it should stay flat across job counts.
  const std::string chain = chain_of_length(k);
  scaling_table(
      "crash freedom of \"" + chain + "\"",
      [&](size_t jobs, verify::Verdict* verdict, verify::VerifyStats* stats) {
        pipeline::Pipeline pl = elements::parse_pipeline(chain);
        verify::DecomposedConfig cfg;
        cfg.packet_len = 46;
        cfg.jobs = jobs;
        // Fresh verifier per row: cold caches, so every row pays the full
        // Step 1 + Step 2 cost and the comparison is fair.
        verify::DecomposedVerifier v(cfg);
        const verify::CrashFreedomReport r = v.verify_crash_freedom(pl);
        *verdict = r.verdict;
        *stats = r.stats;
        return r.seconds;
      });

  // Workload B — Step 2 heavy: the instruction bound over a longer chain
  // with checksum verification walks every composed path and decides each
  // one; thousands of independent SAT queries fan out across workers.
  const std::string long_chain =
      "CheckIPHeader -> DecIPTTL -> IPOptions -> SetIPChecksum -> IPOptions "
      "-> DecIPTTL -> IPOptions -> SetIPChecksum -> IPOptions -> DecIPTTL";
  scaling_table(
      "instruction bound of the 10-element checksum chain",
      [&](size_t jobs, verify::Verdict* verdict, verify::VerifyStats* stats) {
        pipeline::Pipeline pl = elements::parse_pipeline(long_chain);
        verify::DecomposedConfig cfg;
        cfg.packet_len = 46;
        cfg.jobs = jobs;
        verify::DecomposedVerifier v(cfg);
        const verify::InstructionBoundReport r =
            v.verify_instruction_bound(pl);
        *verdict = r.verdict;
        *stats = r.stats;
        return r.seconds;
      });

  std::printf(
      "expected shape: workload A stays ~1x (its Step 1 runs on the\n"
      "caller); workload B speeds up while jobs <= hardware threads, bounded\n"
      "by the composed-path count. On a single-core container all rows\n"
      "collapse to ~1x — rerun on real hardware.\n");
  return 0;
}
