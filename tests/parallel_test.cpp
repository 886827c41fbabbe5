// The parallel verification engine: the work-queue scheduler, the
// thread-safe summary cache, and — most importantly — determinism: at any
// job count the verifier must produce identical verdicts, suspect sets,
// and report fields. Parallelism is allowed to move the clock, never the
// answer.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "elements/registry.hpp"
#include "net/headers.hpp"
#include "obs/trace.hpp"
#include "symbex/summary.hpp"
#include "verify/decomposed.hpp"
#include "verify/parallel.hpp"
#include "verify/predicates.hpp"

namespace vsd::verify {
namespace {

// --- WorkQueue scheduler -------------------------------------------------------------

TEST(WorkQueue, RunsEveryTask) {
  WorkQueue q(4);
  std::atomic<int> sum{0};
  for (int i = 1; i <= 100; ++i) {
    q.submit([i, &sum](size_t) { sum += i; });
  }
  q.wait_idle();
  EXPECT_EQ(sum.load(), 5050);
}

TEST(WorkQueue, TasksMaySubmitSubtasks) {
  WorkQueue q(3);
  std::atomic<int> count{0};
  // A tree of tasks: each of 4 roots spawns 5 children spawning 2 leaves.
  for (int r = 0; r < 4; ++r) {
    q.submit([&](size_t) {
      ++count;
      for (int c = 0; c < 5; ++c) {
        q.submit([&](size_t) {
          ++count;
          for (int l = 0; l < 2; ++l) {
            q.submit([&](size_t) { ++count; });
          }
        });
      }
    });
  }
  q.wait_idle();
  EXPECT_EQ(count.load(), 4 + 4 * 5 + 4 * 5 * 2);
}

TEST(WorkQueue, WorkerIndicesAreInRange) {
  WorkQueue q(4);
  std::atomic<bool> bad{false};
  parallel_for(q, 64, [&](size_t, size_t worker) {
    if (worker >= q.jobs()) bad = true;
  });
  EXPECT_FALSE(bad.load());
}

TEST(WorkQueue, PropagatesTaskExceptions) {
  WorkQueue q(2);
  q.submit([](size_t) { throw std::runtime_error("boom"); });
  EXPECT_THROW(q.wait_idle(), std::runtime_error);
  // The queue stays usable after an exception round.
  std::atomic<int> ran{0};
  q.submit([&](size_t) { ++ran; });
  q.wait_idle();
  EXPECT_EQ(ran.load(), 1);
}

// --- WorkQueue(1): the inline queue every jobs=1 run uses ----------------------------

TEST(InlineWorkQueue, RunsOnTheCallingThreadAsWorkerZero) {
  WorkQueue q(1);
  EXPECT_EQ(q.jobs(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  bool ran = false;
  q.submit([&](size_t worker) {
    EXPECT_EQ(worker, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ran = true;
  });
  EXPECT_TRUE(ran);  // finished before submit() returned
  q.wait_idle();
}

TEST(InlineWorkQueue, NestedSubmitsRunDepthFirstInSubmissionOrder) {
  WorkQueue q(1);
  std::vector<std::string> order;
  q.submit([&](size_t) {
    order.push_back("a");
    q.submit([&](size_t) {
      order.push_back("a.1");
      q.submit([&](size_t) { order.push_back("a.1.x"); });
    });
    q.submit([&](size_t) { order.push_back("a.2"); });
  });
  q.submit([&](size_t) { order.push_back("b"); });
  q.wait_idle();
  EXPECT_EQ(order,
            (std::vector<std::string>{"a", "a.1", "a.1.x", "a.2", "b"}));
}

TEST(InlineWorkQueue, PropagatesTaskExceptions) {
  WorkQueue q(1);
  q.submit([](size_t) { throw std::runtime_error("boom"); });
  EXPECT_THROW(q.wait_idle(), std::runtime_error);
  int ran = 0;
  q.submit([&](size_t) { ++ran; });
  q.wait_idle();
  EXPECT_EQ(ran, 1);
}

TEST(InlineWorkQueue, ParallelForVisitsIndicesInOrder) {
  WorkQueue q(1);
  std::vector<size_t> seen;
  parallel_for(q, 5, [&](size_t i, size_t worker) {
    EXPECT_EQ(worker, 0u);
    seen.push_back(i);
  });
  EXPECT_EQ(seen, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(InlineWorkQueue, RecordsNoTaskSpan) {
  // A traced jobs=1 run keeps the span tree of a plain recursive walk:
  // everything on the caller's lane, no `task` envelopes.
  obs::reset();
  obs::enable(true);
  {
    WorkQueue q(1);
    q.submit([&](size_t) {
      q.submit([](size_t) { obs::ScopedSpan sp(obs::Cat::Solve, "inner"); });
    });
    q.wait_idle();
  }
  const std::vector<obs::SpanEvent> events = obs::events_snapshot();
  obs::enable(false);
  obs::reset();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].cat, obs::Cat::Solve);
  EXPECT_EQ(events[0].lane, 0u);
}

// --- SharedSummaryCache --------------------------------------------------------------

TEST(SharedSummaryCache, ConcurrentRequestsComputeOnce) {
  const ir::Program prog = elements::make_element("DecIPTTL", "");
  symbex::SharedSummaryCache cache;
  WorkQueue q(8);
  std::atomic<size_t> segs{0};
  parallel_for(q, 32, [&](size_t, size_t) {
    symbex::Executor exec;
    const symbex::ElementSummary& s = cache.get(prog, 46, exec);
    segs += s.segments.size();
  });
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 31u);
  // Every requester saw the same summary.
  symbex::Executor exec;
  EXPECT_EQ(segs.load(), 32 * cache.get(prog, 46, exec).segments.size());
}

TEST(SharedSummaryCache, DistinctLengthsAreDistinctEntries) {
  const ir::Program prog = elements::make_element("DecIPTTL", "");
  symbex::SharedSummaryCache cache;
  symbex::Executor exec;
  cache.get(prog, 32, exec);
  cache.get(prog, 46, exec);
  cache.get(prog, 32, exec);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 1u);
}

// --- Determinism across job counts ---------------------------------------------------

// A counterexample's schedule-independent identity: the element path, the
// trap kind, and whether it needs a prior packet sequence. (The concrete
// witness packet may legitimately differ between runs — any model of the
// path constraint is a valid witness — so it is validated by replay
// below, not compared byte-for-byte.)
using SuspectId = std::tuple<std::vector<std::string>, int, bool>;

std::multiset<SuspectId> suspect_ids(
    const std::vector<Counterexample>& ces) {
  std::multiset<SuspectId> out;
  for (const Counterexample& ce : ces) {
    out.insert({ce.element_path, static_cast<int>(ce.trap),
                ce.requires_sequence});
  }
  return out;
}

CrashFreedomReport crash_with_jobs(const std::string& config, size_t jobs,
                                   size_t len) {
  pipeline::Pipeline pl = elements::parse_pipeline(config);
  DecomposedConfig cfg;
  cfg.packet_len = len;
  cfg.jobs = jobs;
  DecomposedVerifier v(cfg);
  return v.verify_crash_freedom(pl);
}

struct CrashCase {
  const char* config;
  size_t len;
};

class CrashDeterminism : public ::testing::TestWithParam<CrashCase> {};

TEST_P(CrashDeterminism, SameReportAtAnyJobCount) {
  const CrashCase& c = GetParam();
  const CrashFreedomReport r1 = crash_with_jobs(c.config, 1, c.len);
  for (const size_t jobs : {size_t{2}, size_t{8}}) {
    const CrashFreedomReport rn = crash_with_jobs(c.config, jobs, c.len);
    EXPECT_EQ(rn.verdict, r1.verdict) << c.config << " jobs=" << jobs;
    EXPECT_EQ(suspect_ids(rn.counterexamples), suspect_ids(r1.counterexamples))
        << c.config << " jobs=" << jobs;
    // Step 1 and Step 2 cover the same ground regardless of fan-out.
    EXPECT_EQ(rn.stats.suspects_found, r1.stats.suspects_found)
        << c.config << " jobs=" << jobs;
    EXPECT_EQ(rn.stats.suspects_eliminated, r1.stats.suspects_eliminated)
        << c.config << " jobs=" << jobs;
    EXPECT_EQ(rn.stats.composed_paths_checked,
              r1.stats.composed_paths_checked)
        << c.config << " jobs=" << jobs;
    // Counterexamples that need no prior state must replay to a concrete
    // trap — witness packets are validated, not byte-compared.
    for (const Counterexample& ce : rn.counterexamples) {
      if (ce.requires_sequence) continue;
      pipeline::Pipeline pl = elements::parse_pipeline(c.config);
      net::Packet p = ce.packet;
      EXPECT_EQ(pl.process(p).action, pipeline::FinalAction::Trapped)
          << c.config << " jobs=" << jobs;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pipelines, CrashDeterminism,
    ::testing::Values(
        CrashCase{"ToyE2", 8},                // violated, single element
        CrashCase{"ToyE1 -> ToyE2", 8},       // proven only by composition
        CrashCase{"UnsafeStrip(14) -> CheckIPHeader -> Discard", 8},
        CrashCase{"Classifier -> EthDecap -> CheckIPHeader -> "
                  "IPLookup(10.0.0.0/8 0)",
                  46},
        CrashCase{"NetFlow", 40},             // stateful, proven (saturating)
        CrashCase{"NetFlow(strict)", 40}));   // stateful bad-value violation

TEST(ParallelDeterminism, InstructionBoundAcrossJobs) {
  const char* config =
      "Classifier -> EthDecap -> CheckIPHeader -> IPLookup(10.0.0.0/8 0) "
      "-> DecIPTTL";
  InstructionBoundReport r1;
  {
    pipeline::Pipeline pl = elements::parse_pipeline(config);
    DecomposedConfig cfg;
    cfg.packet_len = 46;
    DecomposedVerifier v(cfg);
    r1 = v.verify_instruction_bound(pl);
  }
  for (const size_t jobs : {size_t{2}, size_t{8}}) {
    pipeline::Pipeline pl = elements::parse_pipeline(config);
    DecomposedConfig cfg;
    cfg.packet_len = 46;
    cfg.jobs = jobs;
    DecomposedVerifier v(cfg);
    const InstructionBoundReport rn = v.verify_instruction_bound(pl);
    EXPECT_EQ(rn.verdict, r1.verdict) << "jobs=" << jobs;
    EXPECT_EQ(rn.max_instructions, r1.max_instructions) << "jobs=" << jobs;
    EXPECT_EQ(rn.bound_is_exact, r1.bound_is_exact) << "jobs=" << jobs;
    EXPECT_EQ(rn.witness.has_value(), r1.witness.has_value())
        << "jobs=" << jobs;
  }
}

TEST(ParallelDeterminism, ReachabilityAcrossJobs) {
  for (const char* dst : {"10.1.2.3", "8.8.8.8"}) {
    ReachabilityReport r1;
    for (const size_t jobs : {size_t{1}, size_t{2}, size_t{8}}) {
      pipeline::Pipeline pl = elements::make_ip_router_pipeline();
      DecomposedConfig cfg;
      cfg.packet_len = 64;
      cfg.jobs = jobs;
      DecomposedVerifier v(cfg);
      const ReachabilityReport rn = v.verify_never_dropped(
          pl, [&](const symbex::SymPacket& p) {
            return both(wellformed_ipv4_checksummed(p),
                        dst_ip_is(p, net::parse_ipv4(dst),
                                  net::kEtherHeaderSize));
          });
      if (jobs == 1) {
        r1 = rn;
        continue;
      }
      EXPECT_EQ(rn.verdict, r1.verdict) << dst << " jobs=" << jobs;
      EXPECT_EQ(suspect_ids(rn.counterexamples),
                suspect_ids(r1.counterexamples))
          << dst << " jobs=" << jobs;
    }
  }
}

TEST(ParallelDeterminism, ComposedPathListingAcrossJobs) {
  const char* config =
      "Classifier -> EthDecap -> CheckIPHeader(nochecksum) -> DecIPTTL";
  ComposedPaths p1;
  for (const size_t jobs : {size_t{1}, size_t{4}}) {
    pipeline::Pipeline pl = elements::parse_pipeline(config);
    DecomposedConfig cfg;
    cfg.packet_len = 46;
    cfg.jobs = jobs;
    DecomposedVerifier v(cfg);
    ComposedPaths pn = v.enumerate_paths(pl);
    if (jobs == 1) {
      p1 = std::move(pn);
      continue;
    }
    ASSERT_EQ(pn.paths.size(), p1.paths.size());
    EXPECT_EQ(pn.complete, p1.complete);
    // The parallel walk must reproduce the sequential DFS emission order
    // exactly — paths are compared positionally.
    for (size_t i = 0; i < pn.paths.size(); ++i) {
      EXPECT_EQ(pn.paths[i].element_path, p1.paths[i].element_path) << i;
      EXPECT_EQ(pn.paths[i].action, p1.paths[i].action) << i;
      EXPECT_EQ(pn.paths[i].port, p1.paths[i].port) << i;
      EXPECT_EQ(pn.paths[i].instr_count, p1.paths[i].instr_count) << i;
    }
  }
}

// --- Summary-cache reuse through the parallel engine ---------------------------------

TEST(ParallelCache, RepeatedElementConfigsAreSummarizedOnce) {
  pipeline::Pipeline pl = elements::parse_pipeline(
      "DecIPTTL -> DecIPTTL -> DecIPTTL -> DecIPTTL");
  DecomposedConfig cfg;
  cfg.packet_len = 46;
  cfg.jobs = 4;
  DecomposedVerifier v(cfg);
  const CrashFreedomReport r = v.verify_crash_freedom(pl);
  EXPECT_EQ(r.verdict, Verdict::Proven);
  // Four instances of one config at one length: exactly one Step 1 run.
  EXPECT_EQ(v.cache().misses(), 1u);
  EXPECT_GE(v.cache().hits(), 3u);
}

TEST(ParallelCache, SecondVerificationReusesSummaries) {
  DecomposedConfig cfg;
  cfg.packet_len = 32;
  cfg.jobs = 4;
  DecomposedVerifier v(cfg);
  pipeline::Pipeline a =
      elements::parse_pipeline("CheckIPHeader(nochecksum) -> DecIPTTL");
  pipeline::Pipeline b =
      elements::parse_pipeline("DecIPTTL -> CheckIPHeader(nochecksum)");
  const CrashFreedomReport ra = v.verify_crash_freedom(a);
  ASSERT_EQ(ra.verdict, Verdict::Proven);
  EXPECT_GE(ra.stats.elements_summarized, 1u);
  const CrashFreedomReport rb = v.verify_crash_freedom(b);
  ASSERT_EQ(rb.verdict, Verdict::Proven);
  EXPECT_EQ(rb.stats.elements_summarized, 0u);
  EXPECT_GE(rb.stats.summary_cache_hits, 2u);
}

// --- Stress: a six-element pipeline under the full fan-out ---------------------------

TEST(ParallelStress, SixElementPipelineAtHighJobCount) {
  const char* config =
      "Classifier -> EthDecap -> CheckIPHeader(nochecksum) -> "
      "IPLookup(10.0.0.0/8 0, 192.168.0.0/16 1) -> DecIPTTL -> EthEncap";
  const CrashFreedomReport r1 = crash_with_jobs(config, 1, 46);
  const CrashFreedomReport r8 = crash_with_jobs(config, 8, 46);
  EXPECT_EQ(r8.verdict, r1.verdict);
  EXPECT_EQ(r8.verdict, Verdict::Proven);
  EXPECT_EQ(r8.stats.suspects_found, r1.stats.suspects_found);
  EXPECT_EQ(r8.stats.suspects_eliminated, r1.stats.suspects_eliminated);
  EXPECT_EQ(r8.stats.composed_paths_checked,
            r1.stats.composed_paths_checked);

  // Run the parallel engine repeatedly on the same verifier to shake out
  // schedule-dependent state between calls.
  pipeline::Pipeline pl = elements::parse_pipeline(config);
  DecomposedConfig cfg;
  cfg.packet_len = 46;
  cfg.jobs = 8;
  DecomposedVerifier v(cfg);
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(v.verify_crash_freedom(pl).verdict, Verdict::Proven) << round;
  }
}

}  // namespace
}  // namespace vsd::verify
