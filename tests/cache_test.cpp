// The persistent verdict cache's soundness battery.
//
// The store's contract is that corruption can only ever degrade to a MISS,
// never to a wrong answer — these tests earn that sentence by injecting
// every single-byte fault (bit-flip at every offset, truncation to every
// length, whole-file zeroing) into a live entry and proving each one reads
// back as a miss, after which a re-verified store round-trips correctly.
// On top of the store: engine-version invalidation, same-key writer races,
// and the cold-vs-warm determinism matrix (jobs {1,8} x incremental
// {on,off}, Proven and Violated specs alike) that pins warm verdicts and
// counterexample bytes to their cache-less values.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bv/expr.hpp"

#include "cache/fingerprint.hpp"
#include "cache/store.hpp"
#include "cache/verdict_cache.hpp"
#include "elements/registry.hpp"
#include "net/headers.hpp"
#include "spec/check.hpp"
#include "spec/parser.hpp"
#include "verify/decomposed.hpp"
#include "verify/predicates.hpp"
#include "verify/report.hpp"

namespace vsd::cache {
namespace {

namespace fs = std::filesystem;

class CacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("vsd_cache_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::vector<uint8_t> read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in), {});
  }

  void write_file(const std::string& path, const std::vector<uint8_t>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  fs::path dir_;
};

// --- Store framing -------------------------------------------------------------

TEST_F(CacheTest, StoreRoundTripsAndCountsStats) {
  Store store(dir_.string());
  ASSERT_TRUE(store.enabled());
  const std::vector<uint8_t> payload = {1, 2, 3, 0xff, 0, 42};
  store.save(7, 0x1111, 0x2222, payload);
  std::vector<uint8_t> back;
  ASSERT_TRUE(store.load(7, 0x1111, 0x2222, &back));
  EXPECT_EQ(back, payload);
  EXPECT_FALSE(store.load(7, 0x1111, 0x2223, &back));  // key mismatch
  EXPECT_FALSE(store.load(8, 0x1111, 0x2222, &back));  // kind mismatch
  const Store::Stats s = store.stats();
  EXPECT_EQ(s.stores, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.corrupt, 0u);
}

TEST_F(CacheTest, DisabledStoreNeverHitsAndNeverWrites) {
  Store store("");
  EXPECT_FALSE(store.enabled());
  store.save(1, 2, 3, {4});
  std::vector<uint8_t> back;
  EXPECT_FALSE(store.load(1, 2, 3, &back));
  EXPECT_TRUE(fs::is_empty(dir_));
}

TEST_F(CacheTest, EveryBitFlipDegradesToAMissThenReverifiesCleanly) {
  Store store(dir_.string());
  const std::vector<uint8_t> payload = {0xde, 0xad, 0xbe, 0xef, 7};
  store.save(1, 0xabcdef, 0x123456, payload);
  const std::string path = store.entry_path(1, 0xabcdef, 0x123456);
  const std::vector<uint8_t> pristine = read_file(path);
  ASSERT_FALSE(pristine.empty());
  for (size_t off = 0; off < pristine.size(); ++off) {
    std::vector<uint8_t> bad = pristine;
    bad[off] ^= 0x40;
    write_file(path, bad);
    // A fresh Store (fresh process) must classify the entry as a miss: the
    // checksum covers every byte, so no flip can surface a wrong payload.
    Store reader(dir_.string());
    std::vector<uint8_t> back;
    EXPECT_FALSE(reader.load(1, 0xabcdef, 0x123456, &back))
        << "bit flip at offset " << off << " read back as a hit";
  }
  // Re-verification (a fresh save) fully repairs the slot.
  write_file(path, pristine);
  std::vector<uint8_t> bad = pristine;
  bad[0] ^= 1;
  write_file(path, bad);
  Store writer(dir_.string());
  writer.save(1, 0xabcdef, 0x123456, payload);
  std::vector<uint8_t> back;
  ASSERT_TRUE(writer.load(1, 0xabcdef, 0x123456, &back));
  EXPECT_EQ(back, payload);
}

TEST_F(CacheTest, EveryTruncationDegradesToAMiss) {
  Store store(dir_.string());
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5, 6, 7, 8};
  store.save(2, 0x77, 0x88, payload);
  const std::string path = store.entry_path(2, 0x77, 0x88);
  const std::vector<uint8_t> pristine = read_file(path);
  ASSERT_FALSE(pristine.empty());
  for (size_t len = 0; len < pristine.size(); ++len) {
    write_file(path, std::vector<uint8_t>(pristine.begin(),
                                          pristine.begin() +
                                              static_cast<ptrdiff_t>(len)));
    Store reader(dir_.string());
    std::vector<uint8_t> back;
    EXPECT_FALSE(reader.load(2, 0x77, 0x88, &back))
        << "truncation to " << len << " bytes read back as a hit";
  }
}

TEST_F(CacheTest, ZeroedAndOversizedFilesDegradeToAMiss) {
  Store store(dir_.string());
  store.save(3, 0x99, 0xaa, {42});
  const std::string path = store.entry_path(3, 0x99, 0xaa);
  const std::vector<uint8_t> pristine = read_file(path);
  write_file(path, std::vector<uint8_t>(pristine.size(), 0));
  std::vector<uint8_t> back;
  EXPECT_FALSE(Store(dir_.string()).load(3, 0x99, 0xaa, &back));
  // Trailing garbage after a pristine entry is corruption too.
  std::vector<uint8_t> padded = pristine;
  padded.push_back(0);
  write_file(path, padded);
  EXPECT_FALSE(Store(dir_.string()).load(3, 0x99, 0xaa, &back));
  EXPECT_GE(Store(dir_.string()).stats().corrupt, 0u);
}

TEST_F(CacheTest, EngineVersionBumpInvalidatesEveryPriorEntry) {
  Store v8(dir_.string(), "vsd-engine-8");
  v8.save(1, 1, 2, {1});
  std::vector<uint8_t> back;
  ASSERT_TRUE(Store(dir_.string(), "vsd-engine-8").load(1, 1, 2, &back));
  EXPECT_FALSE(Store(dir_.string(), "vsd-engine-9").load(1, 1, 2, &back));
  // And the new engine's writes do not satisfy the old engine either.
  Store v9(dir_.string(), "vsd-engine-9");
  v9.save(1, 1, 2, {2});
  EXPECT_FALSE(Store(dir_.string(), "vsd-engine-8").load(1, 1, 2, &back));
  ASSERT_TRUE(Store(dir_.string(), "vsd-engine-9").load(1, 1, 2, &back));
  EXPECT_EQ(back, std::vector<uint8_t>{2});
}

TEST_F(CacheTest, AssertionEntriesOfEarlierEnginesMissUnderTheCurrentEngine) {
  // Cached counterexample bytes are SAT models, so an engine that changes
  // which model a Violated assertion reports must not be served the
  // previous engine's: vsd-engine-9 wires udiv/urem by a constant power of
  // two instead of blasting a divider (a different CNF), and vsd-engine-10
  // restricts an incremental context's branching to the live query's cone
  // (a different search, and so possibly different bounded-state packet
  // sequences, which are read from a context). vsd-engine-11 gives a
  // counterexample's trap kind a presence byte: an earlier entry would
  // restore "unreachable" for a counterexample that is not a trap.
  for (const char* engine :
       {"vsd-engine-8", "vsd-engine-9", "vsd-engine-10"}) {
    spec::AssertionOutcome o;
    o.text = "assert flow_occupancy(RateLimiter) <= 2;";
    o.verdict = verify::Verdict::Violated;
    verify::Counterexample ce;
    ce.packet.assign({0x45, 0x00, 0x00, 0x18});
    ce.element_path = {"CheckIPHeader", "RateLimiter"};
    ce.requires_sequence = true;
    o.counterexamples.push_back(ce);
    o.replays.push_back("requires a packet sequence");
    VerdictCache(dir_.string(), engine).store_assertion(0x8, 0x9, o);
    spec::AssertionOutcome back;
    ASSERT_TRUE(
        VerdictCache(dir_.string(), engine).lookup_assertion(0x8, 0x9, &back))
        << engine;
    VerdictCache current(dir_.string());
    EXPECT_FALSE(current.lookup_assertion(0x8, 0x9, &back)) << engine;
    EXPECT_EQ(current.counters().assertion_misses, 1u) << engine;
  }
}

TEST_F(CacheTest, ConcurrentSameKeyWritersLeaveAValidEntry) {
  // Hammer one key from many threads with two candidate payloads. Atomic
  // tmp+rename means the survivor must be one of them, intact — and the
  // whole dance must be clean under TSAN.
  Store store(dir_.string());
  const std::vector<uint8_t> a = {1, 1, 1, 1};
  const std::vector<uint8_t> b = {2, 2, 2, 2};
  std::vector<std::thread> writers;
  for (int t = 0; t < 8; ++t) {
    writers.emplace_back([&store, &a, &b, t] {
      for (int i = 0; i < 50; ++i) store.save(1, 5, 6, (t % 2) != 0 ? a : b);
    });
  }
  for (auto& w : writers) w.join();
  std::vector<uint8_t> back;
  ASSERT_TRUE(Store(dir_.string()).load(1, 5, 6, &back));
  EXPECT_TRUE(back == a || back == b);
}

// --- VerdictCache over the store ------------------------------------------------

TEST_F(CacheTest, DecisionEntriesSurviveAProcessRestart) {
  {
    VerdictCache cache(dir_.string());
    cache.store_decision(0x1, 0x2, true);
    cache.store_decision(0x3, 0x4, false);
  }
  VerdictCache warm(dir_.string());
  bool sat = false;
  ASSERT_TRUE(warm.lookup_decision(0x1, 0x2, &sat));
  EXPECT_TRUE(sat);
  ASSERT_TRUE(warm.lookup_decision(0x3, 0x4, &sat));
  EXPECT_FALSE(sat);
  EXPECT_FALSE(warm.lookup_decision(0x5, 0x6, &sat));
  const VerdictCache::Counters c = warm.counters();
  EXPECT_EQ(c.decision_hits, 2u);
  EXPECT_EQ(c.decision_misses, 1u);
}

TEST_F(CacheTest, CorruptedDecisionMissesThenReverifiedValueReads) {
  VerdictCache cache(dir_.string());
  cache.store_decision(0xbeef, 0xcafe, false);
  const std::string path = cache.store().entry_path(1, 0xbeef, 0xcafe);
  ASSERT_TRUE(fs::exists(path));
  std::vector<uint8_t> bytes = read_file(path);
  bytes[bytes.size() / 2] ^= 0x10;
  write_file(path, bytes);
  // Fresh cache (no in-memory copy): the fault is a miss, never a flipped
  // verdict...
  VerdictCache reread(dir_.string());
  bool sat = true;
  EXPECT_FALSE(reread.lookup_decision(0xbeef, 0xcafe, &sat));
  // ...and re-verifying (storing the correct verdict again) repairs it for
  // the next process.
  reread.store_decision(0xbeef, 0xcafe, false);
  VerdictCache next(dir_.string());
  ASSERT_TRUE(next.lookup_decision(0xbeef, 0xcafe, &sat));
  EXPECT_FALSE(sat);
}

TEST_F(CacheTest, RefineEntriesRoundTripCounterexampleBytes) {
  verify::Counterexample ce;
  ce.packet.assign({0x45, 0x00, 0x01, 0x02, 0x03});
  ce.packet.set_meta(0, 0xdeadbeef);
  ce.element_path = {"CheckIPHeader", "DecIPTTL"};
  ce.state_note = "ttl expired";
  ce.requires_sequence = true;
  verify::Counterexample trap_ce = ce;
  trap_ce.trap = ir::TrapKind::Unreachable;
  {
    VerdictCache cache(dir_.string());
    cache.store_refine(0x10, 0x20, true, ce);
    cache.store_refine(0x30, 0x40, false, verify::Counterexample{});
    cache.store_refine(0x50, 0x60, true, trap_ce);
  }
  VerdictCache warm(dir_.string());
  bool sat = false;
  verify::Counterexample back;
  ASSERT_TRUE(warm.lookup_refine(0x10, 0x20, &sat, &back));
  EXPECT_TRUE(sat);
  EXPECT_TRUE(std::equal(ce.packet.bytes().begin(), ce.packet.bytes().end(),
                         back.packet.bytes().begin(),
                         back.packet.bytes().end()));
  EXPECT_EQ(back.packet.all_meta(), ce.packet.all_meta());
  EXPECT_EQ(back.element_path, ce.element_path);
  EXPECT_EQ(back.state_note, "ttl expired");
  EXPECT_TRUE(back.requires_sequence);
  // A counterexample that is not a trap comes back without a trap kind,
  // and the explicit-trap kind survives as itself.
  EXPECT_FALSE(back.trap.has_value());
  ASSERT_TRUE(warm.lookup_refine(0x50, 0x60, &sat, &back));
  EXPECT_EQ(back.trap, ir::TrapKind::Unreachable);
  EXPECT_EQ(back.state_note, "ttl expired");
  ASSERT_TRUE(warm.lookup_refine(0x30, 0x40, &sat, &back));
  EXPECT_FALSE(sat);
}

TEST_F(CacheTest, FingerprintsAreRunStableAndNameSensitive) {
  // Same structure -> same key; a renamed variable -> a different key.
  const auto key = [](const char* name) {
    Fingerprint fp;
    fp.mix(uint64_t{42});
    fp.mix_expr(bv::mk_ult(bv::mk_var(name, 32), bv::mk_const(10, 32)));
    return std::pair<uint64_t, uint64_t>(fp.hi(), fp.lo());
  };
  EXPECT_EQ(key("x"), key("x"));
  EXPECT_NE(key("x"), key("y"));
}

// --- Cold-vs-warm determinism matrix --------------------------------------------

// The §1 router chain (Proven on every assertion) and a no-route variant
// (Violated with replayable counterexamples): between them the matrix
// exercises both verdict polarities and counterexample persistence.
const char* kProvenSpec = R"(
pipeline "Classifier -> EthDecap -> CheckIPHeader
          -> IPLookup(10.0.0.0/8 0, 192.168.0.0/16 1, 172.16.0.0/12 0)
          -> DecIPTTL -> IPOptions -> EthEncap";
set packet_len = 64;
let to_net10 = wellformed_checksummed && ip.dst == 10.1.2.3;
assert crash_free;
assert reachable(output 0) when to_net10;
assert never(drop) when to_net10;
)";

const char* kViolatedSpec = R"(
pipeline "Classifier -> EthDecap -> CheckIPHeader
          -> IPLookup(10.0.0.0/8 0, 192.168.0.0/16 1, 172.16.0.0/12 0)
          -> DecIPTTL -> IPOptions -> EthEncap";
set packet_len = 64;
assert never(drop) when wellformed_checksummed && ip.dst == 8.8.8.8;
)";

// Everything observable about a report except timing and work counters —
// byte-level, so a warm counterexample drifting by one bit fails loudly.
std::string observable(const spec::CheckReport& rep) {
  std::string out;
  out += "ok=" + std::to_string(rep.ok ? 1 : 0);
  out += " passed=" + std::to_string(rep.passed) + "\n";
  for (const spec::AssertionOutcome& o : rep.outcomes) {
    out += o.text + "|" + std::to_string(static_cast<int>(o.verdict)) + "|" +
           o.detail + "|" + std::to_string(o.max_instructions) + "|" +
           std::to_string(o.replays_confirm ? 1 : 0) + "\n";
    for (const verify::Counterexample& ce : o.counterexamples) {
      for (const uint8_t b : ce.packet.bytes()) {
        char hex[4];
        std::snprintf(hex, sizeof hex, "%02x", b);
        out += hex;
      }
      for (const uint32_t m : ce.packet.all_meta()) {
        out += "," + std::to_string(m);
      }
      out += "|" + ce.state_note + "|" +
             (ce.trap ? std::to_string(static_cast<int>(*ce.trap)) : "-");
      for (const std::string& e : ce.element_path) out += "|" + e;
      out += "\n";
    }
    for (const std::string& r : o.replays) out += r + "\n";
  }
  return out;
}

TEST_F(CacheTest, WarmReportsAreByteIdenticalAcrossTheJobsIncrementalMatrix) {
  for (const char* text : {kProvenSpec, kViolatedSpec}) {
    const spec::SpecFile spec = spec::parse_spec(text);
    for (const size_t jobs : {size_t{1}, size_t{8}}) {
      for (const bool incremental : {true, false}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                     " incremental=" + std::to_string(incremental));
        spec::CheckOptions base;
        base.jobs = jobs;
        base.incremental = incremental;
        const spec::CheckReport plain = spec::check_spec(spec, base);

        const fs::path cache_dir =
            dir_ / ("m" + std::to_string(jobs) +
                    std::to_string(incremental ? 1 : 0) +
                    std::to_string(text == kViolatedSpec ? 1 : 0));
        VerdictCache cache(cache_dir.string());
        spec::CheckOptions with_cache = base;
        with_cache.cache = &cache;
        const spec::CheckReport cold = spec::check_spec(spec, with_cache);

        VerdictCache warm_cache(cache_dir.string());
        spec::CheckOptions warm_opts = base;
        warm_opts.cache = &warm_cache;
        const spec::CheckReport warm = spec::check_spec(spec, warm_opts);

        EXPECT_EQ(observable(cold), observable(plain));
        EXPECT_EQ(observable(warm), observable(plain));
        EXPECT_GT(warm.cache_hits, 0u) << "warm run found no cached work";
        EXPECT_EQ(warm.cache_misses, 0u);
      }
    }
  }
}

TEST_F(CacheTest, BoundFeasibilityPersistsOnlyInTheSolverMemo) {
  // The instruction-bound speculation's feasibility verdicts are stored
  // once, by the solver's memo rung: a cold run writes exactly the memo's
  // entries, and a warm rerun's memo hits seed the uid cache, so only the
  // witness model is solved again. Stitched suspects are decided by the
  // solver alone too, so a suspect-heavy reach call also writes exactly
  // the memo's entries.
  const auto run = [this](uint64_t* memo_stores) {
    const pipeline::Pipeline pl = elements::parse_pipeline(
        "Classifier -> EthDecap -> CheckIPHeader -> "
        "IPLookup(10.0.0.0/8 0, 192.168.0.0/16 1) -> DecIPTTL");
    VerdictCache cache(dir_.string());
    verify::DecomposedConfig cfg;
    cfg.packet_len = 64;
    cfg.decision_cache = &cache;
    verify::DecomposedVerifier v(cfg);
    const verify::InstructionBoundReport r = v.verify_instruction_bound(pl);
    *memo_stores = v.solver().stats().memo_stores;
    return r;
  };
  uint64_t memo_stores = 0;
  const verify::InstructionBoundReport cold = run(&memo_stores);
  size_t entries = 0;
  for (const auto& f : fs::recursive_directory_iterator(dir_)) {
    if (f.is_regular_file()) ++entries;
  }
  EXPECT_EQ(entries, 23u);
  EXPECT_EQ(entries, memo_stores);
  const verify::InstructionBoundReport warm = run(&memo_stores);
  EXPECT_EQ(memo_stores, 0u);
  EXPECT_EQ(warm.stats.sat_solves, 1u);  // the witness model
  EXPECT_EQ(warm.verdict, cold.verdict);
  EXPECT_EQ(warm.max_instructions, cold.max_instructions);
  ASSERT_TRUE(cold.witness.has_value() && warm.witness.has_value());
  EXPECT_EQ(warm.witness->hex(), cold.witness->hex());

  const fs::path reach_dir = dir_ / "reach";
  VerdictCache cache(reach_dir.string());
  verify::DecomposedConfig cfg;
  cfg.packet_len = 64;
  cfg.decision_cache = &cache;
  verify::DecomposedVerifier v(cfg);
  verify::TerminalSpec tspec;
  tspec.required_exit_port = 0;
  const uint32_t dst = net::parse_ipv4("10.1.2.3");
  const verify::ReachabilityReport reach = v.verify_reach_never(
      elements::parse_pipeline(
          "Classifier -> EthDecap -> CheckIPHeader -> "
          "IPLookup(10.0.0.0/8 0, 192.168.0.0/16 1, 172.16.0.0/12 0) -> "
          "DecIPTTL -> IPOptions -> EthEncap"),
      [dst](const symbex::SymPacket& p) {
        return verify::both(verify::wellformed_ipv4_checksummed(p, 0),
                            verify::dst_ip_is(p, dst, 14));
      },
      tspec);
  EXPECT_EQ(reach.verdict, verify::Verdict::Proven);
  EXPECT_GE(reach.stats.suspects_found, 50u);
  size_t reach_entries = 0;
  for (const auto& f : fs::recursive_directory_iterator(reach_dir)) {
    if (f.is_regular_file()) ++reach_entries;
  }
  EXPECT_EQ(reach_entries, v.solver().stats().memo_stores);
}

TEST_F(CacheTest, WarmHitsCrossJobCountAndIncrementalMode) {
  // Entries deliberately do NOT key jobs or incremental mode (both are
  // verdict-invariant): a cache filled at jobs=1/incremental must satisfy
  // a jobs=8/one-shot resubmission wholesale.
  const spec::SpecFile spec = spec::parse_spec(kProvenSpec);
  const fs::path cache_dir = dir_ / "xmode";
  {
    VerdictCache cache(cache_dir.string());
    spec::CheckOptions opts;
    opts.jobs = 1;
    opts.cache = &cache;
    spec::check_spec(spec, opts);
  }
  VerdictCache warm(cache_dir.string());
  spec::CheckOptions opts;
  opts.jobs = 8;
  opts.incremental = false;
  opts.cache = &warm;
  const spec::CheckReport rep = spec::check_spec(spec, opts);
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(rep.cache_hits, rep.outcomes.size());
  EXPECT_EQ(rep.cache_misses, 0u);
}

}  // namespace
}  // namespace vsd::cache
