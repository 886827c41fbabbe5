// The `replay` workload: seeded packets streamed through the §1 router
// chain on the compiled engine, in batches of 32, as `vsd run` does. It
// touches only pipeline/ and backend/, so a verifier change should leave
// it unchanged and a backend change shows up here first.
#include <algorithm>
#include <stdexcept>

#include "bv/expr.hpp"
#include "e2e.hpp"
#include "elements/registry.hpp"
#include "net/workload.hpp"
#include "obs/trace.hpp"
#include "spec/parser.hpp"

namespace e2e {

namespace {

constexpr size_t kPool = 16384;       // distinct packets, cycled
constexpr size_t kRepPackets = 250000;
constexpr size_t kBatch = 32;
constexpr size_t kSetupSamples = 8;   // set-up samples before every repetition
constexpr size_t kSetupBuilds = 16;   // pipeline builds per set-up sample

using vsd::pipeline::FinalAction;
using vsd::pipeline::PipelineResult;

bool same_outcome(const PipelineResult& a, const vsd::net::Packet& pa,
                  const PipelineResult& b, const vsd::net::Packet& pb) {
  return a.action == b.action && a.exit_element == b.exit_element &&
         a.exit_port == b.exit_port && a.trap == b.trap &&
         a.instructions == b.instructions && a.trace == b.trace &&
         std::ranges::equal(pa.bytes(), pb.bytes()) &&
         pa.all_meta() == pb.all_meta();
}

// 70% well-formed, 20% IP options, 10% malformed headers. Destinations come
// from a pool in which 56 of 64 addresses fall under a route.
std::vector<vsd::net::Packet> make_pool(uint64_t seed) {
  vsd::net::Rng rng(seed);
  std::vector<uint32_t> dsts;
  for (size_t i = 0; i < 64; ++i) {
    const uint32_t low = static_cast<uint32_t>(rng.next()) & 0xffff;
    switch (i % 8) {
      case 0: dsts.push_back(0x08080000u | low); break;          // unrouted
      case 1: case 2: dsts.push_back(0xc0a80000u | low); break;  // 192.168/16
      case 3: dsts.push_back(0xac100000u | low); break;          // 172.16/12
      default: dsts.push_back(0x0a000000u | (low << 8) | (i & 0xff)); break;
    }
  }
  std::vector<vsd::net::Packet> pool;
  const std::pair<vsd::net::TrafficClass, size_t> mix[] = {
      {vsd::net::TrafficClass::WellFormed, kPool * 7 / 10},
      {vsd::net::TrafficClass::WithIpOptions, kPool * 2 / 10},
      {vsd::net::TrafficClass::MalformedHeader, kPool - kPool * 7 / 10 - kPool * 2 / 10},
  };
  for (const auto& [traffic, count] : mix) {
    vsd::net::WorkloadConfig cfg;
    cfg.traffic = traffic;
    cfg.count = count;
    cfg.seed = rng.next();
    cfg.dst_pool = dsts;
    for (vsd::net::Packet& p : vsd::net::generate_workload(cfg)) {
      pool.push_back(std::move(p));
    }
  }
  std::vector<vsd::net::Packet> shuffled;
  shuffled.reserve(pool.size());
  for (const size_t i : seeded_order(pool.size(), rng.next())) {
    shuffled.push_back(pool[i]);
  }
  return shuffled;
}

struct RepTotals {
  uint64_t delivered = 0, dropped = 0, trapped = 0, instructions = 0;
  bool operator==(const RepTotals&) const = default;
  void add(const PipelineResult& r) {
    instructions += r.instructions;
    switch (r.action) {
      case FinalAction::Delivered: ++delivered; break;
      case FinalAction::Dropped: ++dropped; break;
      case FinalAction::Trapped: ++trapped; break;
    }
  }
};

}  // namespace

Report run_replay(const Options& o) {
  Report r;
  const std::vector<SpecCase> corpus = load_corpus(o.data_dir);
  const auto router = std::find_if(corpus.begin(), corpus.end(), [](const SpecCase& c) {
    return c.name.ends_with("/ip_router.vspec");
  });
  if (router == corpus.end()) throw std::runtime_error("corpus has no ip_router.vspec");
  const std::string config = vsd::spec::parse_spec(router->text).pipeline_config;

  // Set-up: building the chain, threaded-code lowering included. A single
  // build takes about 0.1 ms, too short to time steadily, so before every
  // repetition, after one untimed warm-up build, kSetupSamples samples each
  // record the mean of kSetupBuilds builds. Many short samples spread over
  // the run give a median that host noise moves little.
  std::vector<double> build_s;
  const auto sample_builds = [&] {
    (void)vsd::elements::parse_pipeline(config);
    for (size_t k = 0; k < kSetupSamples; ++k) {
      const Clock::time_point t0 = Clock::now();
      for (size_t i = 0; i < kSetupBuilds; ++i) {
        (void)vsd::elements::parse_pipeline(config);
      }
      build_s.push_back(since(t0) / static_cast<double>(kSetupBuilds));
    }
  };
  vsd::pipeline::Pipeline fast = vsd::elements::parse_pipeline(config);
  fast.set_engine(vsd::pipeline::Engine::Compiled);
  vsd::pipeline::Pipeline ref = vsd::elements::parse_pipeline(config);
  ref.set_engine(vsd::pipeline::Engine::Interp);
  size_t lowered = 0;
  for (size_t i = 0; i < fast.size(); ++i) lowered += fast.element(i).compiled().lowered();

  // Untimed oracle: every pool packet on both engines, outcomes and bytes
  // compared. The chain is stateless, so these per-packet outcomes also
  // give the exact totals every timed repetition must reproduce.
  const std::vector<vsd::net::Packet> pool = make_pool(o.seed);
  std::vector<PipelineResult> want(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    vsd::net::Packet a = pool[i], b = pool[i];
    const PipelineResult ra = fast.process(a);
    want[i] = ref.process(b);
    ++r.attempted;
    if (!same_outcome(ra, a, want[i], b)) {
      ++r.failed;
      r.fail("compiled and interpreter outcomes differ on pool packet " +
             std::to_string(i));
    }
  }
  RepTotals expect;
  for (size_t i = 0; i < kRepPackets; ++i) expect.add(want[i % pool.size()]);

  std::vector<double> rep_s, rep_cpu, batch_p50_ms, batch_tail_ms, traced_s, untraced_s;
  std::vector<double> batch_ms;
  std::vector<vsd::net::Packet> buf(kBatch);
  const Clock::time_point start = Clock::now();
  const size_t min_reps = o.trace ? 4 : 3;
  for (size_t rep = 0; rep < min_reps || since(start) < o.seconds; ++rep) {
    sample_builds();
    const bool traced = o.trace && rep % 2 == 0;
    if (traced) {
      vsd::obs::reset();
      vsd::obs::enable(true);
    }
    RepTotals got;
    double engine_s = 0;
    batch_ms.clear();
    const double cpu0 = self_cpu_s();
    for (size_t base = 0; base < kRepPackets; base += kBatch) {
      const size_t n = std::min(kBatch, kRepPackets - base);
      for (size_t j = 0; j < n; ++j) buf[j] = pool[(base + j) % pool.size()];
      const Clock::time_point t0 = Clock::now();
      for (size_t j = 0; j < n; ++j) got.add(fast.process(buf[j]));
      const double dt = since(t0);
      engine_s += dt;
      batch_ms.push_back(dt * 1e3);
    }
    if (traced) vsd::obs::enable(false);
    ++r.attempted;
    if (!(got == expect)) {
      ++r.failed;
      r.fail("repetition " + std::to_string(rep) + " outcome totals drifted");
    }
    (traced ? traced_s : untraced_s).push_back(engine_s);
    if (traced) continue;
    rep_s.push_back(engine_s);
    rep_cpu.push_back(self_cpu_s() - cpu0);
    batch_p50_ms.push_back(median(batch_ms));
    double pct = 0, value = 0;
    if (tail(batch_ms, &pct, &value)) batch_tail_ms.push_back(value);
  }

  r.samples["setup_s"] = build_s;
  r.samples["wall_s"] = rep_s;
  r.samples["cpu_s"] = rep_cpu;
  r.samples["latency_ms"] = batch_p50_ms;
  r.info["reps"] = static_cast<double>(rep_s.size() + traced_s.size());
  r.info["pkts_per_s"] = static_cast<double>(kRepPackets) / median(rep_s);
  r.info["batch_p99_ms"] = median(batch_tail_ms);
  r.info["delivered"] = static_cast<double>(expect.delivered);
  r.info["dropped"] = static_cast<double>(expect.dropped);
  r.info["trapped"] = static_cast<double>(expect.trapped);

  if (!o.trace) {
    r.metrics["setup_s"] = median(build_s);
    r.metrics["wall_s"] = median(rep_s);
    r.metrics["latency_ms"] = median(batch_p50_ms);
    r.metrics["cpu_s"] = median(rep_cpu);
    r.metrics["peak_rss_mb"] = self_maxrss_mb();
    return r;
  }
  auto& m = r.metrics;
  m["pipeline.build_ms"] = median(build_s) * 1e3;
  m["backend.instr_per_pkt"] =
      static_cast<double>(expect.instructions) / static_cast<double>(kRepPackets);
  m["backend.minstr_per_s"] =
      static_cast<double>(expect.instructions) / median(rep_s) / 1e6;
  m["backend.lowered_frac"] =
      static_cast<double>(lowered) / static_cast<double>(fast.size());
  m["backend.delivered_frac"] =
      static_cast<double>(expect.delivered) / static_cast<double>(kRepPackets);
  m["bv.interned_nodes"] = static_cast<double>(vsd::bv::interned_node_count());
  m["obs.overhead_frac"] = median(traced_s) / median(untraced_s) - 1.0;
  m["obs.dropped_events"] = static_cast<double>(vsd::obs::dropped_events());
  return r;
}

}  // namespace e2e
