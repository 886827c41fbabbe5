// Element summaries and the summary cache — "we process each element once,
// even if it may be called from different points in the pipeline" (§1).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/ir.hpp"
#include "symbex/executor.hpp"
#include "symbex/segment.hpp"

namespace vsd::symbex {

// The outcome of Step 1 for one element at one packet length: every
// feasible segment, expressed over the element's fresh input variables.
struct ElementSummary {
  std::string element_name;
  size_t packet_len = 0;
  SymPacket entry;  // holds the input byte/meta variables
  std::vector<Segment> segments;
  ExploreStats stats;
  bool truncated = false;
  double seconds = 0.0;

  size_t count_action(SegAction a) const {
    size_t n = 0;
    for (const Segment& s : segments) {
      if (s.action == a) ++n;
    }
    return n;
  }
};

// Runs Step 1 on one element program with a fresh symbolic packet.
ElementSummary summarize_element(const ir::Program& program, size_t packet_len,
                                 Executor& executor);

// Memoizes summaries by (structural program hash, packet length): an
// element type+configuration appearing at several pipeline positions — or
// in several pipelines under verification — is symbexed exactly once, even
// when many workers race to request it: the first requester computes with
// its own executor while the others block on the entry until it is ready.
// Returned references stay valid until clear(), which must only be called
// while no worker is inside get().
class SharedSummaryCache {
 public:
  // `was_miss`, when given, reports whether THIS call computed the summary
  // (unlike comparing misses() before/after, it is race-free).
  const ElementSummary& get(const ir::Program& program, size_t packet_len,
                            Executor& executor, bool* was_miss = nullptr) {
    return get(program, ir::program_hash(program), packet_len, executor,
               was_miss);
  }
  // The same lookup with `program_hash` == ir::program_hash(program)
  // precomputed: a caller that looks one program up many times hashes it
  // once.
  const ElementSummary& get(const ir::Program& program, uint64_t program_hash,
                            size_t packet_len, Executor& executor,
                            bool* was_miss = nullptr);

  size_t hits() const { return hits_.load(std::memory_order_relaxed); }
  size_t misses() const { return misses_.load(std::memory_order_relaxed); }
  void clear();

 private:
  struct Key {
    uint64_t program_hash;
    size_t packet_len;
    bool operator==(const Key& o) const {
      return program_hash == o.program_hash && packet_len == o.packet_len;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return k.program_hash ^ (k.packet_len * 0x9e3779b97f4a7c15ULL);
    }
  };
  struct Entry {
    std::mutex mu;
    std::condition_variable ready_cv;
    bool ready = false;
    std::exception_ptr error;  // set instead of value if the compute threw
    ElementSummary value;
  };

  std::mutex mu_;
  // shared_ptr so waiters survive the entry being erased on compute failure.
  std::unordered_map<Key, std::shared_ptr<Entry>, KeyHash> cache_;
  std::atomic<size_t> hits_{0};
  std::atomic<size_t> misses_{0};
};

}  // namespace vsd::symbex
