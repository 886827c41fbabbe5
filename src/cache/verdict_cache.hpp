// The typed persistent verdict cache over the content-addressed store.
//
// Three entry kinds share the store, distinguished by a kind tag folded
// into the key:
//   decision   Sat/Unsat of one constraint: a stitched suspect's
//              elimination, or the solver memo rung's feasibility verdict
//              (Solver::set_feasibility_memo)
//   refine     outcome of a whole per-path unroll refinement, with the
//              certified counterexample bytes on Sat
//   assertion  a full AssertionOutcome of `vsd check` (verdict, detail,
//              counterexample packets, replay lines) minus stats/seconds
//
// A small in-memory write-through layer fronts the disk so the serve
// daemon does not re-read files on every decision; a fresh VerdictCache
// (a new process) always re-validates entries through the store's
// checksum framing. Thread-safe throughout.
#pragma once

#include <atomic>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/store.hpp"
#include "spec/check.hpp"
#include "verify/decision_cache.hpp"

namespace vsd::cache {

class VerdictCache : public verify::PathDecisionCache {
 public:
  explicit VerdictCache(std::string dir,
                        std::string engine_version = kEngineVersion);

  bool enabled() const { return store_.enabled(); }

  // verify::PathDecisionCache
  bool lookup_decision(uint64_t hi, uint64_t lo, bool* sat) override;
  void store_decision(uint64_t hi, uint64_t lo, bool sat) override;
  bool lookup_refine(uint64_t hi, uint64_t lo, bool* sat,
                     verify::Counterexample* ce) override;
  void store_refine(uint64_t hi, uint64_t lo, bool sat,
                    const verify::Counterexample& ce) override;

  // Whole-assertion entries (`vsd check` / the serve daemon). A hit
  // restores everything report-visible except stats and seconds.
  bool lookup_assertion(uint64_t hi, uint64_t lo, spec::AssertionOutcome* out);
  void store_assertion(uint64_t hi, uint64_t lo,
                       const spec::AssertionOutcome& o);

  struct Counters {
    uint64_t assertion_hits = 0, assertion_misses = 0;
    uint64_t decision_hits = 0, decision_misses = 0;
    uint64_t refine_hits = 0, refine_misses = 0;
    Store::Stats disk;  // on-disk hit/miss/corrupt/store totals
  };
  Counters counters() const;

  Store& store() { return store_; }

 private:
  struct Key {
    uint64_t kind, hi, lo;
    bool operator==(const Key& o) const {
      return kind == o.kind && hi == o.hi && lo == o.lo;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return static_cast<size_t>(k.hi ^ (k.lo * 0x9e3779b97f4a7c15ull) ^
                                 k.kind);
    }
  };

  // Memory-first, then disk (memoizing the disk hit). False = miss.
  bool load(uint64_t kind, uint64_t hi, uint64_t lo,
            std::vector<uint8_t>* payload);
  void save(uint64_t kind, uint64_t hi, uint64_t lo,
            std::vector<uint8_t> payload);

  Store store_;
  std::mutex mu_;
  std::unordered_map<Key, std::vector<uint8_t>, KeyHash> mem_;
  std::atomic<uint64_t> assertion_hits_{0}, assertion_misses_{0};
  std::atomic<uint64_t> decision_hits_{0}, decision_misses_{0};
  std::atomic<uint64_t> refine_hits_{0}, refine_misses_{0};
};

}  // namespace vsd::cache
