#include "cache/verdict_cache.hpp"

#include <utility>

namespace vsd::cache {

namespace {

// Kind tags for the underlying store. Keeping them disjoint here (instead
// of in each caller) is what guarantees a decision fingerprint can never
// alias an assertion entry.
constexpr uint64_t kKindDecision = 1;
constexpr uint64_t kKindRefine = 2;
constexpr uint64_t kKindAssertion = 3;

void put_u8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

void put_u32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void put_str(std::vector<uint8_t>* out, const std::string& s) {
  put_u64(out, s.size());
  out->insert(out->end(), s.begin(), s.end());
}

bool get_u8(const std::vector<uint8_t>& in, size_t* pos, uint8_t* v) {
  if (*pos + 1 > in.size()) return false;
  *v = in[(*pos)++];
  return true;
}

bool get_u32(const std::vector<uint8_t>& in, size_t* pos, uint32_t* v) {
  if (*pos + 4 > in.size()) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i) *v |= static_cast<uint32_t>(in[(*pos)++]) << (8 * i);
  return true;
}

bool get_u64(const std::vector<uint8_t>& in, size_t* pos, uint64_t* v) {
  if (*pos + 8 > in.size()) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) *v |= static_cast<uint64_t>(in[(*pos)++]) << (8 * i);
  return true;
}

bool get_str(const std::vector<uint8_t>& in, size_t* pos, std::string* s) {
  uint64_t n = 0;
  if (!get_u64(in, pos, &n) || *pos + n > in.size()) return false;
  s->assign(in.begin() + static_cast<ptrdiff_t>(*pos),
            in.begin() + static_cast<ptrdiff_t>(*pos + n));
  *pos += n;
  return true;
}

void put_counterexample(std::vector<uint8_t>* out,
                        const verify::Counterexample& ce) {
  const auto bytes = ce.packet.bytes();
  put_u64(out, bytes.size());
  out->insert(out->end(), bytes.begin(), bytes.end());
  for (const uint32_t m : ce.packet.all_meta()) put_u32(out, m);
  put_u64(out, ce.element_path.size());
  for (const auto& e : ce.element_path) put_str(out, e);
  put_u8(out, ce.trap ? 1 : 0);
  if (ce.trap) put_u8(out, static_cast<uint8_t>(*ce.trap));
  put_str(out, ce.state_note);
  put_u8(out, ce.requires_sequence ? 1 : 0);
}

bool get_counterexample(const std::vector<uint8_t>& in, size_t* pos,
                        verify::Counterexample* ce) {
  uint64_t nbytes = 0;
  if (!get_u64(in, pos, &nbytes) || *pos + nbytes > in.size()) return false;
  ce->packet.assign(std::vector<uint8_t>(
      in.begin() + static_cast<ptrdiff_t>(*pos),
      in.begin() + static_cast<ptrdiff_t>(*pos + nbytes)));
  *pos += nbytes;
  for (size_t s = 0; s < net::kMetaSlots; ++s) {
    uint32_t m = 0;
    if (!get_u32(in, pos, &m)) return false;
    ce->packet.set_meta(s, m);
  }
  uint64_t npath = 0;
  if (!get_u64(in, pos, &npath) || npath > in.size()) return false;
  ce->element_path.clear();
  for (uint64_t i = 0; i < npath; ++i) {
    std::string e;
    if (!get_str(in, pos, &e)) return false;
    ce->element_path.push_back(std::move(e));
  }
  uint8_t has_trap = 0, seq = 0;
  if (!get_u8(in, pos, &has_trap) || has_trap > 1) return false;
  ce->trap.reset();
  if (has_trap != 0) {
    uint8_t trap = 0;
    if (!get_u8(in, pos, &trap) ||
        trap > static_cast<uint8_t>(ir::TrapKind::Unreachable)) {
      return false;
    }
    ce->trap = static_cast<ir::TrapKind>(trap);
  }
  if (!get_str(in, pos, &ce->state_note)) return false;
  if (!get_u8(in, pos, &seq)) return false;
  ce->requires_sequence = seq != 0;
  return true;
}

}  // namespace

VerdictCache::VerdictCache(std::string dir, std::string engine_version)
    : store_(std::move(dir), std::move(engine_version)) {}

bool VerdictCache::load(uint64_t kind, uint64_t hi, uint64_t lo,
                        std::vector<uint8_t>* payload) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = mem_.find(Key{kind, hi, lo});
    if (it != mem_.end()) {
      *payload = it->second;
      return true;
    }
  }
  if (!store_.load(kind, hi, lo, payload)) return false;
  std::lock_guard<std::mutex> lk(mu_);
  mem_.emplace(Key{kind, hi, lo}, *payload);
  return true;
}

void VerdictCache::save(uint64_t kind, uint64_t hi, uint64_t lo,
                        std::vector<uint8_t> payload) {
  store_.save(kind, hi, lo, payload);
  std::lock_guard<std::mutex> lk(mu_);
  mem_.insert_or_assign(Key{kind, hi, lo}, std::move(payload));
}

bool VerdictCache::lookup_decision(uint64_t hi, uint64_t lo, bool* sat) {
  std::vector<uint8_t> payload;
  if (!load(kKindDecision, hi, lo, &payload) || payload.size() != 1 ||
      payload[0] > 1) {
    ++decision_misses_;
    return false;
  }
  *sat = payload[0] != 0;
  ++decision_hits_;
  return true;
}

void VerdictCache::store_decision(uint64_t hi, uint64_t lo, bool sat) {
  save(kKindDecision, hi, lo, std::vector<uint8_t>{sat ? uint8_t{1} : uint8_t{0}});
}

bool VerdictCache::lookup_refine(uint64_t hi, uint64_t lo, bool* sat,
                                 verify::Counterexample* ce) {
  std::vector<uint8_t> payload;
  const auto miss = [this] {
    ++refine_misses_;
    return false;
  };
  if (!load(kKindRefine, hi, lo, &payload)) return miss();
  size_t pos = 0;
  uint8_t s = 0;
  if (!get_u8(payload, &pos, &s) || s > 1) return miss();
  *sat = s != 0;
  if (*sat && !get_counterexample(payload, &pos, ce)) return miss();
  if (pos != payload.size()) return miss();
  ++refine_hits_;
  return true;
}

void VerdictCache::store_refine(uint64_t hi, uint64_t lo, bool sat,
                                const verify::Counterexample& ce) {
  std::vector<uint8_t> payload;
  put_u8(&payload, sat ? 1 : 0);
  if (sat) put_counterexample(&payload, ce);
  save(kKindRefine, hi, lo, std::move(payload));
}

bool VerdictCache::lookup_assertion(uint64_t hi, uint64_t lo,
                                    spec::AssertionOutcome* out) {
  std::vector<uint8_t> payload;
  const auto miss = [this] {
    ++assertion_misses_;
    return false;
  };
  if (!load(kKindAssertion, hi, lo, &payload)) return miss();
  size_t pos = 0;
  spec::AssertionOutcome o;
  uint8_t passed = 0, verdict = 0, confirm = 0;
  if (!get_str(payload, &pos, &o.text)) return miss();
  if (!get_u8(payload, &pos, &passed) || passed > 1) return miss();
  o.passed = passed != 0;
  if (!get_u8(payload, &pos, &verdict) || verdict > 2) return miss();
  o.verdict = static_cast<verify::Verdict>(verdict);
  if (!get_str(payload, &pos, &o.detail)) return miss();
  if (!get_u64(payload, &pos, &o.max_instructions)) return miss();
  if (!get_u8(payload, &pos, &confirm) || confirm > 1) return miss();
  o.replays_confirm = confirm != 0;
  uint64_t nce = 0;
  if (!get_u64(payload, &pos, &nce) || nce > payload.size()) return miss();
  for (uint64_t i = 0; i < nce; ++i) {
    verify::Counterexample ce;
    if (!get_counterexample(payload, &pos, &ce)) return miss();
    o.counterexamples.push_back(std::move(ce));
  }
  uint64_t nrep = 0;
  if (!get_u64(payload, &pos, &nrep) || nrep > payload.size()) return miss();
  for (uint64_t i = 0; i < nrep; ++i) {
    std::string r;
    if (!get_str(payload, &pos, &r)) return miss();
    o.replays.push_back(std::move(r));
  }
  if (pos != payload.size()) return miss();
  *out = std::move(o);
  ++assertion_hits_;
  return true;
}

void VerdictCache::store_assertion(uint64_t hi, uint64_t lo,
                                   const spec::AssertionOutcome& o) {
  // Stats and seconds are deliberately NOT serialized: a warm hit reports
  // the (near-zero) work actually done, never replayed historical counters.
  std::vector<uint8_t> payload;
  put_str(&payload, o.text);
  put_u8(&payload, o.passed ? 1 : 0);
  put_u8(&payload, static_cast<uint8_t>(o.verdict));
  put_str(&payload, o.detail);
  put_u64(&payload, o.max_instructions);
  put_u8(&payload, o.replays_confirm ? 1 : 0);
  put_u64(&payload, o.counterexamples.size());
  for (const auto& ce : o.counterexamples) put_counterexample(&payload, ce);
  put_u64(&payload, o.replays.size());
  for (const auto& r : o.replays) put_str(&payload, r);
  save(kKindAssertion, hi, lo, std::move(payload));
}

VerdictCache::Counters VerdictCache::counters() const {
  Counters c;
  c.assertion_hits = assertion_hits_.load(std::memory_order_relaxed);
  c.assertion_misses = assertion_misses_.load(std::memory_order_relaxed);
  c.decision_hits = decision_hits_.load(std::memory_order_relaxed);
  c.decision_misses = decision_misses_.load(std::memory_order_relaxed);
  c.refine_hits = refine_hits_.load(std::memory_order_relaxed);
  c.refine_misses = refine_misses_.load(std::memory_order_relaxed);
  c.disk = store_.stats();
  return c;
}

}  // namespace vsd::cache
