#include "symbex/summary.hpp"

namespace vsd::symbex {

ElementSummary summarize_element(const ir::Program& program, size_t packet_len,
                                 Executor& executor) {
  ElementSummary s;
  s.element_name = program.name;
  s.packet_len = packet_len;
  s.entry = SymPacket::symbolic(packet_len, program.name);
  const auto t0 = std::chrono::steady_clock::now();
  ExploreResult r = executor.explore(program, s.entry);
  const auto t1 = std::chrono::steady_clock::now();
  s.segments = std::move(r.segments);
  s.stats = r.stats;
  s.truncated = r.truncated;
  s.seconds = std::chrono::duration<double>(t1 - t0).count();
  return s;
}

const ElementSummary& SharedSummaryCache::get(const ir::Program& program,
                                              uint64_t program_hash,
                                              size_t packet_len,
                                              Executor& executor,
                                              bool* was_miss) {
  const Key key{program_hash, packet_len};
  std::shared_ptr<Entry> entry;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it == cache_.end()) {
      it = cache_.emplace(key, std::make_shared<Entry>()).first;
      owner = true;
    }
    entry = it->second;
  }
  if (was_miss != nullptr) *was_miss = owner;
  if (owner) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    // Compute outside the map lock so distinct elements summarize in
    // parallel; waiters for THIS key block on the entry condvar. If the
    // compute throws, the entry is withdrawn (a later get retries) and
    // waiters are woken with the error — nobody blocks forever.
    try {
      ElementSummary s = summarize_element(program, packet_len, executor);
      {
        std::lock_guard<std::mutex> lock(entry->mu);
        entry->value = std::move(s);
        entry->ready = true;
      }
      entry->ready_cv.notify_all();
      return entry->value;
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        cache_.erase(key);
      }
      {
        std::lock_guard<std::mutex> lock(entry->mu);
        entry->error = std::current_exception();
        entry->ready = true;
      }
      entry->ready_cv.notify_all();
      throw;
    }
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::mutex> lock(entry->mu);
  entry->ready_cv.wait(lock, [&entry] { return entry->ready; });
  if (entry->error) std::rethrow_exception(entry->error);
  return entry->value;
}

void SharedSummaryCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.clear();
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

}  // namespace vsd::symbex
