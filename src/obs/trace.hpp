// Structured tracing and metrics for the verification engine.
//
// One process-wide Tracer collects two kinds of observations:
//
//  - Spans: scoped wall-time intervals (RAII ScopedSpan) with a category
//    (summarize / stitch / solve / refine / enumerate / task / oracle /
//    phase), a name, and up to a handful of string args (element names,
//    path addresses, query fingerprints, avoidance-ladder rungs).
//  - Counters: named monotone uint64 counters, independent of wall time.
//
// Two sinks:
//  - write_chrome_trace(): Chrome trace-event JSON ("ph":"X" complete
//    events) that loads directly in Perfetto / chrome://tracing, one lane
//    per worker thread (lane 0 = main, lane w+1 = parallel-engine worker w).
//  - write_metrics(): JSONL, one object per line. Counter lines and
//    span-count lines are deterministic at jobs=1; lines carrying
//    microsecond timings are explicitly typed so tests can filter them out.
//
// Cost discipline: the tracer is OFF by default and every entry point
// checks one relaxed atomic before doing any work — a disabled ScopedSpan
// constructs to two dead stores and counters return immediately, so the
// instrumented hot paths (solver ladder, stitched-path decisions) pay ~1
// predictable branch. Category and counter names are `const char*`
// literals precisely so the disabled path never allocates.
//
// Tracing is observational only: nothing here feeds back into the engine,
// so verdicts and counterexample bytes are byte-identical with tracing on
// or off (enforced by tests/obs_test.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace vsd::obs {

// Span categories. Fixed small set so sinks and the profiler can group by
// them without string interning.
enum class Cat : uint8_t {
  Task,       // one parallel work-queue task on a worker lane
  Summarize,  // Step-1 per-(element, entry-length) summarization
  Stitch,     // Step-2 stitched-path suspect decision
  Solve,      // one solver query through the avoidance ladder
  Refine,     // per-path unroll refinement walk
  Enumerate,  // bounded-state key enumeration
  Oracle,     // fuzz-harness oracle run
  Phase,      // one property driver / assertion (coarse envelope)
};

const char* cat_name(Cat c);

// One finished span, as recorded. ts/dur are microseconds relative to the
// tracer epoch (the moment tracing was enabled / reset).
struct SpanEvent {
  Cat cat;
  uint32_t lane;  // 0 = main thread, w+1 = worker w
  const char* name;
  uint64_t ts_us;
  uint64_t dur_us;
  // Args become the Chrome event's "args" object. Keys are literals.
  std::vector<std::pair<const char*, std::string>> args;
};

// Aggregated view of spans for `vsd profile`: keyed by (category, name).
struct SpanAgg {
  uint64_t count = 0;
  uint64_t total_us = 0;
};

bool enabled();

// Enables / disables collection. Enabling resets the epoch; previously
// recorded events are kept until reset(). Thread-safe.
void enable(bool on);

// Drops all recorded events and counters (every thread's block included)
// and restarts the epoch.
void reset();

// Sets this thread's lane id for subsequent spans (0 = main; the parallel
// engine assigns w+1 to worker w). Thread-local.
void set_lane(uint32_t lane);
uint32_t lane();

// Bumps a named counter (no-op when disabled). `name` must be a string
// literal or otherwise outlive the tracer — it is stored by pointer.
// Each thread counts into its own block, so workers never wait on each
// other here; a thread's block folds into the tracer when it exits.
void count(const char* name, uint64_t delta = 1);

// Deterministic snapshot of all counters, sorted by name: every live
// thread's block plus the folded totals of exited threads.
std::map<std::string, uint64_t> counters_snapshot();

// Aggregates all recorded spans by (category, name). Deterministic in
// keys and counts at jobs=1; total_us is wall time and never is.
std::map<std::pair<std::string, std::string>, SpanAgg> span_aggregate();

// Copy of every recorded span (args included) — the raw material for
// `vsd profile`'s per-element attribution. Spans come grouped by the
// thread that recorded them, not in global time order.
std::vector<SpanEvent> events_snapshot();

// Number of span events dropped because the in-memory cap was reached.
uint64_t dropped_events();

// Sinks. Both return false (and leave no partial file guarantees) if the
// path cannot be opened.
bool write_chrome_trace(const std::string& path);
bool write_metrics(const std::string& path);

// RAII span. Constructing while the tracer is disabled yields an inert
// object; `operator bool` gates arg() work at call sites. A finished span
// goes to its thread's own buffer (folded into the tracer when the thread
// exits), so workers never wait on each other to record one; past 2^20
// spans in all, spans are counted as dropped instead.
//
//   obs::ScopedSpan sp(obs::Cat::Solve, "check_feasible");
//   if (sp) sp.arg("fingerprint", fp_string());  // only built when tracing
class ScopedSpan {
 public:
  ScopedSpan(Cat cat, const char* name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  explicit operator bool() const { return active_; }

  // Attaches an arg (shown in the Chrome trace UI). No-op when inert.
  void arg(const char* key, std::string value);

  // Drops the span — nothing is recorded at destruction. Used when the
  // spanned operation turns out to be a cache hit not worth a lane entry.
  void cancel() { active_ = false; }

 private:
  bool active_ = false;
  Cat cat_ = Cat::Task;
  const char* name_ = nullptr;
  uint64_t start_us_ = 0;
  std::vector<std::pair<const char*, std::string>> args_;
};

}  // namespace vsd::obs
