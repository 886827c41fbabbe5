#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <unordered_map>

namespace vsd::obs {

namespace {

using Clock = std::chrono::steady_clock;

using CounterMap = std::unordered_map<const char*, uint64_t>;

struct ThreadCounters;

// The process-wide tracer state. One mutex guards the events, the counters
// folded in from exited threads and the list of live threads' counter
// blocks; span recording is one lock + one vector push, which is plenty
// for a tracing layer (the hot paths only reach here when tracing is on).
// Lock order: the tracer mutex, then a block's.
struct Tracer {
  std::mutex mu;
  Clock::time_point epoch = Clock::now();
  std::vector<SpanEvent> events;
  CounterMap counters;
  std::vector<ThreadCounters*> blocks;
  uint64_t dropped = 0;
  // In-memory cap: a pathological run must not trade its verdict for an
  // OOM. Past the cap events are counted, not stored.
  static constexpr size_t kMaxEvents = 1u << 20;
};

std::atomic<bool> g_enabled{false};
thread_local uint32_t t_lane = 0;

Tracer& tracer() {
  static Tracer* t = new Tracer();  // immortal: threads fold into it at exit
  return *t;
}

// One thread's counter block, registered with the tracer on first use and
// folded into its counters when the thread exits. Only the owning thread
// bumps the values; the block's own mutex, taken by other threads only to
// snapshot or reset, keeps count() off the tracer mutex.
struct ThreadCounters {
  std::mutex mu;
  CounterMap values;
  bool registered = false;

  ~ThreadCounters() {
    if (!registered) return;
    Tracer& t = tracer();
    std::lock_guard<std::mutex> lock(t.mu);
    std::lock_guard<std::mutex> block_lock(mu);
    for (const auto& [name, value] : values) t.counters[name] += value;
    std::erase(t.blocks, this);
  }
};
thread_local ThreadCounters t_counters;

// Every counter: the folded totals plus every live block. Caller holds
// t.mu.
std::map<std::string, uint64_t> merged_counters_locked(Tracer& t) {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, value] : t.counters) out[name] += value;
  for (ThreadCounters* b : t.blocks) {
    std::lock_guard<std::mutex> lock(b->mu);
    for (const auto& [name, value] : b->values) out[name] += value;
  }
  return out;
}

uint64_t now_us_locked(const Tracer& t) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   Clock::now() - t.epoch)
                                   .count());
}

void json_escape(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  json_escape(&out, s);
  out += "\"";
  return out;
}

}  // namespace

const char* cat_name(Cat c) {
  switch (c) {
    case Cat::Task: return "task";
    case Cat::Summarize: return "summarize";
    case Cat::Stitch: return "stitch";
    case Cat::Solve: return "solve";
    case Cat::Refine: return "refine";
    case Cat::Enumerate: return "enumerate";
    case Cat::Oracle: return "oracle";
    case Cat::Phase: return "phase";
  }
  return "?";
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void enable(bool on) {
  Tracer& t = tracer();
  std::lock_guard<std::mutex> lock(t.mu);
  if (on && !g_enabled.load(std::memory_order_relaxed)) {
    t.epoch = Clock::now();
  }
  g_enabled.store(on, std::memory_order_relaxed);
}

void reset() {
  Tracer& t = tracer();
  std::lock_guard<std::mutex> lock(t.mu);
  t.events.clear();
  t.counters.clear();
  for (ThreadCounters* b : t.blocks) {
    std::lock_guard<std::mutex> block_lock(b->mu);
    b->values.clear();
  }
  t.dropped = 0;
  t.epoch = Clock::now();
}

void set_lane(uint32_t lane_id) { t_lane = lane_id; }
uint32_t lane() { return t_lane; }

void count(const char* name, uint64_t delta) {
  if (!enabled()) return;
  ThreadCounters& mine = t_counters;
  if (!mine.registered) {
    Tracer& t = tracer();
    std::lock_guard<std::mutex> lock(t.mu);
    t.blocks.push_back(&mine);
    mine.registered = true;
  }
  std::lock_guard<std::mutex> lock(mine.mu);
  mine.values[name] += delta;
}

std::map<std::string, uint64_t> counters_snapshot() {
  Tracer& t = tracer();
  std::lock_guard<std::mutex> lock(t.mu);
  return merged_counters_locked(t);
}

std::map<std::pair<std::string, std::string>, SpanAgg> span_aggregate() {
  Tracer& t = tracer();
  std::lock_guard<std::mutex> lock(t.mu);
  std::map<std::pair<std::string, std::string>, SpanAgg> out;
  for (const SpanEvent& e : t.events) {
    SpanAgg& agg = out[{cat_name(e.cat), e.name}];
    ++agg.count;
    agg.total_us += e.dur_us;
  }
  return out;
}

std::vector<SpanEvent> events_snapshot() {
  Tracer& t = tracer();
  std::lock_guard<std::mutex> lock(t.mu);
  return t.events;
}

uint64_t dropped_events() {
  Tracer& t = tracer();
  std::lock_guard<std::mutex> lock(t.mu);
  return t.dropped;
}

bool write_chrome_trace(const std::string& path) {
  Tracer& t = tracer();
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(t.mu);
  out << "{\"traceEvents\":[\n";
  bool first = true;
  const auto emit = [&](const std::string& line) {
    if (!first) out << ",\n";
    first = false;
    out << line;
  };
  // One metadata event per lane seen, so Perfetto names the rows.
  std::vector<uint32_t> lanes;
  for (const SpanEvent& e : t.events) lanes.push_back(e.lane);
  std::sort(lanes.begin(), lanes.end());
  lanes.erase(std::unique(lanes.begin(), lanes.end()), lanes.end());
  for (uint32_t l : lanes) {
    const std::string label =
        l == 0 ? std::string("main") : "worker " + std::to_string(l - 1);
    emit("{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(l) +
         ",\"name\":\"thread_name\",\"args\":{\"name\":" + quoted(label) +
         "}}");
  }
  for (const SpanEvent& e : t.events) {
    std::string line = "{\"ph\":\"X\",\"pid\":1,\"tid\":" +
                       std::to_string(e.lane) +
                       ",\"cat\":" + quoted(cat_name(e.cat)) +
                       ",\"name\":" + quoted(e.name) +
                       ",\"ts\":" + std::to_string(e.ts_us) +
                       ",\"dur\":" + std::to_string(e.dur_us);
    if (!e.args.empty()) {
      line += ",\"args\":{";
      bool afirst = true;
      for (const auto& [k, v] : e.args) {
        if (!afirst) line += ",";
        afirst = false;
        line += quoted(k) + ":" + quoted(v);
      }
      line += "}";
    }
    line += "}";
    emit(line);
  }
  out << "\n],\"displayTimeUnit\":\"ms\"";
  if (t.dropped != 0) {
    out << ",\"otherData\":{\"dropped_events\":\"" << t.dropped << "\"}";
  }
  out << "}\n";
  return static_cast<bool>(out);
}

bool write_metrics(const std::string& path) {
  Tracer& t = tracer();
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(t.mu);
  // Counters first, sorted by name: this prefix of the file is
  // deterministic across runs (at jobs=1) and is what the determinism
  // test compares.
  for (const auto& [name, value] : merged_counters_locked(t)) {
    out << "{\"type\":\"counter\",\"name\":" << quoted(name)
        << ",\"value\":" << value << "}\n";
  }
  // Span aggregates: counts are deterministic at jobs=1; the "total_us"
  // field is wall time and is the reason these lines carry a distinct
  // type, so determinism comparisons can drop them.
  std::map<std::pair<std::string, std::string>, SpanAgg> aggs;
  for (const SpanEvent& e : t.events) {
    SpanAgg& agg = aggs[{cat_name(e.cat), e.name}];
    ++agg.count;
    agg.total_us += e.dur_us;
  }
  for (const auto& [key, agg] : aggs) {
    out << "{\"type\":\"span_timing\",\"cat\":" << quoted(key.first)
        << ",\"name\":" << quoted(key.second) << ",\"count\":" << agg.count
        << ",\"total_us\":" << agg.total_us << "}\n";
  }
  if (t.dropped != 0) {
    out << "{\"type\":\"dropped_events\",\"value\":" << t.dropped << "}\n";
  }
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(Cat cat, const char* name) {
  if (!enabled()) return;
  active_ = true;
  cat_ = cat;
  name_ = name;
  Tracer& t = tracer();
  std::lock_guard<std::mutex> lock(t.mu);
  start_us_ = now_us_locked(t);
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  Tracer& t = tracer();
  std::lock_guard<std::mutex> lock(t.mu);
  if (t.events.size() >= Tracer::kMaxEvents) {
    ++t.dropped;
    return;
  }
  SpanEvent e;
  e.cat = cat_;
  e.lane = t_lane;
  e.name = name_;
  e.ts_us = start_us_;
  const uint64_t end = now_us_locked(t);
  e.dur_us = end > start_us_ ? end - start_us_ : 0;
  e.args = std::move(args_);
  t.events.push_back(std::move(e));
}

void ScopedSpan::arg(const char* key, std::string value) {
  if (!active_) return;
  args_.emplace_back(key, std::move(value));
}

}  // namespace vsd::obs
