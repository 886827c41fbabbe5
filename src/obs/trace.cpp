#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <mutex>
#include <unordered_map>

namespace vsd::obs {

namespace {

using Clock = std::chrono::steady_clock;

using CounterMap = std::unordered_map<const char*, uint64_t>;

struct ThreadBlock;

// The process-wide tracer state. Every thread records into its own block
// (counters and finished spans), so recording never takes the tracer
// mutex; that mutex guards the list of live blocks and what exited threads
// folded in, and readers merge the two. Lock order: the tracer mutex, then
// a block's.
struct Tracer {
  std::mutex mu;
  // Clock ticks of the epoch; spans read it without a lock.
  std::atomic<Clock::rep> epoch{Clock::now().time_since_epoch().count()};
  std::vector<SpanEvent> events;  // folded from exited threads
  CounterMap counters;            // folded from exited threads
  std::vector<ThreadBlock*> blocks;
  // In-memory cap on recorded events, one for all threads: a pathological
  // run must not trade its verdict for an OOM. Past the cap events are
  // counted, not stored.
  static constexpr size_t kMaxEvents = 1u << 20;
  std::atomic<size_t> recorded{0};  // spans offered since the last reset
  std::atomic<uint64_t> dropped{0};
};

std::atomic<bool> g_enabled{false};
thread_local uint32_t t_lane = 0;

Tracer& tracer() {
  static Tracer* t = new Tracer();  // immortal: threads fold into it at exit
  return *t;
}

// One thread's counters and finished spans, registered with the tracer on
// first use and folded into it when the thread exits. Only the owning
// thread records; the block's own mutex, taken by other threads only to
// read or reset, keeps recording off the tracer mutex.
struct ThreadBlock {
  std::mutex mu;
  CounterMap values;
  std::vector<SpanEvent> events;
  bool registered = false;

  ThreadBlock& mine() {
    if (!registered) {
      Tracer& t = tracer();
      std::lock_guard<std::mutex> lock(t.mu);
      t.blocks.push_back(this);
      registered = true;
    }
    return *this;
  }

  ~ThreadBlock() {
    if (!registered) return;
    Tracer& t = tracer();
    std::lock_guard<std::mutex> lock(t.mu);
    std::lock_guard<std::mutex> block_lock(mu);
    for (const auto& [name, value] : values) t.counters[name] += value;
    t.events.insert(t.events.end(), std::make_move_iterator(events.begin()),
                    std::make_move_iterator(events.end()));
    std::erase(t.blocks, this);
  }
};
thread_local ThreadBlock t_block;

uint64_t now_us(const Tracer& t) {
  const Clock::duration since{Clock::now().time_since_epoch().count() -
                              t.epoch.load(std::memory_order_relaxed)};
  const auto us =
      std::chrono::duration_cast<std::chrono::microseconds>(since).count();
  return us > 0 ? static_cast<uint64_t>(us) : 0;
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
    t.epoch.store(Clock::now().time_since_epoch().count(),
                  std::memory_order_relaxed);
  }
  g_enabled.store(on, std::memory_order_relaxed);
}

void reset() {
  Tracer& t = tracer();
  std::lock_guard<std::mutex> lock(t.mu);
  t.events.clear();
  t.counters.clear();
  for (ThreadBlock* b : t.blocks) {
    std::lock_guard<std::mutex> block_lock(b->mu);
    b->values.clear();
    b->events.clear();
  }
  t.recorded.store(0, std::memory_order_relaxed);
  t.dropped.store(0, std::memory_order_relaxed);
  t.epoch.store(Clock::now().time_since_epoch().count(),
                std::memory_order_relaxed);
}

void set_lane(uint32_t lane_id) { t_lane = lane_id; }
uint32_t lane() { return t_lane; }

void count(const char* name, uint64_t delta) {
  if (!enabled()) return;
  ThreadBlock& mine = t_block.mine();
  std::lock_guard<std::mutex> lock(mine.mu);
  mine.values[name] += delta;
}

// The folded totals plus every live block.
std::map<std::string, uint64_t> counters_snapshot() {
  Tracer& t = tracer();
  std::lock_guard<std::mutex> lock(t.mu);
  std::map<std::string, uint64_t> out;
  for (const auto& [name, value] : t.counters) out[name] += value;
  for (ThreadBlock* b : t.blocks) {
    std::lock_guard<std::mutex> block_lock(b->mu);
    for (const auto& [name, value] : b->values) out[name] += value;
  }
  return out;
}

std::map<std::pair<std::string, std::string>, SpanAgg> span_aggregate() {
  std::map<std::pair<std::string, std::string>, SpanAgg> out;
  for (const SpanEvent& e : events_snapshot()) {
    SpanAgg& agg = out[{cat_name(e.cat), e.name}];
    ++agg.count;
    agg.total_us += e.dur_us;
  }
  return out;
}

// The folded spans, then each live block's.
std::vector<SpanEvent> events_snapshot() {
  Tracer& t = tracer();
  std::lock_guard<std::mutex> lock(t.mu);
  std::vector<SpanEvent> out = t.events;
  for (ThreadBlock* b : t.blocks) {
    std::lock_guard<std::mutex> block_lock(b->mu);
    out.insert(out.end(), b->events.begin(), b->events.end());
  }
  return out;
}

uint64_t dropped_events() {
  return tracer().dropped.load(std::memory_order_relaxed);
}

bool write_chrome_trace(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<SpanEvent> events = events_snapshot();
  const uint64_t dropped = dropped_events();
  out << "{\"traceEvents\":[\n";
  bool first = true;
  const auto emit = [&](const std::string& line) {
    if (!first) out << ",\n";
    first = false;
    out << line;
  };
  // One metadata event per lane seen, so Perfetto names the rows.
  std::vector<uint32_t> lanes;
  for (const SpanEvent& e : events) lanes.push_back(e.lane);
  std::sort(lanes.begin(), lanes.end());
  lanes.erase(std::unique(lanes.begin(), lanes.end()), lanes.end());
  for (uint32_t l : lanes) {
    const std::string label =
        l == 0 ? std::string("main") : "worker " + std::to_string(l - 1);
    emit("{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(l) +
         ",\"name\":\"thread_name\",\"args\":{\"name\":" + quoted(label) +
         "}}");
  }
  for (const SpanEvent& e : events) {
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
  if (dropped != 0) {
    out << ",\"otherData\":{\"dropped_events\":\"" << dropped << "\"}";
  }
  out << "}\n";
  return static_cast<bool>(out);
}

bool write_metrics(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  // Counters first, sorted by name: this prefix of the file is
  // deterministic across runs (at jobs=1) and is what the determinism
  // test compares.
  for (const auto& [name, value] : counters_snapshot()) {
    out << "{\"type\":\"counter\",\"name\":" << quoted(name)
        << ",\"value\":" << value << "}\n";
  }
  // Span aggregates: counts are deterministic at jobs=1; the "total_us"
  // field is wall time and is the reason these lines carry a distinct
  // type, so determinism comparisons can drop them.
  for (const auto& [key, agg] : span_aggregate()) {
    out << "{\"type\":\"span_timing\",\"cat\":" << quoted(key.first)
        << ",\"name\":" << quoted(key.second) << ",\"count\":" << agg.count
        << ",\"total_us\":" << agg.total_us << "}\n";
  }
  if (const uint64_t dropped = dropped_events(); dropped != 0) {
    out << "{\"type\":\"dropped_events\",\"value\":" << dropped << "}\n";
  }
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(Cat cat, const char* name) {
  if (!enabled()) return;
  active_ = true;
  cat_ = cat;
  name_ = name;
  start_us_ = now_us(tracer());
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  Tracer& t = tracer();
  if (t.recorded.fetch_add(1, std::memory_order_relaxed) >=
      Tracer::kMaxEvents) {
    t.dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  SpanEvent e;
  e.cat = cat_;
  e.lane = t_lane;
  e.name = name_;
  e.ts_us = start_us_;
  const uint64_t end = now_us(t);
  e.dur_us = end > start_us_ ? end - start_us_ : 0;
  e.args = std::move(args_);
  ThreadBlock& mine = t_block.mine();
  std::lock_guard<std::mutex> lock(mine.mu);
  mine.events.push_back(std::move(e));
}

void ScopedSpan::arg(const char* key, std::string value) {
  if (!active_) return;
  args_.emplace_back(key, std::move(value));
}

}  // namespace vsd::obs
