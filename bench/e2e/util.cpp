#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "e2e.hpp"
#include "net/workload.hpp"
#include "obs/trace.hpp"

namespace e2e {

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Parses expected.txt into (name, verdict string) pairs, in file order.
std::vector<std::pair<std::string, std::string>> read_expected(
    const std::string& data_dir) {
  const std::string path = data_dir + "/expected.txt";
  std::istringstream in(read_file(path));
  std::vector<std::pair<std::string, std::string>> out;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string name, tok, verdicts;
    if (!(ls >> name)) continue;
    while (ls >> tok) {
      if (tok == "PASS") verdicts += 'P';
      else if (tok == "FAIL") verdicts += 'F';
      else throw std::runtime_error(path + ":" + std::to_string(lineno) +
                                    ": expected PASS or FAIL, got '" + tok +
                                    "'");
    }
    if (verdicts.empty()) {
      throw std::runtime_error(path + ":" + std::to_string(lineno) +
                               ": no verdicts for " + name);
    }
    out.emplace_back(name, verdicts);
  }
  return out;
}

double interpolate(const std::vector<double>& sorted, double pct) {
  const double pos = pct / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

}  // namespace

std::vector<SpecCase> load_corpus(const std::string& data_dir) {
  std::vector<SpecCase> out;
  for (const auto& [name, verdicts] : read_expected(data_dir)) {
    if (name == "deep") continue;
    out.push_back({name, read_file(data_dir + "/" + name), verdicts});
  }
  if (out.empty()) throw std::runtime_error("expected.txt names no spec");
  return out;
}

std::string deep_expected(const std::string& data_dir) {
  for (const auto& [name, verdicts] : read_expected(data_dir)) {
    if (name == "deep") return verdicts;
  }
  throw std::runtime_error("expected.txt has no 'deep' line");
}

std::string deep_spec(size_t depth) {
  static const char* const kStages[] = {
      "CheckIPHeader(nochecksum)", "DecIPTTL",  "IPOptions",
      "SetIPChecksum",             "IPOptions", "DecIPTTL",
      "IPOptions",
  };
  std::string chain;
  for (size_t i = 0; i < depth; ++i) {
    if (i != 0) chain += " -> ";
    chain += kStages[i % 7];
  }
  return "pipeline \"" + chain +
         "\";\n"
         "set packet_len = 46;\n"
         "set ip_offset = 0;\n"
         "assert crash_free;\n"
         "assert instructions <= 100000;\n"
         "assert never(drop) when wellformed;\n";
}

std::string router_edit_spec(const std::string& router_text, unsigned a,
                             unsigned b) {
  const size_t open = router_text.find("IPLookup(");
  const size_t close =
      open == std::string::npos ? open : router_text.find(')', open);
  if (close == std::string::npos) {
    throw std::runtime_error("router spec has no IPLookup(...) element");
  }
  return router_text.substr(0, close) + ", 10." + std::to_string(a) + "." +
         std::to_string(b) + ".0/24 1" + router_text.substr(close);
}

std::string verdict_codes(const vsd::spec::CheckReport& rep) {
  std::string out;
  for (const vsd::spec::AssertionOutcome& o : rep.outcomes) {
    if (o.passed) out += 'P';
    else if (o.verdict == vsd::verify::Verdict::Unknown) out += 'U';
    else if (o.verdict == vsd::verify::Verdict::Violated && o.replays_confirm)
      out += 'F';
    else out += 'X';
  }
  return out;
}

std::vector<size_t> seeded_order(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  vsd::net::Rng rng(seed);
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  return order;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 != 0 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

void quartiles(std::vector<double> v, double* q1, double* q3) {
  std::sort(v.begin(), v.end());
  const size_t ld = v.size();
  if (ld < 2) {
    *q1 = *q3 = ld == 1 ? v[0] : 0.0;
    return;
  }
  const auto q = [&](size_t i) {
    const size_t m = ld + 1;
    size_t j = i * m / 4;
    j = std::clamp<size_t>(j, 1, ld - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  *q1 = q(1);
  *q3 = q(3);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

bool tail(std::vector<double> v, double* pct, double* value) {
  static const double kPcts[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  std::sort(v.begin(), v.end());
  for (const double p : kPcts) {
    if (static_cast<double>(v.size()) * (1.0 - p / 100.0) >= 10.0) {
      *pct = p;
      *value = interpolate(v, p);
      return true;
    }
  }
  return false;
}

double self_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double self_maxrss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

size_t nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<size_t>(n) : 1;
}

std::map<std::string, double> layer_self_us() {
  using vsd::obs::Cat;
  std::vector<vsd::obs::SpanEvent> ev = vsd::obs::events_snapshot();
  std::sort(ev.begin(), ev.end(), [](const auto& x, const auto& y) {
    if (x.lane != y.lane) return x.lane < y.lane;
    if (x.ts_us != y.ts_us) return x.ts_us < y.ts_us;
    return x.dur_us > y.dur_us;
  });
  // Spans of one thread nest properly. The serve daemon's connection
  // threads share lane 0, so a span that only partly overlaps the open one
  // is treated as a sibling rather than a child.
  std::vector<uint64_t> covered(ev.size(), 0);
  std::vector<size_t> open;
  for (size_t i = 0; i < ev.size(); ++i) {
    if (i != 0 && ev[i].lane != ev[i - 1].lane) open.clear();
    const uint64_t end = ev[i].ts_us + ev[i].dur_us;
    while (!open.empty()) {
      const auto& top = ev[open.back()];
      const uint64_t top_end = top.ts_us + top.dur_us;
      if (top_end > ev[i].ts_us && top_end >= end) break;
      open.pop_back();
    }
    if (!open.empty()) covered[open.back()] += ev[i].dur_us;
    open.push_back(i);
  }
  std::map<std::string, double> out;
  for (const char* k : {"summarize", "stitch", "solve", "refine", "enumerate",
                        "walk", "check", "task", "tasks"}) {
    out[k] = 0.0;
  }
  for (size_t i = 0; i < ev.size(); ++i) {
    const double self = static_cast<double>(
        ev[i].dur_us - std::min(covered[i], ev[i].dur_us));
    switch (ev[i].cat) {
      case Cat::Summarize: out["summarize"] += self; break;
      case Cat::Stitch: out["stitch"] += self; break;
      case Cat::Solve: out["solve"] += self; break;
      case Cat::Refine: out["refine"] += self; break;
      case Cat::Enumerate: out["enumerate"] += self; break;
      case Cat::Phase:
        out[std::string(ev[i].name) == "assertion" ? "check" : "walk"] += self;
        break;
      case Cat::Task:
        out["task"] += static_cast<double>(ev[i].dur_us);
        out["tasks"] += 1.0;
        break;
      case Cat::Oracle: break;
    }
  }
  return out;
}

void add_obs_counters(std::map<std::string, double>* out) {
  for (const auto& [name, value] : vsd::obs::counters_snapshot()) {
    (*out)["obs." + name] = static_cast<double>(value);
  }
}

std::string chrome_trace_path(const Options& o, const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(o.work_dir) / "traces" / o.workload;
  std::filesystem::create_directories(dir);
  std::string file = name;
  std::replace(file.begin(), file.end(), '/', '_');
  return (dir / (file + ".trace.json")).string();
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace e2e
