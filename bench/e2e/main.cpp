// vsd_e2e — end-to-end and per-layer benchmark of vsd.
//
//   vsd_e2e --workload <name> --seed N --seconds S --trace 0|1 [--out F]
//       one workload; prints every metric by name and unit, then one JSON
//       result line: {"correct","attempted","failed","metrics"}. Untraced
//       runs report the end-to-end metrics, traced runs the per-layer ones.
//   vsd_e2e [--seed N] [--seconds S] [--traced] [--out F]
//       the full set, each workload in its own child process.
//   vsd_e2e --cliff [--out F]
//       depth-cliff diagnostic of the deep chain (recorded, not gated).
//
// Workloads: corpus, deep, deep_par, serve, replay (see README.md).
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>

#include "e2e.hpp"

#ifndef VSD_E2E_DATA
#define VSD_E2E_DATA "bench/e2e"
#endif
#ifndef VSD_E2E_WORK
#define VSD_E2E_WORK "build-e2e/work"
#endif

namespace {

using e2e::num;
using e2e::quote;

const char* const kWorkloads[] = {"corpus", "deep", "deep_par", "serve", "replay"};

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json's end_to_end and per_layer lists.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"}, {"wall_s", "s"}, {"latency_ms", "ms"},
    {"cpu_s", "s"},   {"peak_rss_mb", "MB"},
};
const MetricDef kPerLayer[] = {
    {"spec.parse_frac", "ratio"},
    {"spec.check_self_frac", "ratio"},
    {"spec.assertions", "count"},
    {"pipeline.build_ms", "ms"},
    {"backend.instr_per_pkt", "count"},
    {"backend.minstr_per_s", "Minstr/s"},
    {"backend.lowered_frac", "ratio"},
    {"backend.delivered_frac", "ratio"},
    {"verify.summarize_self_frac", "ratio"},
    {"verify.summaries", "count"},
    {"verify.summary_hits", "count"},
    {"verify.walk_self_frac", "ratio"},
    {"verify.composed_paths", "count"},
    {"verify.stitch_self_frac", "ratio"},
    {"verify.suspects_decided", "count"},
    {"verify.suspect_elim_ratio", "ratio"},
    {"verify.refine_self_frac", "ratio"},
    {"verify.refinements", "count"},
    {"verify.enumerate_self_frac", "ratio"},
    {"verify.state_keys", "count"},
    {"parallel.tasks", "count"},
    {"parallel.busy_frac", "ratio"},
    {"solver.self_frac", "ratio"},
    {"solver.queries", "count"},
    {"solver.sat_solves", "count"},
    {"solver.core_frac", "ratio"},
    {"solver.conflicts", "count"},
    {"solver.decisions", "count"},
    {"solver.blast_nodes", "count"},
    {"solver.rung.cheap", "count"},
    {"solver.rung.cache", "count"},
    {"solver.rung.rewrite", "count"},
    {"solver.rung.exhaustion", "count"},
    {"solver.rung.core_grouping", "count"},
    {"solver.rung.cex_cache", "count"},
    {"solver.rung.slicing", "count"},
    {"solver.rung.incremental", "count"},
    {"solver.rung.cdcl", "count"},
    {"bv.interned_nodes", "count"},
    {"cache.assertion_hit_ratio", "ratio"},
    {"cache.decision_hits", "count"},
    {"cache.refine_hits", "count"},
    {"cache.disk_entries", "count"},
    {"cache.disk_bytes", "bytes"},
    {"serve.requests", "count"},
    {"serve.errors", "count"},
    {"serve.hit_tail_ratio", "ratio"},
    {"serve.edit_tail_ratio", "ratio"},
    {"serve.reader_late_frac", "ratio"},
    {"serve.rss_growth_mb", "MB"},
    {"obs.overhead_frac", "ratio"},
    {"obs.dropped_events", "count"},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "vsd_e2e: %s\n"
               "usage: vsd_e2e [--workload corpus|deep|deep_par|serve|replay]\n"
               "               [--seed N] [--seconds S] [--trace 0|1 | --traced]\n"
               "               [--out FILE] [--data DIR] [--work DIR] [--cliff]\n",
               why.c_str());
  std::exit(2);
}

e2e::Options parse_args(int argc, char** argv) {
  e2e::Options o;
  o.data_dir = VSD_E2E_DATA;
  o.work_dir = VSD_E2E_WORK;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(a + " needs a value");
      return argv[++i];
    };
    const auto number = [&](double lo, double hi) {
      const std::string v = value();
      char* end = nullptr;
      const double x = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(x >= lo && x <= hi)) {
        usage("bad value for " + a + ": '" + v + "'");
      }
      return x;
    };
    if (a == "--workload") {
      o.workload = value();
      bool known = false;
      for (const char* w : kWorkloads) known = known || o.workload == w;
      if (!known) usage("unknown workload '" + o.workload + "'");
    } else if (a == "--seed") {
      o.seed = static_cast<uint64_t>(number(0, 9e15));
    } else if (a == "--seconds") {
      o.seconds = number(0.1, 3600);
    } else if (a == "--trace") {
      o.trace = number(0, 1) != 0;
    } else if (a == "--traced") {
      o.trace = true;
    } else if (a == "--out") {
      o.out = value();
    } else if (a == "--data") {
      o.data_dir = value();
    } else if (a == "--work") {
      o.work_dir = value();
    } else if (a == "--cliff") {
      o.cliff = true;
    } else {
      usage("unknown argument '" + a + "'");
    }
  }
  return o;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) {
    std::fprintf(stderr, "vsd_e2e: cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Fills in the metrics a workload does not exercise (per-layer only: those
// read 0) and checks that every end-to-end metric is present and finite.
void complete_metrics(const e2e::Options& o, e2e::Report* r) {
  if (o.trace) {
    for (const MetricDef& d : kPerLayer) r->metrics.try_emplace(d.name, 0.0);
  } else {
    for (const MetricDef& d : kEndToEnd) {
      if (!r->metrics.count(d.name)) r->fail(std::string("no value for ") + d.name);
    }
  }
  for (auto& [name, v] : r->metrics) {
    if (!std::isfinite(v)) {
      r->fail("non-finite value for " + name);
      v = 0;
    }
  }
}

std::string workload_json(const e2e::Options& o, const e2e::Report& r) {
  std::string j = "{\"workload\":" + quote(o.workload) +
                  ",\"trace\":" + (o.trace ? "true" : "false") +
                  ",\"correct\":" + (r.correct ? "true" : "false") +
                  ",\"attempted\":" + std::to_string(r.attempted) +
                  ",\"failed\":" + std::to_string(r.failed) +
                  ",\"failed_frac\":" +
                  num(r.attempted ? static_cast<double>(r.failed) / r.attempted : 0.0) +
                  ",\"errors\":[";
  for (size_t i = 0; i < r.errors.size(); ++i) {
    j += (i ? "," : "") + quote(r.errors[i]);
  }
  j += "],\"metrics\":{";
  bool first = true;
  const auto unit_of = [](const std::string& name) -> const char* {
    for (const MetricDef& d : kEndToEnd) if (name == d.name) return d.unit;
    for (const MetricDef& d : kPerLayer) if (name == d.name) return d.unit;
    return "";
  };
  for (const auto& [name, v] : r.metrics) {
    j += (first ? "" : ",") + quote(name) + ":{\"value\":" + num(v) +
         ",\"unit\":" + quote(unit_of(name)) + "}";
    first = false;
  }
  j += "},\"samples\":{";
  first = true;
  for (const auto& [name, xs] : r.samples) {
    if (xs.empty()) continue;
    double q1 = 0, q3 = 0, pct = 0, tv = 0;
    e2e::quartiles(xs, &q1, &q3);
    j += (first ? "" : ",") + quote(name) + ":{\"n\":" + std::to_string(xs.size()) +
         ",\"min\":" + num(*std::min_element(xs.begin(), xs.end())) +
         ",\"median\":" + num(e2e::median(xs)) + ",\"q1\":" + num(q1) +
         ",\"q3\":" + num(q3);
    if (e2e::tail(xs, &pct, &tv)) {
      j += ",\"tail_pct\":" + num(pct) + ",\"tail\":" + num(tv);
    }
    j += "}";
    first = false;
  }
  j += "},\"info\":{";
  first = true;
  for (const auto& [name, v] : r.info) {
    j += (first ? "" : ",") + quote(name) + ":" + num(v);
    first = false;
  }
  return j + "}}";
}

std::string results_json(const e2e::Options& o, const std::string& workloads,
                         const std::string& cliff) {
  std::string j = "{\"nproc\":" + std::to_string(e2e::nproc()) +
                  ",\"seed\":" + std::to_string(o.seed) +
                  ",\"seconds\":" + num(o.seconds) +
                  ",\"trace\":" + (o.trace ? "true" : "false");
  if (!workloads.empty()) j += ",\"workloads\":{" + workloads + "}";
  if (!cliff.empty()) j += ",\"cliff\":" + cliff;
  return j + "}\n";
}

int run_one(const e2e::Options& o) {
  e2e::Report r;
  try {
    if (o.workload == "corpus") r = e2e::run_corpus(o);
    else if (o.workload == "deep") r = e2e::run_deep(o, 1);
    else if (o.workload == "deep_par") r = e2e::run_deep(o, 4);
    else if (o.workload == "serve") r = e2e::run_serve(o);
    else r = e2e::run_replay(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vsd_e2e: %s: %s\n", o.workload.c_str(), e.what());
    return 1;
  }
  complete_metrics(o, &r);
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "vsd_e2e: %s: %s\n", o.workload.c_str(), e.c_str());
  }
  std::string line = "{\"correct\":" + std::string(r.correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(r.attempted) +
                     ",\"failed\":" + std::to_string(r.failed) + ",\"metrics\":{";
  bool first = true;
  for (const MetricDef& d : o.trace ? std::span<const MetricDef>(kPerLayer)
                                    : std::span<const MetricDef>(kEndToEnd)) {
    const double v = r.metrics.count(d.name) ? r.metrics.at(d.name) : 0.0;
    std::printf("%-8s %-28s %20.6f %s\n", o.workload.c_str(), d.name, v, d.unit);
    line += (first ? "" : ",") + quote(d.name) + ":{\"value\":" + num(v) +
            ",\"unit\":" + quote(d.unit) + "}";
    first = false;
  }
  line += "}}";
  if (!o.out.empty()) {
    write_file(o.out, results_json(o, quote(o.workload) + ":" + workload_json(o, r), ""));
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}

// The full set: each workload in its own process, so peak RSS and the bv
// interner never carry over from one workload to the next.
int run_all(const e2e::Options& o) {
  const char* const self = "/proc/self/exe";
  const std::string key = "\"workloads\":{";
  namespace fs = std::filesystem;
  fs::create_directories(o.work_dir);
  std::string workloads;
  bool ok = true;
  for (const char* w : kWorkloads) {
    const std::string part = (fs::path(o.work_dir) / (std::string(w) + ".json")).string();
    const std::string seed = std::to_string(o.seed), secs = num(o.seconds);
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::execl(self, self, "--workload", w, "--seed", seed.c_str(), "--seconds",
              secs.c_str(), "--trace", o.trace ? "1" : "0", "--out", part.c_str(),
              "--data", o.data_dir.c_str(), "--work", o.work_dir.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    int status = 0;
    while (pid > 0 && ::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    ok = ok && pid > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    const std::string text = read_file(part);
    const size_t open = text.find(key);
    const size_t close = text.rfind("}}");  // closes "workloads", then the file
    if (open == std::string::npos || close == std::string::npos) {
      std::fprintf(stderr, "vsd_e2e: workload %s produced no results\n", w);
      ok = false;
      continue;
    }
    if (!workloads.empty()) workloads += ",";
    workloads += text.substr(open + key.size(), close - open - key.size());
    fs::remove(part);
  }
  if (!o.out.empty()) write_file(o.out, results_json(o, workloads, ""));
  std::printf("full set %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const e2e::Options o = parse_args(argc, argv);
  if (o.cliff) {
    std::string cliff;
    try {
      cliff = e2e::run_cliff(o);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "vsd_e2e: cliff: %s\n", e.what());
      return 1;
    }
    if (!o.out.empty()) write_file(o.out, results_json(o, "", cliff));
    return 0;
  }
  if (!o.workload.empty()) return run_one(o);
  return run_all(o);
}
