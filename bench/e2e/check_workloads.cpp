// The check workloads: `corpus`, `deep`, `deep_par`, and the depth-cliff
// diagnostic. A pass checks every spec once, each in a fresh fork()ed child
// that parses and checks it, as one `vsd check <spec>` invocation would,
// and reports back over a pipe; the parent reaps it with wait4() for its
// CPU time and peak RSS. Separate processes keep one spec's interned
// expressions and heap from speeding up or slowing down the next, so the
// seeded order does not change the work. All children fork from the same
// parent state, so at jobs=1 their deterministic counters must agree
// exactly from pass to pass.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "bv/expr.hpp"
#include "e2e.hpp"
#include "elements/registry.hpp"
#include "obs/trace.hpp"
#include "spec/parser.hpp"

namespace e2e {

namespace {

// One spec checked in a fresh fork()ed child, as `vsd check <spec>` runs.
struct Child {
  double wall_s = 0, cpu_s = 0, rss_mb = 0;
  double parse_s = 0, total_s = 0;  // in-child: parse, parse + check
  std::string codes;
  std::map<std::string, double> values;  // counters and traced layer times
  std::string error;
};

// One pass: every spec once, in the run's seeded order.
struct Pass {
  double wall_s = 0, cpu_s = 0, rss_mb = 0;
  double check_s = 0, parse_s = 0;  // in-child times, summed over specs
  std::vector<double> spec_s;       // per spec, in corpus order
  std::vector<std::string> codes;   // per spec, in corpus order
  std::map<std::string, double> values;  // summed over specs
  bool traced = false;
  std::string error;
};

void write_all(int fd, const std::string& s) {
  size_t off = 0;
  while (off < s.size()) {
    const ssize_t n = ::write(fd, s.data() + off, s.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    off += static_cast<size_t>(n);
  }
}

// The child's side: returns the text the parent parses.
std::string child_main(const SpecCase& spec, size_t jobs, bool traced,
                       const std::string& chrome_trace) {
  std::ostringstream out;
  out.precision(17);
  if (traced) {
    vsd::obs::reset();
    vsd::obs::enable(true);
  }
  vsd::spec::CheckOptions opts;
  opts.jobs = jobs;
  const Clock::time_point t0 = Clock::now();
  const vsd::spec::SpecFile sf = vsd::spec::parse_spec(spec.text);
  const double parse_s = since(t0);
  const vsd::spec::CheckReport rep = vsd::spec::check_spec(sf, opts);
  const double total_s = since(t0);
  out << "time " << parse_s << ' ' << total_s << ' ' << verdict_codes(rep) << '\n';
  std::map<std::string, double> v;
  for (const vsd::spec::AssertionOutcome& o : rep.outcomes) {
    const vsd::verify::VerifyStats& s = o.stats;
    v["spec.assertions"] += 1;
    v["verify.composed_paths"] += static_cast<double>(s.composed_paths_checked);
    v["verify.summaries_stat"] += static_cast<double>(s.elements_summarized);
    v["verify.suspects_found"] += static_cast<double>(s.suspects_found);
    v["verify.suspects_eliminated"] += static_cast<double>(s.suspects_eliminated);
    v["verify.refinements_stat"] += static_cast<double>(s.refinements_attempted);
    v["solver.queries_stat"] += static_cast<double>(s.solver_queries);
    v["solver.sat_solves"] += static_cast<double>(s.sat_solves);
    v["solver.conflicts"] += static_cast<double>(s.sat_conflicts);
    v["solver.decisions"] += static_cast<double>(s.sat_decisions);
    v["solver.blast_nodes"] += static_cast<double>(s.blast_nodes);
  }
  if (traced) {
    vsd::obs::enable(false);
    if (!chrome_trace.empty()) vsd::obs::write_chrome_trace(chrome_trace);
    for (const auto& [k, us] : layer_self_us()) v["layer." + k] = us;
    add_obs_counters(&v);
    v["obs.dropped_events"] = static_cast<double>(vsd::obs::dropped_events());
  }
  v["bv.interned_nodes"] = static_cast<double>(vsd::bv::interned_node_count());
  for (const auto& [k, x] : v) out << "val " << k << ' ' << x << '\n';
  return out.str();
}

Child run_child(const SpecCase& spec, size_t jobs, bool traced,
                const std::string& chrome_trace) {
  Child c;
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe() failed");
  std::fflush(nullptr);
  const Clock::time_point t0 = Clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork() failed");
  if (pid == 0) {
    ::close(fds[0]);
    std::string text;
    try {
      text = child_main(spec, jobs, traced, chrome_trace);
    } catch (const std::exception& e) {
      text = std::string("error ") + e.what() + "\n";
    }
    write_all(fds[1], text);
    ::_exit(0);
  }
  ::close(fds[1]);
  std::string text;
  char buf[65536];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  rusage ru{};
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  c.wall_s = since(t0);
  c.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  c.rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    c.error = "child died (status " + std::to_string(status) + ")";
    return c;
  }
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "time") {
      ls >> c.parse_s >> c.total_s >> c.codes;
    } else if (kind == "val") {
      std::string k;
      double x = 0;
      ls >> k >> x;
      c.values[k] = x;
    } else if (kind == "error") {
      c.error = line.substr(6);
    }
  }
  return c;
}

Pass run_pass(const Options& o, const std::vector<SpecCase>& specs,
              const std::vector<size_t>& order, size_t jobs, bool traced,
              bool write_traces) {
  Pass p;
  p.traced = traced;
  p.spec_s.assign(specs.size(), 0.0);
  p.codes.assign(specs.size(), "");
  for (const size_t idx : order) {
    const Child c = run_child(specs[idx], jobs, traced,
                              write_traces ? chrome_trace_path(o, specs[idx].name) : "");
    if (!c.error.empty()) {
      p.error = specs[idx].name + ": " + c.error;
      return p;
    }
    p.wall_s += c.wall_s;
    p.cpu_s += c.cpu_s;
    p.rss_mb = std::max(p.rss_mb, c.rss_mb);
    p.check_s += c.total_s;
    p.parse_s += c.parse_s;
    p.spec_s[idx] = c.total_s;
    p.codes[idx] = c.codes;
    for (const auto& [k, x] : c.values) p.values[k] += x;
  }
  return p;
}

// Counters that must repeat exactly in every pass at jobs=1.
bool deterministic_key(const std::string& k) {
  return k.rfind("layer.", 0) != 0;
}

struct Setup {
  std::vector<double> setup_s, build_ms;
  double lowered_frac = 0;
};

// Set-up of a check workload: parse every spec and build its pipeline
// (including threaded-code lowering); one such round takes well under a
// millisecond on `deep`. Before every pass, after one untimed warm-up
// round, kSetupSamples samples of several rounds each (at least
// kSetupBuilds pipelines) record the time of one round. Many short samples
// spread over the run give a median that host noise moves little.
constexpr size_t kSetupSamples = 16;
constexpr size_t kSetupBuilds = 16;

void sample_setup(const std::vector<SpecCase>& specs, Setup* s) {
  const size_t rounds = (kSetupBuilds + specs.size() - 1) / specs.size();
  const auto round = [&](double* build_s) {
    size_t elements = 0, lowered = 0;
    for (const SpecCase& c : specs) {
      const vsd::spec::SpecFile sf = vsd::spec::parse_spec(c.text);
      const Clock::time_point b0 = Clock::now();
      const vsd::pipeline::Pipeline pl =
          vsd::elements::parse_pipeline(sf.pipeline_config);
      *build_s += since(b0);
      for (size_t i = 0; i < pl.size(); ++i) {
        ++elements;
        lowered += pl.element(i).compiled().lowered();
      }
    }
    s->lowered_frac = static_cast<double>(lowered) / static_cast<double>(elements);
  };
  double warm_up = 0;
  round(&warm_up);
  for (size_t k = 0; k < kSetupSamples; ++k) {
    double build_s = 0;
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < rounds; ++i) round(&build_s);
    s->setup_s.push_back(since(t0) / static_cast<double>(rounds));
    s->build_ms.push_back(build_s * 1e3 / static_cast<double>(rounds));
  }
}

double value_median(const std::vector<Pass>& passes, const std::string& key,
                    bool traced) {
  std::vector<double> xs;
  for (const Pass& p : passes) {
    if (p.traced != traced) continue;
    const auto it = p.values.find(key);
    xs.push_back(it == p.values.end() ? 0.0 : it->second);
  }
  return median(xs);
}

Report run_check_workload(const Options& o, std::vector<SpecCase> specs,
                          size_t jobs) {
  Report r;
  const std::vector<size_t> order = seeded_order(specs.size(), o.seed);
  Setup setup;

  std::vector<Pass> passes;
  const size_t min_passes = o.trace ? 4 : 3;
  const Clock::time_point start = Clock::now();
  while (passes.size() < min_passes || since(start) < o.seconds) {
    sample_setup(specs, &setup);
    const bool traced = o.trace && passes.size() % 2 == 0;
    passes.push_back(run_pass(o, specs, order, jobs, traced, passes.empty() && traced));
    const Pass& p = passes.back();
    if (!p.error.empty()) {
      r.fail(p.error);
      r.failed += 1;
      r.attempted += 1;
      break;
    }
    for (size_t i = 0; i < specs.size(); ++i) {
      const std::string& want = specs[i].expected;
      const std::string& got = p.codes[i];
      r.attempted += want.size();
      size_t bad = got.size() == want.size() ? 0 : want.size();
      for (size_t a = 0; a < want.size() && got.size() == want.size(); ++a) {
        bad += got[a] != want[a];
      }
      if (bad != 0) {
        r.failed += bad;
        r.fail(specs[i].name + ": verdicts " + got + ", expected " + want);
      }
    }
    // Determinism self-check against the first pass of the same kind.
    for (const Pass& first : passes) {
      if (first.traced != p.traced) continue;
      if (&first == &p) break;
      for (const auto& [k, x] : first.values) {
        if (!deterministic_key(k)) continue;
        if (jobs > 1 && k != "verify.composed_paths") continue;
        const auto it = p.values.find(k);
        if (it == p.values.end() || it->second != x) {
          r.fail("determinism: " + k + " drifted from " + num(x) + " to " +
                 num(it == p.values.end() ? -1.0 : it->second));
        }
      }
      break;
    }
    if (p.traced && p.values.count("obs.dropped_events") &&
        p.values.at("obs.dropped_events") != 0) {
      r.fail("obs dropped span events; per-layer split incomplete");
    }
  }
  if (!passes.back().error.empty()) return r;

  std::vector<double> wall, cpu, rss, pass_geo, traced_wall, untraced_wall;
  std::vector<std::vector<double>> per_spec(specs.size());
  for (const Pass& p : passes) {
    (p.traced ? traced_wall : untraced_wall).push_back(p.wall_s);
    if (p.traced) continue;
    wall.push_back(p.wall_s);
    cpu.push_back(p.cpu_s);
    rss.push_back(p.rss_mb);
    std::vector<double> ms;
    for (size_t i = 0; i < specs.size(); ++i) {
      per_spec[i].push_back(p.spec_s[i]);
      ms.push_back(p.spec_s[i] * 1e3);
    }
    pass_geo.push_back(geomean(ms));
  }
  std::vector<double> spec_median_ms;
  for (const auto& xs : per_spec) spec_median_ms.push_back(median(xs) * 1e3);

  r.samples["setup_s"] = setup.setup_s;
  r.samples["wall_s"] = wall;
  r.samples["cpu_s"] = cpu;
  r.samples["peak_rss_mb"] = rss;
  r.samples["latency_ms"] = pass_geo;
  r.samples["pipeline.build_ms"] = setup.build_ms;

  r.info["passes"] = static_cast<double>(passes.size());
  r.info["jobs"] = static_cast<double>(jobs);
  r.info["check_s"] = median(wall);
  if (specs.size() > 1) r.info["spec_geomean_ms"] = geomean(spec_median_ms);
  for (size_t i = 0; i < specs.size(); ++i) {
    r.info["spec_ms." + specs[i].name] = spec_median_ms[i];
  }
  for (const auto& [k, x] : passes.front().values) {
    if (deterministic_key(k)) r.info["counter." + k] = x;
  }

  if (!o.trace) {
    r.metrics["setup_s"] = median(setup.setup_s);
    r.metrics["wall_s"] = median(wall);
    r.metrics["latency_ms"] = geomean(spec_median_ms);
    r.metrics["cpu_s"] = median(cpu);
    r.metrics["peak_rss_mb"] = median(rss);
    return r;
  }

  // Per-layer split from the traced passes. Self-time shares are of the
  // pass's in-child check time times the worker count, so at jobs=1 they
  // are shares of wall time.
  const auto tv = [&](const std::string& k) { return value_median(passes, k, true); };
  std::vector<double> check_s, parse_s;
  for (const Pass& p : passes) {
    if (!p.traced) continue;
    check_s.push_back(p.check_s);
    parse_s.push_back(p.parse_s);
  }
  const double capacity_us = median(check_s) * 1e6 * static_cast<double>(jobs);
  const auto share = [&](const char* layer) {
    const double us = tv(std::string("layer.") + layer);
    r.info[std::string("layer_ms.") + layer] = us / 1e3;
    return capacity_us > 0 ? us / capacity_us : 0.0;
  };
  auto& m = r.metrics;
  m["spec.parse_frac"] = median(parse_s) / median(check_s);
  m["spec.check_self_frac"] = share("check");
  m["spec.assertions"] = tv("spec.assertions");
  m["pipeline.build_ms"] = median(setup.build_ms);
  m["backend.lowered_frac"] = setup.lowered_frac;
  m["verify.summarize_self_frac"] = share("summarize");
  m["verify.summaries"] = tv("obs.verify.elements_summarized");
  m["verify.summary_hits"] = tv("obs.verify.summary_cache_hits");
  m["verify.walk_self_frac"] = share("walk");
  m["verify.composed_paths"] = tv("verify.composed_paths");
  m["verify.stitch_self_frac"] = share("stitch");
  m["verify.suspects_decided"] = tv("obs.verify.suspects_decided");
  const double found = tv("verify.suspects_found");
  m["verify.suspect_elim_ratio"] = found > 0 ? tv("verify.suspects_eliminated") / found : 0.0;
  m["verify.refine_self_frac"] = share("refine");
  m["verify.refinements"] = tv("obs.verify.refinements_attempted");
  m["verify.enumerate_self_frac"] = share("enumerate");
  m["verify.state_keys"] = tv("obs.verify.state_keys_found");
  m["parallel.tasks"] = tv("layer.tasks");
  m["parallel.busy_frac"] = capacity_us > 0 ? tv("layer.task") / capacity_us : 0.0;
  m["solver.self_frac"] = share("solve");
  const double queries = tv("obs.solver.queries");
  m["solver.queries"] = queries;
  m["solver.sat_solves"] = tv("solver.sat_solves");
  m["solver.core_frac"] = queries > 0 ? tv("solver.sat_solves") / queries : 0.0;
  m["solver.conflicts"] = tv("solver.conflicts");
  m["solver.decisions"] = tv("solver.decisions");
  m["solver.blast_nodes"] = tv("solver.blast_nodes");
  for (const char* rung : {"cheap", "cache", "rewrite", "exhaustion",
                           "core_grouping", "cex_cache", "slicing",
                           "incremental", "cdcl"}) {
    m[std::string("solver.rung.") + rung] = tv(std::string("obs.solver.rung.") + rung);
  }
  m["bv.interned_nodes"] = tv("bv.interned_nodes");
  m["obs.overhead_frac"] = median(traced_wall) / median(untraced_wall) - 1.0;
  m["obs.dropped_events"] = tv("obs.dropped_events");
  return r;
}

}  // namespace

Report run_corpus(const Options& o) {
  return run_check_workload(o, load_corpus(o.data_dir), 1);
}

Report run_deep(const Options& o, size_t jobs) {
  std::vector<SpecCase> specs = {
      {"deep-12", deep_spec(12), deep_expected(o.data_dir)}};
  return run_check_workload(o, std::move(specs), jobs);
}

std::string run_cliff(const Options& o) {
  const std::string expected = deep_expected(o.data_dir);
  std::string json = "[";
  std::printf("%-6s %10s %15s %12s  %s\n", "depth", "check_s", "composed_paths",
              "peak_rss_mb", "verdicts");
  for (const size_t depth : {8, 10, 12, 13, 14}) {
    const std::vector<SpecCase> specs = {
        {"deep-" + std::to_string(depth), deep_spec(depth), expected}};
    const Pass p = run_pass(o, specs, {0}, 1, false, false);
    const double paths = p.values.count("verify.composed_paths")
                             ? p.values.at("verify.composed_paths")
                             : 0.0;
    std::printf("%-6zu %10.3f %15.0f %12.1f  %s%s\n", depth, p.wall_s, paths,
                p.rss_mb, p.codes[0].c_str(), p.error.c_str());
    if (json.size() > 1) json += ",";
    json += "{\"depth\":" + std::to_string(depth) + ",\"check_s\":" +
            num(p.wall_s) + ",\"composed_paths\":" + num(paths) +
            ",\"peak_rss_mb\":" + num(p.rss_mb) + ",\"verdicts\":" +
            quote(p.codes[0]) + "}";
  }
  return json + "]";
}

}  // namespace e2e
