// Shared pieces of the vsd_e2e benchmark: the corpus and its
// expected-verdict oracle, run options, the per-workload report, sample
// statistics, process accounting, and the span self-time split.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spec/check.hpp"

namespace e2e {

// --- Run options ---------------------------------------------------------------

struct Options {
  std::string workload;   // "" = the full set, each workload in a child
  uint64_t seed = 1;
  double seconds = 20.0;  // measured time per workload
  bool trace = false;     // per-layer run (obs spans/counters on)
  std::string out;        // results JSON ("" = none)
  std::string data_dir;   // holds corpus/ and expected.txt
  std::string work_dir;   // scratch: serve sockets and caches, Chrome traces
  bool cliff = false;     // depth-cliff diagnostic instead of workloads
};

// --- Corpus and expected verdicts ----------------------------------------------

struct SpecCase {
  std::string name;      // path relative to the data dir, or "deep-<n>"
  std::string text;      // vspec source
  std::string expected;  // one 'P' (PASS) or 'F' (FAIL) per assertion
};

// Reads expected.txt and loads every corpus spec it names, in file order.
// Throws std::runtime_error on a missing file or a malformed line.
std::vector<SpecCase> load_corpus(const std::string& data_dir);

// Expected verdict string of the generated deep chain (the "deep" line).
std::string deep_expected(const std::string& data_dir);

// The deep chain at `depth`: the tab8 stage mix at packet_len 46.
std::string deep_spec(size_t depth);

// The §1 router spec with one extra IPLookup route 10.a.b.0/24 -> port 1.
std::string router_edit_spec(const std::string& router_text, unsigned a,
                             unsigned b);

// One verdict character per outcome: 'P' passed; 'F' violated with a
// confirming replay; 'U' unknown; 'X' violated but the replay did not
// confirm. Compared against SpecCase::expected.
std::string verdict_codes(const vsd::spec::CheckReport& rep);

// Fisher-Yates permutation of [0, n) drawn from `seed`.
std::vector<size_t> seeded_order(size_t n, uint64_t seed);

// --- Report ----------------------------------------------------------------------

// What one workload run produced. `metrics` holds the reported metrics of
// the run's mode (end-to-end when untraced, per-layer when traced);
// `samples` keeps the raw distributions behind timed metrics; `info`
// records detail-only values (workload-specific metrics such as
// pkts_per_s, absolute layer times, deterministic counters).
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> metrics;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> info;

  void fail(const std::string& why) {
    correct = false;
    if (errors.size() < 20) errors.push_back(why);
  }
};

Report run_corpus(const Options& o);
Report run_deep(const Options& o, size_t jobs);
Report run_serve(const Options& o);
Report run_replay(const Options& o);
// Depth-cliff diagnostic; returns a JSON array (one object per depth).
std::string run_cliff(const Options& o);

// --- Statistics ------------------------------------------------------------------

double median(std::vector<double> v);
// Quartiles by the "exclusive" method (Python's statistics.quantiles).
void quartiles(std::vector<double> v, double* q1, double* q3);
double geomean(const std::vector<double>& v);
// The highest of p50/p75/p90/p95/p99/p99.9 with at least ten samples
// beyond it; false when there are fewer than twenty samples.
bool tail(std::vector<double> v, double* pct, double* value);

// --- Time and process accounting -------------------------------------------------

using Clock = std::chrono::steady_clock;
inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
// User + system CPU seconds of this process so far.
double self_cpu_s();
// Peak resident set of this process so far, in MB.
double self_maxrss_mb();
size_t nproc();

// --- Per-layer split from obs spans ----------------------------------------------

// Self time (microseconds) per layer from a snapshot of recorded spans: a
// span's duration minus the part covered by its child spans on the same
// lane. Keys: summarize, stitch, solve, refine, enumerate, walk (the
// property phases: crash freedom, bounds, reach/never), check (the spec layer's per-assertion envelope: cache
// lookup, vacuity check, replay), task (parallel work-queue tasks, total
// duration rather than self time), tasks (count).
std::map<std::string, double> layer_self_us();

// Copies every obs counter into `out` under "obs." + name.
void add_obs_counters(std::map<std::string, double>* out);

// Where a traced run writes the Chrome trace of `name` (a spec, or the
// serve edit) from its first traced pass:
// <work>/traces/<workload>/<name>.trace.json, directories created on demand.
std::string chrome_trace_path(const Options& o, const std::string& name);

// --- Output ------------------------------------------------------------------------

// JSON number with all significant digits.
std::string num(double v);
std::string quote(const std::string& s);

}  // namespace e2e
