// The `serve` workload: an in-process vsd daemon on an AF_UNIX socket with
// an on-disk verdict cache, filled once with the corpus, then driven by two
// concurrent streams until the editor has made its edits (or the run's time
// is up):
//   reader  open loop, 200 req/s on one connection; resubmits seeded corpus
//           specs (assertion-level cache hits). Latency is timed from each
//           request's due time, so a stall also counts against the requests
//           queued behind it.
//   editor  closed loop of kEdits requests on a second connection; each is
//           the §1 router spec with one never-seen /24 route added to
//           IPLookup, so every assertion misses while path-local decisions
//           are reused.
// A traced run then makes kTracedEdits more edits alone, every other one
// traced, so that the recorded spans belong to the edit and nothing else.
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "bv/expr.hpp"
#include "e2e.hpp"
#include "elements/registry.hpp"
#include "net/workload.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "spec/parser.hpp"

namespace e2e {

namespace {

namespace fs = std::filesystem;

constexpr double kReaderRate = 200.0;  // requests per second
constexpr size_t kEdits = 120;         // edits beside the reader
constexpr size_t kTracedEdits = 40;    // traced run: edits after the reader stops
constexpr size_t kSetups = 5;          // set-up samples per run

// One persistent client connection speaking the daemon's line protocol.
class Conn {
 public:
  explicit Conn(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("socket path too long: " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                             sizeof addr) != 0) {
      const std::string why = std::strerror(errno);
      if (fd_ >= 0) ::close(fd_);
      throw std::runtime_error("connect " + path + ": " + why);
    }
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void send(const std::string& line) {
    size_t off = 0;
    while (off < line.size()) {
      const ssize_t n =
          ::send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("send failed");
      off += static_cast<size_t>(n);
    }
  }

  std::string recv_line() {
    for (;;) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("daemon closed the connection");
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

// The parts of a response the benchmark checks or counts.
struct Response {
  bool ok = false;
  std::string codes;  // verdict_codes() alphabet
  uint64_t hits = 0, misses = 0;
  std::map<std::string, double> stats;  // summed over assertions
};

uint64_t number_after(const std::string& s, size_t pos) {
  uint64_t v = 0;
  while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') {
    v = v * 10 + static_cast<uint64_t>(s[pos++] - '0');
  }
  return v;
}

Response parse_response(const std::string& s) {
  Response r;
  r.ok = s.rfind("{\"ok\":true", 0) == 0;
  const std::string kAssert = "{\"assert\":";
  for (size_t at = s.find(kAssert); at != std::string::npos;) {
    const size_t next = s.find(kAssert, at + 1);
    const std::string one = s.substr(at, next == std::string::npos ? next : next - at);
    if (one.find("\"passed\":true") != std::string::npos) r.codes += 'P';
    else if (one.find("\"verdict\":\"unknown\"") != std::string::npos) r.codes += 'U';
    else if (one.find("\"verdict\":\"violated\"") != std::string::npos &&
             one.find("\"replays_confirm\":true") != std::string::npos)
      r.codes += 'F';
    else r.codes += 'X';
    at = next;
  }
  const auto top = [&](const std::string& key) {
    const size_t pos = s.rfind("\"" + key + "\":");
    return pos == std::string::npos ? 0 : number_after(s, pos + key.size() + 3);
  };
  r.hits = top("cache_hits");
  r.misses = top("cache_misses");
  for (const char* key : {"composed_paths_checked", "elements_summarized",
                          "summary_cache_hits", "suspects_found",
                          "suspects_eliminated", "refinements_attempted",
                          "sat_solves", "sat_conflicts", "sat_decisions",
                          "blast_nodes", "decision_cache_hits",
                          "refine_cache_hits"}) {
    const std::string needle = std::string("\"") + key + "\":";
    double sum = 0;
    for (size_t pos = s.find(needle); pos != std::string::npos;
         pos = s.find(needle, pos + 1)) {
      sum += static_cast<double>(number_after(s, pos + needle.size()));
    }
    r.stats[key] = sum;
  }
  return r;
}

std::string socket_path(const fs::path& p) {
  // AF_UNIX paths are capped near 108 bytes; a relative path keeps deep
  // checkouts working.
  const std::string rel = fs::relative(p).string();
  return rel.size() < p.string().size() ? rel : p.string();
}

// Starts a daemon on `dir` and submits every corpus spec once. Returns the
// wall time of the whole set-up; the running daemon goes to *out.
double start_and_fill(const fs::path& dir, const std::vector<SpecCase>& corpus,
                      const std::vector<size_t>& order,
                      std::unique_ptr<vsd::serve::Server>* out, Report* r) {
  const Clock::time_point t0 = Clock::now();
  vsd::serve::ServeOptions so;
  so.socket_path = socket_path(dir / "daemon.sock");
  so.cache_dir = (dir / "cache").string();
  so.jobs = 1;
  std::string err;
  if (!vsd::cache::Store::validate_dir(so.cache_dir, &err)) {
    throw std::runtime_error("cache dir: " + err);
  }
  auto server = std::make_unique<vsd::serve::Server>(so);
  if (!server->start(&err)) throw std::runtime_error("serve: " + err);
  Conn conn(so.socket_path);
  for (const size_t idx : order) {
    conn.send(vsd::serve::make_request("fill", corpus[idx].text, SIZE_MAX));
    const Response resp = parse_response(conn.recv_line());
    ++r->attempted;
    if (!resp.ok || resp.codes != corpus[idx].expected) {
      ++r->failed;
      r->fail("fill " + corpus[idx].name + ": verdicts " + resp.codes +
              ", expected " + corpus[idx].expected);
    }
  }
  const double dt = since(t0);
  *out = std::move(server);
  return dt;
}

// Set-up samples from fresh processes: the bv interner is process-global,
// so a second fill in one process would start warm.
double forked_setup(const fs::path& dir, const std::vector<SpecCase>& corpus,
                    const std::vector<size_t>& order) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe() failed");
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork() failed");
  if (pid == 0) {
    ::close(fds[0]);
    double dt = -1;
    try {
      // Verdicts are checked by the in-process fill, which runs the same
      // requests; here only the time counts.
      Report unchecked;
      std::unique_ptr<vsd::serve::Server> server;
      dt = start_and_fill(dir, corpus, order, &server, &unchecked);
      server->stop();
    } catch (const std::exception&) {
      dt = -1;
    }
    const ssize_t n = ::write(fds[1], &dt, sizeof dt);
    ::_exit(n == static_cast<ssize_t>(sizeof dt) ? 0 : 1);
  }
  ::close(fds[1]);
  double dt = -1;
  const ssize_t n = ::read(fds[0], &dt, sizeof dt);
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (n != static_cast<ssize_t>(sizeof dt) || dt < 0) {
    throw std::runtime_error("set-up child failed");
  }
  return dt;
}

// Writes back the file system's dirty data. The cache directories hold
// thousands of small files; flushing them before the measured window and
// after the run keeps one run's writeback out of the next one's timings.
void flush_fs(const fs::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

void disk_usage(const fs::path& dir, double* entries, double* bytes) {
  *entries = *bytes = 0;
  for (const auto& f : fs::recursive_directory_iterator(dir)) {
    if (!f.is_regular_file() || f.path().extension() != ".vc") continue;
    *entries += 1;
    *bytes += static_cast<double>(f.file_size());
  }
}

// Removes the run's scratch directory on every way out of run_serve.
struct RemoveOnExit {
  fs::path dir;
  ~RemoveOnExit() {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
};

struct Edit {
  double latency_s = 0;
  Response resp;
  bool traced = false;
  std::map<std::string, double> layers;  // traced: self us + obs counters
};

}  // namespace

Report run_serve(const Options& o) {
  Report r;
  const std::vector<SpecCase> corpus = load_corpus(o.data_dir);
  const auto router = std::find_if(corpus.begin(), corpus.end(), [](const SpecCase& c) {
    return c.name.ends_with("/ip_router.vspec");
  });
  if (router == corpus.end()) throw std::runtime_error("corpus has no ip_router.vspec");
  const std::vector<size_t> order = seeded_order(corpus.size(), o.seed);
  const fs::path work = fs::path(o.work_dir) / ("serve-" + std::to_string(::getpid()));
  fs::remove_all(work);
  fs::create_directories(work);
  const RemoveOnExit cleanup{work};
  flush_fs(work);

  std::vector<double> setup_s;
  for (size_t i = 0; i + 1 < kSetups; ++i) {
    setup_s.push_back(forked_setup(work / ("setup" + std::to_string(i)), corpus, order));
  }
  std::unique_ptr<vsd::serve::Server> server;
  setup_s.push_back(start_and_fill(work / "daemon", corpus, order, &server, &r));
  const std::string sock = server->options().socket_path;

  // Outside timers on the layers a request crosses before verification.
  std::vector<double> parse_ms, build_ms;
  for (const SpecCase& c : corpus) {
    const Clock::time_point t0 = Clock::now();
    (void)vsd::spec::parse_spec(c.text);
    parse_ms.push_back(since(t0) * 1e3);
  }
  const std::string router_config = vsd::spec::parse_spec(router->text).pipeline_config;
  size_t lowered = 0, elements = 0;
  for (size_t i = 0; i < 21; ++i) {
    const Clock::time_point t0 = Clock::now();
    const vsd::pipeline::Pipeline pl = vsd::elements::parse_pipeline(router_config);
    build_ms.push_back(since(t0) * 1e3);
    if (i == 0) {
      elements = pl.size();
      for (size_t e = 0; e < pl.size(); ++e) lowered += pl.element(e).compiled().lowered();
    }
  }

  flush_fs(work);
  const double rss_setup = self_maxrss_mb();
  const auto c0 = server->cache().counters();
  Conn reader(sock), editor(sock);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(o.seconds));

  // Reader bookkeeping, sized before any thread starts: request i is due
  // at start + i / rate and asks for corpus spec which[i].
  const size_t max_reads = static_cast<size_t>(o.seconds * kReaderRate) + 1;
  std::vector<Clock::time_point> due(max_reads);
  std::vector<size_t> which(max_reads);
  std::vector<double> hit_ms, late_ms;

  // --- editor: closed loop -------------------------------------------------------
  vsd::net::Rng edit_rng(o.seed ^ 0xed17ed17ull);
  std::set<unsigned> seen;
  bool wrote_trace = false;
  // Submits the router with one never-seen route and waits for the answer.
  const auto edit = [&](bool traced) {
    unsigned a = 0, b = 0;
    do {
      a = static_cast<unsigned>(edit_rng.next_below(256));
      b = static_cast<unsigned>(edit_rng.next_below(256));
      // 10.1.2.0/24 would reroute the spec's own 10.1.2.3 traffic.
    } while ((a == 1 && b == 2) || !seen.insert(a * 256 + b).second);
    const std::string line = vsd::serve::make_request(
        "edit", router_edit_spec(router->text, a, b), SIZE_MAX);
    Edit e;
    e.traced = traced;
    if (traced) {
      vsd::obs::reset();
      vsd::obs::enable(true);
    }
    const Clock::time_point t0 = Clock::now();
    editor.send(line);
    const std::string resp = editor.recv_line();
    e.latency_s = since(t0);
    if (traced) {
      vsd::obs::enable(false);
      if (!wrote_trace) vsd::obs::write_chrome_trace(chrome_trace_path(o, "edit"));
      wrote_trace = true;
      for (const auto& [k, us] : layer_self_us()) e.layers["layer." + k] = us;
      add_obs_counters(&e.layers);
      e.layers["obs.dropped_events"] = static_cast<double>(vsd::obs::dropped_events());
    }
    e.resp = parse_response(resp);
    return e;
  };
  std::vector<Edit> edits;
  double edit_cpu_s = 0;
  std::atomic<bool> editor_done{false};
  std::string editor_error;
  std::jthread editor_thread([&] {
    try {
      const double cpu0 = self_cpu_s();
      while (edits.size() < kEdits && Clock::now() < deadline) {
        edits.push_back(edit(false));
      }
      edit_cpu_s = edits.empty() ? 0.0 : (self_cpu_s() - cpu0) / edits.size();
    } catch (const std::exception& ex) {
      editor_error = ex.what();
    }
    editor_done.store(true);
  });

  // --- reader: open loop until the editor finishes --------------------------------
  // One sender and one receiver share one connection.
  std::atomic<size_t> sent{0};
  std::atomic<bool> sender_done{false};
  std::mutex mu;
  std::condition_variable cv;
  std::string sender_error, reader_error;
  std::jthread sender([&] {
    try {
      vsd::net::Rng rng(o.seed ^ 0x5eade5ull);
      for (size_t i = 0; i < max_reads; ++i) {
        due[i] = start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(i / kReaderRate));
        if (due[i] >= deadline) break;
        which[i] = rng.next_below(corpus.size());
        std::this_thread::sleep_until(due[i]);
        if (editor_done.load()) break;
        late_ms.push_back(since(due[i]) * 1e3);
        reader.send(vsd::serve::make_request("read", corpus[which[i]].text, SIZE_MAX));
        {
          std::lock_guard<std::mutex> lock(mu);
          sent.store(i + 1);
        }
        cv.notify_one();
      }
    } catch (const std::exception& ex) {
      sender_error = ex.what();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      sender_done.store(true);
    }
    cv.notify_one();
  });
  std::vector<Response> reads;
  for (size_t k = 0;; ++k) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return sent.load() > k || sender_done.load(); });
      if (sent.load() <= k) break;
    }
    try {
      const std::string line = reader.recv_line();
      hit_ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - due[k]).count());
      reads.push_back(parse_response(line));
    } catch (const std::exception& ex) {
      reader_error = ex.what();
      break;
    }
  }
  sender.join();
  editor_thread.join();
  // The state after the read + edit mix, before any traced edit.
  const size_t mixed_edits = edits.size();
  const double rss_mixed = self_maxrss_mb();
  const double interned = static_cast<double>(vsd::bv::interned_node_count());
  const auto c1 = server->cache().counters();
  const vsd::serve::ServeStats stats = server->stats();
  double disk_entries = 0, disk_bytes = 0;
  disk_usage(work / "daemon" / "cache", &disk_entries, &disk_bytes);

  // --- traced run: more edits with the reader stopped, so the recorded
  // spans are the edit's alone; every other one is traced -------------------------
  if (o.trace && editor_error.empty()) {
    try {
      for (size_t i = 0; i < kTracedEdits; ++i) edits.push_back(edit(i % 2 == 0));
    } catch (const std::exception& ex) {
      editor_error = ex.what();
    }
  }

  // --- checks ----------------------------------------------------------------------
  if (!editor_error.empty()) r.fail("editor: " + editor_error);
  if (!sender_error.empty()) r.fail("reader: " + sender_error);
  if (!reader_error.empty()) r.fail("reader: " + reader_error);
  for (size_t k = 0; k < reads.size(); ++k) {
    const SpecCase& c = corpus[which[k]];
    ++r.attempted;
    if (!reads[k].ok || reads[k].codes != c.expected) {
      ++r.failed;
      r.fail("read " + c.name + ": verdicts " + reads[k].codes + ", expected " + c.expected);
    } else if (reads[k].hits != c.expected.size() || reads[k].misses != 0) {
      r.fail("determinism: read of " + c.name + " was not all assertion hits");
    }
  }
  std::vector<double> edit_s, traced_s, untraced_s;
  for (size_t k = 0; k < edits.size(); ++k) {
    const Edit& e = edits[k];
    ++r.attempted;
    if (!e.resp.ok || e.resp.codes != router->expected) {
      ++r.failed;
      r.fail("edit: verdicts " + e.resp.codes + ", expected " + router->expected);
    } else if (e.resp.hits != 0 || e.resp.misses != router->expected.size()) {
      r.fail("determinism: an edit hit the assertion cache");
    }
    if (k < mixed_edits) edit_s.push_back(e.latency_s);
    else (e.traced ? traced_s : untraced_s).push_back(e.latency_s);
  }
  if (edit_s.empty() || hit_ms.empty()) r.fail("serve: no edits or reads completed");

  server->stop();
  server.reset();
  fs::remove_all(work);
  flush_fs(o.work_dir);

  const double hit_p50 = median(hit_ms), edit_p50 = median(edit_s);
  double pct = 0, hit_tail = 0, edit_tail = 0;
  r.samples["setup_s"] = setup_s;
  r.samples["wall_s"] = edit_s;
  r.samples["latency_ms"] = hit_ms;
  r.info["edits"] = static_cast<double>(edits.size());
  r.info["reads"] = static_cast<double>(reads.size());
  r.info["hit_p50_ms"] = hit_p50;
  r.info["edit_p50_ms"] = edit_p50 * 1e3;
  if (tail(hit_ms, &pct, &hit_tail)) {
    r.info["hit_tail_pct"] = pct;
    r.info["hit_tail_ms"] = hit_tail;
  }
  std::vector<double> edit_ms;
  for (const double s : edit_s) edit_ms.push_back(s * 1e3);
  if (tail(edit_ms, &pct, &edit_tail)) {
    r.info["edit_tail_pct"] = pct;
    r.info["edit_tail_ms"] = edit_tail;
  }
  r.info["reader_lateness_p50_ms"] = median(late_ms);

  if (!o.trace) {
    r.metrics["setup_s"] = median(setup_s);
    r.metrics["wall_s"] = edit_p50;
    r.metrics["latency_ms"] = hit_p50;
    r.metrics["cpu_s"] = edit_cpu_s;
    r.metrics["peak_rss_mb"] = rss_mixed;
    return r;
  }

  // Per-layer split: the traced edits only, as shares of each edit's
  // latency; counts per edit from the response statistics.
  const auto per_edit = [&](const auto& get) {
    std::vector<double> xs;
    for (const Edit& e : edits) {
      if (e.traced) xs.push_back(get(e));
    }
    return median(xs);
  };
  const auto layer_share = [&](const char* layer) {
    const std::string k = std::string("layer.") + layer;
    r.info[std::string("layer_ms.") + layer] =
        per_edit([&](const Edit& e) { return e.layers.count(k) ? e.layers.at(k) : 0.0; }) / 1e3;
    return per_edit([&](const Edit& e) {
      return (e.layers.count(k) ? e.layers.at(k) : 0.0) / (e.latency_s * 1e6);
    });
  };
  const auto stat = [&](const char* key) {
    return per_edit([&](const Edit& e) { return e.resp.stats.at(key); });
  };
  const auto counter = [&](const std::string& key) {
    return per_edit([&](const Edit& e) {
      return e.layers.count("obs." + key) ? e.layers.at("obs." + key) : 0.0;
    });
  };
  auto& m = r.metrics;
  m["spec.parse_frac"] = median(parse_ms) / hit_p50;
  m["spec.check_self_frac"] = layer_share("check");
  m["spec.assertions"] = static_cast<double>(router->expected.size());
  m["pipeline.build_ms"] = median(build_ms);
  m["backend.lowered_frac"] = static_cast<double>(lowered) / static_cast<double>(elements);
  m["verify.summarize_self_frac"] = layer_share("summarize");
  m["verify.summaries"] = counter("verify.elements_summarized");
  m["verify.summary_hits"] = counter("verify.summary_cache_hits");
  m["verify.walk_self_frac"] = layer_share("walk");
  m["verify.composed_paths"] = stat("composed_paths_checked");
  m["verify.stitch_self_frac"] = layer_share("stitch");
  m["verify.suspects_decided"] = counter("verify.suspects_decided");
  const double found = stat("suspects_found");
  m["verify.suspect_elim_ratio"] = found > 0 ? stat("suspects_eliminated") / found : 0.0;
  m["verify.refine_self_frac"] = layer_share("refine");
  m["verify.refinements"] = counter("verify.refinements_attempted");
  m["verify.enumerate_self_frac"] = layer_share("enumerate");
  m["verify.state_keys"] = counter("verify.state_keys_found");
  m["solver.self_frac"] = layer_share("solve");
  const double queries = counter("solver.queries");
  m["solver.queries"] = queries;
  m["solver.sat_solves"] = stat("sat_solves");
  m["solver.core_frac"] = queries > 0 ? stat("sat_solves") / queries : 0.0;
  m["solver.conflicts"] = stat("sat_conflicts");
  m["solver.decisions"] = stat("sat_decisions");
  m["solver.blast_nodes"] = stat("blast_nodes");
  for (const char* rung : {"cheap", "cache", "rewrite", "exhaustion",
                           "core_grouping", "cex_cache", "slicing",
                           "incremental", "cdcl"}) {
    m[std::string("solver.rung.") + rung] = counter(std::string("solver.rung.") + rung);
  }
  m["bv.interned_nodes"] = interned;
  const double a_hits = static_cast<double>(c1.assertion_hits - c0.assertion_hits);
  const double a_miss = static_cast<double>(c1.assertion_misses - c0.assertion_misses);
  m["cache.assertion_hit_ratio"] = a_hits + a_miss > 0 ? a_hits / (a_hits + a_miss) : 0.0;
  m["cache.decision_hits"] = stat("decision_cache_hits");
  m["cache.refine_hits"] = stat("refine_cache_hits");
  m["cache.disk_entries"] = disk_entries;
  m["cache.disk_bytes"] = disk_bytes;
  m["serve.requests"] = static_cast<double>(stats.requests);
  m["serve.errors"] = static_cast<double>(stats.errors);
  m["serve.hit_tail_ratio"] = hit_tail / hit_p50;
  m["serve.edit_tail_ratio"] = edit_tail / (edit_p50 * 1e3);
  double late = 0;
  for (const double x : late_ms) late += x > 1.0;
  m["serve.reader_late_frac"] = late_ms.empty() ? 0.0 : late / static_cast<double>(late_ms.size());
  m["serve.rss_growth_mb"] = rss_mixed - rss_setup;
  m["obs.overhead_frac"] = median(traced_s) / median(untraced_s) - 1.0;
  double dropped = 0;
  for (const Edit& e : edits) {
    if (e.traced) dropped += e.layers.at("obs.dropped_events");
  }
  m["obs.dropped_events"] = dropped;
  if (dropped != 0) r.fail("obs dropped span events; per-layer split incomplete");
  return r;
}

}  // namespace e2e
