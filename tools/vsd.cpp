// vsd — the command-line verification tool the paper envisions (§1: "an
// automated verification tool that takes as input ... a software pipeline
// and proves that the pipeline does (or does not) satisfy a target
// property").
//
// verify, reach, state and profile each write the spec their flags
// describe and check it as `vsd check` does: one front door (parse_spec,
// then check_spec), one printer, one exit-code rule. usage() lists every
// command.
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cache/store.hpp"
#include "cache/verdict_cache.hpp"
#include "elements/registry.hpp"
#include "ir/asm.hpp"
#include "ir/ir.hpp"
#include "net/headers.hpp"
#include "net/workload.hpp"
#include "obs/trace.hpp"
#include "pipeline/pipeline.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "spec/check.hpp"
#include "spec/parser.hpp"
#include "spec/report_json.hpp"
#include "testing/fuzz.hpp"
#include "testing/packs.hpp"
#include "verify/certify.hpp"
#include "verify/decomposed.hpp"
#include "verify/monolithic.hpp"

using namespace vsd;

namespace {

// A malformed command line: main() prints the message plus the usage text
// and exits 2, distinct from exit 1 (property failed) and runtime errors.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;
  bool flag(const std::string& name) const { return options.count(name) != 0; }
  std::string get(const std::string& name, const std::string& def) const {
    const auto it = options.find(name);
    return it == options.end() ? def : it->second;
  }
  // Strict numeric flag parse: digits only, no sign, no trailing garbage.
  // std::stoull would silently accept "8x" (-> 8) and "-1" (-> wraparound
  // to 2^64-1) — both turned typos into absurd-but-running configurations.
  uint64_t get_u64(const std::string& name, uint64_t def) const {
    const auto it = options.find(name);
    if (it == options.end()) return def;
    const std::string& v = it->second;
    if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
      throw UsageError("--" + name + " expects a non-negative integer, got '" +
                       v + "'");
    }
    errno = 0;
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(v.c_str(), &end, 10);
    if (errno == ERANGE || end != v.c_str() + v.size()) {
      throw UsageError("--" + name + " value out of range: '" + v + "'");
    }
    return parsed;
  }
  // A path-valued flag: "" when absent, a usage error when given empty.
  std::string get_path(const std::string& name, const char* what) const {
    const std::string v = get(name, "");
    if (flag(name) && v.empty()) {
      throw UsageError("--" + name + " expects " + what);
    }
    return v;
  }
};

Args parse_args(int argc, char** argv) {
  // Boolean flags never consume the next token — otherwise
  // `vsd check --stats file.vspec` would swallow the file as the flag's
  // value and silently check nothing.
  static const char* kBoolFlags[] = {"stats",          "one-shot",
                                     "print",          "no-cross-check",
                                     "no-artifacts",   "no-compiled"};
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string s = argv[i];
    if (s.rfind("--", 0) == 0) {
      const std::string key = s.substr(2);
      const bool is_bool =
          std::find_if(std::begin(kBoolFlags), std::end(kBoolFlags),
                       [&key](const char* f) { return key == f; }) !=
          std::end(kBoolFlags);
      if (!is_bool && i + 1 < argc &&
          std::string(argv[i + 1]).rfind("--", 0) != 0) {
        a.options[key] = argv[++i];
      } else {
        a.options[key] = "";
      }
    } else {
      a.positional.push_back(s);
    }
  }
  return a;
}

// Per-command flag matrix: every option on the command line must be one the
// command actually reads (the verification subcommands additionally take the
// global --trace/--metrics sinks). An unknown flag is a usage error — it used
// to be silently ignored, which turned typos like `vsd certify --stats` into
// runs that quietly did less than asked.
void check_flags(const Args& a) {
  using Set = std::set<std::string>;
  static const std::map<std::string, Set> kMatrix = [] {
    std::map<std::string, Set> m;
    auto with = [](Set base, const Set& extra) {
      base.insert(extra.begin(), extra.end());
      return base;
    };
    const Set obs = {"trace", "metrics"};
    m["list"] = {};
    m["show"] = {};
    m["asm"] = {"print"};
    m["run"] = {"packets", "count",   "seed",       "batch",
                "pcap-like", "traffic", "no-compiled"};
    m["check"] = with(obs, {"jobs", "one-shot", "stats", "json", "cache-dir"});
    m["fuzz"] = with(obs, {"emit-packs", "check-packs", "seed", "pipelines",
                           "packets", "sequences", "sequence-len", "jobs",
                           "max-elems", "no-cross-check", "no-artifacts",
                           "out", "cache-dir", "no-compiled"});
    m["serve"] = with(obs, {"socket", "cache-dir", "jobs"});
    m["submit"] = with(obs, {"socket", "jobs"});
    m["verify"] = with(obs, {"property", "len", "jobs", "one-shot",
                             "cache-dir", "stats"});
    m["reach"] = with(obs, {"dst", "eth-offset", "len", "jobs", "one-shot",
                            "stats"});
    m["state"] = with(obs, {"bound", "element", "len", "jobs", "one-shot",
                            "stats"});
    m["certify"] = with(obs, {"candidate", "after", "len", "jobs"});
    m["baseline"] = with(obs, {"len", "budget"});
    m["paths"] = with(obs, {"len", "jobs"});
    m["profile"] = with(obs, {"len", "jobs", "one-shot"});
    m["verify-ir"] = with(obs, {"len", "property"});
    return m;
  }();
  const auto it = kMatrix.find(a.positional[0]);
  if (it == kMatrix.end()) return;  // unknown command: usage() handles it
  for (const auto& [key, value] : a.options) {
    if (it->second.count(key) == 0) {
      throw UsageError("--" + key + " is not a flag of 'vsd " +
                       a.positional[0] + "'");
    }
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

int usage() {
  std::puts(
      "vsd — verifiable software dataplane tool\n"
      "  vsd list                                  registered elements\n"
      "  vsd check <file.vspec> [...] [--jobs N] [--json FILE]\n"
      "           [--cache-dir DIR]\n"
      "      run every assertion of the spec(s); --json writes a\n"
      "      machine-readable per-assertion report; --cache-dir reuses\n"
      "      verdicts from a persistent cross-run cache\n"
      "  vsd verify \"<pipeline>\" --property crash|bound [--len N]\n"
      "           [--jobs N] [--cache-dir DIR]\n"
      "  vsd reach \"<pipeline>\" --dst A.B.C.D [--len N] [--eth-offset N] "
      "[--jobs N]\n"
      "  vsd state \"<pipeline>\" --bound N [--element NAME] [--len N] "
      "[--jobs N]\n"
      "  vsd profile \"<pipeline>\" [--len N] [--jobs N]\n"
      "      check the spec the flags describe as vsd check does;\n"
      "      profile adds per-phase/element/rung tables\n"
      "      (--stats: check/verify/reach/state; --one-shot: those and\n"
      "       profile; --trace FILE, --metrics FILE: every verification\n"
      "       command; an undocumented flag is a usage error, exit 2)\n"
      "  vsd serve --socket PATH [--cache-dir DIR] [--jobs N]\n"
      "      verification daemon: accepts vspec jobs as newline-delimited\n"
      "      JSON over an AF_UNIX socket; SIGTERM drains and exits\n"
      "  vsd submit <file.vspec> --socket PATH [--jobs N]\n"
      "      send a spec to a running daemon and print its JSON report\n"
      "  vsd fuzz [--seed S] [--pipelines N] [--packets N] [--sequences N]\n"
      "           [--sequence-len K] [--max-elems K] [--jobs N] [--out DIR]\n"
      "           [--no-cross-check] [--no-artifacts] [--cache-dir DIR]\n"
      "           [--no-compiled]\n"
      "      differential fuzz; --cache-dir adds the warm-vs-cold\n"
      "      verdict-cache oracle; --no-compiled pins the interpreter\n"
      "      engine (default also runs the lockstep compiled-vs-interp\n"
      "      oracle)\n"
      "  vsd fuzz --emit-packs [DIR]              write per-element "
      "property packs\n"
      "  vsd fuzz --check-packs [DIR] [--jobs N]  verify the pack corpus\n"
      "  vsd show \"<pipeline>\"                     print element IR\n"
      "  vsd run \"<pipeline>\" [--packets N | --pcap-like FILE] [--batch B]\n"
      "          [--traffic wellformed|options|malformed|random|tiny]\n"
      "          [--seed S] [--no-compiled]\n"
      "      compile the chain once, stream batched packets, report\n"
      "      packets/sec; --pcap-like replays hex-dump packets (the fuzz\n"
      "      .pkt artifact format); --no-compiled runs the interpreter\n"
      "  vsd certify \"<base>\" --candidate \"<element>\" [--after K] "
      "[--len N] [--jobs N]\n"
      "  vsd baseline \"<pipeline>\" [--len N] [--budget SECONDS]\n"
      "  vsd paths \"<pipeline>\" [--len N] [--jobs N]  composed path "
      "listing\n"
      "  vsd asm <file.vsd> [--print]             assemble + validate\n"
      "  vsd verify-ir <file.vsd> --property crash|bound [--len N]");
  return 2;
}

// --stats: every verification counter of one assertion, one per line so
// that two runs diff cleanly.
void print_stats(const verify::VerifyStats& s) {
  for (const auto& [name, field] : verify::kVerifyStatFields) {
    std::printf("    %-26s %llu\n", name,
                static_cast<unsigned long long>(s.*field));
  }
}

void print_counterexample(const verify::Counterexample& ce) {
  if (ce.trap) std::printf("  trap: %s\n", ir::trap_name(*ce.trap));
  std::printf("  packet: %s\n", ce.packet.hex(48).c_str());
  if (!ce.element_path.empty()) {
    std::printf("  path:");
    for (const auto& n : ce.element_path) std::printf(" -> %s", n.c_str());
    std::printf("\n");
  }
  if (!ce.state_note.empty()) std::printf("  note: %s\n", ce.state_note.c_str());
}

int cmd_list() {
  for (const elements::ElementInfo& info : elements::element_catalog()) {
    std::printf("%s\n", info.usage.c_str());
  }
  return 0;
}

// --cache-dir DIR: "" when absent; a usage error when empty or when DIR
// cannot be created and written.
std::string cache_dir_flag(const Args& a) {
  const std::string dir = a.get_path("cache-dir", "a directory path");
  std::string err;
  if (!dir.empty() && !cache::Store::validate_dir(dir, &err)) {
    throw UsageError("--cache-dir: " + err);
  }
  return dir;
}

// --- The front door: parse_spec, check_spec, one printer --------------------

void print_outcome(const spec::AssertionOutcome& o) {
  std::printf("  %s  %s  [%s in %.2f s%s%s]\n", o.passed ? "PASS" : "FAIL",
              o.text.c_str(), verify::verdict_name(o.verdict), o.seconds,
              o.detail.empty() ? "" : "; ",
              o.detail.empty() ? "" : o.detail.c_str());
  for (size_t i = 0; i < o.counterexamples.size(); ++i) {
    print_counterexample(o.counterexamples[i]);
    if (i < o.replays.size()) std::printf("  %s\n", o.replays[i].c_str());
  }
}

// A spec to check: a .vspec file (`text` empty), or the spec a pipeline
// command writes from its flags, named after the command.
struct SpecSource {
  std::string name;
  std::string text;
};

// Checks each spec in turn and prints its report. Exit 0 when every
// assertion passed, 1 when one failed, 2 on an unreadable file or a spec
// error. --jobs, --one-shot, --stats, --json and --cache-dir are read here
// for every command; the flag matrix decides which commands take them.
int check_specs(const Args& a, const std::vector<SpecSource>& specs) {
  spec::CheckOptions opts;
  opts.jobs = a.get_u64("jobs", 1);
  opts.incremental = !a.flag("one-shot");
  const std::string json_path = a.get_path("json", "an output file path");
  const std::string dir = cache_dir_flag(a);
  std::unique_ptr<cache::VerdictCache> cache;
  if (!dir.empty()) cache = std::make_unique<cache::VerdictCache>(dir);
  opts.cache = cache.get();
  std::string json;
  bool all_passed = true;
  for (const SpecSource& src : specs) {
    const char* name = src.name.c_str();
    spec::SpecFile sf;
    try {
      sf = spec::parse_spec(src.text.empty() ? read_file(src.name) : src.text);
    } catch (const spec::SpecError& e) {
      // A written spec's positions point into text the user never saw.
      const std::string w = e.what();
      if (src.text.empty()) std::printf("%s:%s\n", name, w.c_str());
      else std::printf("error: %s\n", w.substr(w.find(": ") + 2).c_str());
      return 2;
    } catch (const std::exception& e) {
      std::printf("%s: %s\n", name, e.what());
      return 2;
    }
    std::printf("%s: pipeline \"%s\"\n", name, sf.pipeline_config.c_str());
    std::printf("  (packet_len %zu, ip_offset %zu, jobs %zu)\n",
                sf.packet_len, sf.ip_offset, opts.jobs);
    const spec::CheckReport rep = spec::check_spec(sf, opts);
    for (const spec::AssertionOutcome& o : rep.outcomes) {
      print_outcome(o);
      if (a.flag("stats")) print_stats(o.stats);
    }
    std::printf("%s: %zu/%zu assertions passed\n", name, rep.passed,
                rep.outcomes.size());
    if (cache != nullptr) {
      std::printf("  cache: %llu assertion hit(s), %llu miss(es)\n",
                  static_cast<unsigned long long>(rep.cache_hits),
                  static_cast<unsigned long long>(rep.cache_misses));
    }
    all_passed = all_passed && rep.ok;
    if (!json_path.empty()) {
      if (!json.empty()) json += ",";
      json += spec::spec_report_json(src.name, sf, rep);
    }
  }
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::printf("error: cannot write %s\n", json_path.c_str());
      return 2;
    }
    out << "{\"specs\":[" << json << "],\"ok\":"
        << (all_passed ? "true" : "false") << "}\n";
  }
  return all_passed ? 0 : 1;
}

int cmd_check(const Args& a) {
  std::vector<SpecSource> specs;
  for (const std::string& path : a.positional) specs.push_back({path, ""});
  specs.erase(specs.begin());  // the command name
  return check_specs(a, specs);
}

// Checks the spec a pipeline command writes: the pipeline, --len, `body`.
// The pipeline enters a string literal byte for byte, so a quote, backslash
// or newline in it is a usage error rather than a way to add statements.
int check_pipeline_spec(const Args& a, const std::string& body) {
  const std::string& pipeline = a.positional[1];
  if (pipeline.find_first_of("\"\\\n") != std::string::npos) {
    throw UsageError("the pipeline must not contain '\"', '\\' or a newline");
  }
  return check_specs(a, {{a.positional[0],
                          "pipeline \"" + pipeline + "\";\nset packet_len = " +
                              std::to_string(a.get_u64("len", 64)) + ";\n" +
                              body}});
}

// `instructions <= 2^64-1` holds whenever the verifier bounds the count,
// so the assertion passes exactly when the bound is proven.
constexpr const char* kCrashFree = "assert crash_free;\n";
constexpr const char* kAnyBound =
    "assert instructions <= 18446744073709551615;\n";

int cmd_verify(const Args& a) {
  const std::string prop = a.get("property", "crash");
  if (prop != "crash" && prop != "bound") {
    throw UsageError("--property expects crash or bound, got '" + prop + "'");
  }
  return check_pipeline_spec(a, prop == "crash" ? kCrashFree : kAnyBound);
}

int cmd_reach(const Args& a) {
  const std::string dst = a.get("dst", "10.0.0.1");
  std::string canonical;
  try {
    canonical = net::format_ipv4(net::parse_ipv4(dst));
  } catch (const std::exception&) {
    throw UsageError("--dst expects an IPv4 address, got '" + dst + "'");
  }
  // Clamped so the sum cannot wrap; parse_spec bounds ip_offset.
  const uint64_t ip_offset =
      std::min<uint64_t>(a.get_u64("eth-offset", 0), UINT32_MAX) + 14;
  return check_pipeline_spec(
      a, "set ip_offset = " + std::to_string(ip_offset) +
             ";\nassert never(drop) when wellformed_checksummed && ip.dst == " +
             canonical + ";\n");
}

int cmd_state(const Args& a) {
  const std::string elem = a.get("element", "");
  const bool ident =
      !elem.empty() && !std::isdigit(static_cast<unsigned char>(elem[0])) &&
      std::all_of(elem.begin(), elem.end(), [](unsigned char c) {
        return std::isalnum(c) || c == '_';
      });
  if (!elem.empty() && !ident) {
    throw UsageError("--element expects an element name, got '" + elem + "'");
  }
  const std::string prop =
      ident ? "flow_occupancy(" + elem + ")" : "bounded_state";
  return check_pipeline_spec(a, "assert " + prop + " <= " +
                                    std::to_string(a.get_u64("bound", 0)) +
                                    ";\n");
}

// --- vsd fuzz: the differential fuzzing harness -------------------------------

int cmd_fuzz(const Args& a) {
  if (a.options.count("emit-packs") != 0) {
    std::string dir = a.get("emit-packs", "");
    if (dir.empty()) dir = "tests/packs";
    const size_t n = fuzz::write_packs(dir);
    std::printf("wrote %zu property packs to %s/\n", n, dir.c_str());
    return 0;
  }
  if (a.options.count("check-packs") != 0) {
    std::string dir = a.get("check-packs", "");
    if (dir.empty()) dir = "tests/packs";
    const fuzz::PackCheckResult r =
        fuzz::check_packs(dir, a.get_u64("jobs", 1));
    for (const std::string& line : r.lines) {
      std::printf("%s\n", line.c_str());
    }
    std::printf("pack corpus %s: %s\n", dir.c_str(), r.ok ? "OK" : "FAIL");
    return r.ok ? 0 : 1;
  }

  fuzz::FuzzConfig cfg;
  cfg.seed = a.get_u64("seed", 1);
  cfg.pipelines = a.get_u64("pipelines", 10);
  cfg.packets = a.get_u64("packets", 100);
  cfg.sequences = a.get_u64("sequences", 4);
  cfg.sequence_len = a.get_u64("sequence-len", 6);
  cfg.jobs = a.get_u64("jobs", 1);
  cfg.gen.max_chain = a.get_u64("max-elems", 4);
  cfg.cross_check = !a.flag("no-cross-check");
  cfg.compiled = !a.flag("no-compiled");
  cfg.cache_dir = cache_dir_flag(a);
  cfg.artifact_dir = a.flag("no-artifacts") ? "" : a.get("out", "fuzz-failures");
  const fuzz::FuzzReport report = fuzz::run_fuzz(cfg);
  std::printf("%s", report.summary().c_str());
  if (!report.ok() && !cfg.artifact_dir.empty()) {
    std::printf("FAIL artifacts (repro .vspec + .pkt) written to %s/\n",
                cfg.artifact_dir.c_str());
  }
  std::printf("fuzz: %zu pipelines, %zu failure(s)\n", report.outcomes.size(),
              report.failures.size());
  return report.ok() ? 0 : 1;
}

int cmd_show(const Args& a) {
  pipeline::Pipeline pl = elements::parse_pipeline(a.positional[1]);
  for (size_t i = 0; i < pl.size(); ++i) {
    std::printf("=== [%zu] %s ===\n%s\n", i, pl.element(i).name().c_str(),
                ir::to_string(pl.element(i).program()).c_str());
  }
  return 0;
}

// --pcap-like input: one packet per line as whitespace-separated hex bytes
// with an optional `| meta <slot>:<value> ...` suffix and `#` comments —
// exactly the format of the fuzz harness's .pkt repro artifacts, so a
// shrunk repro replays directly: `vsd run "<cfg>" --pcap-like f.pkt`.
std::vector<net::Packet> read_pcap_like(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw UsageError("--pcap-like: cannot open " + path);
  std::vector<net::Packet> out;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string where = path + ":" + std::to_string(lineno);
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::string meta_part;
    const size_t bar = line.find('|');
    if (bar != std::string::npos) {
      meta_part = line.substr(bar + 1);
      line.resize(bar);
    }
    std::istringstream hex(line);
    std::vector<uint8_t> bytes;
    std::string tok;
    while (hex >> tok) {
      if (tok.size() != 2 ||
          tok.find_first_not_of("0123456789abcdefABCDEF") !=
              std::string::npos) {
        throw UsageError(where + ": bad hex byte '" + tok + "'");
      }
      bytes.push_back(
          static_cast<uint8_t>(std::strtoul(tok.c_str(), nullptr, 16)));
    }
    if (bytes.empty() && meta_part.empty()) continue;  // blank / comment line
    net::Packet p(std::move(bytes));
    std::istringstream meta(meta_part);
    std::string mtok;
    if (meta >> mtok) {
      if (mtok != "meta") {
        throw UsageError(where + ": expected 'meta' after '|', got '" + mtok +
                         "'");
      }
      while (meta >> mtok) {
        const size_t colon = mtok.find(':');
        if (colon == std::string::npos) {
          throw UsageError(where + ": bad meta entry '" + mtok +
                           "' (want slot:value)");
        }
        errno = 0;
        char* end = nullptr;
        const unsigned long slot = std::strtoul(mtok.c_str(), &end, 10);
        if (end != mtok.c_str() + colon || slot >= net::kMetaSlots) {
          throw UsageError(where + ": bad meta slot in '" + mtok + "'");
        }
        const char* vbeg = mtok.c_str() + colon + 1;
        const unsigned long long v = std::strtoull(vbeg, &end, 10);
        if (*vbeg == '\0' || *end != '\0' || errno == ERANGE ||
            v > UINT32_MAX) {
          throw UsageError(where + ": bad meta value in '" + mtok + "'");
        }
        p.set_meta(slot, static_cast<uint32_t>(v));
      }
    }
    out.push_back(std::move(p));
  }
  return out;
}

int cmd_run(const Args& a) {
  pipeline::Pipeline pl = elements::parse_pipeline(a.positional[1]);
  const auto problems = pl.validate();
  for (const auto& p : problems) std::printf("warning: %s\n", p.c_str());

  // Engine selection: the chain is compiled once at parse (Element owns a
  // CompiledProgram); --no-compiled pins this run to the interpreter for
  // A/B comparisons.
  const bool compiled = !a.flag("no-compiled");
  pl.set_engine(compiled ? pipeline::Engine::Compiled
                         : pipeline::Engine::Interp);

  const uint64_t batch = a.get_u64("batch", 32);
  if (batch == 0) throw UsageError("--batch must be at least 1");

  std::vector<net::Packet> inputs;
  const std::string pcap_like = a.get_path("pcap-like", "an input file path");
  if (!pcap_like.empty()) {
    inputs = read_pcap_like(pcap_like);
    if (inputs.empty()) {
      throw UsageError("--pcap-like: no packets in " + pcap_like);
    }
  } else {
    net::WorkloadConfig cfg;
    // --packets is the documented spelling; --count is the historical one.
    cfg.count = a.get_u64("packets", a.get_u64("count", 1000));
    if (cfg.count == 0) throw UsageError("--packets must be at least 1");
    cfg.seed = a.get_u64("seed", 1);
    const std::string traffic = a.get("traffic", "wellformed");
    if (traffic == "wellformed") cfg.traffic = net::TrafficClass::WellFormed;
    else if (traffic == "options") cfg.traffic = net::TrafficClass::WithIpOptions;
    else if (traffic == "malformed") cfg.traffic = net::TrafficClass::MalformedHeader;
    else if (traffic == "random") cfg.traffic = net::TrafficClass::RandomBytes;
    else if (traffic == "tiny") cfg.traffic = net::TrafficClass::TinyPackets;
    else { std::printf("unknown traffic class: %s\n", traffic.c_str()); return 2; }
    inputs = net::generate_workload(cfg);
  }

  // Batched streaming drive. The timer covers the processing loop only
  // (workload generation and reporting are outside), so packets/sec is the
  // engine's throughput; diagnostics are deferred to keep I/O out of it.
  size_t delivered = 0, dropped = 0, trapped = 0;
  uint64_t instructions = 0;
  ir::TrapKind first_trap = ir::TrapKind::Unreachable;
  size_t first_trap_element = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (size_t base = 0; base < inputs.size(); base += batch) {
    const size_t end = std::min(inputs.size(), base + static_cast<size_t>(batch));
    for (size_t i = base; i < end; ++i) {
      const pipeline::PipelineResult r = pl.process(inputs[i]);
      instructions += r.instructions;
      switch (r.action) {
        case pipeline::FinalAction::Delivered: ++delivered; break;
        case pipeline::FinalAction::Dropped: ++dropped; break;
        case pipeline::FinalAction::Trapped:
          if (trapped == 0) {
            first_trap = r.trap;
            first_trap_element = r.exit_element;
          }
          ++trapped;
          break;
      }
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  if (trapped != 0) {
    std::printf("TRAP %s at [%s] (first of %zu)\n", ir::trap_name(first_trap),
                pl.element(first_trap_element).name().c_str(), trapped);
  }
  const size_t total = inputs.size();
  std::printf("%zu packets (%s engine, batch %llu): %zu delivered, "
              "%zu dropped, %zu trapped; %.1f instr/pkt\n",
              total, compiled ? "compiled" : "interp",
              static_cast<unsigned long long>(batch), delivered, dropped,
              trapped, static_cast<double>(instructions) / total);
  std::printf("  %.3f s, %.0f packets/sec\n", seconds,
              seconds > 0 ? static_cast<double>(total) / seconds : 0.0);
  for (size_t i = 0; i < pl.size(); ++i) {
    const auto& c = pl.element(i).counters();
    std::printf("  [%zu] %-16s in=%llu emit=%llu drop=%llu\n", i,
                pl.element(i).name().c_str(),
                static_cast<unsigned long long>(c.packets_in),
                static_cast<unsigned long long>(c.emitted),
                static_cast<unsigned long long>(c.dropped));
  }
  return trapped == 0 ? 0 : 1;
}

int cmd_certify(const Args& a) {
  verify::DecomposedConfig cfg;
  cfg.packet_len = a.get_u64("len", 64);
  cfg.jobs = a.get_u64("jobs", 1);
  verify::DecomposedVerifier verifier(cfg);
  const verify::CertificationReport r = verify::certify_element(
      verifier, a.positional[1], a.get("candidate", "Null"),
      a.get_u64("after", 0));
  std::printf("%s\n", r.summary.c_str());
  for (const auto& ce : r.crash.counterexamples) print_counterexample(ce);
  return r.certified ? 0 : 1;
}

int cmd_paths(const Args& a) {
  pipeline::Pipeline pl = elements::parse_pipeline(a.positional[1]);
  verify::DecomposedConfig cfg;
  cfg.packet_len = a.get_u64("len", 64);
  cfg.jobs = a.get_u64("jobs", 1);
  verify::DecomposedVerifier verifier(cfg);
  const verify::ComposedPaths composed = verifier.enumerate_paths(pl);
  std::printf("%zu composed end-to-end paths (len %zu)%s:\n",
              composed.paths.size(), cfg.packet_len,
              composed.complete ? "" : " [TRUNCATED]");
  for (size_t i = 0; i < composed.paths.size(); ++i) {
    const verify::ComposedPath& cp = composed.paths[i];
    const bool feasible = !verifier.solver().is_unsat(cp.constraint);
    std::string action = symbex::seg_action_name(cp.action);
    if (cp.action == symbex::SegAction::Emit) {
      action += "(" + std::to_string(cp.port) + ")";
    }
    if (cp.action == symbex::SegAction::Trap) {
      action += std::string("(") + ir::trap_name(cp.trap) + ")";
    }
    std::printf("  p%-3zu %-22s #instr=%llu%s  via", i, action.c_str(),
                static_cast<unsigned long long>(cp.instr_count),
                cp.count_is_bound ? "(bound)" : "");
    for (const auto& n : cp.element_path) std::printf(" %s", n.c_str());
    if (!feasible) std::printf("  [infeasible]");
    std::printf("\n");
  }
  return 0;
}

// --- vsd profile: per-element, per-phase attribution ------------------------

int cmd_profile(const Args& a) {
  // Profile always traces (that's its whole point); with a global --trace
  // the sinks still get everything since enable() keeps prior events.
  obs::enable(true);
  const int rc = check_pipeline_spec(a, std::string(kCrashFree) + kAnyBound);
  if (rc == 2) return rc;

  const std::vector<obs::SpanEvent> events = obs::events_snapshot();

  // Per-phase: wall time and span count per category.
  std::map<std::string, std::pair<uint64_t, uint64_t>> by_cat;  // count, us
  for (const obs::SpanEvent& e : events) {
    // An assertion span wraps its property driver's: count the driver only.
    if (std::strcmp(e.name, "assertion") == 0) continue;
    auto& [n, us] = by_cat[obs::cat_name(e.cat)];
    ++n;
    us += e.dur_us;
  }
  std::printf("\n  %-12s %8s %12s\n", "phase", "spans", "total ms");
  for (const auto& [cat, v] : by_cat) {
    std::printf("  %-12s %8llu %12.2f\n", cat.c_str(),
                static_cast<unsigned long long>(v.first),
                static_cast<double>(v.second) / 1000.0);
  }

  // Per-element: summarization time plus stitched-decision time attributed
  // to the path's final element (the suspect's own element).
  struct ElemRow {
    uint64_t summarize_us = 0, summaries = 0;
    uint64_t stitch_us = 0, suspects = 0;
  };
  std::map<std::string, ElemRow> by_elem;
  const auto arg_of = [](const obs::SpanEvent& e,
                         const char* key) -> const std::string* {
    for (const auto& [k, v] : e.args) {
      if (std::strcmp(k, key) == 0) return &v;
    }
    return nullptr;
  };
  for (const obs::SpanEvent& e : events) {
    if (e.cat == obs::Cat::Summarize) {
      if (const std::string* elem = arg_of(e, "element")) {
        ElemRow& row = by_elem[*elem];
        row.summarize_us += e.dur_us;
        ++row.summaries;
      }
    } else if (e.cat == obs::Cat::Stitch) {
      if (const std::string* path = arg_of(e, "path")) {
        const size_t sep = path->rfind(" > ");
        ElemRow& row =
            by_elem[sep == std::string::npos ? *path
                                             : path->substr(sep + 3)];
        row.stitch_us += e.dur_us;
        ++row.suspects;
      }
    }
  }
  if (!by_elem.empty()) {
    std::printf("\n  %-20s %10s %12s %9s %12s\n", "element", "summaries",
                "summ ms", "suspects", "stitch ms");
    for (const auto& [elem, row] : by_elem) {
      std::printf("  %-20s %10llu %12.2f %9llu %12.2f\n", elem.c_str(),
                  static_cast<unsigned long long>(row.summaries),
                  static_cast<double>(row.summarize_us) / 1000.0,
                  static_cast<unsigned long long>(row.suspects),
                  static_cast<double>(row.stitch_us) / 1000.0);
    }
  }

  // Solver attribution: which avoidance-ladder rung decided the queries.
  const std::map<std::string, uint64_t> counters = obs::counters_snapshot();
  bool header = false;
  for (const auto& [name, value] : counters) {
    if (name.rfind("solver.rung.", 0) != 0) continue;
    if (!header) {
      std::printf("\n  %-24s %10s\n", "query decided by", "queries");
      header = true;
    }
    std::printf("  %-24s %10llu\n", name.substr(12).c_str(),
                static_cast<unsigned long long>(value));
  }
  return rc;
}

int cmd_asm(const Args& a) {
  const ir::Program p = ir::assemble(read_file(a.positional[1]));
  std::printf("assembled @%s: %zu function(s), %zu static table(s), %zu kv "
              "table(s), %u output port(s)\n",
              p.name.c_str(), p.functions.size(), p.static_tables.size(),
              p.kv_tables.size(), p.num_output_ports);
  if (a.flag("print")) std::printf("%s", ir::disassemble(p).c_str());
  return 0;
}

int cmd_verify_ir(const Args& a) {
  pipeline::Pipeline pl;
  const ir::Program prog = ir::assemble(read_file(a.positional[1]));
  pl.add(prog.name, prog);
  verify::DecomposedConfig cfg;
  cfg.packet_len = a.get_u64("len", 64);
  verify::DecomposedVerifier verifier(cfg);
  const std::string prop = a.get("property", "crash");
  if (prop == "crash") {
    const verify::CrashFreedomReport r = verifier.verify_crash_freedom(pl);
    std::printf("crash-freedom of @%s (len %zu): %s in %.2f s\n",
                prog.name.c_str(), cfg.packet_len,
                verify::verdict_name(r.verdict), r.seconds);
    for (const auto& ce : r.counterexamples) print_counterexample(ce);
    return r.verdict == verify::Verdict::Proven ? 0 : 1;
  }
  if (prop == "bound") {
    const verify::InstructionBoundReport r =
        verifier.verify_instruction_bound(pl);
    std::printf("instruction bound of @%s (len %zu): %s, max %llu%s\n",
                prog.name.c_str(), cfg.packet_len,
                verify::verdict_name(r.verdict),
                static_cast<unsigned long long>(r.max_instructions),
                r.bound_is_exact ? " (exact)" : " (upper bound)");
    return r.verdict == verify::Verdict::Proven ? 0 : 1;
  }
  std::printf("unknown property: %s\n", prop.c_str());
  return 2;
}

// --- vsd serve / vsd submit: verification-as-a-service ----------------------

// SIGTERM/SIGINT ask the daemon to drain and exit 0; only a flag is set
// here — all real teardown happens on the main thread.
volatile std::sig_atomic_t g_serve_stop = 0;
void serve_signal(int) { g_serve_stop = 1; }

int cmd_serve(const Args& a) {
  serve::ServeOptions opts;
  opts.socket_path = a.get("socket", "");
  if (opts.socket_path.empty()) {
    throw UsageError("serve requires --socket <path>");
  }
  opts.cache_dir = cache_dir_flag(a);
  opts.jobs = a.get_u64("jobs", 1);

  serve::Server server(opts);
  std::string err;
  if (!server.start(&err)) throw UsageError(err);
  std::printf("vsd serve: listening on %s (jobs %zu, cache %s)\n",
              opts.socket_path.c_str(), opts.jobs,
              opts.cache_dir.empty() ? "in-memory" : opts.cache_dir.c_str());
  std::fflush(stdout);

  g_serve_stop = 0;
  std::signal(SIGTERM, serve_signal);
  std::signal(SIGINT, serve_signal);
  while (g_serve_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.stop();
  const serve::ServeStats st = server.stats();
  std::printf("vsd serve: drained after %llu request(s), %llu error(s)\n",
              static_cast<unsigned long long>(st.requests),
              static_cast<unsigned long long>(st.errors));
  return 0;
}

int cmd_submit(const Args& a) {
  const std::string socket_path = a.get("socket", "");
  if (socket_path.empty()) {
    throw UsageError("submit requires --socket <path>");
  }
  const std::string& path = a.positional[1];
  const std::string spec_text = read_file(path);
  const size_t jobs = a.options.count("jobs") != 0
                          ? static_cast<size_t>(a.get_u64("jobs", 1))
                          : SIZE_MAX;
  const std::string request = serve::make_request(path, spec_text, jobs);
  std::string response;
  std::string err;
  if (!serve::submit_line(socket_path, request, &response, &err)) {
    std::printf("error: %s\n", err.c_str());
    return 2;
  }
  std::printf("%s\n", response.c_str());
  // Transport errors exit 2; a delivered report exits by its verdict.
  // Quoted strings escape '"', so a literal "ok":false can only come from
  // the response structure itself.
  if (response.rfind("{\"ok\":false", 0) == 0) return 2;
  return response.find("\"ok\":false") == std::string::npos ? 0 : 1;
}

int cmd_baseline(const Args& a) {
  pipeline::Pipeline pl = elements::parse_pipeline(a.positional[1]);
  verify::MonolithicConfig cfg;
  cfg.packet_len = a.get_u64("len", 64);
  cfg.time_budget_seconds = static_cast<double>(a.get_u64("budget", 60));
  verify::MonolithicVerifier verifier(cfg);
  const verify::CrashFreedomReport r = verifier.verify_crash_freedom(pl);
  const char* verdict = r.verdict == verify::Verdict::Unknown
                            ? "DNF (budget exhausted)"
                            : verify::verdict_name(r.verdict);
  std::printf("monolithic crash-freedom: %s in %.2f s (%llu paths, %llu "
              "instrs interpreted)\n",
              verdict, r.seconds,
              static_cast<unsigned long long>(
                  verifier.last_stats().paths_explored),
              static_cast<unsigned long long>(
                  verifier.last_stats().instructions_interpreted));
  for (const auto& ce : r.counterexamples) print_counterexample(ce);
  return 0;
}

}  // namespace

int dispatch(const Args& a) {
  const std::string& cmd = a.positional[0];
  if (cmd == "list") return cmd_list();
  if (cmd == "fuzz") return cmd_fuzz(a);
  if (cmd == "serve") return cmd_serve(a);
  if (a.positional.size() < 2) return usage();
  if (cmd == "check") return cmd_check(a);
  if (cmd == "submit") return cmd_submit(a);
  if (cmd == "show") return cmd_show(a);
  if (cmd == "run") return cmd_run(a);
  if (cmd == "verify") return cmd_verify(a);
  if (cmd == "reach") return cmd_reach(a);
  if (cmd == "state") return cmd_state(a);
  if (cmd == "certify") return cmd_certify(a);
  if (cmd == "baseline") return cmd_baseline(a);
  if (cmd == "paths") return cmd_paths(a);
  if (cmd == "profile") return cmd_profile(a);
  if (cmd == "asm") return cmd_asm(a);
  if (cmd == "verify-ir") return cmd_verify_ir(a);
  return usage();
}

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  if (a.positional.empty()) return usage();
  int rc = 2;
  try {
    check_flags(a);
    // Tracing sinks are global so every command gets them for free.
    // Observational only: verdicts, exit codes, and counterexample bytes
    // are byte-identical with or without these flags (tests/obs_test.cpp).
    const std::string trace_path = a.get_path("trace", "an output file path");
    const std::string metrics_path =
        a.get_path("metrics", "an output file path");
    if (!trace_path.empty() || !metrics_path.empty()) obs::enable(true);
    rc = dispatch(a);
    if (!trace_path.empty() && !obs::write_chrome_trace(trace_path)) {
      std::printf("error: cannot write %s\n", trace_path.c_str());
      return 2;
    }
    if (!metrics_path.empty() && !obs::write_metrics(metrics_path)) {
      std::printf("error: cannot write %s\n", metrics_path.c_str());
      return 2;
    }
  } catch (const UsageError& e) {
    std::printf("error: %s\n", e.what());
    return usage();
  } catch (const std::exception& e) {
    std::printf("error: %s\n", e.what());
    return 2;
  }
  return rc;
}
