#include "verify/decomposed.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "bv/analysis.hpp"
#include "bv/printer.hpp"
#include "cache/fingerprint.hpp"
#include "interp/interp.hpp"
#include "obs/trace.hpp"
#include "solver/pool.hpp"
#include "symbex/state_summary.hpp"
#include "verify/decision_cache.hpp"
#include "verify/parallel.hpp"

namespace vsd::verify {

using bv::ExprRef;
using symbex::ElementSummary;
using symbex::SegAction;
using symbex::Segment;
using symbex::SymPacket;

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::Proven: return "proven";
    case Verdict::Violated: return "violated";
    case Verdict::Unknown: return "unknown";
  }
  return "?";
}

namespace {

struct Timer {
  std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  }
};

// Replays a packet sequence with persistent scratch private state (the
// live pipeline is untouched); returns the total live entries across the
// counted elements' tables afterwards. Backs the public
// replay_sequence_occupancy and the bounded-state driver's certification.
uint64_t replay_sequence_occupancy_counted(const pipeline::Pipeline& pl,
                                           const std::vector<net::Packet>& seq,
                                           const std::vector<bool>& counted) {
  std::vector<interp::KvState> state;
  state.reserve(pl.size());
  for (size_t e = 0; e < pl.size(); ++e) {
    state.emplace_back(pl.element(e).program().kv_tables.size());
  }
  for (const net::Packet& input : seq) {
    net::Packet pkt = input;
    size_t cur = 0;
    for (;;) {
      // Element::execute picks the compiled engine when it is globally on;
      // the compiled path is bit-identical to the interpreter, so the
      // certified occupancy is engine-independent.
      const interp::ExecResult r = pl.element(cur).execute(pkt, state[cur]);
      if (r.action != interp::Action::Emit) break;
      const auto d = pl.downstream(cur, r.port);
      if (!d) break;
      cur = *d;
    }
  }
  uint64_t total = 0;
  for (size_t e = 0; e < pl.size(); ++e) {
    if (!counted[e]) continue;
    const size_t ntables = pl.element(e).program().kv_tables.size();
    for (size_t t = 0; t < ntables; ++t) {
      total += state[e].live_entry_count(static_cast<ir::TableId>(t));
    }
  }
  return total;
}

// Runs a packet through the pipeline with scratch private state, returning
// the total executed instruction count without touching the live elements.
uint64_t replay_instruction_count(const pipeline::Pipeline& pl,
                                  const net::Packet& input) {
  net::Packet pkt = input;
  size_t cur = 0;
  uint64_t total = 0;
  for (;;) {
    const pipeline::Element& el = pl.element(cur);
    interp::KvState scratch(el.program().kv_tables.size());
    const interp::ExecResult r = el.execute(pkt, scratch);
    total += r.instr_count;
    if (r.action != interp::Action::Emit) break;
    const auto d = pl.downstream(cur, r.port);
    if (!d) break;
    cur = *d;
  }
  return total;
}

}  // namespace

class DecomposedVerifier::Impl {
 public:
  explicit Impl(DecomposedConfig config)
      : cfg(config),
        jobs(resolve_jobs(config.jobs)),
        pool(jobs, config.max_solver_conflicts, config.incremental),
        queue(jobs) {
    pool.set_rewrite(cfg.rewrite);
    pool.set_independence(cfg.independence);
    pool.set_cex_cache(cfg.cex_cache);
    pool.set_core_grouping(cfg.core_grouping);
    pool.set_clause_gc(cfg.clause_gc);
  }

  static size_t resolve_jobs(size_t requested) {
    if (requested != 0) return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }

  DecomposedConfig cfg;
  size_t jobs;
  // One solver per worker. Worker 0's is also the caller's: the DFS-ordered
  // reduce, refinement, the witness solve and key enumeration run on it
  // while no task is in flight.
  solver::SolverPool pool;
  WorkQueue queue;  // at jobs=1 every task runs inline on the caller
  // Step-1 summary caches: private per instance, unless the config hands
  // in a shared bundle (the serve daemon's warm state).
  SummaryCaches own_caches_;
  symbex::SharedSummaryCache& cache_summarize() {
    return cfg.shared_caches ? cfg.shared_caches->summarize
                             : own_caches_.summarize;
  }
  symbex::SharedSummaryCache& cache_unroll() {
    return cfg.shared_caches ? cfg.shared_caches->unroll : own_caches_.unroll;
  }
  // Driver-level counters, one block per worker (reset each call and summed
  // once by snapshot_stats). Block 0 is also the caller's.
  std::vector<VerifyStats> wstats_;
  solver::Solver& main_solver() { return pool.at(0); }
  VerifyStats& main_stats() { return wstats_[0]; }

  // ---------------------------------------------------------------------
  // Step 1: element summaries (cached; loop-suspect fallback to unrolling)
  // ---------------------------------------------------------------------

  // How much loop-summary over-approximation a property can tolerate.
  enum class Precision {
    AcceptBounds,     // instruction bounds: summarized counts are fine
    ExactDropsTraps,  // reachability: Drop/Trap decisions must not depend
                      // on havocked loop outputs
    ExactAll,         // path enumeration: no summarized loops anywhere, so
                      // the composed constraints partition the input space
  };

  // Summary of pipeline element `elem` at entry length `len`. `sv`/`vstats`
  // are the calling worker's solver instance and stats block. Elements are
  // summarized lazily, on first visit, through the thread-safe cache:
  // concurrent requests for one key compute it once.
  const ElementSummary& summary_for(const pipeline::Pipeline& pl, size_t elem,
                                    size_t len, Precision precision,
                                    solver::Solver& sv, VerifyStats& vstats) {
    const ir::Program& prog = pl.element(elem).model_program();
    const uint64_t hash = prog_hash_[elem];
    if (cfg.loop_mode == symbex::LoopMode::Unroll) {
      return get_summary(cache_unroll(), symbex::LoopMode::Unroll, prog, hash,
                         len, sv, vstats);
    }
    const ElementSummary& s =
        get_summary(cache_summarize(), symbex::LoopMode::Summarize, prog, hash,
                    len, sv, vstats);
    // Any remaining trap suspect in a summarized element gets the exact
    // (unrolled) treatment before we conclude anything — regardless of
    // property, because trap constraints may be loop-over-approximated.
    const bool has_trap = std::any_of(
        s.segments.begin(), s.segments.end(),
        [](const Segment& g) { return g.action == SegAction::Trap; });
    const bool has_lossy_drop = std::any_of(
        s.segments.begin(), s.segments.end(), [](const Segment& g) {
          return g.action == SegAction::Drop && g.count_is_bound;
        });
    const bool has_any_bound = std::any_of(
        s.segments.begin(), s.segments.end(),
        [](const Segment& g) { return g.count_is_bound; });
    const bool need_unroll =
        has_trap ||
        (precision == Precision::ExactDropsTraps && has_lossy_drop) ||
        (precision == Precision::ExactAll && has_any_bound);
    if (cfg.unroll_fallback && need_unroll) {
      return get_summary(cache_unroll(), symbex::LoopMode::Unroll, prog, hash,
                         len, sv, vstats);
    }
    return s;
  }

  const ElementSummary& get_summary(symbex::SharedSummaryCache& cache,
                                    symbex::LoopMode mode,
                                    const ir::Program& prog, uint64_t hash,
                                    size_t len, solver::Solver& sv,
                                    VerifyStats& vstats) {
    symbex::ExecOptions eo;
    eo.loop_mode = mode;
    // Summarize mode relies on folding + intervals (cheap, and the loop
    // summarizer handles precision); exact unrolling needs solver pruning
    // at forks or infeasible loop-path combinations multiply unchecked.
    eo.fork_check = mode == symbex::LoopMode::Unroll
                        ? symbex::ForkCheck::Solver
                        : symbex::ForkCheck::FoldOnly;
    eo.solver = &sv;
    symbex::Executor exec(eo);
    bool was_miss = false;
    obs::ScopedSpan sp(obs::Cat::Summarize, "summarize");
    const ElementSummary& s = cache.get(prog, hash, len, exec, &was_miss);
    if (sp) {
      if (!was_miss) {
        sp.cancel();  // a cache hit is not summarization work
        obs::count("verify.summary_cache_hits");
      } else {
        sp.arg("element", prog.name);
        sp.arg("entry_len", std::to_string(len));
        sp.arg("mode", mode == symbex::LoopMode::Unroll ? "unroll"
                                                        : "summarize");
        obs::count("verify.elements_summarized");
      }
    }
    if (was_miss) {
      ++vstats.elements_summarized;
      vstats.segments_total += s.segments.size();
      vstats.instructions_interpreted += s.stats.instructions_interpreted;
      vstats.forks += s.stats.forks;
    } else {
      ++vstats.summary_cache_hits;
    }
    return s;
  }

  // ---------------------------------------------------------------------
  // Step 2: composition by substitution
  // ---------------------------------------------------------------------

  // A KV read accumulated along a composed path, remembering which element
  // instance performed it and at what packet length that element was
  // summarized (the history constraint must use the same summary).
  struct PathKvRead {
    size_t elem = 0;
    size_t len = 0;
    symbex::KvReadRecord rec;
  };

  // An element's input packet: byte and metadata expressions. States are
  // hash-consed per call (intern_state), so one address stands for one
  // content and the stitch memo can key on it.
  struct PacketState {
    std::vector<ExprRef> bytes;
    std::array<ExprRef, net::kMetaSlots> meta;
  };
  using StateRef = std::shared_ptr<const PacketState>;

  struct ComposeState {
    StateRef pkt;  // the next element's input; null once the path ends
    ExprRef constraint;
    uint64_t count = 0;
    bool count_is_bound = false;
    std::vector<PathKvRead> kv_reads;  // renamed per stitch-memo entry
    std::vector<size_t> elem_trace;    // pipeline element indices
  };

  // Variables of a segment that are not the element's declared inputs:
  // KV-read symbols, havoc symbols, table-model symbols. They must be
  // renamed per element instance (two instances of the same element type
  // have distinct private state); the stitch memo renames them once per
  // entry. Thread-safe: parallel workers hit the same segments while
  // walking disjoint subtrees.
  const std::vector<ExprRef>& aux_vars(const ElementSummary& sum,
                                       const Segment& g) {
    {
      std::lock_guard<std::mutex> lock(aux_mu_);
      auto it = aux_cache_.find(&g);
      if (it != aux_cache_.end()) return it->second;
    }
    std::unordered_set<uint64_t> inputs;
    for (const ExprRef& v : sum.entry.input_byte_vars()) {
      inputs.insert(v->var_id());
    }
    for (const ExprRef& v : sum.entry.input_meta_vars()) {
      inputs.insert(v->var_id());
    }
    std::unordered_set<uint64_t> seen;
    std::vector<ExprRef> aux;
    const auto scan = [&](const ExprRef& e) {
      if (!e) return;
      for (const ExprRef& v : bv::free_variables(e)) {
        if (inputs.count(v->var_id()) == 0 && seen.insert(v->var_id()).second) {
          aux.push_back(v);
        }
      }
    };
    scan(g.constraint);
    for (const ExprRef& b : g.exit_packet.bytes()) scan(b);
    for (const ExprRef& m : g.exit_packet.meta()) scan(m);
    for (const auto& r : g.kv_reads) {
      scan(r.key);
      scan(r.value);
    }
    std::lock_guard<std::mutex> lock(aux_mu_);
    return aux_cache_.emplace(&g, std::move(aux)).first->second;
  }

  // The stitch memo. One entry is segment `g` of element instance `elem`
  // rebased onto one input state: the substitution runs, and the segment's
  // aux variables are renamed fresh, once per entry rather than once per
  // composed path reaching it. Sound because the key holds the element
  // instance: a pipeline is a DAG, so on any one path every instance still
  // has its own aux variables, and each path's stitched constraint equals
  // a per-path instantiation up to variable renaming. Whether the segment
  // continues downstream depends only on the element and segment, so it
  // needs no key bit. Shared by every worker (first inserted entry wins)
  // and cleared per call. Entries keep only the results, never the
  // substitution.
  struct StitchKey {
    size_t elem = 0;
    const Segment* seg = nullptr;
    const PacketState* in = nullptr;
    bool writes = false;
    bool operator==(const StitchKey&) const = default;
  };
  struct StitchKeyHash {
    size_t operator()(const StitchKey& k) const {
      uint64_t h = reinterpret_cast<uintptr_t>(k.seg);
      h ^= reinterpret_cast<uintptr_t>(k.in) * 0x9e3779b97f4a7c15ull;
      h ^= (k.elem * 2 + (k.writes ? 1 : 0)) * 0xc2b2ae3d27d4eb4full;
      return static_cast<size_t>(h ^ (h >> 29));
    }
  };
  struct Stitched {
    ExprRef constraint;  // the segment constraint over the entry packet
    std::vector<symbex::KvReadRecord> kv_reads;
    std::vector<symbex::KvWriteRecord> kv_writes;  // only when requested
    StateRef out;  // set when the segment continues and is not false
  };
  struct StateHash {
    size_t operator()(const StateRef& s) const {
      size_t h = s->bytes.size();
      for (const ExprRef& b : s->bytes) h = h * 31 + b->uid();
      for (const ExprRef& m : s->meta) h = h * 31 + m->uid();
      return h;
    }
  };
  struct StateEq {
    bool operator()(const StateRef& a, const StateRef& b) const {
      return a->bytes == b->bytes && a->meta == b->meta;
    }
  };
  std::mutex stitch_mu_;
  std::unordered_map<StitchKey, Stitched, StitchKeyHash> stitch_memo_;
  std::unordered_set<StateRef, StateHash, StateEq> states_;

  // The canonical state with this content. Caller holds stitch_mu_.
  StateRef intern_state_locked(PacketState st) {
    return *states_.insert(std::make_shared<const PacketState>(std::move(st)))
                .first;
  }

  StateRef intern_state(PacketState st) {
    std::lock_guard<std::mutex> lock(stitch_mu_);
    return intern_state_locked(std::move(st));
  }

  const Stitched& stitched(size_t elem, const ElementSummary& sum,
                           const Segment& g, const PacketState& in,
                           bool continues, bool writes) {
    const StitchKey key{elem, &g, &in, writes};
    {
      std::lock_guard<std::mutex> lock(stitch_mu_);
      const auto it = stitch_memo_.find(key);
      if (it != stitch_memo_.end()) {
        obs::count("verify.stitch_memo_hits");
        return it->second;
      }
    }
    obs::count("verify.stitch_memo_misses");
    bv::Substitution sub;
    const auto& in_vars = sum.entry.input_byte_vars();
    for (size_t i = 0; i < in_vars.size() && i < in.bytes.size(); ++i) {
      sub.emplace(in_vars[i]->var_id(), in.bytes[i]);
    }
    const auto& meta_vars = sum.entry.input_meta_vars();
    for (size_t i = 0; i < meta_vars.size(); ++i) {
      sub.emplace(meta_vars[i]->var_id(), in.meta[i]);
    }
    for (const ExprRef& a : aux_vars(sum, g)) {
      sub.emplace(a->var_id(), bv::mk_var(a->name(), a->width()));
    }
    Stitched s;
    PacketState out;
    s.constraint = bv::substitute(g.constraint, sub);
    const bool feasible = !s.constraint->is_false();
    if (feasible) {
      for (const auto& r : g.kv_reads) {
        s.kv_reads.push_back(symbex::KvReadRecord{
            r.table, bv::substitute(r.key, sub), bv::substitute(r.value, sub)});
      }
      if (writes) {
        for (const auto& w : g.kv_writes) {
          s.kv_writes.push_back(symbex::KvWriteRecord{
              w.table, bv::substitute(w.key, sub),
              bv::substitute(w.value, sub)});
        }
      }
    }
    if (feasible && continues) {
      out.bytes.reserve(g.exit_packet.size());
      for (const ExprRef& b : g.exit_packet.bytes()) {
        out.bytes.push_back(bv::substitute(b, sub));
      }
      for (size_t i = 0; i < net::kMetaSlots; ++i) {
        out.meta[i] = g.exit_packet.meta(i)
                          ? bv::substitute(g.exit_packet.meta(i), sub)
                          : bv::mk_const(0, 32);
      }
    }
    std::lock_guard<std::mutex> lock(stitch_mu_);
    const auto [it, inserted] = stitch_memo_.try_emplace(key);
    if (inserted) {
      if (feasible && continues) s.out = intern_state_locked(std::move(out));
      it->second = std::move(s);
    }
    return it->second;
  }

  // Stitches segment `g` of element instance `elem` onto the path state
  // `st`. Returns nullptr when the stitched path constraint folds to
  // false; otherwise the memo entry, with *constraint = st.constraint ∧
  // the entry's constraint — the only per-path work left.
  const Stitched* instantiate(size_t elem, const ElementSummary& sum,
                              const Segment& g, const ComposeState& st,
                              bool continues, bool writes,
                              ExprRef* constraint) {
    const Stitched& s = stitched(elem, sum, g, *st.pkt, continues, writes);
    if (s.constraint->is_false()) return nullptr;
    *constraint = bv::mk_land(st.constraint, s.constraint);
    if ((*constraint)->is_false()) return nullptr;
    return &s;
  }

  // The path state after a stitched segment: constraint, trace and KV
  // reads extended; the packet is the segment's output when it continues.
  static ComposeState next_state(const ComposeState& st, const Stitched& s,
                                 ExprRef constraint, size_t elem) {
    ComposeState next;
    next.pkt = s.out;
    next.constraint = std::move(constraint);
    next.count = st.count;
    next.count_is_bound = st.count_is_bound;
    next.kv_reads = st.kv_reads;
    for (const auto& r : s.kv_reads) {
      next.kv_reads.push_back(PathKvRead{elem, st.pkt->bytes.size(), r});
    }
    next.elem_trace = st.elem_trace;
    next.elem_trace.push_back(elem);
    return next;
  }

  // Expands one feasible segment onto the running compose state: stitches
  // the constraint, accumulates counts/KV reads/trace, and (for an Emit
  // continuing into `down`) installs the segment's output packet. Returns
  // nullopt when the stitched constraint folds to false — for a trap
  // segment that IS the Step-2 elimination, the paper's p1 case, where
  // (in < 0) ∧ (0 < 0) collapses syntactically. Shared by the property walk
  // and the refinement re-walk so compose semantics cannot diverge.
  std::optional<ComposeState> expand_segment(const ElementSummary& sum,
                                             const Segment& g,
                                             const ComposeState& st,
                                             size_t elem,
                                             std::optional<size_t> down,
                                             VerifyStats& vstats) {
    const bool continues = g.action == SegAction::Emit && down.has_value();
    ExprRef c;
    const Stitched* s = instantiate(elem, sum, g, st, continues, false, &c);
    if (s == nullptr) {
      if (g.action == SegAction::Trap) ++vstats.suspects_eliminated;
      return std::nullopt;
    }
    ComposeState next = next_state(st, *s, std::move(c), elem);
    next.count += g.instr_count;
    next.count_is_bound = next.count_is_bound || g.count_is_bound;
    return next;
  }

  // ---------------------------------------------------------------------
  // The composed-path walk. Every feasible Emit edge submits a work-queue
  // task for the downstream subtree, and terminals (Drop, Trap, or Emit
  // leaving the pipeline) are handed to the callback on whichever worker
  // reached them. At jobs=1 the queue runs each task inline, so the walk
  // is a plain depth-first recursion on the caller. Each terminal carries
  // its DFS address (the segment index chosen at every element), so callers
  // sort results into exactly the jobs=1 emission order — reports are
  // byte-for-byte deterministic in verdicts, suspect sets, and path lists
  // regardless of job count.
  //
  // Caveat, shared with every parallel model checker that bounds work with
  // a global counter: if max_composed_paths is actually exhausted at
  // jobs > 1, WHICH terminals won a budget slot depends on scheduling, so
  // an exhausted run may report Violated (with a genuine counterexample) on
  // one run and Unknown on another — both sound, neither a proof. Within
  // the budget (all tier-1 workloads are orders of magnitude below it)
  // results are fully deterministic.
  // ---------------------------------------------------------------------

  struct TerminalRecord {
    std::vector<uint32_t> order;  // DFS address: per-element segment index
    ComposeState st;
    const Segment* seg = nullptr;
  };
  using TerminalFn = std::function<void(size_t worker, TerminalRecord&&)>;
  using VisitFn = std::function<bool(size_t elem)>;

  // A truncated summary or an exhausted path budget ends the walk; tasks
  // check both before every segment.
  bool stopped() const { return truncated_ || budget_exhausted_; }

  // Counts one composed path; false (with the budget flag set) once
  // max_composed_paths is exceeded.
  bool count_path() {
    const uint64_t done =
        paths_checked_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (done <= cfg.max_composed_paths) return true;
    budget_exhausted_ = true;
    return false;
  }

  // Walks every composed path from element 0 and returns once the whole
  // task tree has drained. `should_visit` prunes subtrees (e.g. elements
  // that cannot reach a suspect).
  void walk_paths(const pipeline::Pipeline& pl, ComposeState root,
                  const TerminalFn& on_terminal, const VisitFn& should_visit,
                  Precision precision) {
    queue.submit([this, &pl, st = std::move(root), &on_terminal,
                  &should_visit, precision](size_t w) mutable {
      walk_task(pl, 0, std::move(st), {}, w, on_terminal, should_visit,
                precision);
    });
    queue.wait_idle();
  }

  void walk_task(const pipeline::Pipeline& pl, size_t elem, ComposeState st,
                 std::vector<uint32_t> order, size_t worker,
                 const TerminalFn& on_terminal, const VisitFn& should_visit,
                 Precision precision) {
    if (stopped() || !should_visit(elem)) return;
    VerifyStats& ws = wstats_[worker];
    const ElementSummary& sum = summary_for(pl, elem, st.pkt->bytes.size(),
                                            precision, pool.at(worker), ws);
    if (sum.truncated) {
      truncated_ = true;
      return;
    }
    for (uint32_t i = 0; i < sum.segments.size(); ++i) {
      if (stopped()) return;
      const Segment& g = sum.segments[i];
      const bool is_emit = g.action == SegAction::Emit;
      const std::optional<size_t> down =
          is_emit ? pl.downstream(elem, g.port) : std::nullopt;
      auto expanded = expand_segment(sum, g, st, elem, down, ws);
      if (!expanded) continue;
      std::vector<uint32_t> corder = order;
      corder.push_back(i);
      if (is_emit && down.has_value()) {
        queue.submit([this, &pl, d = *down, n = std::move(*expanded),
                      o = std::move(corder), &on_terminal, &should_visit,
                      precision](size_t w) mutable {
          walk_task(pl, d, std::move(n), std::move(o), w, on_terminal,
                    should_visit, precision);
        });
        continue;
      }
      if (!count_path()) return;
      on_terminal(worker,
                  TerminalRecord{std::move(corder), std::move(*expanded), &g});
    }
  }

  void begin_call(const pipeline::Pipeline& pl) {
    wstats_.assign(jobs, VerifyStats{});
    prog_hash_.resize(pl.size());
    for (size_t e = 0; e < pl.size(); ++e) {
      prog_hash_[e] = ir::program_hash(pl.element(e).model_program());
    }
    begin_cache_context(pl);
    paths_checked_.store(0, std::memory_order_relaxed);
    truncated_ = false;
    budget_exhausted_ = false;
    refine_cache_.clear();
    stitch_memo_.clear();
    states_.clear();
    state_writes_memo_.clear();
    pool.reset_stats();
    // One live incremental context per solver per top-level call: reuse
    // within the call's query runs, bounded memory across a batch.
    pool.reset_contexts();
    // Route every solver's feasibility verdicts through the persistent
    // cache. This is where the big warm win lives: most of a cold run's
    // sat_solves are summarization-time fork checks (Executor is_unsat),
    // and those are pure expression satisfiability — context-free, so the
    // memo is sound across runs and across pipelines.
    for (size_t w = 0; w < pool.size(); ++w) {
      pool.at(w).set_feasibility_memo(cfg.decision_cache);
    }
  }

  // -------------------------------------------------------------------
  // Persistent cross-run decision cache (cfg.decision_cache)
  // -------------------------------------------------------------------
  //
  // Every key binds only what the answer actually depends on: the call
  // knobs (packet length, loop handling), the constraint/trace material
  // itself, and the CONTENT of the elements that material touches — never
  // the whole pipeline. That locality is the service's payoff: resubmit a
  // spec with one element edited and only decisions whose path crosses the
  // edit re-derive; every other path warm-hits. Domain tags keep the three
  // entry families (suspect decisions, feasibility speculations,
  // refinements) disjoint even for coincidentally identical material. The
  // avoidance flags, job count, and incremental mode are deliberately NOT
  // keyed: they are verdict-invariant by design, so any of those runs may
  // share entries.
  static constexpr uint64_t kFpSuspect = 0x5059ec7f1a7c15ull;
  static constexpr uint64_t kFpFeasible = 0xfea51b1e0a7c15ull;
  static constexpr uint64_t kFpRefine = 0x5ef19e0f2b7c15ull;

  uint64_t call_hi_ = 0, call_lo_ = 0;
  // Per-element content hash: the element's model program plus its port
  // wiring (downstream indices — the refine walk matches trace indices
  // through exactly this wiring). Recomputed per call; read-only while
  // workers run.
  std::vector<uint64_t> elem_fp_;

  void begin_cache_context(const pipeline::Pipeline& pl) {
    if (cfg.decision_cache == nullptr) return;
    cache::Fingerprint fp;
    fp.mix(cfg.packet_len);
    // Insurance only: constraints are hashed structurally, so loop-mode
    // differences already produce different keys; keying the mode keeps
    // even a diagnostic-name collision between modes from aliasing.
    fp.mix(static_cast<uint64_t>(cfg.loop_mode));
    fp.mix(cfg.unroll_fallback ? 1 : 0);
    call_hi_ = fp.hi();
    call_lo_ = fp.lo();
    elem_fp_.assign(pl.size(), 0);
    for (size_t e = 0; e < pl.size(); ++e) {
      cache::Fingerprint ef;
      const ir::Program& prog = pl.element(e).model_program();
      ef.mix(prog_hash_[e]);
      for (uint32_t p = 0; p < prog.num_output_ports; ++p) {
        const auto down = pl.downstream(e, p);
        ef.mix(down ? static_cast<uint64_t>(*down) : ~0ull);
      }
      elem_fp_[e] = ef.hi() ^ (ef.lo() * 0x9e3779b97f4a7c15ull);
    }
  }

  cache::Fingerprint suspect_fingerprint(const ComposeState& st) const {
    cache::Fingerprint fp;
    fp.mix(kFpSuspect);
    fp.mix(call_hi_);
    fp.mix(call_lo_);
    // The decision sees exactly the traversed elements (their summaries
    // shaped the constraint), so bind their content — an edit anywhere
    // else in the pipeline leaves this key (and its answer) valid.
    fp.mix(st.elem_trace.size());
    for (const size_t e : st.elem_trace) fp.mix(elem_fp_[e]);
    fp.mix_expr(st.constraint);
    // The KV history refinement enumerates the owning element's write
    // sites (tables are element-private), so each read binds that
    // element's content plus the stitched key/value expressions.
    fp.mix(st.kv_reads.size());
    for (const PathKvRead& pr : st.kv_reads) {
      fp.mix(elem_fp_[pr.elem]);
      fp.mix(pr.len);
      fp.mix(static_cast<uint64_t>(pr.rec.table));
      fp.mix_expr(pr.rec.key);
      fp.mix_expr(pr.rec.value);
    }
    return fp;
  }

  cache::Fingerprint feasible_fingerprint(const ExprRef& c) const {
    cache::Fingerprint fp;
    fp.mix(kFpFeasible);
    // Satisfiability of a constraint is a property of the expression
    // alone — no pipeline or call context needed, so these entries are
    // shared across every pipeline that composes the same formula.
    fp.mix_expr(c);
    return fp;
  }

  cache::Fingerprint refine_fingerprint(const TerminalSpec& tspec,
                                        const ExprRef& root_constraint,
                                        const std::vector<size_t>& trace)
      const {
    cache::Fingerprint fp;
    fp.mix(kFpRefine);
    fp.mix(call_hi_);
    fp.mix(call_lo_);
    fp.mix(tspec.drop_is_violation ? 1 : 0);
    fp.mix(tspec.trap_is_violation ? 1 : 0);
    fp.mix(tspec.required_exit_port
               ? static_cast<uint64_t>(*tspec.required_exit_port)
               : ~0ull);
    fp.mix_expr(root_constraint);
    // The exact re-walk touches only the trace's elements: their indices
    // (interior steps follow emits into trace[depth+1]) and their content.
    fp.mix(trace.size());
    for (const size_t e : trace) {
      fp.mix(e);
      fp.mix(elem_fp_[e]);
    }
    // The refine budgets are excluded on purpose: they only decide whether
    // an outcome exists (Unknown is never stored), never which one.
    return fp;
  }

  // Feasibility speculation (instruction-bound driver) through the
  // persistent cache: both polarities are reusable here — acting on Sat
  // needs no model, because the witness comes from a separate one-shot
  // solve on the winning path only.
  solver::Result cached_feasible(const ExprRef& c, solver::Solver& sv,
                                 VerifyStats& vstats) {
    if (cfg.decision_cache != nullptr) {
      const cache::Fingerprint fp = feasible_fingerprint(c);
      bool sat = false;
      if (cfg.decision_cache->lookup_decision(fp.hi(), fp.lo(), &sat)) {
        ++vstats.decision_cache_hits;
        return sat ? solver::Result::Sat : solver::Result::Unsat;
      }
      ++vstats.solver_queries;
      const solver::Result r = sv.check_feasible(c);
      if (r != solver::Result::Unknown) {
        cfg.decision_cache->store_decision(fp.hi(), fp.lo(),
                                           r == solver::Result::Sat);
      }
      return r;
    }
    ++vstats.solver_queries;
    return sv.check_feasible(c);
  }

  // Final per-call stats: every worker's driver counters plus the
  // solver-layer totals of every worker's solver.
  VerifyStats snapshot_stats() {
    VerifyStats out;
    for (const VerifyStats& s : wstats_) out += s;
    out.composed_paths_checked = paths_checked_.load(std::memory_order_relaxed);
    for (size_t w = 0; w < pool.size(); ++w) {
      const solver::CheckStats& cs = pool.at(w).stats();
      out.sat_conflicts += cs.sat_conflicts;
      out.sat_decisions += cs.sat_decisions;
      out.blast_nodes += cs.blast_nodes;
      out.solver_cache_hits += cs.cache_hits;
      out.contexts_opened += cs.contexts_opened;
      out.incremental_queries += cs.incremental_queries;
      out.assumption_reuses += cs.assumption_reuses;
      out.learnt_retained += cs.learnt_retained;
      out.sat_solves += cs.decided_by_sat + cs.incremental_queries;
      out.rewrites_applied += cs.rewrites_applied;
      out.rewrite_decided += cs.rewrite_decided;
      out.slice_decided += cs.slice_decided;
      out.cex_cache_hits += cs.cex_cache_hits;
      out.core_discharges += cs.core_discharges;
      out.learnt_gc_runs += cs.learnt_gc_runs;
      out.learnt_gc_removed += cs.learnt_gc_removed;
      // Solver-layer persistent-memo hits are decision-cache hits for
      // reporting: one counter tells the whole query-avoidance story.
      out.decision_cache_hits += cs.memo_hits;
    }
    return out;
  }

  // ---------------------------------------------------------------------
  // Stateful refinement: the bad-value analysis for private state
  // ---------------------------------------------------------------------

  // History constraint for one renamed KV read: the value is the table's
  // default (0) or a value some feasible execution of this element could
  // have written (writer inputs fully fresh — an arbitrary earlier packet).
  ExprRef kv_history_constraint(const pipeline::Pipeline& pl,
                                const PathKvRead& pr, solver::Solver& sv,
                                VerifyStats& vstats) {
    const symbex::KvReadRecord& read = pr.rec;
    const ElementSummary& sum =
        summary_for(pl, pr.elem, pr.len, Precision::AcceptBounds, sv, vstats);
    ExprRef any = bv::mk_eq(read.value,
                            bv::mk_const(0, read.value->width()));
    for (const Segment& g : sum.segments) {
      for (const auto& wr : g.kv_writes) {
        if (wr.table != read.table) continue;
        // Fresh-rename the writer's entire variable set.
        bv::Substitution sub;
        std::unordered_set<uint64_t> seen;
        const auto rename_all = [&](const ExprRef& e) {
          for (const ExprRef& v : bv::free_variables(e)) {
            if (seen.insert(v->var_id()).second) {
              sub.emplace(v->var_id(), bv::mk_var("wrt." + v->name(),
                                                  v->width()));
            }
          }
        };
        rename_all(g.constraint);
        rename_all(wr.value);
        const ExprRef writer_feasible = bv::substitute(g.constraint, sub);
        const ExprRef written = bv::substitute(wr.value, sub);
        any = bv::mk_lor(
            any, bv::mk_land(writer_feasible,
                             bv::mk_eq(read.value, written)));
      }
    }
    return any;
  }

  // Decides a suspect's stitched constraint, applying the KV history
  // refinement when private-state reads are involved. On Sat, fills the
  // model and state note. `sv`/`vstats` are the calling worker's instances.
  solver::Result decide_suspect(const pipeline::Pipeline& pl,
                                const ComposeState& st,
                                bv::Assignment* model_out,
                                std::string* state_note, solver::Solver& sv,
                                VerifyStats& vstats) {
    obs::ScopedSpan sp(obs::Cat::Stitch, "decide_suspect");
    if (sp) {
      std::string path;
      for (const size_t i : st.elem_trace) {
        if (!path.empty()) path += " > ";
        path += pl.element(i).name();
      }
      sp.arg("path", std::move(path));
      obs::count("verify.suspects_decided");
    }
    // Persistent-cache front-run: a prior run (or serve request) proved
    // this exact stitched material infeasible — skip all solving. Only
    // Unsat is consumed here: a Sat suspect must re-solve for a fresh
    // model, which keeps warm counterexample bytes identical to cold ones.
    bool have_fp = false;
    cache::Fingerprint fp;
    if (cfg.decision_cache != nullptr) {
      fp = suspect_fingerprint(st);
      have_fp = true;
      bool cached_sat = false;
      if (cfg.decision_cache->lookup_decision(fp.hi(), fp.lo(),
                                              &cached_sat) &&
          !cached_sat) {
        ++vstats.decision_cache_hits;
        return solver::Result::Unsat;
      }
    }
    // Core-grouping front-run: a previously harvested unsat core whose
    // conjuncts all appear in this stitched constraint discharges the whole
    // suspect with zero solving — one core typically kills the entire
    // family of suspects stitched over the same infeasible prefix.
    if (cfg.core_grouping && sv.discharge_by_core(st.constraint)) {
      ++vstats.suspects_core_discharged;
      if (have_fp) cfg.decision_cache->store_decision(fp.hi(), fp.lo(), false);
      return solver::Result::Unsat;
    }
    ++vstats.solver_queries;
    solver::CheckResult r = sv.check(st.constraint);
    if (r.result != solver::Result::Sat || st.kv_reads.empty()) {
      if (r.result == solver::Result::Sat && model_out != nullptr) {
        *model_out = std::move(r.model);
      }
      if (have_fp && r.result == solver::Result::Unsat) {
        cfg.decision_cache->store_decision(fp.hi(), fp.lo(), false);
      }
      return r.result;
    }
    // The violation may hinge on values read from private state; ask
    // whether the required values are reachable through any write history.
    ExprRef refined = st.constraint;
    for (const PathKvRead& pr : st.kv_reads) {
      refined = bv::mk_land(refined, kv_history_constraint(pl, pr, sv, vstats));
    }
    ++vstats.solver_queries;
    solver::CheckResult r2 = sv.check(refined);
    if (r2.result == solver::Result::Sat) {
      if (model_out != nullptr) *model_out = std::move(r2.model);
      if (state_note != nullptr) {
        *state_note =
            "requires private state reachable via a prior packet sequence "
            "(KV bad-value analysis: a feasible write history produces the "
            "required value)";
      }
    }
    if (have_fp && r2.result == solver::Result::Unsat) {
      cfg.decision_cache->store_decision(fp.hi(), fp.lo(), false);
    }
    return r2.result;
  }

  // ---------------------------------------------------------------------
  // Per-path unroll refinement
  // ---------------------------------------------------------------------
  //
  // A suspect (wrong-port Emit, Drop, or Trap) whose composed path crossed
  // a summarized loop is Sat-but-uncertifiable: the model may be an
  // artifact of the havocked loop outputs (see reach_never). Instead
  // of degrading to Unknown, re-execute JUST that element trace with loops
  // concretely unrolled (exact summaries) and decide the violating exits
  // again. Upgrades the suspect to a certified Violated (a model over
  // exact constraints, concretely replayable) or eliminates it (every
  // exact violating exit on the trace is infeasible); stays Unknown only
  // when the exact re-walk blows its budget or the solver gives up. Much
  // cheaper than ExactAll everywhere: one trace's loop-bearing elements
  // are unrolled, not every element of every path.

  struct RefineOutcome {
    solver::Result res = solver::Result::Unknown;
    Counterexample ce;  // valid when res == Sat
  };

  // Exact (unrolled) summaries for the refinement come from a dedicated
  // cache whose executor carries the refinement's wall-clock budget: a
  // loop-heavy element that cannot be unrolled within the budget yields a
  // truncated summary (-> the refinement gives up as Unknown) instead of
  // hanging, and never pollutes the unbudgeted unroll cache.
  symbex::SharedSummaryCache& cache_refine_mem() {
    return cfg.shared_caches ? cfg.shared_caches->refine : own_caches_.refine;
  }

  const ElementSummary& refine_summary(const pipeline::Pipeline& pl,
                                       size_t elem, size_t len,
                                       solver::Solver& sv,
                                       VerifyStats& vstats) {
    symbex::ExecOptions eo;
    eo.loop_mode = symbex::LoopMode::Unroll;
    eo.fork_check = symbex::ForkCheck::Solver;
    eo.solver = &sv;
    eo.time_budget_seconds = cfg.refine_time_budget_seconds;
    if (cfg.refine_max_instructions != 0) {
      eo.max_instructions = cfg.refine_max_instructions;
    }
    eo.max_solver_checks = cfg.refine_max_solver_checks;
    symbex::Executor exec(eo);
    bool was_miss = false;
    const ElementSummary& s =
        cache_refine_mem().get(pl.element(elem).model_program(),
                               prog_hash_[elem], len, exec, &was_miss);
    if (was_miss) {
      ++vstats.elements_summarized;
      vstats.segments_total += s.segments.size();
      vstats.instructions_interpreted += s.stats.instructions_interpreted;
      vstats.forks += s.stats.forks;
    } else {
      ++vstats.summary_cache_hits;
    }
    return s;
  }

  RefineOutcome refine_summarized_path(const pipeline::Pipeline& pl,
                                       const TerminalSpec& tspec,
                                       const SymPacket& entry,
                                       const ExprRef& root_constraint,
                                       const std::vector<size_t>& trace,
                                       solver::Solver& sv,
                                       VerifyStats& vstats) {
    RefineOutcome out;
    if (!cfg.unroll_fallback || trace.empty()) return out;
    ++vstats.refinements_attempted;
    obs::ScopedSpan sp(obs::Cat::Refine, "refine_path");
    if (sp) {
      std::string path;
      for (const size_t i : trace) {
        if (!path.empty()) path += " > ";
        path += pl.element(i).name();
      }
      sp.arg("path", std::move(path));
      obs::count("verify.refinements_attempted");
    }
    uint64_t paths = 0;
    bool gave_up = false;  // budget/truncation: result stays Unknown
    bool solver_unknown = false;
    ComposeState root = root_state(entry);
    root.constraint = root_constraint;
    const std::function<void(size_t, ComposeState)> go =
        [&](size_t depth, ComposeState st) {
          if (out.res == solver::Result::Sat || gave_up) return;
          const size_t elem = trace[depth];
          const ElementSummary& sum =
              refine_summary(pl, elem, st.pkt->bytes.size(), sv, vstats);
          if (sum.truncated) {
            gave_up = true;
            return;
          }
          const bool last = depth + 1 == trace.size();
          for (const Segment& g : sum.segments) {
            if (out.res == solver::Result::Sat || gave_up) return;
            const bool is_emit = g.action == SegAction::Emit;
            const std::optional<size_t> down =
                is_emit ? pl.downstream(elem, g.port) : std::nullopt;
            if (!last) {
              // Interior step: follow only Emit edges into the trace's
              // next element.
              if (!is_emit || !down || *down != trace[depth + 1]) continue;
              auto expanded = expand_segment(sum, g, st, elem, down, vstats);
              if (!expanded) continue;
              if (++paths > cfg.max_refine_paths) {
                gave_up = true;
                return;
              }
              go(depth + 1, std::move(*expanded));
              continue;
            }
            // The trace's terminal element: re-decide every violating
            // exit exactly — wrong-port emits leaving the pipeline, drops,
            // and traps alike. Any of them can be routed here when an
            // upstream element's summarized loop over-approximated the
            // stitched constraint (the suspect element's own drop/trap
            // constraints were already exact, but the path prefix feeding
            // them was not).
            if (is_emit && down.has_value()) continue;  // not a terminal
            if (!terminal_violates(tspec, g.action, g.port)) continue;
            auto expanded = expand_segment(sum, g, st, elem, down, vstats);
            if (!expanded) continue;
            if (++paths > cfg.max_refine_paths) {
              gave_up = true;
              return;
            }
            bv::Assignment model;
            std::string note;
            const solver::Result r =
                decide_suspect(pl, *expanded, &model, &note, sv, vstats);
            if (r == solver::Result::Unknown) {
              solver_unknown = true;
              continue;
            }
            if (r == solver::Result::Unsat) {
              ++vstats.suspects_eliminated;
              continue;
            }
            out.res = solver::Result::Sat;
            out.ce = make_counterexample(pl, entry, *expanded, model,
                                         g.action == SegAction::Trap
                                             ? g.trap
                                             : ir::TrapKind::Unreachable,
                                         std::move(note));
            // Annotate without flipping requires_sequence: a refined model
            // satisfies exact constraints and replays as a single packet
            // (unless the KV analysis above also flagged it).
            const char* refined_note =
                "certified by per-path unroll refinement (summarized loop "
                "re-executed unrolled along this path)";
            out.ce.state_note = out.ce.state_note.empty()
                                    ? refined_note
                                    : out.ce.state_note + "; " + refined_note;
          }
        };
    go(0, std::move(root));
    if (out.res == solver::Result::Sat) {
      ++vstats.refinements_certified;
      return out;
    }
    if (gave_up || solver_unknown) return out;  // Unknown
    out.res = solver::Result::Unsat;  // every exact exit infeasible
    ++vstats.refinements_eliminated;
    return out;
  }

  // Several uncertifiable suspects can share one element trace (the
  // trace's last element may have multiple wrong-port exits): the exact
  // re-walk is paid once per trace and its counterexample reported once.
  // `first` tells the caller whether this call computed the outcome.
  std::map<std::vector<size_t>, RefineOutcome> refine_cache_;

  const RefineOutcome& refine_cached(const pipeline::Pipeline& pl,
                                     const TerminalSpec& tspec,
                                     const SymPacket& entry,
                                     const ExprRef& root_constraint,
                                     const std::vector<size_t>& trace,
                                     solver::Solver& sv, VerifyStats& vstats,
                                     bool* first) {
    const auto it = refine_cache_.find(trace);
    if (it != refine_cache_.end()) {
      *first = false;
      return it->second;
    }
    *first = true;
    if (cfg.decision_cache != nullptr) {
      // Whole refinement outcomes persist across runs, counterexample
      // included: the CE was certified against exact (unrolled)
      // constraints, so replaying its stored bytes is as sound as
      // recomputing them — and byte-identical, which the determinism
      // battery asserts. Unknown (budget/solver give-up) is never stored.
      const cache::Fingerprint fp =
          refine_fingerprint(tspec, root_constraint, trace);
      bool sat = false;
      RefineOutcome ro;
      if (cfg.decision_cache->lookup_refine(fp.hi(), fp.lo(), &sat, &ro.ce)) {
        ++vstats.refine_cache_hits;
        ro.res = sat ? solver::Result::Sat : solver::Result::Unsat;
        return refine_cache_.emplace(trace, std::move(ro)).first->second;
      }
      ro = refine_summarized_path(pl, tspec, entry, root_constraint, trace,
                                  sv, vstats);
      if (ro.res != solver::Result::Unknown) {
        cfg.decision_cache->store_refine(
            fp.hi(), fp.lo(), ro.res == solver::Result::Sat, ro.ce);
      }
      return refine_cache_.emplace(trace, std::move(ro)).first->second;
    }
    return refine_cache_
        .emplace(trace, refine_summarized_path(pl, tspec, entry,
                                               root_constraint, trace, sv,
                                               vstats))
        .first->second;
  }

  // ---------------------------------------------------------------------
  // Bounded state / flow occupancy
  // ---------------------------------------------------------------------

  // A KvWrite site stitched onto a pipeline path: the path+segment
  // constraint and the key expression, both over the entry packet.
  struct PathInsertSite {
    size_t elem = 0;
    ir::TableId table = 0;
    ExprRef guard;
    ExprRef key;
    std::vector<PathKvRead> kv_reads;  // reads along the path (refinement)
  };

  // Per-(element, packet length) state summaries, derived from the
  // segment summary actually used at that pipeline position. Keying by
  // length matters: an element downstream of encap/decap executes at a
  // different length than the pipeline entry, and its writes may be
  // reachable only there.
  std::map<std::pair<size_t, size_t>, symbex::StateSummary>
      state_writes_memo_;

  const symbex::StateSummary& element_state_at(const pipeline::Pipeline& pl,
                                               size_t elem, size_t len,
                                               const ElementSummary& sum) {
    const auto key = std::make_pair(elem, len);
    const auto it = state_writes_memo_.find(key);
    if (it != state_writes_memo_.end()) return it->second;
    return state_writes_memo_
        .emplace(key, symbex::summarize_state(pl.element(elem).model_program(), sum))
        .first->second;
  }

  // DFS over the composed pipeline collecting every insert site of the
  // counted elements. `filter` prunes subtrees that cannot reach a
  // counted element.
  void collect_state_sites(const pipeline::Pipeline& pl, size_t elem,
                           ComposeState st, const std::vector<bool>& counted,
                           const std::vector<bool>& filter,
                           std::vector<PathInsertSite>* out) {
    if (!filter[elem] || stopped()) return;
    const ElementSummary& sum =
        summary_for(pl, elem, st.pkt->bytes.size(), Precision::AcceptBounds,
                    main_solver(), main_stats());
    if (sum.truncated) {
      truncated_ = true;
      return;
    }
    // The element's state summary classifies which writes of which
    // segments can insert; only those are stitched below.
    const symbex::StateSummary* ss = nullptr;
    if (counted[elem]) {
      const symbex::StateSummary& s =
          element_state_at(pl, elem, st.pkt->bytes.size(), sum);
      if (s.insert_site_count() > 0) ss = &s;
    }
    for (size_t si = 0; si < sum.segments.size(); ++si) {
      const Segment& g = sum.segments[si];
      if (stopped()) return;
      const bool is_emit = g.action == SegAction::Emit;
      const std::optional<size_t> down =
          is_emit ? pl.downstream(elem, g.port) : std::nullopt;
      const bool continues = is_emit && down.has_value();
      if (!continues && ss == nullptr) continue;
      ExprRef c;
      const Stitched* inst =
          instantiate(elem, sum, g, st, continues, ss != nullptr, &c);
      if (inst == nullptr) continue;
      ComposeState next = next_state(st, *inst, c, elem);
      if (ss != nullptr) {
        for (const symbex::TableStateSummary& ts : ss->tables) {
          for (const symbex::StateSite& site_in : ts.inserts) {
            if (site_in.segment != si) continue;
            const auto& wr = inst->kv_writes.at(site_in.write_index);
            // Stitching only folds further: a write whose stitched value
            // is now provably 0 is an eviction after all.
            if (symbex::is_evict_write(wr.value)) continue;
            // An entry is live only when the written value is non-zero;
            // folding it into the guard forces enumeration models to
            // choose genuinely-live insertions, so certification replay
            // counts exactly what enumeration counted.
            const ExprRef live = bv::mk_land(
                c, bv::mk_ne(wr.value, bv::mk_const(0, wr.value->width())));
            if (live->is_false()) continue;
            PathInsertSite site;
            site.elem = elem;
            site.table = ts.table;
            site.guard = live;
            site.key = wr.key;
            site.kv_reads = next.kv_reads;
            out->push_back(std::move(site));
          }
        }
      }
      if (continues) {
        if (!count_path()) return;
        collect_state_sites(pl, *down, std::move(next), counted, filter,
                            out);
      }
    }
  }

  StateBoundReport bounded_state(const pipeline::Pipeline& pl,
                                 const InputPredicate& predicate,
                                 const StateBoundSpec& spec) {
    Timer timer;
    begin_call(pl);
    StateBoundReport report;
    report.bound = spec.bound;

    std::vector<bool> counted(pl.size(), false);
    for (size_t e = 0; e < pl.size(); ++e) {
      counted[e] =
          spec.element.empty() || pl.element(e).name() == spec.element;
    }

    // Report scaffolding: every table of every counted element appears in
    // the report, even when provably empty. (Table declarations don't
    // depend on packet length; whether a table has reachable insert sites
    // does, and is decided per pipeline position during the walk below.)
    std::map<std::pair<size_t, ir::TableId>, TableOccupancy> occupancy;
    for (size_t e = 0; e < pl.size(); ++e) {
      if (!counted[e]) continue;
      const ir::Program& prog = pl.element(e).model_program();
      for (size_t t = 0; t < prog.kv_tables.size(); ++t) {
        TableOccupancy occ;
        occ.element = e;
        occ.element_name = pl.element(e).name();
        occ.table_name = prog.kv_tables[t].name;
        occ.exhausted = true;  // until enumeration says otherwise
        occupancy.emplace(
            std::make_pair(e, static_cast<ir::TableId>(t)), occ);
      }
    }

    const SymPacket entry = SymPacket::symbolic(cfg.packet_len, "in");
    ComposeState root = root_state(entry);
    root.constraint = predicate(entry);

    // Steps 1+2: stitch every insert site onto its pipeline paths. Like
    // the enumeration below, whose every query depends on the keys found
    // so far, this runs on the caller at any job count.
    std::vector<PathInsertSite> sites;
    {
      const std::vector<bool> filter = reachability_filter(pl, counted);
      collect_state_sites(pl, 0, std::move(root), counted, filter, &sites);
    }
    if (stopped()) return finish(report, Verdict::Unknown, timer);

    // Step 3: enumerate distinct feasible keys per (element, table) with
    // blocking clauses. Each Sat model is one injectable packet creating
    // one new entry; Unsat with all found keys blocked exhausts the table.
    std::map<std::pair<size_t, ir::TableId>,
             std::vector<const PathInsertSite*>>
        groups;
    for (const PathInsertSite& s : sites) {
      groups[{s.elem, s.table}].push_back(&s);
    }
    uint64_t total = 0;
    uint64_t keys_budget = 0;
    bool unknown = false;
    bool over = false;
    // A table with insert sites counts as exhausted only once every site
    // ran dry; tables skipped because the bound was already exceeded must
    // not claim a proof.
    for (const auto& [id, group] : groups) {
      (void)group;
      occupancy.at(id).exhausted = false;
    }
    for (const auto& [id, group] : groups) {
      TableOccupancy& occ = occupancy.at(id);
      obs::ScopedSpan esp(obs::Cat::Enumerate, "enumerate_keys");
      if (esp) {
        esp.arg("element", occupancy.at(id).element_name);
        esp.arg("table", occupancy.at(id).table_name);
      }
      std::vector<uint64_t> found;
      // Incremental enumeration: one live SAT context per table. Each
      // site's refined constraint (guard ∧ KV write history, fixed per
      // site) is passed as assumptions — switching sites retracts it for
      // free — while everything learnt finding or excluding one key keeps
      // pruning the next query. Enumeration is sequential-by-design on the
      // main solver at any job count and the context starts fresh here, so
      // the models (hence packet bytes) are byte-identical at any --jobs.
      std::unique_ptr<solver::SolverContext> ectx;
      if (cfg.incremental) {
        ectx = std::make_unique<solver::SolverContext>(main_solver());
      }
      for (const PathInsertSite* site : group) {
        // The bad-value refinement for reads along the site's path: fixed
        // per site, so it is conjoined up front (and blasted once) rather
        // than re-derived per model as the one-shot path does.
        ExprRef refined;
        if (ectx && !site->kv_reads.empty()) {
          refined = site->guard;
          for (const PathKvRead& pr : site->kv_reads) {
            refined = bv::mk_land(
                refined,
                kv_history_constraint(pl, pr, main_solver(), main_stats()));
          }
        }
        for (;;) {
          if (++keys_budget > cfg.max_state_keys) {
            unknown = true;
            break;
          }
          ExprRef q = ectx && refined ? refined : site->guard;
          for (const uint64_t v : found) {
            q = bv::mk_land(
                q, bv::mk_ne(site->key,
                             bv::mk_const(v, site->key->width())));
          }
          bv::Assignment model;
          solver::Result r;
          if (ectx) {
            ++main_stats().solver_queries;
            solver::CheckResult cr = ectx->check_assuming(q);
            r = cr.result;
            model = std::move(cr.model);
          } else {
            ComposeState cs;
            cs.constraint = q;
            cs.kv_reads = site->kv_reads;
            r = decide_suspect(pl, cs, &model, nullptr, main_solver(),
                               main_stats());
          }
          if (r == solver::Result::Unsat) break;  // site dry; next site
          if (r == solver::Result::Unknown) {
            unknown = true;
            break;
          }
          // The blocking clause joins the live context as a new assumption
          // conjunct on the next iteration: it blasts once, stays cached
          // for the rest of the table's enumeration, and every conflict
          // learnt from it keeps pruning later models — yet it retracts
          // automatically when enumeration moves to a site with a
          // different key expression (a permanent assertion would leak
          // this site's blocks into the other sites' queries).
          found.push_back(bv::evaluate(site->key, model));
          obs::count("verify.state_keys_found");
          report.packet_sequence.push_back(entry.to_concrete(model));
          ++total;
          if (total > spec.bound) {
            over = true;
            break;
          }
        }
        if (unknown || over) break;
      }
      occ.keys_found = found.size();
      if (unknown || over) break;
      occ.exhausted = true;  // every site of this table ran dry
    }
    for (auto& [id, occ] : occupancy) report.tables.push_back(occ);
    report.occupancy = total;

    if (over) {
      // Certify: the sequence must concretely drive occupancy past the
      // bound (guards Violated against loop-havoc artifacts in stitched
      // constraints).
      const uint64_t replayed = replay_sequence_occupancy_counted(
          pl, report.packet_sequence, counted);
      if (replayed > spec.bound) {
        return finish(report, Verdict::Violated, timer);
      }
      report.sequence_uncertified = true;
      report.packet_sequence.clear();
      return finish(report, Verdict::Unknown, timer);
    }
    report.packet_sequence.clear();
    return finish(report, unknown ? Verdict::Unknown : Verdict::Proven, timer);
  }

  // ---------------------------------------------------------------------
  // Helpers shared by the property drivers
  // ---------------------------------------------------------------------

  // Entry lengths each element can be reached at, starting from
  // cfg.packet_len at element 0. pkt_pull / pkt_push change the packet
  // length mid-pipeline and Step-1 summaries are per-length, so a suspect
  // scan over entry-length summaries alone is unsound: an element whose
  // summary at the pipeline entry length is trap-free can still trap at
  // the shorter length an upstream strip hands it (found by fuzzing:
  // "Strip14 -> EthDecap -> UnsafeStrip(20) -> ToyE1" at 48 bytes strips
  // the packet to 0 bytes before ToyE1's reads). Emit-segment exit lengths
  // are concrete, so the length sets close over the pipeline with plain
  // set arithmetic — no constraint stitching, no solver. Segments whose
  // isolated constraint already folded to false are skipped; composed
  // infeasibility is NOT consulted, so the sets over-approximate — safe,
  // since Step 2 still decides every suspect with the stitched constraint.
  std::vector<std::set<size_t>> reachable_entry_lengths(
      const pipeline::Pipeline& pl, bool* any_truncated) {
    std::vector<std::set<size_t>> lens(pl.size());
    std::vector<std::pair<size_t, size_t>> work;
    const auto push = [&](size_t e, size_t len) {
      if (lens[e].insert(len).second) work.emplace_back(e, len);
    };
    push(0, cfg.packet_len);
    while (!work.empty()) {
      const auto [e, len] = work.back();
      work.pop_back();
      const ElementSummary& sum = summary_for(
          pl, e, len, Precision::AcceptBounds, main_solver(), main_stats());
      if (sum.truncated) {
        *any_truncated = true;
        continue;
      }
      for (const Segment& g : sum.segments) {
        if (g.action != SegAction::Emit || g.constraint->is_false()) continue;
        const std::optional<size_t> down = pl.downstream(e, g.port);
        if (down) push(*down, g.exit_packet.bytes().size());
      }
    }
    return lens;
  }

  // Elements from which any suspect-bearing element is reachable.
  std::vector<bool> reachability_filter(
      const pipeline::Pipeline& pl, const std::vector<bool>& is_target) {
    const size_t n = pl.size();
    std::vector<bool> can_reach(is_target);
    // Fixed-point over the DAG (small graphs; no need for topo order).
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t e = 0; e < n; ++e) {
        if (can_reach[e]) continue;
        for (uint32_t p = 0; p < pl.element(e).num_output_ports(); ++p) {
          const auto d = pl.downstream(e, p);
          if (d && can_reach[*d]) {
            can_reach[e] = true;
            changed = true;
            break;
          }
        }
      }
    }
    return can_reach;
  }

  Counterexample make_counterexample(const pipeline::Pipeline& pl,
                                     const SymPacket& entry,
                                     const ComposeState& st,
                                     const bv::Assignment& model,
                                     ir::TrapKind trap,
                                     std::string note) {
    Counterexample ce;
    ce.packet = entry.to_concrete(model);
    for (const size_t e : st.elem_trace) {
      ce.element_path.push_back(pl.element(e).name());
    }
    ce.trap = trap;
    // A note at this point always comes from the KV bad-value analysis:
    // the model relies on private state a prior packet sequence must build.
    ce.requires_sequence = !note.empty();
    ce.state_note = std::move(note);
    return ce;
  }

  ComposeState root_state(const SymPacket& entry) {
    ComposeState root;
    root.pkt = intern_state(PacketState{entry.bytes(), entry.meta()});
    root.constraint = bv::mk_bool(true);
    return root;
  }

  // Fills in the report's verdict, stats and time.
  template <typename Report>
  Report finish(Report& report, Verdict verdict, const Timer& timer) {
    report.verdict = verdict;
    report.stats = snapshot_stats();
    report.seconds = timer.seconds();
    return std::move(report);
  }

  Verdict walk_verdict(bool violated) const {
    if (violated) return Verdict::Violated;
    return stopped() ? Verdict::Unknown : Verdict::Proven;
  }

  // ---------------------------------------------------------------------
  // Property drivers
  // ---------------------------------------------------------------------

  // Shared by the crash-freedom and reachability drivers: walk, decide
  // every suspect terminal on the worker that reached it, then reduce the
  // outcomes in DFS order (sort by address) so truncation and the
  // counterexample list come out identically at any job count. An Unsat
  // suspect only counts as eliminated on its worker; Sat and Unknown
  // outcomes are buffered for the reduce. `is_suspect` selects the
  // property's suspect terminals and reports the trap kind for the
  // counterexample. It may set *sat_is_unknown for suspects whose Sat
  // outcome cannot certify a violation (over-approximated constraints):
  // those re-decide on the per-path unroll refinement against `tspec` and
  // the root constraint, or degrade to Unknown. Returns the violated flag.
  bool decide_suspects(
      const pipeline::Pipeline& pl, ComposeState root, const SymPacket& entry,
      const VisitFn& should_visit, Precision precision,
      const std::function<bool(const TerminalRecord&, size_t worker,
                               ir::TrapKind* trap, bool* sat_is_unknown)>&
          is_suspect,
      const TerminalSpec& tspec, std::vector<Counterexample>* counterexamples) {
    struct Outcome {
      std::vector<uint32_t> order;
      solver::Result res = solver::Result::Unknown;
      bool sat_is_unknown = false;
      Counterexample ce;
      std::vector<size_t> trace;  // for the unroll refinement
    };
    const ExprRef root_constraint = root.constraint;
    std::mutex out_mu;
    std::vector<Outcome> outcomes;
    walk_paths(
        pl, std::move(root),
        [&](size_t w, TerminalRecord&& t) {
          ir::TrapKind trap = ir::TrapKind::Unreachable;
          bool sat_unknown = false;
          if (!is_suspect(t, w, &trap, &sat_unknown)) return;
          bv::Assignment model;
          std::string note;
          const solver::Result r =
              decide_suspect(pl, t.st, &model, &note, pool.at(w), wstats_[w]);
          if (r == solver::Result::Unsat) {
            ++wstats_[w].suspects_eliminated;
            return;
          }
          Outcome o;
          o.order = std::move(t.order);
          o.res = r;
          o.sat_is_unknown = sat_unknown;
          if (r == solver::Result::Sat && !sat_unknown) {
            o.ce = make_counterexample(pl, entry, t.st, model, trap,
                                       std::move(note));
          } else if (r == solver::Result::Sat) {
            o.trace = t.st.elem_trace;
          }
          std::lock_guard<std::mutex> lock(out_mu);
          outcomes.push_back(std::move(o));
        },
        should_visit, precision);
    std::sort(outcomes.begin(), outcomes.end(), [](const Outcome& a,
                                                   const Outcome& b) {
      return a.order < b.order;
    });
    bool violated = false;
    for (Outcome& o : outcomes) {
      if (o.res == solver::Result::Unknown) {
        truncated_ = true;
        continue;
      }
      if (o.sat_is_unknown) {
        // Uncertifiable summarized-loop suspect: refine on the main
        // solver, in DFS order — outcomes stay identical at any job count.
        // Suspects sharing a trace pay for and report one refinement.
        bool first = false;
        const RefineOutcome& ro =
            refine_cached(pl, tspec, entry, root_constraint, o.trace,
                          main_solver(), main_stats(), &first);
        if (ro.res == solver::Result::Sat) {
          violated = true;
          if (first) counterexamples->push_back(ro.ce);
        } else if (ro.res == solver::Result::Unknown) {
          truncated_ = true;
        }
        continue;  // Unsat: certified infeasible once unrolled
      }
      violated = true;
      counterexamples->push_back(std::move(o.ce));
    }
    return violated;
  }

  CrashFreedomReport crash_freedom(const pipeline::Pipeline& pl) {
    Timer timer;
    begin_call(pl);
    CrashFreedomReport report;

    // Step 1: summarize every element at every entry length it can be
    // reached at (strips/encaps change the length mid-pipeline — see
    // reachable_entry_lengths); find suspects (feasible trap segments under
    // unconstrained element input).
    std::vector<bool> has_suspect(pl.size(), false);
    bool any_truncated = false;
    const std::vector<std::set<size_t>> lens =
        reachable_entry_lengths(pl, &any_truncated);
    for (size_t e = 0; e < pl.size(); ++e) {
      for (const size_t len : lens[e]) {
        const ElementSummary& sum = summary_for(
            pl, e, len, Precision::AcceptBounds, main_solver(), main_stats());
        if (sum.truncated) any_truncated = true;
        for (const Segment& g : sum.segments) {
          if (g.action != SegAction::Trap) continue;
          ++main_stats().suspects_found;
          if (!g.constraint->is_false()) has_suspect[e] = true;
        }
      }
    }
    if (any_truncated) return finish(report, Verdict::Unknown, timer);
    // No element can trap for any input: the pipeline provably never
    // crashes, no composition needed.
    if (std::none_of(has_suspect.begin(), has_suspect.end(),
                     [](bool b) { return b; })) {
      return finish(report, Verdict::Proven, timer);
    }

    // Step 2: compose paths that can reach a suspect element and decide
    // each suspect trap with the full stitched constraint. For Sat trap
    // suspects on paths that crossed a summarized loop (in any upstream
    // element), the model may be a havoc artifact — certify or eliminate
    // via the per-path unroll refinement, exactly like reach/never.
    const std::vector<bool> filter = reachability_filter(pl, has_suspect);
    const SymPacket entry = SymPacket::symbolic(cfg.packet_len, "in");
    TerminalSpec crash_tspec;
    crash_tspec.drop_is_violation = false;
    crash_tspec.trap_is_violation = true;
    const bool violated = decide_suspects(
        pl, root_state(entry), entry, [&](size_t e) { return filter[e]; },
        Precision::AcceptBounds,
        [](const TerminalRecord& t, size_t /*w*/, ir::TrapKind* trap,
           bool* sat_unknown) {
          if (t.seg->action != SegAction::Trap) return false;
          *trap = t.seg->trap;
          *sat_unknown = t.st.count_is_bound;
          return true;
        },
        crash_tspec, &report.counterexamples);
    return finish(report, walk_verdict(violated), timer);
  }

  InstructionBoundReport instruction_bound(const pipeline::Pipeline& pl) {
    Timer timer;
    begin_call(pl);
    InstructionBoundReport report;

    const SymPacket entry = SymPacket::symbolic(cfg.packet_len, "in");
    // Terminals are buffered before deciding, at every job count, so peak
    // memory is O(paths): per terminal just the DFS address plus refs into
    // the (immortal, interned) constraint DAG, which dominates. On the
    // depth-14 `deep` chain (525,050 composed paths over its three
    // assertions) peak RSS at jobs=1 is 298 MB (`vsd_e2e --cliff`). The
    // buffer's own share is small: it measured 549 MB against 547 MB for a
    // scan that decides each terminal as the walk reaches it, before the
    // stitch memo halved the DAG. Revisit with streamed batches if budgets
    // grow.
    struct Rec {
      std::vector<uint32_t> order;
      uint64_t total = 0;
      bool is_bound = false;
      ExprRef constraint;
    };
    std::mutex rec_mu;
    std::vector<Rec> recs;
    walk_paths(
        pl, root_state(entry),
        [&](size_t /*w*/, TerminalRecord&& t) {
          Rec r;
          r.order = std::move(t.order);
          r.total = t.st.count;
          r.is_bound = t.st.count_is_bound;
          r.constraint = t.st.constraint;
          std::lock_guard<std::mutex> lock(rec_mu);
          recs.push_back(std::move(r));
        },
        [](size_t) { return true; }, Precision::AcceptBounds);

    std::sort(recs.begin(), recs.end(),
              [](const Rec& a, const Rec& b) { return a.order < b.order; });

    // Batched speculative decision with the semantics of a DFS-order scan
    // that solves only when a terminal's count could improve the running
    // max. Each batch gathers the next candidates under the current max,
    // decides them concurrently, then applies results in DFS order —
    // dropping any speculative result whose candidate the scan would have
    // skipped (its count no longer beats the max by apply time). Verdict,
    // bound, and witness are bit-identical at any job count; only the
    // (wasted) speculation differs. At jobs=1 a batch is one candidate, so
    // the scan wastes no query. The feasibility queries share long path
    // prefixes, exactly the incremental context's workload.
    uint64_t best = 0;
    bool best_is_bound = false;
    bv::ExprRef best_constraint;
    bool saw_unknown = false;
    const size_t batch_max = jobs == 1 ? 1 : std::max<size_t>(4 * jobs, 16);
    size_t cursor = 0;
    while (cursor < recs.size()) {
      std::vector<size_t> batch;
      batch.reserve(batch_max);
      size_t next_cursor = recs.size();
      for (size_t j = cursor; j < recs.size(); ++j) {
        if (recs[j].total > best) {
          batch.push_back(j);
          if (batch.size() == batch_max) {
            next_cursor = j + 1;
            break;
          }
        }
      }
      if (batch.empty()) break;
      std::vector<solver::Result> res(batch.size(), solver::Result::Unknown);
      parallel_for(queue, batch.size(), [&](size_t bi, size_t w) {
        res[bi] = cached_feasible(recs[batch[bi]].constraint, pool.at(w),
                                  wstats_[w]);
      });
      for (size_t bi = 0; bi < batch.size(); ++bi) {
        Rec& r = recs[batch[bi]];
        if (r.total <= best) continue;  // wasted speculation; scan skips it
        if (res[bi] == solver::Result::Unsat) continue;
        if (res[bi] == solver::Result::Unknown) {
          saw_unknown = true;
          continue;
        }
        best = r.total;
        best_is_bound = r.is_bound;
        best_constraint = r.constraint;
      }
      cursor = next_cursor;
    }

    report.max_instructions = best;
    report.bound_is_exact = !best_is_bound;
    // The witness model comes from a one-shot solve on the main solver —
    // deterministic in the constraint alone, so the packet bytes match at
    // any job count no matter which worker decided feasibility. Under a
    // finite conflict budget that fresh solve can come back Unknown even
    // though the incremental context already proved the path feasible; no
    // witness is derivable then, so the verdict honestly degrades.
    const bool already_unknown = stopped() || saw_unknown;
    solver::CheckResult witness_model;
    if (best_constraint && !already_unknown) {
      witness_model = main_solver().check(best_constraint);
    }
    if (already_unknown ||
        (best_constraint && witness_model.result != solver::Result::Sat)) {
      return finish(report, Verdict::Unknown, timer);
    }
    net::Packet witness = entry.to_concrete(witness_model.model);
    // Replay the witness concretely (scratch private state, the live
    // pipeline is untouched) to report the achieved count: equals the bound
    // when exact, a measured value under the bound otherwise.
    report.witness_instructions = replay_instruction_count(pl, witness);
    report.witness = std::move(witness);
    return finish(report, Verdict::Proven, timer);
  }

  // True when a composed terminal (Drop, Trap, or Emit leaving the
  // pipeline at `port`) violates the spec.
  static bool terminal_violates(const TerminalSpec& spec, SegAction action,
                                uint32_t port) {
    switch (action) {
      case SegAction::Drop: return spec.drop_is_violation;
      case SegAction::Trap: return spec.trap_is_violation;
      case SegAction::Emit:
        return spec.required_exit_port.has_value() &&
               port != *spec.required_exit_port;
    }
    return false;
  }

  // Reach/never properties run at ExactDropsTraps: Drop/Trap segments of
  // the suspect element itself are decided on exact (unrolled)
  // constraints, while Emit segments may keep their summarized-loop
  // over-approximation. That keeps Proven sound (over-approximation never
  // hides a feasible terminal) without unrolling every loop-bearing
  // element the way ExactAll does (exponential on e.g. IPOptions at
  // MTU-ish lengths). But a Sat model for ANY suspect whose composed path
  // crossed a summarized loop — in the suspect element or any element
  // UPSTREAM of it — is not a certified violation: the model may be an
  // artifact of the havocked loop outputs feeding the stitched constraint
  // (e.g. SetIPChecksum's summarized sum loop havocs the checksum bytes a
  // downstream CheckIPHeader tests, making "bad checksum -> drop" Sat for
  // packets the real element would fix). Such suspects re-decide on the
  // per-path unroll refinement and either certify a replayable
  // counterexample, eliminate the artifact, or degrade to Unknown. The
  // differential fuzz harness caught exactly this class as unreplayable
  // counterexamples before the path-wide gate existed.
  ReachabilityReport reach_never(const pipeline::Pipeline& pl,
                                 const InputPredicate& predicate,
                                 const TerminalSpec& tspec) {
    Timer timer;
    begin_call(pl);
    ReachabilityReport report;

    const SymPacket entry = SymPacket::symbolic(cfg.packet_len, "in");
    ComposeState root = root_state(entry);
    root.constraint = predicate(entry);
    if (root.constraint->is_false()) {
      report.verdict = Verdict::Proven;  // vacuous: no packet matches
      report.seconds = timer.seconds();
      return report;
    }
    const bool violated = decide_suspects(
        pl, std::move(root), entry, [](size_t) { return true; },
        Precision::ExactDropsTraps,
        [this, &tspec](const TerminalRecord& t, size_t w, ir::TrapKind* trap,
                       bool* sat_unknown) {
          if (!terminal_violates(tspec, t.seg->action, t.seg->port)) {
            return false;
          }
          ++wstats_[w].suspects_found;
          *trap = t.seg->action == SegAction::Trap ? t.seg->trap
                                                   : ir::TrapKind::Unreachable;
          *sat_unknown = t.st.count_is_bound;
          return true;
        },
        tspec, &report.counterexamples);
    return finish(report, walk_verdict(violated), timer);
  }

  ComposedPaths enumerate_paths(const pipeline::Pipeline& pl) {
    begin_call(pl);
    ComposedPaths out;
    out.entry = SymPacket::symbolic(cfg.packet_len, "in");

    struct Item {
      std::vector<uint32_t> order;
      ComposedPath path;
    };
    std::mutex item_mu;
    std::vector<Item> items;
    walk_paths(
        pl, root_state(out.entry),
        [&](size_t /*w*/, TerminalRecord&& t) {
          Item it;
          it.order = std::move(t.order);
          it.path.constraint = t.st.constraint;
          for (const size_t e : t.st.elem_trace) {
            it.path.element_path.push_back(pl.element(e).name());
          }
          it.path.action = t.seg->action;
          it.path.port = t.seg->port;
          it.path.trap = t.seg->trap;
          it.path.instr_count = t.st.count;
          it.path.count_is_bound = t.st.count_is_bound;
          std::lock_guard<std::mutex> lock(item_mu);
          items.push_back(std::move(it));
        },
        [](size_t) { return true; }, Precision::ExactAll);

    std::sort(items.begin(), items.end(),
              [](const Item& a, const Item& b) { return a.order < b.order; });
    out.paths.reserve(items.size());
    for (Item& it : items) out.paths.push_back(std::move(it.path));
    out.complete = !stopped();
    return out;
  }

  std::unordered_map<const Segment*, std::vector<ExprRef>> aux_cache_;
  std::mutex aux_mu_;
  // ir::program_hash of every element's model program, computed once per
  // call in begin_call; read-only while workers run.
  std::vector<uint64_t> prog_hash_;

  // Per-call walk state, shared by every worker.
  std::atomic<uint64_t> paths_checked_{0};
  std::atomic<bool> truncated_{false};
  std::atomic<bool> budget_exhausted_{false};
};

// ---------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------

uint64_t replay_sequence_occupancy(const pipeline::Pipeline& pl,
                                   const std::vector<net::Packet>& sequence,
                                   const std::string& element) {
  std::vector<bool> counted(pl.size(), false);
  for (size_t e = 0; e < pl.size(); ++e) {
    counted[e] = element.empty() || pl.element(e).name() == element;
  }
  return replay_sequence_occupancy_counted(pl, sequence, counted);
}

DecomposedVerifier::DecomposedVerifier(DecomposedConfig config)
    : impl_(std::make_unique<Impl>(config)) {}

DecomposedVerifier::~DecomposedVerifier() = default;

symbex::SharedSummaryCache& DecomposedVerifier::cache() {
  return impl_->cache_summarize();
}
solver::Solver& DecomposedVerifier::solver() { return impl_->main_solver(); }
const DecomposedConfig& DecomposedVerifier::config() const {
  return impl_->cfg;
}

CrashFreedomReport DecomposedVerifier::verify_crash_freedom(
    const pipeline::Pipeline& pl) {
  obs::ScopedSpan phase(obs::Cat::Phase, "crash_freedom");
  return impl_->crash_freedom(pl);
}

InstructionBoundReport DecomposedVerifier::verify_instruction_bound(
    const pipeline::Pipeline& pl) {
  obs::ScopedSpan phase(obs::Cat::Phase, "instruction_bound");
  return impl_->instruction_bound(pl);
}

ComposedPaths DecomposedVerifier::enumerate_paths(
    const pipeline::Pipeline& pl) {
  return impl_->enumerate_paths(pl);
}

ReachabilityReport DecomposedVerifier::verify_never_dropped(
    const pipeline::Pipeline& pl, const InputPredicate& predicate) {
  return verify_reach_never(pl, predicate, TerminalSpec{});
}

StateBoundReport DecomposedVerifier::verify_bounded_state(
    const pipeline::Pipeline& pl, const InputPredicate& predicate,
    const StateBoundSpec& spec) {
  obs::ScopedSpan phase(obs::Cat::Phase, "bounded_state");
  return impl_->bounded_state(pl, predicate, spec);
}

ReachabilityReport DecomposedVerifier::verify_reach_never(
    const pipeline::Pipeline& pl, const InputPredicate& predicate,
    const TerminalSpec& tspec) {
  obs::ScopedSpan phase(obs::Cat::Phase, "reach_never");
  return impl_->reach_never(pl, predicate, tspec);
}

}  // namespace vsd::verify
