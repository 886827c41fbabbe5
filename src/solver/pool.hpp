// Per-worker solver instances for the parallel verification engine.
//
// Solver holds per-instance mutable state (result cache, statistics, the
// live incremental SolverContext), so concurrent workers must not share
// one. The pool hands worker i its own Solver; queries never contend, and
// each worker's context accumulates reuse across the queries scheduled
// onto that worker.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "solver/solver.hpp"

namespace vsd::solver {

class SolverPool {
 public:
  explicit SolverPool(size_t workers, uint64_t max_conflicts = UINT64_MAX,
                      bool incremental = true);

  size_t size() const { return solvers_.size(); }
  Solver& at(size_t worker) { return *solvers_.at(worker); }

  void reset_stats();

  // Drops every worker's live incremental context (called per top-level
  // verification call: reuse within a call, bounded memory across a batch).
  void reset_contexts();

  // The query-avoidance switch, mirrored onto every worker (see
  // Solver::set_avoidance).
  void set_avoidance(bool on);

 private:
  std::vector<std::unique_ptr<Solver>> solvers_;
};

}  // namespace vsd::solver
