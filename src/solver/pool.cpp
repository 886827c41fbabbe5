#include "solver/pool.hpp"

namespace vsd::solver {

SolverPool::SolverPool(size_t workers, uint64_t max_conflicts,
                       bool incremental) {
  const size_t n = workers == 0 ? 1 : workers;
  solvers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto s = std::make_unique<Solver>();
    s->set_max_conflicts(max_conflicts);
    s->set_incremental(incremental);
    solvers_.push_back(std::move(s));
  }
}

void SolverPool::reset_stats() {
  for (auto& s : solvers_) s->reset_stats();
}

void SolverPool::reset_contexts() {
  for (auto& s : solvers_) s->reset_context();
}

void SolverPool::set_avoidance(bool on) {
  for (auto& s : solvers_) s->set_avoidance(on);
}

}  // namespace vsd::solver
