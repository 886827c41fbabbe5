// Work-queue scheduler for the parallel verification engine.
//
// Decomposition makes the paper's Step 2 embarrassingly parallel: each
// stitched path constraint is decided independently. This scheduler fans
// the composed-path walk out over N worker threads (plain std::thread +
// mutex/condvar, no external dependencies); Step 1 summaries are computed
// lazily by whichever worker first reaches an element. Tasks may submit
// further tasks — the walk forks a subtree task per feasible Emit segment
// — and wait_idle() returns only when the whole task tree has drained.
//
// Each task receives its worker index so callers can hand every worker its
// own solver instance and stats block; nothing in the engine shares mutable
// state across workers except the summary cache, the verifier's stitch memo
// (both thread-safe) and the interned expression pool.
//
// One worker means no thread at all: submit() runs the task inline on the
// calling thread as worker 0, so nested submissions run depth-first in
// submission order (a plain recursive walk) and no `task` trace span is
// recorded. Every --jobs value thus runs the same driver code.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vsd::verify {

class WorkQueue {
 public:
  // A unit of work; `worker` is this task's worker index in [0, jobs()).
  using Task = std::function<void(size_t worker)>;

  // Spawns `jobs` worker threads when jobs > 1; 0 counts as 1, which
  // spawns none.
  explicit WorkQueue(size_t jobs);
  ~WorkQueue();

  WorkQueue(const WorkQueue&) = delete;
  WorkQueue& operator=(const WorkQueue&) = delete;

  // Enqueues a task, or at one job runs it before returning. Safe to call
  // from within a running task.
  void submit(Task task);

  // Blocks until every submitted task (including tasks submitted by tasks)
  // has finished. Rethrows the first exception any task threw. The queue
  // remains usable for another round of submissions afterwards.
  void wait_idle();

  size_t jobs() const { return jobs_; }

 private:
  void worker_loop(size_t index);
  // Runs one task, recording its exception (if any) for wait_idle().
  void run(Task& task, size_t worker);

  const size_t jobs_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // signals workers: task available / stop
  std::condition_variable idle_cv_;  // signals wait_idle: pending hit zero
  std::deque<Task> queue_;
  size_t pending_ = 0;  // queued + currently running tasks
  bool stop_ = false;
  std::exception_ptr first_error_;
  std::vector<std::thread> workers_;
};

// Runs fn(i, worker) for every i in [0, n) across the queue's workers and
// waits for completion.
void parallel_for(WorkQueue& queue, size_t n,
                  const std::function<void(size_t index, size_t worker)>& fn);

}  // namespace vsd::verify
