#include "verify/parallel.hpp"

#include <utility>

#include "obs/trace.hpp"

namespace vsd::verify {

WorkQueue::WorkQueue(size_t jobs) : jobs_(jobs == 0 ? 1 : jobs) {
  if (jobs_ == 1) return;  // inline: tasks run on the submitting thread
  workers_.reserve(jobs_);
  for (size_t i = 0; i < jobs_; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

WorkQueue::~WorkQueue() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void WorkQueue::submit(Task task) {
  if (workers_.empty()) {
    run(task, 0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++pending_;
  }
  work_cv_.notify_one();
}

void WorkQueue::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return pending_ == 0; });
  if (first_error_) {
    std::exception_ptr err = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void WorkQueue::run(Task& task, size_t worker) {
  try {
    task(worker);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!first_error_) first_error_ = std::current_exception();
  }
}

void WorkQueue::worker_loop(size_t index) {
  // Worker w traces on lane w+1; lane 0 stays the caller's main thread.
  obs::set_lane(static_cast<uint32_t>(index) + 1);
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    {
      obs::ScopedSpan sp(obs::Cat::Task, "task");
      run(task, index);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --pending_;
      if (pending_ == 0) idle_cv_.notify_all();
    }
  }
}

void parallel_for(WorkQueue& queue, size_t n,
                  const std::function<void(size_t, size_t)>& fn) {
  for (size_t i = 0; i < n; ++i) {
    queue.submit([i, &fn](size_t worker) { fn(i, worker); });
  }
  queue.wait_idle();
}

}  // namespace vsd::verify
