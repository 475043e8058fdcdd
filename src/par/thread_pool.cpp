#include "par/thread_pool.hpp"

#include <algorithm>

namespace smt::par {

ThreadPool::ThreadPool(std::size_t jobs) {
  if (jobs < 2) {  // inline mode: submit() executes on the caller
    stats_.resize(1);
    return;
  }
  const std::size_t n = std::min(jobs, kMaxJobs);
  stats_.resize(n);
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  if (threads_.empty()) {
    run_task(task, 0);
    return;
  }
  {
    const std::lock_guard<std::mutex> lk(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait() {
  if (threads_.empty()) return;
  std::unique_lock<std::mutex> lk(mu_);
  cv_done_.wait(lk, [this] { return in_flight_ == 0; });
}

void ThreadPool::run_task(const std::function<void()>& task,
                          std::size_t slot) {
  WorkerStats& st = stats_[slot];
  if (clock_ != nullptr) {
    const std::uint64_t t0 = clock_();
    task();
    st.busy_ticks += clock_() - t0;
  } else {
    task();
  }
  ++st.tasks;
}

std::vector<WorkerStats> ThreadPool::worker_stats() const {
  // Workers update their slot before re-taking mu_ to decrement
  // in_flight_, so this lock (after wait()) sees every completed task.
  const std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void ThreadPool::worker_loop(std::size_t slot) {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_task_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop requested and queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    run_task(task, slot);
    {
      const std::lock_guard<std::mutex> lk(mu_);
      if (--in_flight_ == 0) cv_done_.notify_all();
    }
  }
}

}  // namespace smt::par
