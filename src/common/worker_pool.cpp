#include "common/worker_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>

#include "common/failpoint.h"

namespace viewmap::common {

struct WorkerPool::Job {
  const std::function<void(std::size_t)>& fn;
  const std::size_t n;
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;  ///< the first one thrown; guarded by the pool mutex
  std::size_t active = 0;    ///< helpers running it; guarded by the pool mutex
  std::condition_variable done;
};

WorkerPool::WorkerPool(unsigned width) : width_(std::max(width, 1u)) {
  workers_.reserve(width_ - 1);
  try {
    while (workers_.size() + 1 < width_) {
      const failpoint::Decision d = failpoint::evaluate("pool.spawn");
      if (d.fires() && d.action != failpoint::Action::kDelay)
        throw std::system_error(std::make_error_code(std::errc::resource_unavailable_try_again),
                                "WorkerPool: spawn failed (injected)");
      workers_.emplace_back([this] { work(); });
    }
  } catch (...) {
    stop_and_join();  // destroying a joinable std::thread would terminate
    throw;
  }
}

WorkerPool::~WorkerPool() { stop_and_join(); }

WorkerPool& WorkerPool::process() {
  static WorkerPool pool(std::max(std::thread::hardware_concurrency(), 1u));
  return pool;
}

void WorkerPool::stop_and_join() noexcept {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void WorkerPool::drain(Job& job) noexcept {
  for (;;) {
    const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job.n) return;
    try {
      job.fn(i);
    } catch (...) {
      std::lock_guard lock(mutex_);
      if (!job.error) job.error = std::current_exception();
      job.next.store(job.n, std::memory_order_relaxed);  // claim nothing more
    }
  }
}

void WorkerPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n <= 1 || width_ == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  Job job{fn, n};
  const std::size_t helpers = std::min<std::size_t>(n, width_) - 1;
  {
    std::lock_guard lock(mutex_);
    queue_.insert(queue_.end(), helpers, &job);
  }
  for (std::size_t h = 0; h < helpers; ++h) wake_.notify_one();
  drain(job);
  std::unique_lock lock(mutex_);
  std::erase(queue_, &job);  // nothing is left to claim
  job.done.wait(lock, [&] { return job.active == 0; });
  if (job.error) std::rethrow_exception(job.error);
}

void WorkerPool::work() {
  std::unique_lock lock(mutex_);
  for (;;) {
    wake_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping
    Job& job = *queue_.front();
    queue_.pop_front();
    ++job.active;
    lock.unlock();
    drain(job);
    lock.lock();
    // Notified under the lock: the caller cannot see active == 0 and
    // destroy the job before this call is done with it.
    if (--job.active == 0) job.done.notify_all();
  }
}

}  // namespace viewmap::common
