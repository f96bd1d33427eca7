// The process's one fixed-width worker pool: the CPU budget that batched
// ingest, the viewmap sweep and recovery share (src/common/README.md).
// Threads start only in the constructor, so a failed spawn surfaces
// there, before any caller has committed work.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace viewmap::common {

class WorkerPool {
 public:
  /// Starts width − 1 workers (a width of 0 is taken as 1). If a spawn
  /// fails (or the `pool.spawn` failpoint fires), joins the workers
  /// already started and rethrows.
  explicit WorkerPool(unsigned width);
  /// Joins every worker. No parallel_for may be running.
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// The process's pool, as wide as the host has cores (minimum 1),
  /// made on first use. Every production loop runs on it.
  [[nodiscard]] static WorkerPool& process();

  [[nodiscard]] unsigned width() const noexcept { return width_; }

  /// Runs fn(i) exactly once for every i in [0, n) and returns when all
  /// have returned. The caller claims indices too, waking at most
  /// min(n, width) − 1 idle workers, so a busy pool never blocks it and
  /// concurrent or nested calls cannot deadlock. fn must be safe to call
  /// concurrently. When fn throws, no further index is claimed, and the
  /// first exception is rethrown here once every claimed index has
  /// returned; the pool stays usable.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  struct Job;  // one parallel_for call, on its caller's stack

  void drain(Job& job) noexcept;
  void work();
  void stop_and_join() noexcept;

  const unsigned width_;
  std::mutex mutex_;
  std::condition_variable wake_;  ///< idle workers block here
  std::deque<Job*> queue_;        ///< one entry per helper a job still wants
  bool stopping_ = false;
  std::vector<std::thread> workers_;  ///< last: workers use the members above
};

}  // namespace viewmap::common
