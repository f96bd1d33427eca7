// Pipelined (two-thread) realtime blurring.
//
// §6.2.1 notes the prototype "leaves more room for improvement, such as
// … multi-threading for blur and I/O operations". This is that
// improvement: a capture/write I/O thread and a localize+blur worker
// overlap, so sustained throughput approaches 1/max(stage) instead of
// 1/sum(stages). The paper's Pi-class numbers (blur ≈ I/O ≈ 50 ms) would
// roughly double their frame rate under this scheme.
#pragma once

#include <condition_variable>
#include <mutex>
#include <optional>
#include <queue>
#include <thread>

#include "vision/pipeline.h"

namespace viewmap::vision {

class ThreadedBlurPipeline {
 public:
  explicit ThreadedBlurPipeline(LocalizerConfig cfg = {});
  ~ThreadedBlurPipeline();
  ThreadedBlurPipeline(const ThreadedBlurPipeline&) = delete;
  ThreadedBlurPipeline& operator=(const ThreadedBlurPipeline&) = delete;

  /// Enqueues one camera frame (the capture I/O happens on the caller's
  /// thread, as it would on-device). Blocks when the worker is more than
  /// `kQueueDepth` frames behind — a realtime recorder must not buffer
  /// unboundedly, and unblurred frames must never accumulate.
  void submit(const Frame& camera_frame);

  /// Waits for all submitted frames to be blurred and written; returns
  /// the number of frames processed since construction.
  std::size_t drain();

 private:
  static constexpr std::size_t kQueueDepth = 3;

  void worker_loop();

  PlateLocalizer localizer_;
  std::mutex mutex_;
  std::condition_variable cv_submit_;
  std::condition_variable cv_done_;
  std::queue<Frame> queue_;
  std::size_t submitted_ = 0;
  std::size_t processed_ = 0;
  bool stop_ = false;
  std::thread worker_;
};

/// Measures sustained fps of the threaded pipeline vs the sequential one
/// over `frames` synthetic frames. Returns {sequential_fps, threaded_fps}.
struct PipelineComparison {
  double sequential_fps = 0.0;
  double threaded_fps = 0.0;
};
[[nodiscard]] PipelineComparison compare_pipelines(int frames,
                                                   const SceneConfig& scene_cfg,
                                                   std::uint64_t seed);

}  // namespace viewmap::vision
