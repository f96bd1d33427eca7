#include "vision/threaded_pipeline.h"

#include <chrono>

namespace viewmap::vision {

ThreadedBlurPipeline::ThreadedBlurPipeline(LocalizerConfig cfg)
    : localizer_(cfg), worker_([this] { worker_loop(); }) {}

ThreadedBlurPipeline::~ThreadedBlurPipeline() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_submit_.notify_all();
  worker_.join();
}

void ThreadedBlurPipeline::submit(const Frame& camera_frame) {
  std::unique_lock lock(mutex_);
  cv_done_.wait(lock, [this] { return queue_.size() < kQueueDepth; });
  queue_.push(camera_frame);  // capture I/O: copy out of the camera buffer
  ++submitted_;
  cv_submit_.notify_one();
}

std::size_t ThreadedBlurPipeline::drain() {
  std::unique_lock lock(mutex_);
  // Not queue_.empty(): the worker may still be blurring the last frame.
  cv_done_.wait(lock, [this] { return processed_ == submitted_; });
  return processed_;
}

void ThreadedBlurPipeline::worker_loop() {
  for (;;) {
    Frame frame(1, 1);
    {
      std::unique_lock lock(mutex_);
      cv_submit_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop requested and nothing pending
      frame = std::move(queue_.front());
      queue_.pop();
    }
    for (const auto& region : localizer_.locate(frame)) blur_region(frame, region);
    // Write I/O would go here; the blurred frame is dropped (sink).
    {
      std::lock_guard lock(mutex_);
      ++processed_;
    }
    cv_done_.notify_all();
  }
}

PipelineComparison compare_pipelines(int frames, const SceneConfig& scene_cfg,
                                     std::uint64_t seed) {
  using Clock = std::chrono::steady_clock;
  PipelineComparison result;

  // Pre-render scenes so generation cost stays out of both measurements.
  Rng rng(seed);
  std::vector<Frame> scenes;
  scenes.reserve(static_cast<std::size_t>(frames));
  for (int i = 0; i < frames; ++i) scenes.push_back(make_scene(scene_cfg, rng).frame);

  {
    BlurPipeline sequential;
    StageTimings t;
    const auto t0 = Clock::now();
    for (const auto& frame : scenes) (void)sequential.process(frame, t);
    const double sec = std::chrono::duration<double>(Clock::now() - t0).count();
    result.sequential_fps = frames / sec;
  }
  {
    ThreadedBlurPipeline threaded;
    const auto t0 = Clock::now();
    for (const auto& frame : scenes) threaded.submit(frame);
    (void)threaded.drain();
    const double sec = std::chrono::duration<double>(Clock::now() - t0).count();
    result.threaded_fps = frames / sec;
  }
  return result;
}

}  // namespace viewmap::vision
