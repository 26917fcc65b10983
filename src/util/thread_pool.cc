#include "util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <memory>

namespace sjoin {

ThreadPool::ThreadPool(int num_workers) {
  if (num_workers <= 0) {
    num_workers = static_cast<int>(std::thread::hardware_concurrency()) - 1;
  }
  // At least one background worker: a 1-CPU host would otherwise create an
  // empty pool whose Submit'd tasks nobody ever runs (ParallelFor steals,
  // but fire-and-forget dispatch -- the request scheduler -- does not).
  if (num_workers < 1) num_workers = 1;
  workers_.reserve(num_workers);
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& th : workers_) {
    if (th.joinable()) th.join();
  }
}

bool ThreadPool::stopped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stop_;
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = new ThreadPool();  // leaked: outlives exit races
  return *pool;
}

bool ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return false;  // checked error: never strand a task
    queue_.push(std::move(task));
  }
  cv_.notify_one();
  return true;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

bool ThreadPool::TryRunOneTask() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop();
  }
  task();
  return true;
}

namespace {

/// Shared state of one ParallelFor call; helpers may outlive the enqueue
/// loop, so it lives behind a shared_ptr.
struct ForState {
  std::atomic<size_t> next{0};
  size_t n = 0;
  int pending_helpers = 0;
  std::mutex mu;
  std::condition_variable done;
};

}  // namespace

void ThreadPool::ParallelFor(size_t n, int parallelism,
                             const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  size_t width = parallelism <= 0 ? static_cast<size_t>(concurrency())
                                  : static_cast<size_t>(parallelism);
  width = std::min({width, static_cast<size_t>(concurrency()), n});
  if (width <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  auto state = std::make_shared<ForState>();
  state->n = n;
  state->pending_helpers = static_cast<int>(width) - 1;
  auto run = [state, fn] {
    for (;;) {
      size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= state->n) return;
      fn(i);
    }
  };
  for (size_t h = 1; h < width; ++h) {
    bool enqueued = Submit([state, run] {
      run();
      {
        std::lock_guard<std::mutex> lock(state->mu);
        --state->pending_helpers;
      }
      state->done.notify_one();
    });
    if (!enqueued) {
      // Pool stopped mid-call: the shared index still covers every i, the
      // caller's own run() below picks up the helper's share inline.
      std::lock_guard<std::mutex> lock(state->mu);
      --state->pending_helpers;
    }
  }
  run();  // the caller participates
  // Wait for the helpers, draining the pool queue meanwhile: a caller that
  // is itself a pool worker (nested ParallelFor) would otherwise park its
  // thread while its helper tasks sit unrunnable behind it -- with every
  // worker in that state, a permanent deadlock. Stealing queued tasks
  // keeps the pool making progress; the short timed wait covers the gap
  // between "queue empty" and "a helper finishes elsewhere".
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(state->mu);
      if (state->pending_helpers == 0) return;
    }
    if (TryRunOneTask()) continue;
    std::unique_lock<std::mutex> lock(state->mu);
    state->done.wait_for(lock, std::chrono::milliseconds(1),
                         [&] { return state->pending_helpers == 0; });
    if (state->pending_helpers == 0) return;
  }
}

}  // namespace sjoin
