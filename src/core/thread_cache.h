#ifndef ASSET_CORE_THREAD_CACHE_H_
#define ASSET_CORE_THREAD_CACHE_H_

/// \file thread_cache.h
/// A cached-thread executor for transaction bodies started by Begin.
///
/// The paper's execution model is one process per transaction. Ours
/// runs a body on its caller whenever the caller would only wait for it
/// (TransactionManager::RunBody: atomic transactions, saga steps,
/// contingent alternatives, nested children), and on a worker from this
/// pool when it must run concurrently with its caller (Begin(t),
/// Begin(t1..tn): cooperative groups, GC pairs, split, workflow races,
/// user code). Spawning a fresh OS thread per begin() costs tens of
/// microseconds, so workers are cached: an idle worker picks the task up
/// immediately, and a new worker is spawned only when none is idle. The
/// pool therefore grows to the peak number of concurrently running
/// pooled bodies and never makes a transaction wait for an unrelated
/// one (transactions block while holding locks; a bounded queue could
/// deadlock the system).

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace asset {

/// Unbounded cached-thread executor. Thread-safe.
class ThreadCache {
 public:
  ThreadCache() = default;

  /// Waits for every worker (all must be idle — the owner is
  /// responsible for draining its tasks first) and joins them.
  ~ThreadCache();

  ThreadCache(const ThreadCache&) = delete;
  ThreadCache& operator=(const ThreadCache&) = delete;

  /// Runs `task` on an idle worker, or on a newly spawned one if all
  /// workers are busy. Never blocks behind other tasks.
  void Submit(std::function<void()> task);

  /// Number of worker threads created so far (for tests/stats).
  size_t WorkersCreated() const;

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> pending_;
  std::vector<std::thread> workers_;
  size_t idle_ = 0;
  bool stopping_ = false;
};

}  // namespace asset

#endif  // ASSET_CORE_THREAD_CACHE_H_
