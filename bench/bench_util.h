#ifndef ASSET_BENCH_BENCH_UTIL_H_
#define ASSET_BENCH_BENCH_UTIL_H_

// Shared benchmark harness: an in-memory storage stack plus a
// TransactionManager configured for benchmarking (no log force at
// commit, generous timeouts). Each benchmark builds one `BenchKernel`
// and drives transactions through the public API.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "core/transaction_manager.h"
#include "models/atomic.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/object_store.h"
#include "storage/wal.h"

namespace asset::bench {

inline std::vector<uint8_t> Payload(size_t size, uint8_t fill = 0xAB) {
  return std::vector<uint8_t>(size, fill);
}

/// Publishes a latency histogram's percentiles (in nanoseconds) as
/// benchmark counters named <prefix>_p50_ns / _p95_ns / _p99_ns, plus
/// <prefix>_count. Call from thread 0 at the end of a run.
inline void ReportLatencyPercentiles(benchmark::State& state,
                                     const LatencyHistogram::Snapshot& h,
                                     const std::string& prefix) {
  state.counters[prefix + "_count"] = static_cast<double>(h.count);
  state.counters[prefix + "_p50_ns"] = static_cast<double>(h.p50());
  state.counters[prefix + "_p95_ns"] = static_cast<double>(h.p95());
  state.counters[prefix + "_p99_ns"] = static_cast<double>(h.p99());
}

/// Benchmark-friendly kernel options: no log force at commit, generous
/// timeouts, a large transaction table. Tweak (e.g. flip trace.enabled)
/// before handing to BenchKernel.
inline TransactionManager::Options BenchOptions(bool force_log = false) {
  TransactionManager::Options o;
  o.force_log_at_commit = force_log;
  o.lock.lock_timeout = std::chrono::milliseconds(30000);
  o.commit_timeout = std::chrono::milliseconds(60000);
  o.max_transactions = 1 << 20;
  return o;
}

class BenchKernel {
 public:
  explicit BenchKernel(bool force_log = false, size_t pool_pages = 4096)
      : BenchKernel(BenchOptions(force_log), pool_pages) {}

  explicit BenchKernel(const TransactionManager::Options& o,
                       size_t pool_pages = 4096)
      : pool_(&disk_, pool_pages, &log_), store_(&pool_) {
    store_.Open().ok();
    tm_ = std::make_unique<TransactionManager>(&log_, &store_, o);
  }

  TransactionManager& tm() { return *tm_; }
  ObjectStore& store() { return store_; }
  LogManager& log() { return log_; }
  BufferPool& pool() { return pool_; }

  /// Creates `n` committed objects of `size` bytes; returns their ids.
  std::vector<ObjectId> MakeObjects(size_t n, size_t size = 64) {
    std::vector<ObjectId> oids;
    oids.reserve(n);
    auto data = Payload(size);
    for (size_t i = 0; i < n; ++i) {
      oids.push_back(store_.Create(data).value());
    }
    return oids;
  }

  /// Runs fn as one committed transaction; returns commit success.
  bool RunTxn(std::function<void()> fn) {
    return models::RunAtomic(*tm_, std::move(fn));
  }

 private:
  InMemoryDiskManager disk_;
  LogManager log_;
  BufferPool pool_;
  ObjectStore store_;
  std::unique_ptr<TransactionManager> tm_;
};

}  // namespace asset::bench

#endif  // ASSET_BENCH_BENCH_UTIL_H_
