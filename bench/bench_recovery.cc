// B16 — Recovery time vs. log length, with and without fuzzy
// checkpoints (DESIGN.md §4B, docs/RECOVERY.md).
//
// Question: how does crash-recovery time grow with the length of the
// write-ahead log, and how much of that growth do online fuzzy
// checkpoints reclaim? The workload is committed-only (no losers), so
// every measured recovery is pure analysis + redo and each iteration
// replays exactly the same durable log against the same device image.
// With checkpoints on, a FuzzyCheckpoint lands every 100 transactions:
// analysis starts at the last checkpoint's cut point and redo at its
// min_recovery_lsn, so the scan should stay bounded by the checkpoint
// interval instead of growing with history. The third mode additionally
// truncates the redundant prefix after each checkpoint, shrinking the
// physical log recovery has to materialize at all.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "storage/recovery.h"

namespace asset::bench {
namespace {

constexpr size_t kObjects = 500;
constexpr size_t kWritesPerTxn = 3;
constexpr size_t kCheckpointEvery = 100;

// Checkpoint axis (state.range(1)).
constexpr int kNoCheckpoints = 0;
constexpr int kFuzzy = 1;          // fuzzy checkpoints, log kept whole
constexpr int kFuzzyTruncate = 2;  // + TruncatePrefix after each one

/// A storage stack whose disk image and log survive the kernel: the
/// workload runs once, then each benchmark iteration rebuilds a fresh
/// pool + store over a restored copy of the crashed device and runs
/// RecoveryManager::Recover against the same durable log.
class RecoveryBench {
 public:
  RecoveryBench(size_t txns, int mode)
      : pool_(&disk_, 4096, &log_), store_(&pool_) {
    store_.Open().ok();
    TransactionManager::Options o;
    o.lock.lock_timeout = std::chrono::milliseconds(30000);
    o.commit_timeout = std::chrono::milliseconds(60000);
    o.max_transactions = 1 << 20;
    auto tm = std::make_unique<TransactionManager>(&log_, &store_, o);

    // All state flows through the log: objects are created by a
    // committed transaction, not store-level backdoors.
    Random rng(4242);
    std::vector<ObjectId> oids;
    RunTxn(*tm, [&] {
      Tid self = TransactionManager::Self();
      for (size_t i = 0; i < kObjects; ++i) {
        oids.push_back(tm->CreateObject(self, Payload(64)).value());
      }
    });
    auto payload = Payload(64, 0xCD);
    for (size_t t = 0; t < txns; ++t) {
      RunTxn(*tm, [&] {
        Tid self = TransactionManager::Self();
        for (size_t w = 0; w < kWritesPerTxn; ++w) {
          tm->Write(self, oids[rng.Uniform(kObjects)], payload).ok();
        }
      });
      // Skip a checkpoint that would coincide with the crash point —
      // the interesting case is a real tail of post-checkpoint work.
      if (mode != kNoCheckpoints && t + 1 != txns &&
          (t + 1) % kCheckpointEvery == 0) {
        RecoveryManager::FuzzyCheckpoint(&log_, &pool_, [&] {
          return tm->SnapshotActiveTransactions();
        }).value();
        if (mode == kFuzzyTruncate) log_.TruncatePrefix().value();
      }
    }
    log_.Flush().ok();
    tm.reset();
    image_ = disk_.SnapshotForTest();
  }

  /// Restores the crashed device image and hands back a fresh store,
  /// ready for Recover. (Not timed; see the benchmark loop.)
  std::unique_ptr<ObjectStore> FreshStore() {
    disk_.RestoreForTest(image_);
    recovery_pool_ =
        std::make_unique<BufferPool>(&disk_, 4096, &log_);
    auto store = std::make_unique<ObjectStore>(recovery_pool_.get());
    store->Open().ok();
    return store;
  }

  LogManager& log() { return log_; }

 private:
  static void RunTxn(TransactionManager& tm, std::function<void()> fn) {
    models::RunAtomic(tm, std::move(fn));
  }

  InMemoryDiskManager disk_;
  LogManager log_;
  BufferPool pool_;
  ObjectStore store_;
  std::unique_ptr<BufferPool> recovery_pool_;
  std::vector<std::vector<uint8_t>> image_;
};

// One iteration = one full recovery (analysis + redo; the
// committed-only workload has no losers, so undo is empty and the log
// is bit-identical across iterations).
void BM_Recover(benchmark::State& state) {
  const size_t txns = static_cast<size_t>(state.range(0));
  const int mode = static_cast<int>(state.range(1));
  RecoveryBench bench(txns, mode);

  RecoveryManager::Report report;
  for (auto _ : state) {
    state.PauseTiming();
    auto store = bench.FreshStore();
    state.ResumeTiming();
    auto rep = RecoveryManager::Recover(&bench.log(), store.get());
    benchmark::DoNotOptimize(rep);
    state.PauseTiming();
    report = rep.value();
    store.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["log_records"] =
      static_cast<double>(bench.log().size());
  state.counters["records_scanned"] =
      static_cast<double>(report.records_scanned);
  state.counters["redo_applied"] =
      static_cast<double>(report.redo_applied);
  state.counters["redo_start_lsn"] =
      static_cast<double>(report.redo_start_lsn);
}
BENCHMARK(BM_Recover)
    ->ArgNames({"txns", "ckpt"})
    ->Args({200, kNoCheckpoints})
    ->Args({200, kFuzzy})
    ->Args({200, kFuzzyTruncate})
    ->Args({2000, kNoCheckpoints})
    ->Args({2000, kFuzzy})
    ->Args({2000, kFuzzyTruncate})
    ->Args({10000, kNoCheckpoints})
    ->Args({10000, kFuzzy})
    ->Args({10000, kFuzzyTruncate})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace asset::bench
