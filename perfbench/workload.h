#ifndef ASSET_PERFBENCH_WORKLOAD_H_
#define ASSET_PERFBENCH_WORKLOAD_H_

/// \file workload.h
/// What a benchmark workload supplies to the phase runner in main.cc.

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>

#include "core/database.h"

namespace perfbench {

/// Named raw counter readings (kernel, storage, server, client); the
/// phase runner subtracts two of them to get a phase's deltas. A name absent
/// from a workload's readings reads as 0.
using Counters = std::map<std::string, double>;

/// Worker threads, connections and generator threads alike.
inline constexpr int kMaxWorkers = 4;

/// The outcome of one logical transaction, including its retries.
struct TxnOutcome {
  uint32_t attempts = 1;  ///< Kernel transactions (or model runs) started.
  bool ok = true;         ///< Committed with the expected result.
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Opens the database (and server and connections), preloads it, and
  /// discards any previous instance. Timed as setup_s.
  virtual void Setup() = 0;
  /// Closes everything Setup opened.
  virtual void Teardown() = 0;

  /// Runs one logical transaction on worker `worker` (< the `workers`
  /// given to MakeWorkload), drawing its inputs from `rng`. Called
  /// concurrently for distinct workers.
  virtual TxnOutcome RunTxn(int worker, std::mt19937_64& rng) = 0;

  /// The database the workload runs against.
  virtual asset::Database& database() = 0;

  /// Reads every public counter the workload's layers expose.
  virtual void ReadCounters(Counters* out) = 0;

  /// Checks the final state against the benchmark's own model of it.
  /// Returns an empty string if correct, else what was wrong. May add
  /// per-layer metrics measured outside the phases (storage.recovery_ms,
  /// api.codec_ns_per_txn).
  virtual std::string Verify(std::map<std::string, double>* metrics) = 0;

  /// Open-loop offered rate, txn/s: fixed, well below capacity.
  virtual double open_rate() const = 0;
};

/// `workers` generator threads; `seed` fixes any input the workload draws
/// outside RunTxn; file-backed workloads keep their files under
/// `data_dir`. Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, int workers,
                                       uint64_t seed,
                                       const std::string& data_dir);

/// Kernel counters and latency-histogram sums from Database::Stats(),
/// plus buffer-pool hits/misses/evictions, as "k.<field>" / "pool.<x>".
void ReadDatabaseCounters(asset::Database& db, Counters* out);

/// Database options with every knob written out, so a change of library
/// defaults cannot move the baseline by itself: an in-memory device,
/// commits that do not force the log, and a checkpoint byte trigger with
/// WAL truncation on.
asset::Database::Options BenchOptions(size_t pool_pages,
                                      size_t checkpoint_bytes);

/// Opens a database or exits the process with the error.
std::unique_ptr<asset::Database> OpenOrDie(asset::Database::Options options);

/// A self-checking object value of `size` (>= 16) bytes: the object's
/// preload index, a version, and a fill byte derived from both, so a read
/// that returns another object's bytes or torn bytes is caught.
std::vector<uint8_t> MakeValue(uint64_t index, uint64_t version, size_t size);
/// True iff `bytes` is MakeValue(index, v, size) for some v, stored in
/// *version.
bool ParseValue(const std::vector<uint8_t>& bytes, uint64_t index, size_t size,
                uint64_t* version);

}  // namespace perfbench

#endif  // ASSET_PERFBENCH_WORKLOAD_H_
