#ifndef ASSET_CORE_INTROSPECTION_H_
#define ASSET_CORE_INTROSPECTION_H_

/// \file introspection.h
/// Live kernel introspection: a consistent snapshot of the control
/// structures the §4.1 kernel runs on — the TD table, the lock-table
/// wait-for graph, the dependency graph, and the permit table — plus
/// renderers to JSON (Database::DumpState), Graphviz DOT
/// (Database::DumpWaitForDot), and Prometheus text exposition
/// (Database::MetricsText).
///
/// The snapshot is taken by TransactionManager::SnapshotState under ONE
/// kernel-mutex hold, so it is atomic with respect to begin, commit,
/// abort, delegation, and dependency formation; the renderers work on
/// the plain-value copy with no locks at all.

#include <string>
#include <vector>

#include "common/ids.h"
#include "core/dependency_graph.h"
#include "core/descriptors.h"
#include "core/permit_table.h"
#include "core/statistics.h"

namespace asset {

/// Plain-value snapshot of the kernel's control structures.
struct KernelStateSnapshot {
  /// One TD table row.
  struct TxnInfo {
    Tid tid = kNullTid;
    Tid parent = kNullTid;
    TxnStatus status = TxnStatus::kInitiated;
    bool session = false;
    /// Locks currently held (granted LRDs, including suspended ones).
    size_t locks_held = 0;
    /// Data-operation lsns this transaction is responsible for —
    /// delegation moves entries between rows, so a delegatee's count
    /// includes the operations delegated to it.
    size_t ops_responsible = 0;
    Lsn commit_lsn = kNullLsn;
    std::string abort_reason;
  };

  /// One wait-for edge group: `waiter` is blocked on `oid`, waiting for
  /// every transaction in `blockers`.
  struct WaitEdge {
    Tid waiter = kNullTid;
    ObjectId oid = kNullObjectId;
    std::vector<Tid> blockers;
  };

  std::vector<TxnInfo> transactions;
  std::vector<WaitEdge> wait_for;
  std::vector<Dependency> dependencies;
  std::vector<Permit> permits;
  /// The wait-for cycle most recently resolved by the deadlock
  /// detector (empty if none since startup/reset). The detector
  /// resolves cycles at detection time, so a live dump rarely catches
  /// one in the wait_for edges themselves; this names the last victim
  /// cycle post-hoc.
  std::vector<Tid> last_deadlock_cycle;
};

/// WAL watermark gauges the Database folds into the dump.
struct WalWatermarks {
  Lsn last_lsn = kNullLsn;
  Lsn durable_lsn = kNullLsn;
  Lsn checkpoint_lsn = kNullLsn;
  Lsn min_recovery_lsn = kNullLsn;
};

/// The full state as a JSON object (keys: "transactions", "wait_for",
/// "dependencies", "permits", "last_deadlock_cycle", "wal").
std::string RenderKernelStateJson(const KernelStateSnapshot& snap,
                                  const WalWatermarks& wal);

/// The wait-for graph (plus the last deadlock cycle, dashed red) as a
/// Graphviz digraph.
std::string RenderWaitForDot(const KernelStateSnapshot& snap);

/// Counters ("asset_<group>_<label>_total"), latency summaries
/// ("asset_<histogram>_ns"), WAL watermarks, and the size of the body
/// worker pool (`kernel_threads`, TransactionManager::PoolThreads) in
/// Prometheus text exposition format.
std::string RenderMetricsText(const KernelStats::Snapshot& stats,
                              const WalWatermarks& wal,
                              size_t kernel_threads);

}  // namespace asset

#endif  // ASSET_CORE_INTROSPECTION_H_
