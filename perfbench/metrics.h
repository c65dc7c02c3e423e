#ifndef ASSET_PERFBENCH_METRICS_H_
#define ASSET_PERFBENCH_METRICS_H_

/// \file metrics.h
/// Every metric the benchmark prints, by name and unit. BENCHMARK.json at
/// the repository root declares the same names; tests/check_names.py
/// keeps the two in step.

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed by every untraced run (--trace 0).
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"txn_per_s", "1/s"},
    {"txn_p50_us", "us"},
    {"retained_heap_mb", "MB"},
};

/// Printed by every traced run (--trace 1). A metric whose layer the
/// workload does not reach reads 0.
inline constexpr MetricDef kPerLayer[] = {
    {"client.flush_us", "us"},
    {"client.reply_wait_us", "us"},
    {"client.retries_per_txn", "count"},
    {"api.bytes_per_txn", "B"},
    {"api.frames_per_txn", "count"},
    {"api.codec_ns_per_txn", "ns"},
    {"server.queue_us", "us"},
    {"server.execute_us", "us"},
    {"server.flush_us", "us"},
    {"server.backpressure_pauses", "count"},
    {"core.begin_us", "us"},
    {"core.op_us", "us"},
    {"core.commit_us", "us"},
    {"core.lock_waits_per_txn", "count"},
    {"core.lock_wait_us", "us"},
    {"core.deadlocks_per_commit", "count"},
    {"core.attempts_per_commit", "count"},
    {"core.lock_wakeups_per_txn", "count"},
    {"core.handoff_us", "us"},
    {"core.txn_wakeups_per_txn", "count"},
    {"core.permit_checks_per_txn", "count"},
    {"core.permit_hits_per_txn", "count"},
    {"core.delegations_per_txn", "count"},
    {"core.dependencies_per_txn", "count"},
    {"core.undo_installs_per_txn", "count"},
    {"models.atomic_us", "us"},
    {"models.saga_us", "us"},
    {"models.nested_us", "us"},
    {"models.distributed_us", "us"},
    {"models.compensations_per_saga", "count"},
    {"proc.threads", "count"},
    {"storage.wal_appends_per_txn", "count"},
    {"storage.fsyncs_per_commit", "count"},
    {"storage.records_per_fsync", "count"},
    {"storage.fsync_us", "us"},
    {"storage.commit_stalls_per_commit", "count"},
    {"storage.write_bytes_per_user_byte", "ratio"},
    {"storage.checkpoints", "count"},
    {"storage.checkpoint_us", "us"},
    {"storage.wal_truncations", "count"},
    {"storage.recovery_ms", "ms"},
    {"storage.pool_hit_ratio", "ratio"},
    {"storage.pool_evictions_per_txn", "count"},
    {"proc.cpu_us_per_txn", "us"},
    {"proc.vcsw_per_txn", "count"},
    {"proc.ivcsw_per_txn", "count"},
    {"bench.gen_late_ms", "ms"},
    {"bench.trace_overhead_frac", "ratio"},
    {"bench.unattributed_frac", "ratio"},
};

}  // namespace perfbench

#endif  // ASSET_PERFBENCH_METRICS_H_
