#include "workload.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/database_internal.h"

namespace perfbench {

std::unique_ptr<Workload> MakeWireKv(int workers, uint64_t seed);
std::unique_ptr<Workload> MakeContendedRmw();
std::unique_ptr<Workload> MakeExtendedModels();
std::unique_ptr<Workload> MakeDurableCommit(int workers,
                                            const std::string& data_dir);

std::unique_ptr<Workload> MakeWorkload(const std::string& name, int workers,
                                       uint64_t seed,
                                       const std::string& data_dir) {
  if (name == "wire_kv") return MakeWireKv(workers, seed);
  if (name == "contended_rmw") return MakeContendedRmw();
  if (name == "extended_models") return MakeExtendedModels();
  if (name == "durable_commit") {
    return MakeDurableCommit(workers, data_dir);
  }
  return nullptr;
}

void ReadDatabaseCounters(asset::Database& db, Counters* out) {
  const asset::KernelStats::Snapshot s = db.Stats();
#define PERFBENCH_READ_COUNTER(group, field, label) \
  (*out)["k." #field] = static_cast<double>(s.field);
  ASSET_KERNEL_COUNTERS(PERFBENCH_READ_COUNTER)
#undef PERFBENCH_READ_COUNTER
#define PERFBENCH_READ_HISTOGRAM(field)                         \
  (*out)["k." #field ".sum"] = static_cast<double>(s.field.sum); \
  (*out)["k." #field ".count"] = static_cast<double>(s.field.count);
  ASSET_KERNEL_HISTOGRAMS(PERFBENCH_READ_HISTOGRAM)
#undef PERFBENCH_READ_HISTOGRAM
  const asset::BufferPool::Stats pool = asset::PoolOf(db).stats();
  (*out)["pool.hits"] = static_cast<double>(pool.hits);
  (*out)["pool.misses"] = static_cast<double>(pool.misses);
  (*out)["pool.evictions"] = static_cast<double>(pool.evictions);
}

asset::Database::Options BenchOptions(size_t pool_pages,
                                      size_t checkpoint_bytes) {
  asset::Database::Options o;
  o.buffer_pool_pages = pool_pages;
  o.path.clear();
  o.txn.force_log_at_commit = false;
  o.txn.durability = asset::DurabilityPolicy::kRelaxed;
  o.txn.lock.lock_timeout = std::chrono::milliseconds(5000);
  o.txn.lock.detect_deadlocks = true;
  o.txn.lock.shards = 64;
  o.txn.max_transactions = 100000;
  o.txn.commit_timeout = std::chrono::milliseconds(10000);
  o.txn.trace.enabled = false;
  o.txn.trace.ring_slots = 8192;
  o.checkpoint.interval = std::chrono::milliseconds(0);
  o.checkpoint.log_bytes_trigger = checkpoint_bytes;
  o.checkpoint.truncate_wal = true;
  o.checkpoint.drain_timeout = std::chrono::milliseconds(30000);
  return o;
}

std::unique_ptr<asset::Database> OpenOrDie(asset::Database::Options options) {
  auto db = asset::Database::Open(std::move(options));
  if (!db.ok()) {
    std::fprintf(stderr, "perfbench: Database::Open: %s\n",
                 db.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*db);
}

namespace {
uint8_t FillByte(uint64_t index, uint64_t version) {
  return static_cast<uint8_t>((index * 131 + version * 7) ^ 0x5A);
}
}  // namespace

std::vector<uint8_t> MakeValue(uint64_t index, uint64_t version, size_t size) {
  std::vector<uint8_t> v(size, FillByte(index, version));
  std::memcpy(v.data(), &index, 8);
  std::memcpy(v.data() + 8, &version, 8);
  return v;
}

bool ParseValue(const std::vector<uint8_t>& bytes, uint64_t index, size_t size,
                uint64_t* version) {
  if (bytes.size() != size) return false;
  uint64_t got_index = 0;
  std::memcpy(&got_index, bytes.data(), 8);
  std::memcpy(version, bytes.data() + 8, 8);
  if (got_index != index) return false;
  const uint8_t fill = FillByte(index, *version);
  for (size_t i = 16; i < size; ++i) {
    if (bytes[i] != fill) return false;
  }
  return true;
}

}  // namespace perfbench
