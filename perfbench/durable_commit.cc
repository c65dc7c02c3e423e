// durable_commit: write-only session transactions of one or two small
// objects against a file-backed Database in a fresh directory. Commits
// wait for fsync (strict durability) with group commit and the background
// checkpointer on; the working set fits in the pool. At the end the
// database is closed and reopened and every acknowledged write is read
// back. This is where storage works: WAL group commit, fsync, checkpoint
// and truncation, and recovery.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "harness.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr uint64_t kObjects = 4096;
constexpr size_t kValueSize = 32;

class DurableCommit : public Workload {
 public:
  DurableCommit(int workers, std::string data_dir)
      : workers_(workers), data_dir_(std::move(data_dir)) {}
  ~DurableCommit() override {
    Teardown();
    RemoveDir();
  }

  void Setup() override {
    Teardown();
    RemoveDir();
    // A fixed name, so a run that crashed leaves nothing the next one
    // keeps.
    dir_ = data_dir_ + "/durable_commit";
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
      std::fprintf(stderr, "perfbench: cannot create %s: %s\n", dir_.c_str(),
                   ec.message().c_str());
      std::exit(1);
    }
    db_ = OpenOrDie(Options());
    oids_.assign(kObjects, asset::kNullObjectId);
    versions_.assign(kObjects, 0);
    auto txn = db_->Begin();
    for (uint64_t i = 0; i < kObjects && txn.ok(); ++i) {
      auto oid = txn->CreateObject(MakeValue(i, 0, kValueSize));
      if (!oid.ok()) break;
      oids_[i] = *oid;
    }
    if (oids_.back() == asset::kNullObjectId || !txn->Commit().ok()) {
      std::fprintf(stderr, "perfbench: durable_commit preload failed\n");
      std::exit(1);
    }
  }

  void Teardown() override { db_.reset(); }

  TxnOutcome RunTxn(int worker, std::mt19937_64& rng) override {
    TxnSpan root;
    // Each worker writes only its own objects, so versions_ is the exact
    // acknowledged state.
    const uint64_t slots = kObjects / static_cast<uint64_t>(workers_);
    uint64_t keys[2];
    const int n = 1 + static_cast<int>(rng() % 2);
    const uint64_t slot = rng() % slots;
    keys[0] = slot * static_cast<uint64_t>(workers_) +
              static_cast<uint64_t>(worker);
    keys[1] = (slot + 1) % slots * static_cast<uint64_t>(workers_) +
              static_cast<uint64_t>(worker);
    auto txn = InSpan("core.begin", [&] { return db_->Begin(); });
    if (!txn.ok()) return Fail(txn.status());
    for (int i = 0; i < n; ++i) {
      const uint64_t k = keys[i];
      const asset::Status s = InSpan("core.op", [&] {
        return txn->Write(oids_[k], MakeValue(k, versions_[k] + 1, kValueSize));
      });
      if (!s.ok()) return Fail(s);
    }
    const asset::Status s = InSpan("core.commit", [&] { return txn->Commit(); });
    if (!s.ok()) return Fail(s);
    for (int i = 0; i < n; ++i) versions_[keys[i]]++;
    bytes_written_.fetch_add(static_cast<uint64_t>(n) * kValueSize,
                             std::memory_order_relaxed);
    return TxnOutcome{};
  }

  asset::Database& database() override { return *db_; }

  void ReadCounters(Counters* out) override {
    ReadDatabaseCounters(*db_, out);
    (*out)["user_bytes"] = static_cast<double>(bytes_written_.load());
  }

  std::string Verify(std::map<std::string, double>* metrics) override {
    db_.reset();
    const int64_t start = NowNs();
    db_ = OpenOrDie(Options());
    (*metrics)["storage.recovery_ms"] =
        static_cast<double>(NowNs() - start) / 1e6;
    auto txn = db_->Begin();
    if (!txn.ok()) return "verify Begin: " + txn.status().ToString();
    for (uint64_t i = 0; i < kObjects; ++i) {
      auto bytes = txn->Read(oids_[i]);
      uint64_t version = 0;
      if (!bytes.ok() || !ParseValue(*bytes, i, kValueSize, &version) ||
          version != versions_[i]) {
        return "object " + std::to_string(i) + " lost acknowledged version " +
               std::to_string(versions_[i]) + " across reopen";
      }
    }
    txn->Commit();
    return "";
  }

  double open_rate() const override { return 3000; }

 private:
  asset::Database::Options Options() const {
    // File-backed, and every commit waits for its fsync.
    asset::Database::Options o = BenchOptions(1024, 4u << 20);
    o.path = dir_ + "/asset.db";
    o.txn.force_log_at_commit = true;
    o.txn.durability = asset::DurabilityPolicy::kStrict;
    return o;
  }

  void RemoveDir() {
    if (dir_.empty()) return;
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    dir_.clear();
  }

  static TxnOutcome Fail(const asset::Status& s) {
    std::fprintf(stderr, "perfbench: durable_commit: %s\n",
                 s.ToString().c_str());
    return TxnOutcome{1, false};
  }

  const int workers_;
  const std::string data_dir_;
  std::string dir_;
  std::unique_ptr<asset::Database> db_;
  std::vector<asset::ObjectId> oids_;
  /// Acknowledged version of each object; entry k is touched only by one
  /// worker while a phase runs.
  std::vector<uint64_t> versions_;
  std::atomic<uint64_t> bytes_written_{0};
};

}  // namespace

std::unique_ptr<Workload> MakeDurableCommit(int workers,
                                            const std::string& data_dir) {
  return std::make_unique<DurableCommit>(workers, data_dir);
}

}  // namespace perfbench
