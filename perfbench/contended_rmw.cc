// contended_rmw: in-process session transactions that each read and then
// write two objects of a small hot set, in random order, so read-to-write
// lock upgrades form cycles. Deadlock victims retry; each retry is an
// attempt. This is where core lock waits, wakeups and deadlock detection
// dominate; neither the wire nor fsync is involved.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "harness.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr uint64_t kHotObjects = 8;
constexpr uint32_t kRetryBudget = 1000;

class ContendedRmw : public Workload {
 public:
  ContendedRmw() = default;
  ~ContendedRmw() override { Teardown(); }

  void Setup() override {
    Teardown();
    db_ = OpenOrDie(BenchOptions(256, 512u << 10));
    oids_.clear();
    auto txn = db_->Begin();
    for (uint64_t i = 0; i < kHotObjects && txn.ok(); ++i) {
      auto oid = txn->Create<int64_t>(0);
      if (!oid.ok()) break;
      oids_.push_back(*oid);
    }
    if (oids_.size() != kHotObjects || !txn->Commit().ok()) {
      std::fprintf(stderr, "perfbench: contended_rmw preload failed\n");
      std::exit(1);
    }
    committed_.store(0);
  }

  void Teardown() override { db_.reset(); }

  TxnOutcome RunTxn(int /*worker*/, std::mt19937_64& rng) override {
    TxnSpan root;
    const uint64_t a = rng() % kHotObjects;
    const uint64_t b = (a + 1 + rng() % (kHotObjects - 1)) % kHotObjects;
    TxnOutcome out{0, false};
    while (out.attempts < kRetryBudget) {
      out.attempts++;
      const asset::Status s = Attempt(a, b);
      if (s.ok()) {
        committed_.fetch_add(1, std::memory_order_relaxed);
        out.ok = true;
        return out;
      }
      if (!s.IsDeadlock() && !s.IsTxnAborted() && !s.IsTimedOut()) {
        std::fprintf(stderr, "perfbench: contended_rmw: %s\n",
                     s.ToString().c_str());
        return out;
      }
      // Randomized exponential backoff, as a client would do, so victims
      // do not collide again at once.
      ScopedSpan span("bench.backoff");
      const uint64_t cap_us = 10ull << std::min<uint32_t>(out.attempts, 4);
      std::this_thread::sleep_for(
          std::chrono::microseconds(rng() % (cap_us + 1)));
    }
    return out;
  }

  asset::Database& database() override { return *db_; }

  void ReadCounters(Counters* out) override {
    ReadDatabaseCounters(*db_, out);
  }

  std::string Verify(std::map<std::string, double>*) override {
    // Every committed transaction added 1 to two objects, so a lost
    // update shows as a short sum.
    auto txn = db_->Begin();
    if (!txn.ok()) return "verify Begin: " + txn.status().ToString();
    int64_t sum = 0;
    for (asset::ObjectId oid : oids_) {
      auto v = txn->Get<int64_t>(oid);
      if (!v.ok()) return "verify Get: " + v.status().ToString();
      sum += *v;
    }
    txn->Commit();
    const int64_t expected = 2 * static_cast<int64_t>(committed_.load());
    if (sum != expected) {
      return "hot-set sum " + std::to_string(sum) + " != 2 x " +
             std::to_string(committed_.load()) + " committed increments";
    }
    return "";
  }

  double open_rate() const override { return 4000; }

 private:
  /// One kernel transaction: read-then-write `a`, then `b`. Any failure
  /// aborts it (the Txn destructor) and is returned for the retry loop.
  asset::Status Attempt(uint64_t a, uint64_t b) {
    auto txn = InSpan("core.begin", [&] { return db_->Begin(); });
    if (!txn.ok()) return txn.status();
    for (uint64_t k : {a, b}) {
      auto v = InSpan("core.op", [&] { return txn->Get<int64_t>(oids_[k]); });
      if (!v.ok()) return Abort(*txn, v.status());
      const asset::Status put = InSpan(
          "core.op", [&] { return txn->Put<int64_t>(oids_[k], *v + 1); });
      if (!put.ok()) return Abort(*txn, put);
    }
    ScopedSpan span("core.commit");
    return txn->Commit();
  }

  static asset::Status Abort(asset::Txn& txn, asset::Status why) {
    ScopedSpan span("core.abort");
    txn.Abort();
    return why;
  }

  std::unique_ptr<asset::Database> db_;
  std::vector<asset::ObjectId> oids_;
  std::atomic<uint64_t> committed_{0};
};

}  // namespace

std::unique_ptr<Workload> MakeContendedRmw() {
  return std::make_unique<ContendedRmw>();
}

}  // namespace perfbench
