// extended_models: a seeded mix of the paper's section 3 translations
// through src/models/ -- RunAtomic transfers, 3-step sagas (about one in
// ten forced to compensate), nested roots whose subtransactions use permit
// and delegate, and distributed group-commit pairs. This is where the
// initiate/begin/commit thread handoff, permits, delegation and the
// dependency graph work; the other workloads use session transactions and
// skip all of it.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>

#include "core/database_internal.h"
#include "harness.h"
#include "models/atomic.h"
#include "models/distributed.h"
#include "models/nested.h"
#include "models/saga.h"
#include "workload.h"

namespace perfbench {
namespace {

using asset::Database;
using asset::Status;

constexpr uint64_t kAccounts = 1024;
constexpr int64_t kInitialBalance = 1000;
constexpr uint32_t kRetryBudget = 100;

class ExtendedModels : public Workload {
 public:
  ExtendedModels() = default;
  ~ExtendedModels() override { Teardown(); }

  void Setup() override {
    Teardown();
    db_ = OpenOrDie(BenchOptions(256, 512u << 10));
    accounts_.clear();
    auto txn = db_->Begin();
    for (uint64_t i = 0; i < kAccounts && txn.ok(); ++i) {
      auto oid = txn->CreateCounter(kInitialBalance);
      if (!oid.ok()) break;
      accounts_.push_back(*oid);
    }
    if (accounts_.size() != kAccounts || !txn->Commit().ok()) {
      std::fprintf(stderr, "perfbench: extended_models preload failed\n");
      std::exit(1);
    }
  }

  void Teardown() override { db_.reset(); }

  TxnOutcome RunTxn(int /*worker*/, std::mt19937_64& rng) override {
    TxnSpan root;
    asset::ObjectId acct[4];
    for (int i = 0; i < 4; ++i) {
      bool fresh = false;
      while (!fresh) {
        acct[i] = accounts_[rng() % kAccounts];
        fresh = true;
        for (int j = 0; j < i; ++j) fresh = fresh && acct[j] != acct[i];
      }
    }
    const int64_t amount = 1 + static_cast<int64_t>(rng() % 10);
    const uint64_t kind = rng() % 10;
    const bool force_compensation = rng() % 10 == 0;
    TxnOutcome out{0, false};
    while (!out.ok && out.attempts < kRetryBudget) {
      out.attempts++;
      if (kind < 4) {
        out.ok = Atomic(acct[0], acct[1], amount);
      } else if (kind < 6) {
        out.ok = RunSaga(acct, amount, force_compensation);
      } else if (kind < 8) {
        out.ok = Nested(acct[0], acct[1], amount);
      } else {
        out.ok = Distributed(acct[0], acct[1], amount);
      }
    }
    return out;
  }

  asset::Database& database() override { return *db_; }

  void ReadCounters(Counters* out) override {
    ReadDatabaseCounters(*db_, out);
    (*out)["models.sagas"] = static_cast<double>(sagas_.load());
    (*out)["models.compensations"] = static_cast<double>(compensations_.load());
  }

  std::string Verify(std::map<std::string, double>*) override {
    // Every model instance moves money between accounts or puts it back,
    // so the total is conserved across compensations and aborts.
    auto txn = db_->Begin();
    if (!txn.ok()) return "verify Begin: " + txn.status().ToString();
    int64_t total = 0;
    for (asset::ObjectId oid : accounts_) {
      auto v = txn->GetCounter(oid);
      if (!v.ok()) return "verify GetCounter: " + v.status().ToString();
      total += *v;
    }
    txn->Commit();
    const int64_t expected = static_cast<int64_t>(kAccounts) * kInitialBalance;
    if (total != expected) {
      return "balances sum to " + std::to_string(total) + ", expected " +
             std::to_string(expected);
    }
    return "";
  }

  double open_rate() const override { return 3000; }

 private:
  /// Wraps `fn` as a transaction body: it runs on a kernel thread as a
  /// child of the caller's current span, and a failed operation aborts
  /// the running transaction.
  std::function<void()> Body(std::function<Status()> fn) {
    return [this, ctx = CurrentSpanContext(), fn = std::move(fn)] {
      AdoptSpanContext adopt(ctx);
      ScopedSpan span("bench.body");
      if (!fn().ok()) db_->Abort(Database::Self());
    };
  }

  Status Add(asset::ObjectId oid, int64_t delta) {
    return InSpan("core.op", [&] { return db_->Add(oid, delta); });
  }

  Status Read(asset::ObjectId oid) {
    return InSpan("core.op", [&] { return db_->GetCounter(oid).status(); });
  }

  bool Atomic(asset::ObjectId from, asset::ObjectId to, int64_t amount) {
    ScopedSpan span("models.atomic");
    return asset::models::RunAtomic(*db_, Body([=, this] {
      Status s = Read(from);
      if (s.ok()) s = Read(to);
      if (s.ok()) s = Add(from, -amount);
      if (s.ok()) s = Add(to, amount);
      return s;
    }));
  }

  /// Three steps pass `amount` along acct[0] -> acct[1] -> acct[2] ->
  /// acct[3]. A forced saga's last step aborts itself, so the first two
  /// are compensated. True iff the saga reached its expected outcome.
  bool RunSaga(const asset::ObjectId* acct, int64_t amount, bool forced) {
    ScopedSpan span("models.saga");
    asset::models::Saga saga;
    for (int step = 0; step < 3; ++step) {
      const asset::ObjectId from = acct[step];
      const asset::ObjectId to = acct[step + 1];
      const bool last = step == 2;
      auto action = Body([=, this] {
        Status s = Add(from, -amount);
        if (s.ok()) s = Add(to, amount);
        if (s.ok() && last && forced) return Status::TxnAborted("forced");
        return s;
      });
      if (last) {
        saga.AddStep(std::move(action));
      } else {
        saga.AddStep(std::move(action), Body([=, this] {
                       Status s = Add(to, -amount);
                       if (s.ok()) s = Add(from, amount);
                       return s;
                     }));
      }
    }
    const asset::models::Saga::Outcome o = saga.Run(*db_);
    sagas_.fetch_add(1, std::memory_order_relaxed);
    compensations_.fetch_add(o.compensations_run, std::memory_order_relaxed);
    if (forced) {
      return !o.committed && o.steps_committed == 2 &&
             o.compensations_run == 2;
    }
    return o.committed && o.steps_committed == 3 && o.compensations_run == 0;
  }

  /// The root debits `from`; its subtransaction reads `from` under the
  /// root's lock (a permit) and credits `to`, then delegates to the root.
  bool Nested(asset::ObjectId from, asset::ObjectId to, int64_t amount) {
    ScopedSpan span("models.nested");
    return asset::models::RunNestedRoot(*db_, Body([=, this] {
      Status s = Read(from);
      if (s.ok()) s = Add(from, -amount);
      if (!s.ok()) return s;
      ScopedSpan sub("models.subtxn");
      return asset::models::RunSubtransaction(
          *db_, Body([=, this] {
            Status cs = Read(from);
            if (cs.ok()) cs = Add(to, amount);
            return cs;
          }),
          asset::models::OnChildAbort::kAbortParent);
    }));
  }

  /// Two components, one debit and one credit, that commit as a group.
  bool Distributed(asset::ObjectId from, asset::ObjectId to, int64_t amount) {
    ScopedSpan span("models.distributed");
    asset::models::DistributedTransaction dt;
    dt.AddComponent(Body([=, this] { return Add(from, -amount); }));
    dt.AddComponent(Body([=, this] { return Add(to, amount); }));
    return dt.Run(asset::KernelOf(*db_));
  }

  std::unique_ptr<Database> db_;
  std::vector<asset::ObjectId> accounts_;
  std::atomic<uint64_t> sagas_{0};
  std::atomic<uint64_t> compensations_{0};
};

}  // namespace

std::unique_ptr<Workload> MakeExtendedModels() {
  return std::make_unique<ExtendedModels>();
}

}  // namespace perfbench
