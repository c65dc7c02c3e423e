// Live kernel introspection: DumpState must report the exact wait-for
// edges of a blocking chain, name the last deadlock cycle, list permit
// entries, and render as parseable JSON / DOT / Prometheus text.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "core/database_internal.h"
#include "json_lite.h"
#include "models/atomic.h"

namespace asset {
namespace {

using testjson::ParseJson;
using testjson::Value;

std::unique_ptr<Database> OpenDb() {
  Database::Options o;
  // Long enough that a blocked chain stays observable while the test
  // polls the dump; the tests unwind the chains themselves.
  o.txn.lock.lock_timeout = std::chrono::milliseconds(20000);
  o.txn.commit_timeout = std::chrono::milliseconds(20000);
  auto db = Database::Open(o);
  EXPECT_TRUE(db.ok());
  return std::move(*db);
}

/// Parses DumpState and returns true if it contains the wait-for edge
/// `waiter --oid--> blocker`.
bool DumpHasEdge(const std::string& dump, Tid waiter, ObjectId oid,
                 Tid blocker) {
  Value root;
  if (!ParseJson(dump, &root)) {
    ADD_FAILURE() << "DumpState did not parse as JSON: " << dump;
    return false;
  }
  const Value* edges = root.Find("wait_for");
  if (edges == nullptr || !edges->is_array()) return false;
  for (const Value& e : edges->arr) {
    const Value* w = e.Find("waiter");
    const Value* o = e.Find("oid");
    const Value* b = e.Find("blockers");
    if (w == nullptr || o == nullptr || b == nullptr) continue;
    if (static_cast<Tid>(w->number) != waiter) continue;
    if (static_cast<ObjectId>(o->number) != oid) continue;
    for (const Value& t : b->arr) {
      if (static_cast<Tid>(t.number) == blocker) return true;
    }
  }
  return false;
}

/// Polls DumpState until `pred` holds or ~5s pass.
bool PollDump(Database* db, const std::function<bool(const std::string&)>& pred) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred(db->DumpState())) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

TEST(IntrospectionTest, BlockingChainReportsExactWaitForEdges) {
  auto db = OpenDb();

  ObjectId a = 0, b = 0;
  {
    auto boot = db->Begin();
    ASSERT_TRUE(boot.ok());
    a = boot->Create<int64_t>(1).value();
    b = boot->Create<int64_t>(2).value();
    ASSERT_TRUE(boot->Commit().ok());
  }

  auto t1 = db->Begin();
  auto t2 = db->Begin();
  auto t3 = db->Begin();
  ASSERT_TRUE(t1.ok() && t2.ok() && t3.ok());

  // t1 holds a; t2 holds b and blocks on a; t3 blocks on b. The dump
  // must show exactly t2 --a--> t1 and t3 --b--> t2.
  ASSERT_TRUE(t1->Put<int64_t>(a, 10).ok());
  ASSERT_TRUE(t2->Put<int64_t>(b, 20).ok());

  Status s2, s3;
  std::thread th2([&] { s2 = t2->Put<int64_t>(a, 21); });
  std::thread th3([&] { s3 = t3->Put<int64_t>(b, 30); });

  const Tid w2 = t2->id(), w3 = t3->id(), h1 = t1->id();
  EXPECT_TRUE(PollDump(db.get(), [&](const std::string& dump) {
    return DumpHasEdge(dump, w2, a, h1) && DumpHasEdge(dump, w3, b, w2);
  })) << db->DumpState();

  // While the chain is live, the DOT rendering carries the same edges.
  std::string dot = db->DumpWaitForDot();
  EXPECT_NE(dot.find("digraph wait_for"), std::string::npos);
  EXPECT_NE(dot.find("t" + std::to_string(w2) + " -> t" + std::to_string(h1)),
            std::string::npos)
      << dot;
  EXPECT_NE(dot.find("t" + std::to_string(w3) + " -> t" + std::to_string(w2)),
            std::string::npos)
      << dot;

  // Unwind: aborting t1 frees a (t2 proceeds); committing t2 frees b.
  ASSERT_TRUE(t1->Abort().ok());
  th2.join();
  EXPECT_TRUE(s2.ok()) << s2.ToString();
  ASSERT_TRUE(t2->Commit().ok());
  th3.join();
  EXPECT_TRUE(s3.ok()) << s3.ToString();
  ASSERT_TRUE(t3->Commit().ok());

  // With everyone terminated the wait-for graph drains to empty.
  Value root;
  ASSERT_TRUE(ParseJson(db->DumpState(), &root));
  ASSERT_NE(root.Find("wait_for"), nullptr);
  EXPECT_TRUE(root.Find("wait_for")->arr.empty());
}

TEST(IntrospectionTest, InjectedDeadlockIsNamedInTheDump) {
  auto db = OpenDb();

  ObjectId a = 0, b = 0;
  {
    auto boot = db->Begin();
    ASSERT_TRUE(boot.ok());
    a = boot->Create<int64_t>(1).value();
    b = boot->Create<int64_t>(2).value();
    ASSERT_TRUE(boot->Commit().ok());
  }

  auto t1 = db->Begin();
  auto t2 = db->Begin();
  ASSERT_TRUE(t1.ok() && t2.ok());
  ASSERT_TRUE(t1->Put<int64_t>(a, 10).ok());
  ASSERT_TRUE(t2->Put<int64_t>(b, 20).ok());

  // t1 blocks on b; then t2 requests a, which would close the cycle —
  // the detector rejects it and dooms t2.
  Status s1;
  std::thread th1([&] { s1 = t1->Put<int64_t>(b, 11); });
  const Tid id1 = t1->id(), id2 = t2->id();
  ASSERT_TRUE(PollDump(db.get(), [&](const std::string& dump) {
    return DumpHasEdge(dump, id1, b, id2);
  })) << db->DumpState();

  Status s2 = t2->Put<int64_t>(a, 21);
  EXPECT_FALSE(s2.ok());

  // The cycle is resolved the instant it is detected, so the dump names
  // it post-hoc: last_deadlock_cycle lists both participants.
  Value root;
  ASSERT_TRUE(ParseJson(db->DumpState(), &root));
  const Value* cycle = root.Find("last_deadlock_cycle");
  ASSERT_NE(cycle, nullptr);
  ASSERT_TRUE(cycle->is_array());
  std::vector<Tid> tids;
  for (const Value& v : cycle->arr) tids.push_back(static_cast<Tid>(v.number));
  EXPECT_NE(std::find(tids.begin(), tids.end(), id1), tids.end());
  EXPECT_NE(std::find(tids.begin(), tids.end(), id2), tids.end());

  // The doomed side's lock release lets t1 finish.
  th1.join();
  EXPECT_TRUE(s1.ok()) << s1.ToString();
  ASSERT_TRUE(t1->Commit().ok());
  (void)t2->Abort();
}

TEST(IntrospectionTest, PermitEntriesAppearInTheDump) {
  auto db = OpenDb();
  auto t1 = db->Begin();
  auto t2 = db->Begin();
  ASSERT_TRUE(t1.ok() && t2.ok());
  auto oid = t1->Create<int64_t>(7);
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(KernelOf(*db)
                  .Permit(t1->id(), t2->id(), ObjectSet{*oid},
                          OpSet(Operation::kWrite))
                  .ok());

  Value root;
  ASSERT_TRUE(ParseJson(db->DumpState(), &root));
  const Value* permits = root.Find("permits");
  ASSERT_NE(permits, nullptr);
  bool found = false;
  for (const Value& p : permits->arr) {
    const Value* grantor = p.Find("grantor");
    const Value* grantee = p.Find("grantee");
    const Value* objects = p.Find("objects");
    if (grantor == nullptr || grantee == nullptr || objects == nullptr) {
      continue;
    }
    if (static_cast<Tid>(grantor->number) != t1->id()) continue;
    if (static_cast<Tid>(grantee->number) != t2->id()) continue;
    ASSERT_TRUE(objects->is_array());
    for (const Value& o : objects->arr) {
      if (static_cast<ObjectId>(o.number) == *oid) found = true;
    }
    EXPECT_EQ(p.Find("direct")->kind, Value::Kind::kBool);
  }
  EXPECT_TRUE(found) << db->DumpState();

  ASSERT_TRUE(t1->Abort().ok());
  ASSERT_TRUE(t2->Abort().ok());
}

TEST(IntrospectionTest, TransactionRowsCarryStatusAndLockCounts) {
  auto db = OpenDb();
  auto t = db->Begin();
  ASSERT_TRUE(t.ok());
  auto oid = t->Create<int64_t>(1);
  ASSERT_TRUE(oid.ok());

  Value root;
  ASSERT_TRUE(ParseJson(db->DumpState(), &root));
  const Value* txns = root.Find("transactions");
  ASSERT_NE(txns, nullptr);
  bool found = false;
  for (const Value& row : txns->arr) {
    if (static_cast<Tid>(row.Find("tid")->number) != t->id()) continue;
    found = true;
    EXPECT_EQ(row.Find("status")->str, "running");
    EXPECT_TRUE(row.Find("session")->boolean);
    EXPECT_GE(row.Find("locks_held")->number, 1.0);
    EXPECT_GE(row.Find("ops_responsible")->number, 1.0);
  }
  EXPECT_TRUE(found) << db->DumpState();

  // WAL watermarks ride along as a nested object.
  const Value* wal = root.Find("wal");
  ASSERT_NE(wal, nullptr);
  EXPECT_TRUE(wal->Find("last_lsn")->is_number());
  EXPECT_TRUE(wal->Find("durable_lsn")->is_number());

  ASSERT_TRUE(t->Commit().ok());
}

TEST(IntrospectionTest, MetricsTextExposesCountersAndPercentiles) {
  auto db = OpenDb();
  {
    auto t = db->Begin();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(t->Create<int64_t>(5).ok());
    ASSERT_TRUE(t->Commit().ok());
  }
  std::string m = db->MetricsText();
  for (const char* key :
       {"asset_txns_committed_total", "asset_locks_granted_total",
        "asset_wal_appends_total", "asset_commit_latency_ns_count",
        "asset_commit_latency_ns_sum",
        "asset_commit_latency_ns{quantile=\"0.5\"}",
        "asset_commit_latency_ns{quantile=\"0.95\"}",
        "asset_commit_latency_ns{quantile=\"0.99\"}",
        "asset_lock_wait_latency_ns{quantile=\"0.99\"}",
        "asset_fsync_latency_ns{quantile=\"0.5\"}", "asset_wal_durable_lsn",
        "# TYPE asset_txns_committed_total counter",
        "# TYPE asset_commit_latency_ns summary"}) {
    EXPECT_NE(m.find(key), std::string::npos) << key;
  }
  // At least one commit was acked, so the commit histogram is non-empty.
  EXPECT_EQ(m.find("asset_commit_latency_ns_count 0\n"), std::string::npos);
}

TEST(IntrospectionTest, MetricsTextExposesTheBodyPoolSize) {
  auto db = OpenDb();
  std::string m = db->MetricsText();
  EXPECT_NE(m.find("# TYPE asset_kernel_threads gauge\n"), std::string::npos)
      << m;
  EXPECT_NE(m.find("\nasset_kernel_threads 0\n"), std::string::npos) << m;
  // A session transaction and an atomic body run on this thread...
  {
    auto t = db->Begin();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(t->Create<int64_t>(5).ok());
    ASSERT_TRUE(t->Commit().ok());
  }
  ASSERT_TRUE(models::RunAtomic(*db, [] {}));
  EXPECT_NE(db->MetricsText().find("\nasset_kernel_threads 0\n"),
            std::string::npos);
  // ...while begin(t) hands its body to a pool worker.
  Tid t = db->Initiate([] {});
  ASSERT_TRUE(db->Begin(t));
  ASSERT_TRUE(db->Commit(t));
  m = db->MetricsText();
  EXPECT_NE(m.find("\nasset_kernel_threads 1\n"), std::string::npos) << m;
}

}  // namespace
}  // namespace asset
