// Database-level fuzzy checkpointing: online (never blocks open
// transactions), bounds the recovery scan, truncates the WAL, fires
// from the background triggers, and survives file-backed reopen.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "core/database.h"
#include "core/database_internal.h"

namespace asset {
namespace {

/// Creates one object and commits, returning its id.
ObjectId CommitOne(Database* db, int64_t value) {
  auto t = db->Begin();
  EXPECT_TRUE(t.ok());
  auto oid = t->Create<int64_t>(value);
  EXPECT_TRUE(oid.ok());
  EXPECT_TRUE(t->Commit().ok());
  return *oid;
}

TEST(DatabaseCheckpointTest, CheckpointDoesNotBlockOpenTransaction) {
  auto db = Database::Open();
  ASSERT_TRUE(db.ok());
  auto t = (*db)->Begin();
  ASSERT_TRUE(t.ok());
  auto oid = t->Create<int64_t>(41);
  ASSERT_TRUE(oid.ok());

  // The old quiescent checkpoint would time out here waiting for t to
  // terminate. The fuzzy checkpoint must complete with t still open.
  auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE((*db)->Checkpoint().ok());
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(10));

  // t is unharmed: it can keep operating and commit.
  ASSERT_TRUE(t->Put<int64_t>(*oid, 42).ok());
  ASSERT_TRUE(t->Commit().ok());
  EXPECT_EQ(KernelOf(**db).stats().checkpoints.load(), 1u);

  ASSERT_TRUE((*db)->CrashAndRecover().ok());
  auto t2 = (*db)->Begin();
  ASSERT_TRUE(t2.ok());
  auto got = t2->Get<int64_t>(*oid);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 42);
}

TEST(DatabaseCheckpointTest, CheckpointBoundsRecoveryScan) {
  auto db = Database::Open();
  ASSERT_TRUE(db.ok());
  ObjectId oid = CommitOne(db->get(), 0);
  for (int i = 1; i <= 30; ++i) {
    auto t = (*db)->Begin();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(t->Put<int64_t>(oid, i).ok());
    ASSERT_TRUE(t->Commit().ok());
  }
  ASSERT_TRUE((*db)->Checkpoint().ok());
  for (int i = 31; i <= 33; ++i) {
    auto t = (*db)->Begin();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(t->Put<int64_t>(oid, i).ok());
    ASSERT_TRUE(t->Commit().ok());
  }
  RecoveryManager::Report report;
  ASSERT_TRUE((*db)->CrashAndRecover(&report).ok());
  // Analysis starts at the checkpoint's cut point: only the checkpoint
  // record and the three post-checkpoint transactions (begin + update +
  // commit each) are scanned, not the 30 earlier rounds.
  EXPECT_LE(report.records_scanned, 10u);
  EXPECT_GT(report.redo_start_lsn, 1u);
  auto t = (*db)->Begin();
  ASSERT_TRUE(t.ok());
  auto got = t->Get<int64_t>(oid);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 33);
}

TEST(DatabaseCheckpointTest, CheckpointTruncatesWal) {
  auto db = Database::Open();
  ASSERT_TRUE(db.ok());
  ObjectId oid = CommitOne(db->get(), 0);
  for (int i = 1; i <= 20; ++i) {
    auto t = (*db)->Begin();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(t->Put<int64_t>(oid, i).ok());
    ASSERT_TRUE(t->Commit().ok());
  }
  size_t before = LogOf(**db).size();
  ASSERT_TRUE((*db)->Checkpoint().ok());
  size_t after = LogOf(**db).size();
  EXPECT_LT(after, before);
  EXPECT_GE(KernelOf(**db).stats().wal_truncations.load(), 1u);
  EXPECT_GT(KernelOf(**db).stats().wal_records_truncated.load(), 0u);

  // The physically shortened log still recovers the full state.
  ASSERT_TRUE((*db)->CrashAndRecover().ok());
  auto t = (*db)->Begin();
  ASSERT_TRUE(t.ok());
  auto got = t->Get<int64_t>(oid);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 20);
}

// An initiated, not yet begun transaction can already be responsible
// for operations delegated to it. The checkpoint's active-transaction
// table must carry them, or truncation drops the records that its
// abort has to undo and recovery has to attribute.
TEST(DatabaseCheckpointTest, DelegatedOpsOfAnInitiatedTxnSurviveTruncation) {
  for (bool crash : {false, true}) {
    SCOPED_TRACE(crash ? "crash before the owner terminates"
                       : "owner aborts");
    auto db = Database::Open();
    ASSERT_TRUE(db.ok());
    TransactionManager& tm = KernelOf(**db);
    ObjectId oid = CommitOne(db->get(), 1);
    Tid owner = tm.Initiate([] {});
    Tid writer = tm.Initiate(
        [&] { ASSERT_TRUE((*db)->Put<int64_t>(oid, 2).ok()); });
    ASSERT_TRUE(tm.Begin(writer));
    ASSERT_EQ(tm.Wait(writer), 1);
    ASSERT_TRUE(tm.Delegate(writer, owner).ok());
    ASSERT_TRUE(tm.Commit(writer));
    for (int i = 0; i < 5; ++i) CommitOne(db->get(), i);
    ASSERT_TRUE((*db)->Checkpoint().ok());
    ASSERT_GE(tm.stats().wal_truncations.load(), 1u);
    if (crash) {
      ASSERT_TRUE((*db)->CrashAndRecover().ok());
    } else {
      ASSERT_TRUE(tm.Begin(owner));
      ASSERT_TRUE(tm.Abort(owner));
    }
    auto t = (*db)->Begin();
    ASSERT_TRUE(t.ok());
    auto got = t->Get<int64_t>(oid);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, 1);
  }
}

TEST(DatabaseCheckpointTest, TruncationCanBeDisabled) {
  Database::Options o;
  o.checkpoint.truncate_wal = false;
  auto db = Database::Open(o);
  ASSERT_TRUE(db.ok());
  ObjectId oid = CommitOne(db->get(), 7);
  size_t before = LogOf(**db).size();
  ASSERT_TRUE((*db)->Checkpoint().ok());
  // The checkpoint record itself was appended; nothing was dropped.
  EXPECT_GT(LogOf(**db).size(), before);
  EXPECT_EQ(KernelOf(**db).stats().wal_truncations.load(), 0u);
  auto t = (*db)->Begin();
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(t->Get<int64_t>(oid).ok());
}

TEST(DatabaseCheckpointTest, BackgroundBytesTriggerCheckpointsAndTruncates) {
  Database::Options o;
  o.checkpoint.log_bytes_trigger = 512;
  auto db = Database::Open(o);
  ASSERT_TRUE(db.ok());
  ObjectId oid = CommitOne(db->get(), 0);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  int64_t i = 0;
  while (KernelOf(**db).stats().wal_truncations.load() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    auto t = (*db)->Begin();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(t->Put<int64_t>(oid, ++i).ok());
    ASSERT_TRUE(t->Commit().ok());
  }
  EXPECT_GE(KernelOf(**db).stats().checkpoints.load(), 1u);
  EXPECT_GE(KernelOf(**db).stats().wal_truncations.load(), 1u);
  // User traffic was never blocked (every commit above succeeded) and
  // the state survives a crash with the truncated log.
  ASSERT_TRUE((*db)->CrashAndRecover().ok());
  auto t = (*db)->Begin();
  ASSERT_TRUE(t.ok());
  auto got = t->Get<int64_t>(oid);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, i);
}

TEST(DatabaseCheckpointTest, BackgroundIntervalTriggerFires) {
  Database::Options o;
  o.checkpoint.interval = std::chrono::milliseconds(25);
  auto db = Database::Open(o);
  ASSERT_TRUE(db.ok());
  ObjectId oid = CommitOne(db->get(), 5);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (KernelOf(**db).stats().checkpoints.load() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(KernelOf(**db).stats().checkpoints.load(), 2u);
  RecoveryManager::Report report;
  ASSERT_TRUE((*db)->CrashAndRecover(&report).ok());
  auto t = (*db)->Begin();
  ASSERT_TRUE(t.ok());
  auto got = t->Get<int64_t>(oid);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 5);
}

TEST(DatabaseCheckpointTest, DrainTimeoutOptionIsPlumbed) {
  Database::Options o;
  // Tiny but sufficient: with no operation in flight the drain returns
  // immediately, so a 1 ms budget must still succeed.
  o.checkpoint.drain_timeout = std::chrono::milliseconds(1);
  auto db = Database::Open(o);
  ASSERT_TRUE(db.ok());
  CommitOne(db->get(), 1);
  EXPECT_TRUE((*db)->Checkpoint().ok());
}

TEST(DatabaseCheckpointTest, FileBackedCheckpointSurvivesReopen) {
  std::string path = ::testing::TempDir() + "/asset_ckpt_reopen.db";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  Database::Options o;
  o.path = path;
  ObjectId oid = kNullObjectId;
  {
    auto db = Database::Open(o);
    ASSERT_TRUE(db.ok());
    oid = CommitOne(db->get(), 0);
    for (int i = 1; i <= 10; ++i) {
      auto t = (*db)->Begin();
      ASSERT_TRUE(t.ok());
      ASSERT_TRUE(t->Put<int64_t>(oid, i).ok());
      ASSERT_TRUE(t->Commit().ok());
    }
    // Physically rewrites the on-disk WAL down to the checkpoint tail.
    ASSERT_TRUE((*db)->Checkpoint().ok());
    EXPECT_GE(KernelOf(**db).stats().wal_truncations.load(), 1u);
  }
  // Reopen from the truncated file: AttachFile must re-derive the
  // dropped-prefix length and the checkpoint watermark from the frames.
  auto db = Database::Open(o);
  ASSERT_TRUE(db.ok());
  auto t = (*db)->Begin();
  ASSERT_TRUE(t.ok());
  auto got = t->Get<int64_t>(oid);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 10);
  // And a second checkpoint + truncation on the reopened log works.
  ASSERT_TRUE((*db)->CrashAndRecover().ok());
  ASSERT_TRUE((*db)->Checkpoint().ok());
  auto t2 = (*db)->Begin();
  ASSERT_TRUE(t2.ok());
  auto got2 = t2->Get<int64_t>(oid);
  ASSERT_TRUE(got2.ok());
  EXPECT_EQ(*got2, 10);
}

}  // namespace
}  // namespace asset
