// Inline execution (TransactionManager::RunBody): a body whose caller
// would only wait for it runs on the caller's thread. Self()/Parent()
// follow the inline body and come back to the caller's transaction
// afterwards; nesting, delegation, explicit and exceptional aborts, and
// deadlock victimisation behave as on a pool worker; and the sequential
// models never touch the worker pool while group Begin still does.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "kernel_fixture.h"
#include "models/atomic.h"
#include "models/contingent.h"
#include "models/nested.h"
#include "models/saga.h"

namespace asset {
namespace {

class InlineExecTest : public KernelFixture {};

TEST_F(InlineExecTest, SelfAndParentFollowTheInlineBody) {
  const std::thread::id caller_thread = std::this_thread::get_id();
  Tid root = kNullTid;
  Tid child = kNullTid;
  root = tm_->Initiate([&] {
    EXPECT_EQ(std::this_thread::get_id(), caller_thread);
    EXPECT_EQ(TransactionManager::Self(), root);
    EXPECT_EQ(TransactionManager::Parent(), kNullTid);
    child = tm_->Initiate([&] {
      EXPECT_EQ(std::this_thread::get_id(), caller_thread);
      EXPECT_EQ(TransactionManager::Self(), child);
      EXPECT_EQ(TransactionManager::Parent(), root);
    });
    ASSERT_TRUE(tm_->RunBody(child).ok());
    // The child completed inline; the root is current again.
    EXPECT_EQ(tm_->GetStatus(child), TxnStatus::kCompleted);
    EXPECT_EQ(TransactionManager::Self(), root);
    EXPECT_EQ(TransactionManager::Parent(), kNullTid);
    EXPECT_TRUE(tm_->Commit(child));
  });
  ASSERT_TRUE(tm_->RunBody(root).ok());
  EXPECT_EQ(TransactionManager::Self(), kNullTid);
  EXPECT_EQ(TransactionManager::Parent(), kNullTid);
  EXPECT_EQ(tm_->GetStatus(root), TxnStatus::kCompleted);
  EXPECT_TRUE(tm_->Commit(root));
}

TEST_F(InlineExecTest, RunBodyRejectsWhatBeginRejects) {
  EXPECT_TRUE(tm_->RunBody(Tid{987654}).IsNotFound());
  Tid t = tm_->Initiate([] {});
  ASSERT_TRUE(tm_->RunBody(t).ok());
  EXPECT_TRUE(tm_->RunBody(t).IsIllegalState());  // already begun
  EXPECT_TRUE(tm_->Commit(t));
}

TEST_F(InlineExecTest, NestedChildRunsInlineAndDelegatesToTheRoot) {
  ObjectId parent_obj = MakeObject("p0");
  ObjectId child_obj = MakeObject("c0");
  const std::thread::id caller_thread = std::this_thread::get_id();
  Tid root = kNullTid;
  Tid child = kNullTid;
  bool ok = models::RunNestedRoot(*tm_, [&] {
    root = TransactionManager::Self();
    ASSERT_TRUE(tm_->Write(root, parent_obj, TestBytes("p1")).ok());
    Status s = models::RunSubtransaction(*tm_, [&] {
      child = TransactionManager::Self();
      EXPECT_EQ(std::this_thread::get_id(), caller_thread);
      EXPECT_EQ(TransactionManager::Parent(), root);
      // The parent's write lock is permitted to the child.
      auto v = tm_->Read(child, parent_obj);
      ASSERT_TRUE(v.ok());
      EXPECT_EQ(TestStr(*v), "p1");
      ASSERT_TRUE(tm_->Write(child, child_obj, TestBytes("c1")).ok());
    });
    ASSERT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(TransactionManager::Self(), root);
    // Delegated: the root now holds the child's write lock, so it can
    // overwrite the child's object without waiting.
    ASSERT_TRUE(tm_->Write(root, child_obj, TestBytes("c2")).ok());
  });
  EXPECT_TRUE(ok);
  EXPECT_TRUE(tm_->IsCommitted(child));
  EXPECT_EQ(ReadCommitted(parent_obj), "p1");
  EXPECT_EQ(ReadCommitted(child_obj), "c2");
}

TEST_F(InlineExecTest, AbortSelfInInlineChildAbortsOnlyTheChild) {
  ObjectId parent_obj = MakeObject("p0");
  ObjectId child_obj = MakeObject("c0");
  Tid child = kNullTid;
  bool ok = models::RunNestedRoot(*tm_, [&] {
    Tid root = TransactionManager::Self();
    ASSERT_TRUE(tm_->Write(root, parent_obj, TestBytes("p1")).ok());
    Status s = models::RunSubtransaction(*tm_, [&] {
      child = TransactionManager::Self();
      ASSERT_TRUE(tm_->Write(child, child_obj, TestBytes("c1")).ok());
      EXPECT_TRUE(tm_->Abort(TransactionManager::Self()));
    });
    EXPECT_TRUE(s.IsTxnAborted());
    EXPECT_EQ(TransactionManager::Self(), root);
    EXPECT_EQ(tm_->Wait(root), 1);  // the root is still viable
  });
  EXPECT_TRUE(ok);
  EXPECT_EQ(tm_->GetStatus(child), TxnStatus::kAborted);
  EXPECT_EQ(ReadCommitted(parent_obj), "p1");
  EXPECT_EQ(ReadCommitted(child_obj), "c0");
}

TEST_F(InlineExecTest, ExceptionFromInlineBodyAbortsOnlyThatTransaction) {
  ObjectId parent_obj = MakeObject("p0");
  ObjectId child_obj = MakeObject("c0");
  bool ok = models::RunNestedRoot(*tm_, [&] {
    Tid root = TransactionManager::Self();
    ASSERT_TRUE(tm_->Write(root, parent_obj, TestBytes("p1")).ok());
    Status s = models::RunSubtransaction(*tm_, [&] {
      tm_->Write(TransactionManager::Self(), child_obj, TestBytes("c1"))
          .ok();
      throw std::runtime_error("child gives up");
    });
    EXPECT_TRUE(s.IsTxnAborted());
    EXPECT_EQ(TransactionManager::Self(), root);
  });
  EXPECT_TRUE(ok);
  EXPECT_EQ(ReadCommitted(parent_obj), "p1");
  EXPECT_EQ(ReadCommitted(child_obj), "c0");

  // At top level the exception stays inside the transaction too.
  Tid t = tm_->Initiate([&] {
    tm_->Write(TransactionManager::Self(), parent_obj, TestBytes("p2")).ok();
    throw std::runtime_error("top-level body gives up");
  });
  ASSERT_TRUE(tm_->RunBody(t).ok());
  EXPECT_EQ(TransactionManager::Self(), kNullTid);
  Status c = tm_->CommitTxn(t);
  EXPECT_TRUE(c.IsTxnAborted());
  EXPECT_NE(c.message().find("exception"), std::string::npos) << c.ToString();
  EXPECT_EQ(ReadCommitted(parent_obj), "p1");
}

TEST_F(InlineExecTest, InlineBodyCanBeTheDeadlockVictim) {
  ObjectId a = MakeObject("a0");
  ObjectId b = MakeObject("b0");
  std::atomic<bool> other_holds_b{false};
  // The pooled transaction takes b, then blocks on a.
  Tid other = tm_->Initiate([&] {
    Tid self = TransactionManager::Self();
    ASSERT_TRUE(tm_->Write(self, b, TestBytes("b-other")).ok());
    other_holds_b = true;
    EXPECT_TRUE(tm_->Write(self, a, TestBytes("a-other")).ok());
  });
  // The inline transaction takes a, lets the other block on it, then
  // asks for b and so closes the cycle: it is the victim.
  Tid victim = tm_->Initiate([&] {
    Tid self = TransactionManager::Self();
    ASSERT_TRUE(tm_->Write(self, a, TestBytes("a-victim")).ok());
    ASSERT_TRUE(tm_->Begin(other));
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (tm_->SnapshotState().wait_for.empty() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(other_holds_b.load());
    Status s = tm_->Write(self, b, TestBytes("b-victim"));
    EXPECT_TRUE(s.IsDeadlock()) << s.ToString();
    EXPECT_EQ(tm_->Wait(self), 0);  // doomed, not yet undone
  });
  ASSERT_TRUE(tm_->RunBody(victim).ok());
  EXPECT_EQ(TransactionManager::Self(), kNullTid);
  // The victim's body returned, so its abort is complete and a is free.
  EXPECT_EQ(tm_->GetStatus(victim), TxnStatus::kAborted);
  EXPECT_TRUE(tm_->CommitTxn(victim).IsTxnAborted());
  EXPECT_TRUE(tm_->Commit(other));
  EXPECT_EQ(ReadCommitted(a), "a-other");
  EXPECT_EQ(ReadCommitted(b), "b-other");
}

// Work-counter gate: the sequential models run every body on their
// caller, so a thousand of them create no pool worker; group Begin
// still hands its members to workers.
TEST_F(InlineExecTest, SequentialModelsCreateNoPoolWorkers) {
  // Built through RunAtomic: the fixture's helpers use Begin.
  ObjectId acct = kNullObjectId;
  ASSERT_TRUE(models::RunAtomic(*tm_, [&] {
    acct = tm_->CreateCounter(TransactionManager::Self(), 0).value();
  }));
  int committed = 0;
  for (int i = 0; i < 1000; ++i) {
    switch (i % 4) {
      case 0:
        committed += models::RunAtomic(*tm_, [&] {
          tm_->Increment(TransactionManager::Self(), acct, 1).ok();
        });
        break;
      case 1: {
        models::Saga saga;
        saga.AddStep(
            [&] { tm_->Increment(TransactionManager::Self(), acct, 1).ok(); },
            [&] {
              tm_->Increment(TransactionManager::Self(), acct, -1).ok();
            });
        // Every other saga fails its second step and compensates.
        const bool fail = (i / 4) % 2 == 0;
        saga.AddStep([&, fail] {
          if (fail) tm_->Abort(TransactionManager::Self());
        });
        models::Saga::Outcome o = saga.Run(*tm_);
        EXPECT_EQ(o.committed, !fail);
        committed += o.committed;
        break;
      }
      case 2:
        committed += models::RunNestedRoot(*tm_, [&] {
          EXPECT_TRUE(models::RunSubtransaction(*tm_, [&] {
                        tm_->Increment(TransactionManager::Self(), acct, 1)
                            .ok();
                      }).ok());
        });
        break;
      case 3: {
        models::ContingentTransaction ct;
        ct.AddAlternative([&] { tm_->Abort(TransactionManager::Self()); });
        ct.AddAlternative([&] {
          tm_->Increment(TransactionManager::Self(), acct, 1).ok();
        });
        committed += ct.Run(*tm_) == 1;
        break;
      }
    }
  }
  EXPECT_EQ(committed, 875);  // 125 of the 250 sagas compensate
  int64_t total = -1;
  ASSERT_TRUE(models::RunAtomic(*tm_, [&] {
    total = tm_->ReadCounter(TransactionManager::Self(), acct).value();
  }));
  EXPECT_EQ(total, 875);
  EXPECT_EQ(tm_->PoolThreads(), 0u);

  Tid t1 = tm_->Initiate([] {});
  Tid t2 = tm_->Initiate([] {});
  ASSERT_TRUE(tm_->Begin({t1, t2}));
  EXPECT_TRUE(tm_->Commit(t1));
  EXPECT_TRUE(tm_->Commit(t2));
  EXPECT_GE(tm_->PoolThreads(), 1u);
}

}  // namespace
}  // namespace asset
