// Unit tests for the waits-for-graph deadlock detector (DESIGN.md S6
// extension), driven directly on transaction descriptors.

#include <gtest/gtest.h>

#include "core/deadlock_detector.h"

namespace asset {
namespace {

class DeadlockDetectorTest : public ::testing::Test {
 protected:
  TransactionDescriptor* Add(Tid tid) {
    auto td = std::make_unique<TransactionDescriptor>(tid, kNullTid);
    TransactionDescriptor* raw = td.get();
    txns_.emplace(tid, std::move(td));
    return raw;
  }
  std::vector<Tid> Cycle(const TransactionDescriptor* requester) {
    return DeadlockDetector::WouldDeadlock(requester, txns_);
  }
  TdTable txns_;
};

TEST_F(DeadlockDetectorTest, NoEdgesNoDeadlock) {
  auto* a = Add(1);
  EXPECT_TRUE(Cycle(a).empty());
}

TEST_F(DeadlockDetectorTest, SimpleWaitIsNotDeadlock) {
  auto* a = Add(1);
  Add(2);
  a->waiting_for = {2};
  EXPECT_TRUE(Cycle(a).empty());
}

TEST_F(DeadlockDetectorTest, TwoCycle) {
  auto* a = Add(1);
  auto* b = Add(2);
  b->waiting_for = {1};
  a->waiting_for = {2};
  EXPECT_EQ(Cycle(a), (std::vector<Tid>{1, 2}));
  EXPECT_EQ(Cycle(b), (std::vector<Tid>{2, 1}));
}

TEST_F(DeadlockDetectorTest, LongCycleThroughManyTransactions) {
  constexpr Tid kN = 12;
  std::vector<TransactionDescriptor*> tds;
  for (Tid t = 1; t <= kN; ++t) tds.push_back(Add(t));
  for (Tid t = 0; t < kN - 1; ++t) tds[t]->waiting_for = {t + 2};
  // Closing edge: last waits for first.
  tds[kN - 1]->waiting_for = {1};
  std::vector<Tid> all;
  for (Tid t = 1; t <= kN; ++t) all.push_back(t);
  EXPECT_EQ(Cycle(tds[0]), all);
}

TEST_F(DeadlockDetectorTest, ThreeCycleNamesExactlyItsMembersInWaitOrder) {
  auto* a = Add(1);
  auto* b = Add(2);
  auto* c = Add(3);
  auto* d = Add(4);
  Add(5);
  // a -> c -> b -> a, with off-cycle edges that must not be reported:
  // every member also waits on 5, and d waits into the cycle.
  c->waiting_for = {5, 2};
  b->waiting_for = {5, 1};
  d->waiting_for = {3};
  a->waiting_for = {5, 3};
  EXPECT_EQ(Cycle(a), (std::vector<Tid>{1, 3, 2}));
  EXPECT_EQ(Cycle(c), (std::vector<Tid>{3, 2, 1}));
  EXPECT_TRUE(Cycle(d).empty());
}

TEST_F(DeadlockDetectorTest, BranchingWaitsOneBranchCycles) {
  auto* a = Add(1);
  auto* b = Add(2);
  auto* c = Add(3);
  Add(4);
  // a waits on b and on 4; b waits on c; c waits on a: cycle via b.
  b->waiting_for = {3};
  c->waiting_for = {1};
  a->waiting_for = {4, 2};
  EXPECT_EQ(Cycle(a), (std::vector<Tid>{1, 2, 3}));
  a->waiting_for = {4};  // drop the cyclic branch
  EXPECT_TRUE(Cycle(a).empty());
}

TEST_F(DeadlockDetectorTest, OffCycleWaiterIsNotAVictim) {
  auto* a = Add(1);
  auto* b = Add(2);
  auto* d = Add(4);
  // a <-> b cycle exists; d waits on a but is not ON the cycle.
  a->waiting_for = {2};
  b->waiting_for = {1};
  d->waiting_for = {1};
  EXPECT_EQ(Cycle(a), (std::vector<Tid>{1, 2}));
  // d's own wait does not close a cycle through d.
  EXPECT_TRUE(Cycle(d).empty());
}

TEST_F(DeadlockDetectorTest, EdgesToUnknownTidsIgnored) {
  auto* a = Add(1);
  a->waiting_for = {99};  // holder already gone
  EXPECT_TRUE(Cycle(a).empty());
}

TEST_F(DeadlockDetectorTest, SelfWaitIsDeadlock) {
  auto* a = Add(1);
  a->waiting_for = {1};
  EXPECT_EQ(Cycle(a), (std::vector<Tid>{1}));
}

}  // namespace
}  // namespace asset
