// Self-tests for the benchmark's own measuring tools.

#include <gtest/gtest.h>

#include <numeric>
#include <thread>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

TEST(Percentile, NearestRankOnKnownSamples) {
  std::vector<int64_t> v(100);
  std::iota(v.begin(), v.end(), 1);  // 1..100
  EXPECT_EQ(Percentile(v, 50), 50);
  EXPECT_EQ(Percentile(v, 99), 99);
  EXPECT_EQ(Percentile(v, 99.5), 100);
  EXPECT_EQ(Percentile(v, 100), 100);
  EXPECT_EQ(Percentile(v, 0.1), 1);
  EXPECT_EQ(Percentile({7}, 50), 7);
  EXPECT_EQ(Percentile({7}, 99), 7);
  EXPECT_EQ(Percentile({}, 50), 0);
  // Not interpolated: an exact sample, even between widely spaced ones.
  EXPECT_EQ(Percentile({10, 1000}, 50), 10);
  EXPECT_EQ(Percentile({10, 1000}, 51), 1000);
}

Span MakeSpan(uint64_t id, uint64_t parent, uint64_t txn, const char* name,
              int64_t start, int64_t end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.txn = txn;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(Ledger, SelfTimeSubtractsNestedChildren) {
  // txn [0,100): models.atomic [10,90) containing bench.body [20,70)
  // containing core.op [30,40) and core.op [50,60).
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 7, "txn", 0, 100),
      MakeSpan(2, 1, 7, "models.atomic", 10, 90),
      MakeSpan(3, 2, 7, "bench.body", 20, 70),
      MakeSpan(4, 3, 7, "core.op", 30, 40),
      MakeSpan(5, 3, 7, "core.op", 50, 60),
  };
  const Ledger l = BuildLedger(spans);
  EXPECT_EQ(l.txns, 1u);
  EXPECT_DOUBLE_EQ(l.wall_ns, 100);
  EXPECT_DOUBLE_EQ(l.rows.at("unattributed").self_ns, 20);
  EXPECT_DOUBLE_EQ(l.rows.at("models.atomic").self_ns, 30);
  EXPECT_DOUBLE_EQ(l.rows.at("bench.body").self_ns, 30);
  EXPECT_DOUBLE_EQ(l.rows.at("core.op").self_ns, 20);
  EXPECT_EQ(l.rows.at("core.op").calls, 2u);
  EXPECT_DOUBLE_EQ(l.MeanInclusiveNs("core.op"), 10);
  EXPECT_DOUBLE_EQ(l.MeanInclusiveNs("models.atomic"), 80);
  EXPECT_DOUBLE_EQ(l.LayerSelfNs("core"), 20);
  double sum = 0;
  for (const auto& [name, row] : l.rows) sum += row.self_ns;
  EXPECT_DOUBLE_EQ(sum, l.wall_ns);
}

TEST(Ledger, ParallelChildrenSplitTimeAndStillAddUp) {
  // Two component bodies of one model call overlap on [30,50).
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 3, "txn", 0, 100),
      MakeSpan(2, 1, 3, "models.distributed", 0, 100),
      MakeSpan(3, 2, 3, "bench.body", 10, 50),
      MakeSpan(4, 2, 3, "core.op", 30, 70),
  };
  const Ledger l = BuildLedger(spans);
  EXPECT_DOUBLE_EQ(l.rows.at("models.distributed").self_ns, 40);
  EXPECT_DOUBLE_EQ(l.rows.at("bench.body").self_ns, 20 + 10);
  EXPECT_DOUBLE_EQ(l.rows.at("core.op").self_ns, 10 + 20);
  EXPECT_DOUBLE_EQ(l.rows.at("unattributed").self_ns, 0);
  double sum = 0;
  for (const auto& [name, row] : l.rows) sum += row.self_ns;
  EXPECT_DOUBLE_EQ(sum, 100);
}

TEST(Ledger, TxnsAreChargedSeparately) {
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 1, "txn", 0, 10),
      MakeSpan(2, 1, 1, "core.op", 2, 6),
      MakeSpan(3, 0, 2, "txn", 5, 25),
  };
  const Ledger l = BuildLedger(spans);
  EXPECT_EQ(l.txns, 2u);
  EXPECT_DOUBLE_EQ(l.wall_ns, 30);
  EXPECT_DOUBLE_EQ(l.rows.at("core.op").self_ns, 4);
  EXPECT_DOUBLE_EQ(l.rows.at("unattributed").self_ns, 26);
}

TEST(Spans, RecordedAcrossThreadsUnderOneTxn) {
  DrainSpans();
  SetTracing(true);
  {
    TxnSpan root;
    ScopedSpan outer("models.atomic");
    const SpanContext ctx = CurrentSpanContext();
    std::thread body([ctx] {
      AdoptSpanContext adopt(ctx);
      ScopedSpan s("bench.body");
      ScopedSpan op("core.op");
    });
    body.join();
  }
  SetTracing(false);
  { ScopedSpan untraced("core.op"); }
  const std::vector<Span> spans = DrainSpans();
  ASSERT_EQ(spans.size(), 4u);
  const Ledger l = BuildLedger(spans);
  EXPECT_EQ(l.txns, 1u);
  EXPECT_EQ(l.rows.at("bench.body").calls, 1u);
  EXPECT_EQ(l.rows.at("core.op").calls, 1u);
  double sum = 0;
  for (const auto& [name, row] : l.rows) sum += row.self_ns;
  EXPECT_NEAR(sum, l.wall_ns, 1e-6 * l.wall_ns + 1e-9);
}

}  // namespace
}  // namespace perfbench
