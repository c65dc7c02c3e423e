// Tests for the object store: CRUD, growth across pages, directory
// rebuild on Open, idempotent apply operations, and concurrency.

#include <gtest/gtest.h>

#include <thread>

#include "common/random.h"
#include "storage/object_store.h"

namespace asset {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

class ObjectStoreTest : public ::testing::Test {
 protected:
  ObjectStoreTest() : pool_(&disk_, 64), store_(&pool_) {
    EXPECT_TRUE(store_.Open().ok());
  }
  InMemoryDiskManager disk_;
  BufferPool pool_;
  ObjectStore store_;
};

TEST_F(ObjectStoreTest, CreateReadRoundTrip) {
  auto oid = store_.Create(Bytes("value-1"));
  ASSERT_TRUE(oid.ok());
  auto back = store_.Read(*oid);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, Bytes("value-1"));
  EXPECT_TRUE(store_.Exists(*oid));
  EXPECT_EQ(store_.NumObjects(), 1u);
}

TEST_F(ObjectStoreTest, CreateAssignsDistinctIds) {
  auto a = store_.Create(Bytes("a")).value();
  auto b = store_.Create(Bytes("b")).value();
  EXPECT_NE(a, b);
}

TEST_F(ObjectStoreTest, CreateWithIdAndCollision) {
  ASSERT_TRUE(store_.CreateWithId(42, Bytes("answer")).ok());
  EXPECT_EQ(*store_.Read(42), Bytes("answer"));
  EXPECT_TRUE(store_.CreateWithId(42, Bytes("again")).IsIllegalState());
  EXPECT_EQ(store_.CreateWithId(kNullObjectId, Bytes("x")).code(),
            StatusCode::kInvalidArgument);
  // Store-assigned ids must not collide with user-chosen ones.
  auto next = store_.Create(Bytes("fresh")).value();
  EXPECT_GT(next, 42u);
}

TEST_F(ObjectStoreTest, WriteChangesValueAndSize) {
  auto oid = store_.Create(Bytes("short")).value();
  ASSERT_TRUE(store_.Write(oid, Bytes("a much longer replacement")).ok());
  EXPECT_EQ(*store_.Read(oid), Bytes("a much longer replacement"));
  ASSERT_TRUE(store_.Write(oid, Bytes("s")).ok());
  EXPECT_EQ(*store_.Read(oid), Bytes("s"));
}

TEST_F(ObjectStoreTest, ZeroLengthObjectsRoundTrip) {
  // A default-constructed span has a null data(); the record copy must
  // not hand it to memcpy.
  auto oid = store_.Create(std::span<const uint8_t>());
  ASSERT_TRUE(oid.ok());
  auto back = store_.Read(*oid);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
  ASSERT_TRUE(store_.Write(*oid, Bytes("x")).ok());
  EXPECT_EQ(*store_.Read(*oid), Bytes("x"));
  ASSERT_TRUE(store_.Write(*oid, std::vector<uint8_t>()).ok());
  back = store_.Read(*oid);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST_F(ObjectStoreTest, MissingObjectIsNotFound) {
  EXPECT_TRUE(store_.Read(999).status().IsNotFound());
  EXPECT_TRUE(store_.Write(999, Bytes("x")).IsNotFound());
  EXPECT_TRUE(store_.Delete(999).IsNotFound());
  EXPECT_FALSE(store_.Exists(999));
}

TEST_F(ObjectStoreTest, DeleteRemoves) {
  auto oid = store_.Create(Bytes("temp")).value();
  ASSERT_TRUE(store_.Delete(oid).ok());
  EXPECT_FALSE(store_.Exists(oid));
  EXPECT_TRUE(store_.Read(oid).status().IsNotFound());
}

TEST_F(ObjectStoreTest, ManyObjectsSpanPages) {
  std::vector<uint8_t> blob(1000, 0xCD);
  std::vector<ObjectId> oids;
  for (int i = 0; i < 100; ++i) {  // ~100KB >> one 8KB page
    oids.push_back(store_.Create(blob).value());
  }
  EXPECT_GT(disk_.NumPages(), 10u);
  for (ObjectId oid : oids) {
    EXPECT_EQ(store_.Read(oid)->size(), blob.size());
  }
}

TEST_F(ObjectStoreTest, GrownObjectMigratesAcrossPages) {
  // Nearly fill a page, then grow one object past its page's space.
  auto oid = store_.Create(Bytes("seed")).value();
  std::vector<uint8_t> filler(3000, 1);
  store_.Create(filler).value();
  store_.Create(filler).value();
  std::vector<uint8_t> big(5000, 2);
  ASSERT_TRUE(store_.Write(oid, big).ok());
  EXPECT_EQ(*store_.Read(oid), big);
}

TEST_F(ObjectStoreTest, OpenRebuildsDirectory) {
  auto a = store_.Create(Bytes("alpha")).value();
  auto b = store_.Create(Bytes("beta")).value();
  ASSERT_TRUE(store_.Delete(a).ok());
  ASSERT_TRUE(pool_.FlushAll().ok());

  ObjectStore reopened(&pool_);
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_FALSE(reopened.Exists(a));
  EXPECT_EQ(*reopened.Read(b), Bytes("beta"));
  // next_oid must resume past the highest seen id.
  auto c = reopened.Create(Bytes("gamma")).value();
  EXPECT_GT(c, b);
}

TEST_F(ObjectStoreTest, ApplyPutCreatesOrOverwrites) {
  ASSERT_TRUE(store_.ApplyPut(5, Bytes("v1")).ok());
  EXPECT_EQ(*store_.Read(5), Bytes("v1"));
  ASSERT_TRUE(store_.ApplyPut(5, Bytes("v2")).ok());
  EXPECT_EQ(*store_.Read(5), Bytes("v2"));
}

TEST_F(ObjectStoreTest, ApplyDeleteIsIdempotent) {
  ASSERT_TRUE(store_.ApplyPut(6, Bytes("gone")).ok());
  ASSERT_TRUE(store_.ApplyDelete(6).ok());
  ASSERT_TRUE(store_.ApplyDelete(6).ok());
  EXPECT_FALSE(store_.Exists(6));
}

TEST_F(ObjectStoreTest, ListObjectsMatchesLiveSet) {
  auto a = store_.Create(Bytes("1")).value();
  auto b = store_.Create(Bytes("2")).value();
  auto c = store_.Create(Bytes("3")).value();
  ASSERT_TRUE(store_.Delete(b).ok());
  auto list = store_.ListObjects();
  std::sort(list.begin(), list.end());
  EXPECT_EQ(list, (std::vector<ObjectId>{a, c}));
}

TEST_F(ObjectStoreTest, RejectsOversizedObject) {
  std::vector<uint8_t> huge(kPageSize, 1);
  EXPECT_EQ(store_.Create(huge).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ObjectStoreTest, ConcurrentReadersSeeStableValues) {
  auto oid = store_.Create(Bytes("stable")).value();
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        auto v = store_.Read(oid);
        if (!v.ok() || *v != Bytes("stable")) failures++;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ObjectStoreTest, ConcurrentWritersToDistinctObjects) {
  std::vector<ObjectId> oids;
  for (int i = 0; i < 8; ++i) {
    oids.push_back(store_.Create(Bytes("init")).value());
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        std::string v = "w" + std::to_string(t) + "-" + std::to_string(i);
        ASSERT_TRUE(store_.Write(oids[t], Bytes(v)).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 8; ++t) {
    EXPECT_EQ(*store_.Read(oids[t]),
              Bytes("w" + std::to_string(t) + "-199"));
  }
}

TEST_F(ObjectStoreTest, CounterEncodeDecodeAndDelta) {
  auto oid_r = store_.Create(ObjectStore::EncodeCounter(0, 100));
  ASSERT_TRUE(oid_r.ok());
  ObjectId oid = *oid_r;
  EXPECT_EQ(store_.ReadCounter(oid).value(), 100);
  // Deltas apply in lsn order, once each.
  EXPECT_EQ(store_.ApplyDelta(oid, 5, +7).value(), 107);
  EXPECT_EQ(store_.ApplyDelta(oid, 5, +7).value(), 107);  // replay: no-op
  EXPECT_EQ(store_.ApplyDelta(oid, 3, +1).value(), 107);  // stale: no-op
  EXPECT_EQ(store_.ApplyDelta(oid, 9, -7).value(), 100);
  EXPECT_EQ(store_.ReadCounter(oid).value(), 100);
}

TEST_F(ObjectStoreTest, CounterRejectsWrongShape) {
  auto oid = store_.Create(Bytes("just bytes")).value();
  EXPECT_EQ(store_.ReadCounter(oid).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store_.ApplyDelta(oid, 1, 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(store_.ApplyDelta(9999, 1, 1).status().IsNotFound());
}

TEST_F(ObjectStoreTest, SystemIdRangeIsReserved) {
  // Store-assigned ids never collide with the reserved system range.
  auto oid = store_.Create(Bytes("user object")).value();
  EXPECT_GE(oid, kFirstUserObjectId);
  // But system ids can be claimed explicitly (e.g. the catalog).
  ASSERT_TRUE(store_.CreateWithId(1, Bytes("catalog")).ok());
  EXPECT_EQ(*store_.Read(1), Bytes("catalog"));
}

}  // namespace
}  // namespace asset
