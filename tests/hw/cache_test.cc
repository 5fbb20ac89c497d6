#include "src/hw/cache.h"

#include <gtest/gtest.h>

namespace hw {
namespace {

CacheConfig SmallCache() {
  return CacheConfig{.size_bytes = 1024, .line_bytes = 32, .ways = 2};
}

TEST(CacheTest, FirstAccessMissesThenHits) {
  Cache cache(SmallCache());
  EXPECT_FALSE(cache.Access(0x100, false).hit);
  EXPECT_TRUE(cache.Access(0x100, false).hit);
  EXPECT_TRUE(cache.Access(0x11f, false).hit);   // same 32-byte line
  EXPECT_FALSE(cache.Access(0x120, false).hit);  // next line
}

TEST(CacheTest, StatsCountAccessesAndMisses) {
  Cache cache(SmallCache());
  cache.Access(0x0, false);
  cache.Access(0x0, false);
  cache.Access(0x40, false);
  EXPECT_EQ(cache.stats().accesses, 3u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(CacheTest, ConflictEvictionLru) {
  Cache cache(SmallCache());  // 16 sets, 2 ways
  // Three lines mapping to the same set (stride = sets * line = 512).
  cache.Access(0x000, false);
  cache.Access(0x200, false);
  EXPECT_TRUE(cache.Access(0x000, false).hit);
  cache.Access(0x400, false);  // evicts 0x200 (LRU)
  EXPECT_TRUE(cache.Access(0x000, false).hit);
  EXPECT_FALSE(cache.Access(0x200, false).hit);
}

TEST(CacheTest, DirtyEvictionReportsWriteback) {
  Cache cache(SmallCache());
  cache.Access(0x000, true);  // dirty
  cache.Access(0x200, false);
  auto r = cache.Access(0x400, false);  // evicts dirty 0x000
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(r.writeback);
  EXPECT_EQ(cache.stats().writebacks, 1u);
}

TEST(CacheTest, FlushInvalidatesAndWritesBackDirty) {
  Cache cache(SmallCache());
  cache.Access(0x000, true);
  cache.Access(0x040, false);
  cache.Flush();
  EXPECT_EQ(cache.stats().writebacks, 1u);
  EXPECT_FALSE(cache.Access(0x000, false).hit);
  EXPECT_FALSE(cache.Access(0x040, false).hit);
}

TEST(CacheTest, CapacityHoldsWorkingSet) {
  Cache cache(SmallCache());  // 1 KB: 32 lines
  for (uint64_t a = 0; a < 1024; a += 32) {
    cache.Access(a, false);
  }
  // Everything fits; second pass hits entirely.
  for (uint64_t a = 0; a < 1024; a += 32) {
    EXPECT_TRUE(cache.Access(a, false).hit) << a;
  }
}

TEST(CacheTest, OverCapacityWorkingSetThrashes) {
  Cache cache(SmallCache());
  // 2x capacity round robin: with LRU this misses every time.
  for (int pass = 0; pass < 3; ++pass) {
    for (uint64_t a = 0; a < 2048; a += 32) {
      cache.Access(a, false);
    }
  }
  EXPECT_EQ(cache.stats().misses, cache.stats().accesses);
}

TEST(CacheTest, AddressLimitOfTheDefaultGeometry) {
  // 128 sets of 32-byte lines: a tag drops 12 address bits and holds 31.
  EXPECT_EQ(Cache::AddressLimit(CacheConfig{}), PhysAddr{0x7fff'ffff} << 12);
  EXPECT_EQ(Cache::AddressLimit(SmallCache()), PhysAddr{0x7fff'ffff} << 9);
}

TEST(CacheTest, LastAddressBelowTheLimitIsHeld) {
  Cache cache(SmallCache());
  const PhysAddr top = Cache::AddressLimit(SmallCache()) - 1;
  EXPECT_FALSE(cache.Access(top, true).hit);
  EXPECT_TRUE(cache.Access(top, false).hit);
  // Same set, tag 0: the top line's key must not alias it.
  EXPECT_FALSE(cache.Access(top & 0x1ff, false).hit);
  cache.Flush();
  EXPECT_EQ(cache.stats().writebacks, 1u);
}

TEST(CacheDeathTest, RejectsThreeWays) {
  const CacheConfig three_ways{.size_bytes = 3 * 32 * 16, .line_bytes = 32, .ways = 3};
  EXPECT_DEATH(Cache{three_ways}, "associativity must be 1, 2, 4 or 8");
}

TEST(CacheDeathTest, RunPastTheAddressLimitFails) {
#ifdef NDEBUG
  GTEST_SKIP() << "the address-limit check is a DCHECK";
#else
  Cache cache(SmallCache());
  const PhysAddr limit = Cache::AddressLimit(SmallCache());
  EXPECT_DEATH(cache.Access(limit, false), "address limit");
  // A run whose last line crosses the limit fails too.
  EXPECT_DEATH(cache.AccessRun(limit - 64, 3, 32, false), "address limit");
#endif
}

}  // namespace
}  // namespace hw
