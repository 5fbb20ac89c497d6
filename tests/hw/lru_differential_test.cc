// Differential test: the recency-ordered Cache and Tlb against a reference
// model that keeps a per-line access stamp and picks its victim by scanning
// for the first invalid way, else the smallest stamp. The two
// representations must agree access by access on seeded streams of reads,
// writes and flushes, across associativities and sizes.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <tuple>
#include <vector>

#include "src/hw/cache.h"
#include "src/hw/cpu.h"
#include "src/hw/tlb.h"

namespace hw {
namespace {

// --- Reference models (stamp-based LRU) -------------------------------------------------

class RefCache {
 public:
  explicit RefCache(const CacheConfig& c)
      : ways_(c.ways), num_sets_(c.size_bytes / (c.line_bytes * c.ways)) {
    while ((1u << line_shift_) < c.line_bytes) {
      ++line_shift_;
    }
    while ((1u << set_shift_) < num_sets_) {
      ++set_shift_;
    }
    lines_.resize(static_cast<size_t>(num_sets_) * ways_);
  }

  Cache::AccessResult Access(PhysAddr addr, bool write) {
    ++stats_.accesses;
    ++tick_;
    const uint64_t line_addr = addr >> line_shift_;
    const uint64_t tag = line_addr >> set_shift_;
    Line* base = &lines_[(line_addr & (num_sets_ - 1)) * ways_];
    for (uint32_t w = 0; w < ways_; ++w) {
      if (base[w].valid && base[w].tag == tag) {
        base[w].lru = tick_;
        base[w].dirty = base[w].dirty || write;
        return {.hit = true, .writeback = false};
      }
    }
    ++stats_.misses;
    Line* victim = &base[0];
    for (uint32_t w = 0; w < ways_; ++w) {
      if (!base[w].valid) {
        victim = &base[w];
        break;
      }
      if (base[w].lru < victim->lru) {
        victim = &base[w];
      }
    }
    const bool writeback = victim->valid && victim->dirty;
    stats_.writebacks += writeback ? 1 : 0;
    *victim = Line{.tag = tag, .valid = true, .dirty = write, .lru = tick_};
    return {.hit = false, .writeback = writeback};
  }

  void Flush() {
    for (Line& line : lines_) {
      stats_.writebacks += (line.valid && line.dirty) ? 1 : 0;
      line.valid = false;
      line.dirty = false;
    }
  }

  const CacheStats& stats() const { return stats_; }

 private:
  struct Line {
    uint64_t tag = 0;
    bool valid = false;
    bool dirty = false;
    uint64_t lru = 0;
  };
  uint32_t ways_;
  uint32_t num_sets_;
  uint32_t line_shift_ = 0;
  uint32_t set_shift_ = 0;
  std::vector<Line> lines_;
  uint64_t tick_ = 0;
  CacheStats stats_;
};

class RefTlb {
 public:
  explicit RefTlb(const TlbConfig& c) : ways_(c.ways), num_sets_(c.entries / c.ways) {
    entries_.resize(c.entries);
  }

  bool Access(uint64_t vpn) {
    ++stats_.accesses;
    ++tick_;
    Entry* base = &entries_[(vpn & (num_sets_ - 1)) * ways_];
    for (uint32_t w = 0; w < ways_; ++w) {
      if (base[w].valid && base[w].vpn == vpn) {
        base[w].lru = tick_;
        return true;
      }
    }
    ++stats_.misses;
    Entry* victim = &base[0];
    for (uint32_t w = 0; w < ways_; ++w) {
      if (!base[w].valid) {
        victim = &base[w];
        break;
      }
      if (base[w].lru < victim->lru) {
        victim = &base[w];
      }
    }
    *victim = Entry{.vpn = vpn, .valid = true, .lru = tick_};
    return false;
  }

  void Flush() {
    ++stats_.flushes;
    for (Entry& e : entries_) {
      e.valid = false;
    }
  }

  const TlbStats& stats() const { return stats_; }

 private:
  struct Entry {
    uint64_t vpn = 0;
    bool valid = false;
    uint64_t lru = 0;
  };
  uint32_t ways_;
  uint32_t num_sets_;
  std::vector<Entry> entries_;
  uint64_t tick_ = 0;
  TlbStats stats_;
};

// --- Streams ------------------------------------------------------------------------------

constexpr int kSteps = 200'000;
constexpr uint64_t kSeeds[] = {1, 7, 42};

// Draws one of `footprint` items: half the draws come from a small hot set
// (hits, and recency reordering among them), the rest from the whole
// footprint (conflict misses and evictions).
uint64_t Draw(std::mt19937_64& rng, uint64_t footprint) {
  const uint64_t r = rng();
  const uint64_t hot = footprint / 8 + 1;
  return (r & 1) != 0 ? (r >> 1) % hot : (r >> 1) % footprint;
}

// --- Cache --------------------------------------------------------------------------------

class CacheLruDifferentialTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t, uint32_t>> {};

TEST_P(CacheLruDifferentialTest, MatchesStampedReferenceAccessByAccess) {
  const auto [size, line, ways] = GetParam();
  const CacheConfig config{.size_bytes = size, .line_bytes = line, .ways = ways};
  for (const uint64_t seed : kSeeds) {
    Cache cache(config);
    RefCache ref(config);
    std::mt19937_64 rng(seed);
    // Four times the cache's lines, so sets overflow and victims matter.
    const uint64_t footprint = 4ull * cache.num_lines();
    for (int i = 0; i < kSteps; ++i) {
      const uint64_t r = rng();
      if (r % 5000 == 0) {
        cache.Flush();
        ref.Flush();
        continue;
      }
      const bool write = (r >> 20) % 4 == 0;
      const PhysAddr addr = Draw(rng, footprint) * line + (r >> 32) % line;
      const Cache::AccessResult got = cache.Access(addr, write);
      const Cache::AccessResult want = ref.Access(addr, write);
      ASSERT_EQ(got.hit, want.hit) << "seed " << seed << " step " << i << " addr " << addr;
      ASSERT_EQ(got.writeback, want.writeback)
          << "seed " << seed << " step " << i << " addr " << addr;
    }
    cache.Flush();
    ref.Flush();
    EXPECT_EQ(cache.stats().accesses, ref.stats().accesses) << "seed " << seed;
    EXPECT_EQ(cache.stats().misses, ref.stats().misses) << "seed " << seed;
    EXPECT_EQ(cache.stats().writebacks, ref.stats().writebacks) << "seed " << seed;
    // The stream must exercise both outcomes, or agreement proves nothing.
    EXPECT_GT(cache.stats().misses, 0u);
    EXPECT_LT(cache.stats().misses, cache.stats().accesses);
    EXPECT_GT(cache.stats().writebacks, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheLruDifferentialTest,
                         ::testing::Values(std::make_tuple(CpuConfig().icache.size_bytes,
                                                           CpuConfig().icache.line_bytes,
                                                           CpuConfig().icache.ways),
                                           std::make_tuple(8192u, 32u, 1u),
                                           std::make_tuple(8192u, 32u, 4u),
                                           std::make_tuple(8192u, 32u, 8u),
                                           std::make_tuple(1024u, 32u, 1u),
                                           std::make_tuple(1024u, 32u, 2u),
                                           std::make_tuple(1024u, 16u, 4u),
                                           std::make_tuple(32768u, 64u, 8u)));

// --- TLB ----------------------------------------------------------------------------------

class TlbLruDifferentialTest : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>> {
};

TEST_P(TlbLruDifferentialTest, MatchesStampedReferenceAccessByAccess) {
  const auto [entries, ways] = GetParam();
  const TlbConfig config{.entries = entries, .ways = ways};
  for (const uint64_t seed : kSeeds) {
    Tlb tlb(config);
    RefTlb ref(config);
    std::mt19937_64 rng(seed);
    const uint64_t footprint = 4ull * entries;
    for (int i = 0; i < kSteps; ++i) {
      if (rng() % 2000 == 0) {
        tlb.Flush();
        ref.Flush();
        continue;
      }
      const uint64_t vpn = Draw(rng, footprint);
      ASSERT_EQ(tlb.Access(vpn), ref.Access(vpn))
          << "seed " << seed << " step " << i << " vpn " << vpn;
    }
    EXPECT_EQ(tlb.stats().accesses, ref.stats().accesses) << "seed " << seed;
    EXPECT_EQ(tlb.stats().misses, ref.stats().misses) << "seed " << seed;
    EXPECT_EQ(tlb.stats().flushes, ref.stats().flushes) << "seed " << seed;
    EXPECT_GT(tlb.stats().misses, 0u);
    EXPECT_LT(tlb.stats().misses, tlb.stats().accesses);
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, TlbLruDifferentialTest,
                         ::testing::Values(std::make_tuple(CpuConfig().tlb.entries,
                                                           CpuConfig().tlb.ways),
                                           std::make_tuple(64u, 1u), std::make_tuple(64u, 2u),
                                           std::make_tuple(64u, 8u), std::make_tuple(16u, 4u),
                                           std::make_tuple(128u, 8u)));

}  // namespace
}  // namespace hw
