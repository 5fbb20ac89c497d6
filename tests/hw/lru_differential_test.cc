// Differential tests: the recency-ordered Cache and Tlb against a reference
// model that keeps a per-line access stamp and picks its victim by scanning
// for the first invalid way, else the smallest stamp. The two
// representations must agree access by access on seeded streams of reads,
// writes and flushes, across associativities and sizes.
//
// The Cpu charges the cache in runs (Cache::AccessRun, one TLB lookup and
// one D-cache run per translated chunk). A per-line reference Cpu built on
// the stamped models charges the same operations one line and one
// line-sized piece at a time; the two must agree on every counter, every cache and TLB
// statistic and the access-observer call log after every operation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
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

// Where a cache stream's lines lie. Tags of low addresses use only a few
// low key bits, so the streams also run where the simulator's code lives and
// where the key runs out.
enum class Placement {
  kLow,         // from address 0, like data in simulated RAM
  kCodeImages,  // across code images, placed as CodeLayout::Register does, and RAM
  kTop,         // ending at the last address the geometry's key can hold
};

constexpr PhysAddr kImageSpaceBase = 0x1'0000'0000;
constexpr uint64_t kImageStride = 16ull << 20;  // 16 MB of address space per image
constexpr uint64_t kImages = 16;

// The address of line `d` of a stream over `footprint` lines whose runs
// reach at most `headroom` lines past its last line.
PhysAddr LineAddress(Placement placement, const CacheConfig& config, uint64_t footprint,
                     uint64_t headroom, uint64_t d) {
  const uint64_t line = config.line_bytes;
  switch (placement) {
    case Placement::kLow:
      break;
    case Placement::kCodeImages: {
      // Consecutive lines go to different images, whose bases share cache
      // sets but for CodeLayout's 1312-byte stagger, and every 17th line to
      // RAM from address 0: line k of image 0 and of RAM differ in bit 32 only.
      const uint64_t image = d % (kImages + 1);
      const uint64_t offset = d / (kImages + 1) * line;
      if (image == kImages) {
        return offset;
      }
      return kImageSpaceBase + image * kImageStride + (image * 1312) % 4096 + offset;
    }
    case Placement::kTop: {
      // Even lines end at the limit; odd lines are the same lines with the
      // key's highest tag bit clear, so a key that lost that bit aliases them.
      const PhysAddr limit = Cache::AddressLimit(config);
      const PhysAddr top_bit = PhysAddr{1} << (30 + std::countr_zero(limit));
      return limit - (footprint / 2 + headroom - d / 2) * line - (d % 2 == 0 ? 0 : top_bit);
    }
  }
  return d * line;
}

// --- Cache --------------------------------------------------------------------------------

class CacheLruDifferentialTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t, uint32_t>> {
 protected:
  void MatchesStampedReference(Placement placement);
};

void CacheLruDifferentialTest::MatchesStampedReference(Placement placement) {
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
      const PhysAddr addr =
          LineAddress(placement, config, footprint, 0, Draw(rng, footprint)) + (r >> 32) % line;
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

TEST_P(CacheLruDifferentialTest, MatchesStampedReferenceAccessByAccess) {
  MatchesStampedReference(Placement::kLow);
}

TEST_P(CacheLruDifferentialTest, MatchesStampedReferenceInCodeImages) {
  MatchesStampedReference(Placement::kCodeImages);
}

TEST_P(CacheLruDifferentialTest, MatchesStampedReferenceAtTheAddressLimit) {
  MatchesStampedReference(Placement::kTop);
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

// --- Cache runs ---------------------------------------------------------------------------

class CacheRunDifferentialTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t, uint32_t>> {
 protected:
  void RunsMatchPerLineAccesses(Placement placement);
};

void CacheRunDifferentialTest::RunsMatchPerLineAccesses(Placement placement) {
  const auto [size, line, ways] = GetParam();
  const CacheConfig config{.size_bytes = size, .line_bytes = line, .ways = ways};
  // A run spans fewer than 40 strides of under three lines each.
  constexpr uint64_t kRunHeadroom = 120;
  for (const uint64_t seed : kSeeds) {
    Cache cache(config);
    RefCache ref(config);
    std::mt19937_64 rng(seed);
    const uint64_t footprint = 4ull * cache.num_lines();
    for (int i = 0; i < kSteps / 16; ++i) {
      const uint64_t r = rng();
      const bool write = (r >> 20) % 4 == 0;
      const PhysAddr addr =
          LineAddress(placement, config, footprint, kRunHeadroom, Draw(rng, footprint)) +
          (r >> 32) % line;
      const uint64_t count = (r >> 8) % 40;
      // Strides of whole lines (sparse code), zero (one line again) and any
      // byte count below three lines (runs that skip or revisit lines).
      const uint64_t stride = (r >> 40) % 3 == 0 ? (r >> 44) % (3 * line) : line * ((r >> 44) % 4);
      const Cache::RunResult got = cache.AccessRun(addr, count, stride, write);
      Cache::RunResult want;
      for (uint64_t k = 0; k < count; ++k) {
        const Cache::AccessResult one = ref.Access(addr + k * stride, write);
        want.misses += one.hit ? 0 : 1;
        want.writebacks += one.writeback ? 1 : 0;
      }
      ASSERT_EQ(got.misses, want.misses) << "seed " << seed << " step " << i;
      ASSERT_EQ(got.writebacks, want.writebacks) << "seed " << seed << " step " << i;
      ASSERT_EQ(cache.stats().accesses, ref.stats().accesses) << "seed " << seed << " step " << i;
    }
    EXPECT_EQ(cache.stats().misses, ref.stats().misses) << "seed " << seed;
    EXPECT_EQ(cache.stats().writebacks, ref.stats().writebacks) << "seed " << seed;
    EXPECT_GT(cache.stats().misses, 0u);
    EXPECT_LT(cache.stats().misses, cache.stats().accesses);
  }
}

TEST_P(CacheRunDifferentialTest, RunMatchesPerLineAccesses) {
  RunsMatchPerLineAccesses(Placement::kLow);
}

TEST_P(CacheRunDifferentialTest, RunMatchesPerLineAccessesInCodeImages) {
  RunsMatchPerLineAccesses(Placement::kCodeImages);
}

TEST_P(CacheRunDifferentialTest, RunMatchesPerLineAccessesAtTheAddressLimit) {
  RunsMatchPerLineAccesses(Placement::kTop);
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheRunDifferentialTest,
                         ::testing::Values(std::make_tuple(8192u, 32u, 1u),
                                           std::make_tuple(8192u, 32u, 2u),
                                           std::make_tuple(8192u, 32u, 4u),
                                           std::make_tuple(8192u, 32u, 8u),
                                           std::make_tuple(1024u, 16u, 4u),
                                           std::make_tuple(32768u, 64u, 8u)));

// --- Cpu runs -------------------------------------------------------------------------------

struct ObservedAccess {
  PhysAddr paddr = 0;
  uint32_t size = 0;
  bool write = false;
  bool operator==(const ObservedAccess&) const = default;
};

// The Cpu cost model charged one line and one line-sized translated piece at
// a time, over the stamped reference cache and TLB.
class RefCpu {
 public:
  explicit RefCpu(const CpuConfig& c)
      : config_(c), icache_(c.icache), dcache_(c.dcache), tlb_(c.tlb) {}

  void ExecuteInstructions(const CodeRegion& region, uint64_t instructions) {
    if (instructions == 0) {
      return;
    }
    c_.instructions += instructions;
    frac_ += static_cast<double>(instructions) * config_.base_cpi;
    const Cycles whole = static_cast<Cycles>(frac_);
    frac_ -= static_cast<double>(whole);
    c_.cycles += whole;
    const uint64_t bytes = std::min<uint64_t>(instructions, region.instructions) *
                           kBytesPerInstruction;
    const uint32_t line = config_.icache.line_bytes;
    PhysAddr a = region.base & ~static_cast<PhysAddr>(line - 1);
    for (uint64_t i = 0; i < (bytes + line - 1) / line; ++i, a += line * region.sparsity) {
      if (!icache_.Access(a, /*write=*/false).hit) {
        ++c_.icache_misses;
        c_.cycles += config_.icache_miss_cycles;
        c_.bus_cycles += config_.bus_per_fill;
      }
    }
  }

  void AccessData(PhysAddr paddr, uint32_t size, bool write) {
    ++c_.data_accesses;
    log.push_back({paddr, size, write});
    const uint32_t line = config_.dcache.line_bytes;
    const PhysAddr mask = ~static_cast<PhysAddr>(line - 1);
    const PhysAddr last = (paddr + (size == 0 ? 0 : size - 1)) & mask;
    for (PhysAddr a = paddr & mask; a <= last; a += line) {
      const Cache::AccessResult r = dcache_.Access(a, write);
      if (!r.hit) {
        ++c_.dcache_misses;
        c_.cycles += config_.dcache_miss_cycles;
        c_.bus_cycles += config_.bus_per_fill;
      }
      if (r.writeback) {
        c_.cycles += config_.writeback_cycles;
        c_.bus_cycles += config_.bus_per_writeback;
      }
    }
  }

  // One TLB lookup and one data access per line-sized piece, as the kernel's
  // user-access loop issued them.
  void AccessTranslated(VirtAddr vaddr, PhysAddr paddr, PhysAddr pte_paddr, uint64_t len,
                        bool write) {
    const uint32_t line = config_.dcache.line_bytes;
    for (uint64_t o = 0; o < len; o += line) {
      if (!tlb_.Access(PageIndex(vaddr + o))) {
        ++c_.tlb_misses;
        c_.cycles += config_.tlb_walk_cycles;
        AccessData(pte_paddr, 4, /*write=*/false);
      }
      AccessData(paddr + o, static_cast<uint32_t>(std::min<uint64_t>(line, len - o)), write);
    }
  }

  void FlushTlb() { tlb_.Flush(); }
  void FlushCaches() {
    icache_.Flush();
    dcache_.Flush();
  }

  const CpuCounters& counters() const { return c_; }
  const CacheStats& icache_stats() const { return icache_.stats(); }
  const CacheStats& dcache_stats() const { return dcache_.stats(); }
  const TlbStats& tlb_stats() const { return tlb_.stats(); }

  std::vector<ObservedAccess> log;

 private:
  CpuConfig config_;
  RefCache icache_;
  RefCache dcache_;
  RefTlb tlb_;
  CpuCounters c_;
  double frac_ = 0.0;
};

::testing::AssertionResult SameState(Cpu& cpu, std::vector<ObservedAccess>& cpu_log, RefCpu& ref) {
  const CpuCounters a = cpu.counters();
  const CpuCounters& b = ref.counters();
  const auto stats_equal = [](const CacheStats& x, const CacheStats& y) {
    return x.accesses == y.accesses && x.misses == y.misses && x.writebacks == y.writebacks;
  };
  if (a.instructions != b.instructions || a.cycles != b.cycles || a.bus_cycles != b.bus_cycles ||
      a.icache_misses != b.icache_misses || a.dcache_misses != b.dcache_misses ||
      a.tlb_misses != b.tlb_misses || a.data_accesses != b.data_accesses ||
      a.uncached_accesses != b.uncached_accesses) {
    return ::testing::AssertionFailure()
           << "counters differ: cycles " << a.cycles << " vs " << b.cycles << ", bus "
           << a.bus_cycles << " vs " << b.bus_cycles << ", data accesses " << a.data_accesses
           << " vs " << b.data_accesses << ", tlb misses " << a.tlb_misses << " vs "
           << b.tlb_misses;
  }
  if (!stats_equal(cpu.icache_stats(), ref.icache_stats())) {
    return ::testing::AssertionFailure() << "I-cache stats differ";
  }
  if (!stats_equal(cpu.dcache_stats(), ref.dcache_stats())) {
    return ::testing::AssertionFailure()
           << "D-cache stats differ: accesses " << cpu.dcache_stats().accesses << " vs "
           << ref.dcache_stats().accesses;
  }
  const TlbStats& ta = cpu.tlb_stats();
  const TlbStats& tb = ref.tlb_stats();
  if (ta.accesses != tb.accesses || ta.misses != tb.misses || ta.flushes != tb.flushes) {
    return ::testing::AssertionFailure() << "TLB stats differ: accesses " << ta.accesses
                                         << " vs " << tb.accesses;
  }
  if (cpu_log != ref.log) {
    return ::testing::AssertionFailure() << "observer logs differ: " << cpu_log.size()
                                         << " vs " << ref.log.size() << " calls";
  }
  cpu_log.clear();
  ref.log.clear();
  return ::testing::AssertionSuccess();
}

class CpuRunDifferentialTest : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>> {
 protected:
  CpuConfig Config() const {
    const auto [line, ways] = GetParam();
    CpuConfig config;
    config.icache = {.size_bytes = 8192, .line_bytes = line, .ways = ways};
    config.dcache = {.size_bytes = 8192, .line_bytes = line, .ways = ways};
    config.tlb = {.entries = 64, .ways = ways};
    return config;
  }
};

constexpr uint64_t kPages = 256;  // four times the TLB: lookups hit and miss
constexpr PhysAddr kPteBase = 0x200000;

// The frame a virtual page maps to, scattered so frames alias in the cache.
PhysAddr FrameOf(uint64_t vpn) { return ((vpn * 37 + 11) % 1024) * kPageSize; }

void Translated(Cpu& cpu, RefCpu& ref, uint64_t vpn, uint64_t offset, uint64_t len, bool write) {
  const VirtAddr va = (0x40000 + vpn) * kPageSize + offset;
  const PhysAddr pa = FrameOf(vpn) + offset;
  cpu.AccessTranslated(va, pa, kPteBase + vpn * 4, len, write);
  ref.AccessTranslated(va, pa, kPteBase + vpn * 4, len, write);
}

TEST_P(CpuRunDifferentialTest, EveryMisalignmentAndLengthWithinAPage) {
  Cpu cpu(Config());
  RefCpu ref(Config());
  std::vector<ObservedAccess> cpu_log;
  cpu.set_access_observer([&](PhysAddr paddr, uint32_t size, bool write) {
    cpu_log.push_back({paddr, size, write});
  });
  uint64_t vpn = 0;
  for (uint64_t misalign = 0; misalign < 32; ++misalign) {
    for (uint64_t len = 0; len + misalign <= kPageSize; len += (len < 80 ? 1 : 61)) {
      for (const bool write : {false, true}) {
        // A fresh page (TLB miss), then the same page again (TLB hit).
        vpn = (vpn + 1) % kPages;
        Translated(cpu, ref, vpn, misalign, len, write);
        ASSERT_TRUE(SameState(cpu, cpu_log, ref)) << "misalign " << misalign << " len " << len;
        Translated(cpu, ref, vpn, misalign, len, write);
        ASSERT_TRUE(SameState(cpu, cpu_log, ref)) << "misalign " << misalign << " len " << len;
      }
    }
    // The last byte of the page, alone and misaligned.
    Translated(cpu, ref, vpn, kPageSize - 1, 1, true);
    ASSERT_TRUE(SameState(cpu, cpu_log, ref));
  }
  EXPECT_GT(cpu.tlb_stats().misses, 0u);
  EXPECT_LT(cpu.tlb_stats().misses, cpu.tlb_stats().accesses);
}

TEST_P(CpuRunDifferentialTest, SeededStreamsOfExecutionAndDataAccess) {
  const CodeRegion regions[] = {
      {.base = 0x100000, .instructions = 200, .sparsity = 1},
      {.base = 0x100320, .instructions = 37, .sparsity = 3},
      {.base = 0x110004, .instructions = 900, .sparsity = 2},
      {.base = 0x121000, .instructions = 16, .sparsity = 1},
  };
  for (const uint64_t seed : kSeeds) {
    Cpu cpu(Config());
    RefCpu ref(Config());
    std::vector<ObservedAccess> cpu_log;
    cpu.set_access_observer([&](PhysAddr paddr, uint32_t size, bool write) {
      cpu_log.push_back({paddr, size, write});
    });
    std::mt19937_64 rng(seed);
    for (int i = 0; i < kSteps / 20; ++i) {
      const uint64_t r = rng();
      const bool write = (r >> 8) % 3 == 0;
      switch (r % 16) {
        case 0:
          cpu.FlushTlb();
          ref.FlushTlb();
          break;
        case 1:
          if ((r >> 16) % 8 == 0) {
            cpu.FlushCaches();
            ref.FlushCaches();
          }
          break;
        case 2:
        case 3:
        case 4: {
          const CodeRegion& region = regions[(r >> 16) % 4];
          // Whole region, a prefix, or a copy loop re-running its body.
          const uint64_t n = (r >> 20) % 3 == 0 ? region.instructions
                                                : (r >> 24) % (3 * region.instructions);
          cpu.ExecuteInstructions(region, n);
          ref.ExecuteInstructions(region, n);
          break;
        }
        case 5:
        case 6:
        case 7: {
          const PhysAddr pa = Draw(rng, 64 * 1024);
          const uint32_t size = static_cast<uint32_t>((r >> 16) % 8 == 0 ? (r >> 20) % 600
                                                                          : (r >> 20) % 9);
          cpu.AccessData(pa, size, write);
          ref.AccessData(pa, size, write);
          break;
        }
        default: {
          const uint64_t vpn = Draw(rng, kPages);
          const uint64_t offset = (r >> 16) % kPageSize;
          const uint64_t room = kPageSize - offset;
          const uint64_t len = (r >> 32) % 4 == 0 ? room : (r >> 36) % (room + 1);
          Translated(cpu, ref, vpn, offset, len, write);
          break;
        }
      }
      ASSERT_TRUE(SameState(cpu, cpu_log, ref)) << "seed " << seed << " step " << i;
    }
    EXPECT_GT(cpu.tlb_stats().misses, 0u);
    EXPECT_GT(cpu.counters().icache_misses, 0u);
    EXPECT_GT(cpu.dcache_stats().writebacks, 0u);
  }
}

// 1/2/4/8 ways (I-cache, D-cache and TLB) by 16/32/64-byte lines.
INSTANTIATE_TEST_SUITE_P(Geometries, CpuRunDifferentialTest,
                         ::testing::Combine(::testing::Values(16u, 32u, 64u),
                                            ::testing::Values(1u, 2u, 4u, 8u)));

}  // namespace
}  // namespace hw
