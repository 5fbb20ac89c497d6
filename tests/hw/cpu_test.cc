#include "src/hw/cpu.h"

#include <gtest/gtest.h>

#include "src/hw/code_layout.h"

namespace hw {
namespace {

TEST(CodeLayoutTest, RegionsAreStableAndDisjoint) {
  CodeRegion a = CodeLayout::Global().Register("testcomp.alpha", 100);
  CodeRegion b = CodeLayout::Global().Register("testcomp.beta", 50);
  CodeRegion a2 = CodeLayout::Global().Register("testcomp.alpha", 100);
  EXPECT_EQ(a.base, a2.base);
  EXPECT_NE(a.base, b.base);
  // No overlap.
  EXPECT_TRUE(a.base + a.size_bytes() <= b.base || b.base + b.size_bytes() <= a.base);
}

TEST(CodeLayoutTest, ComponentsGetSeparateImages) {
  CodeRegion a = CodeLayout::Global().Register("imgone.f", 10);
  CodeRegion b = CodeLayout::Global().Register("imgtwo.f", 10);
  EXPECT_GE(b.base > a.base ? b.base - a.base : a.base - b.base, 64u * 1024);
}

TEST(CodeLayoutDeathTest, RegionPastTheCacheAddressLimitFails) {
  // ~2^44 bytes of text: past the default cache geometry's 2^43-byte limit.
  EXPECT_DEATH(CodeLayout::Global().Register("hugeimage.f", 0xffff'ffff, 1024),
               "address limit");
}

TEST(CpuTest, ExecuteCountsInstructionsAndCycles) {
  Cpu cpu;
  CodeRegion r = CodeLayout::Global().Register("cputest.basic", 1000);
  cpu.Execute(r);
  auto c = cpu.counters();
  EXPECT_EQ(c.instructions, 1000u);
  EXPECT_GT(c.cycles, 1000u);  // base CPI > 1 plus cold I-cache misses
  EXPECT_GT(c.icache_misses, 0u);
}

TEST(CpuTest, WarmCodeRunsNearBaseCpi) {
  Cpu cpu;
  CodeRegion r = CodeLayout::Global().Register("cputest.warm", 200);
  cpu.Execute(r);  // warm up
  auto before = cpu.counters();
  for (int i = 0; i < 100; ++i) {
    cpu.Execute(r);
  }
  auto delta = cpu.counters() - before;
  EXPECT_EQ(delta.icache_misses, 0u);
  EXPECT_NEAR(delta.cpi(), cpu.config().base_cpi, 0.01);
}

TEST(CpuTest, DataAccessChargesMissesPerLine) {
  Cpu cpu;
  auto before = cpu.counters();
  cpu.AccessData(0x1000, 64, false);  // two 32-byte lines
  auto delta = cpu.counters() - before;
  EXPECT_EQ(delta.dcache_misses, 2u);
  EXPECT_EQ(delta.bus_cycles, 2u * cpu.config().bus_per_fill);
  before = cpu.counters();
  cpu.AccessData(0x1000, 64, false);
  delta = cpu.counters() - before;
  EXPECT_EQ(delta.dcache_misses, 0u);
}

TEST(CpuTest, TranslatedAccessChargesTlbWalkOnce) {
  Cpu cpu;
  auto before = cpu.counters();
  cpu.AccessTranslated(0x40001000, 0x9000, 0x200000, 4, false);
  auto delta = cpu.counters() - before;
  EXPECT_EQ(delta.tlb_misses, 1u);
  before = cpu.counters();
  cpu.AccessTranslated(0x40001004, 0x9004, 0x200000, 4, false);
  delta = cpu.counters() - before;
  EXPECT_EQ(delta.tlb_misses, 0u);
}

TEST(CpuTest, TlbFlushForcesRefill) {
  Cpu cpu;
  cpu.AccessTranslated(0x40001000, 0x9000, 0x200000, 4, false);
  cpu.FlushTlb();
  auto before = cpu.counters();
  cpu.AccessTranslated(0x40001000, 0x9000, 0x200000, 4, false);
  EXPECT_EQ((cpu.counters() - before).tlb_misses, 1u);
}

TEST(CpuTest, UncachedAccessCosts) {
  Cpu cpu;
  auto before = cpu.counters();
  cpu.AccessUncached(0x200000000ull, 4, true);
  auto delta = cpu.counters() - before;
  EXPECT_EQ(delta.uncached_accesses, 1u);
  EXPECT_EQ(delta.cycles, cpu.config().uncached_cycles);
  EXPECT_EQ(delta.bus_cycles, cpu.config().bus_per_uncached);
}

TEST(CpuTest, CyclesNsConversionRoundTrips) {
  Cpu cpu;  // 133 MHz
  EXPECT_EQ(cpu.CyclesToNs(133), 1000u);
  EXPECT_EQ(cpu.NsToCycles(1000), 133u);
}

TEST(CpuTest, PartialExecutionRefetchesOnlyRegionLines) {
  Cpu cpu;
  CodeRegion r = CodeLayout::Global().Register("cputest.copyloop", 16);
  cpu.Execute(r);
  auto before = cpu.counters();
  // Simulate a copy loop: 10000 instructions through a 16-instruction body.
  cpu.ExecuteInstructions(r, 10000);
  auto delta = cpu.counters() - before;
  EXPECT_EQ(delta.instructions, 10000u);
  EXPECT_EQ(delta.icache_misses, 0u);  // body stays resident
}

}  // namespace
}  // namespace hw
