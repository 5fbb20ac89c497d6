#include "src/hw/cpu.h"

#include "src/base/log.h"

namespace hw {

Cpu::Cpu(const CpuConfig& config)
    : config_(config), icache_(config.icache), dcache_(config.dcache), tlb_(config.tlb) {}

void Cpu::ExecuteInstructions(const CodeRegion& region, uint64_t instructions) {
  if (instructions == 0) {
    return;
  }
  const Cycles cycles_before = cycles_;
  instructions_ += instructions;
  // Base pipeline cost with fractional accumulation so that repeated short
  // paths do not round the CPI away.
  cycle_frac_ += static_cast<double>(instructions) * config_.base_cpi;
  const Cycles whole = static_cast<Cycles>(cycle_frac_);
  cycle_frac_ -= static_cast<double>(whole);
  cycles_ += whole;

  // Fetch every I-cache line the executed range covers. For partial
  // execution beyond the region (copy loops), the same lines re-execute.
  // With sparsity > 1 the dynamic path hops through a larger static body:
  // the same number of line fetches, spread over sparsity times the span.
  const uint64_t bytes =
      (instructions > region.instructions ? region.instructions : instructions) *
      kBytesPerInstruction;
  const uint32_t line = config_.icache.line_bytes;
  const uint64_t fetches = (bytes + line - 1) >> icache_.line_shift();
  const uint64_t misses =
      icache_.AccessRun(region.base, fetches, uint64_t{line} * region.sparsity, /*write=*/false)
          .misses;
  cycles_ += misses * config_.icache_miss_cycles;
  bus_cycles_ += misses * config_.bus_per_fill;
  if (execute_observer_) {
    execute_observer_(region, instructions, cycles_ - cycles_before, misses);
  }
}

void Cpu::AccessTranslated(VirtAddr vaddr, PhysAddr paddr, PhysAddr pte_paddr, uint64_t len,
                           bool write) {
  if (len == 0) {
    return;
  }
  const uint32_t line = config_.dcache.line_bytes;
  const uint64_t pieces = (len + line - 1) >> dcache_.line_shift();
  WPOS_DCHECK(PageIndex(vaddr + (pieces - 1) * line) == PageIndex(vaddr))
      << "translated access leaves its page";
  if (!tlb_.Access(PageIndex(vaddr))) {
    cycles_ += config_.tlb_walk_cycles;
    // The hardware walker reads the PTE through the data cache.
    AccessData(pte_paddr, 4, /*write=*/false);
  }
  // The other pieces look up the same page, whose entry the first lookup
  // left at the front of its set: hits that change nothing.
  tlb_.RepeatLast(pieces - 1);
  data_accesses_ += pieces;
  if (access_observer_) {
    for (uint64_t o = 0; o < len; o += line) {
      access_observer_(paddr + o, static_cast<uint32_t>(len - o < line ? len - o : line), write);
    }
  }
  // The pieces' lines, each once. When `paddr` is not line-aligned, every
  // piece after the first starts in the line the previous piece ended in;
  // touching that line again is a hit that changes nothing (it is the most
  // recent line of its set, and its dirty bit already includes `write`).
  DataRun(paddr, len, write);
  if ((paddr & (line - 1)) != 0) {
    dcache_.RepeatLast(pieces - 1);
  }
}

void Cpu::AccessUncached(PhysAddr paddr, uint32_t size, bool write) {
  ++uncached_accesses_;
  cycles_ += config_.uncached_cycles;
  bus_cycles_ += config_.bus_per_uncached;
}

void Cpu::FlushCaches() {
  icache_.Flush();
  dcache_.Flush();
}

CpuCounters Cpu::counters() const {
  CpuCounters c;
  c.instructions = instructions_;
  c.cycles = cycles_;
  c.bus_cycles = bus_cycles_;
  c.icache_misses = icache_.stats().misses;
  c.dcache_misses = dcache_.stats().misses;
  c.tlb_misses = tlb_.stats().misses;
  c.data_accesses = data_accesses_;
  c.uncached_accesses = uncached_accesses_;
  return c;
}

}  // namespace hw
