#include "src/hw/tlb.h"

#include <algorithm>
#include <bit>

#include "src/base/log.h"

namespace hw {

Tlb::Tlb(const TlbConfig& config) : config_(config) {
  WPOS_CHECK(config.ways > 0 && config.entries % config.ways == 0);
  const uint32_t num_sets = config.entries / config.ways;
  WPOS_CHECK(std::has_single_bit(num_sets)) << "TLB set count must be a power of two";
  set_mask_ = num_sets - 1;
  entries_.assign(config.entries, kNoVpn);
}

void Tlb::Flush() {
  ++stats_.flushes;
  std::fill(entries_.begin(), entries_.end(), kNoVpn);
}

}  // namespace hw
