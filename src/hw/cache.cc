#include "src/hw/cache.h"

#include <bit>

#include "src/base/log.h"

namespace hw {

Cache::Cache(const CacheConfig& config) : config_(config) {
  WPOS_CHECK(config.ways == 1 || config.ways == 2 || config.ways == 4 || config.ways == 8)
      << "cache associativity must be 1, 2, 4 or 8, not " << config.ways;
  WPOS_CHECK(config.size_bytes % (config.line_bytes * config.ways) == 0)
      << "cache geometry must divide evenly";
  const uint32_t num_sets = config.size_bytes / (config.line_bytes * config.ways);
  WPOS_CHECK(std::has_single_bit(num_sets)) << "set count must be a power of two";
  WPOS_CHECK(std::has_single_bit(config.line_bytes)) << "line size must be a power of two";
  line_shift_ = static_cast<uint32_t>(std::countr_zero(config.line_bytes));
  set_shift_ = static_cast<uint32_t>(std::countr_zero(num_sets));
  set_mask_ = num_sets - 1;
  keys_.assign(static_cast<size_t>(num_sets) * config.ways, kInvalidKey);
}

void Cache::Flush() {
  for (uint32_t& key : keys_) {
    stats_.writebacks += key & 1;
    key = kInvalidKey;
  }
}

}  // namespace hw
