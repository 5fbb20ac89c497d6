// Set-associative cache model with LRU replacement and write-back policy.
// Used for both the instruction and the data cache. The model tracks only
// tags, not contents: it answers "hit or miss" and reports write-backs so the
// CPU model can account bus traffic.
//
// Each set is kept in recency order, most recent way first: a hit moves the
// line to the front, a fill shifts the set down and enters at the front, and
// the victim is always the last way. Invalid lines only ever leave from the
// back and enter (on Flush) all at once, so they are always older than every
// valid line of their set and this order is exact LRU. The hit path is
// inline because the Cpu runs every fetched line and data access through it.
#ifndef SRC_HW_CACHE_H_
#define SRC_HW_CACHE_H_

#include <cstdint>
#include <vector>

#include "src/hw/types.h"

namespace hw {

struct CacheConfig {
  uint32_t size_bytes = 8 * 1024;  // Pentium P54C: 8 KB split I/D
  uint32_t line_bytes = 32;
  uint32_t ways = 2;
};

struct CacheStats {
  uint64_t accesses = 0;
  uint64_t misses = 0;
  uint64_t writebacks = 0;
};

class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  struct AccessResult {
    bool hit = false;
    bool writeback = false;  // a dirty line was evicted
  };

  // Touch the line containing `addr`. `write` marks the line dirty on a data
  // cache; instruction caches pass write=false always.
  AccessResult Access(PhysAddr addr, bool write) {
    ++stats_.accesses;
    const uint64_t line_addr = addr >> line_shift_;
    const uint64_t tag = line_addr >> set_shift_;
    Line* set = &lines_[(line_addr & set_mask_) * config_.ways];
    for (uint32_t w = 0; w < config_.ways; ++w) {
      if (set[w].tag == tag) {
        Line hit = set[w];
        for (; w > 0; --w) {
          set[w] = set[w - 1];
        }
        hit.dirty = hit.dirty || write;
        set[0] = hit;
        return {.hit = true, .writeback = false};
      }
    }
    return Miss(set, tag, write);
  }

  // Invalidate everything, writing back dirty lines (counted in stats).
  void Flush();

  const CacheConfig& config() const { return config_; }
  const CacheStats& stats() const { return stats_; }
  uint32_t num_lines() const { return static_cast<uint32_t>(lines_.size()); }

 private:
  // An invalid line holds kNoTag, which no address maps to (the constructor
  // checks that a tag drops at least one address bit).
  static constexpr uint64_t kNoTag = ~uint64_t{0};
  struct Line {
    uint64_t tag = kNoTag;
    bool dirty = false;
  };

  // Fill `tag` at the front of `set`, evicting its last (least recent) way.
  AccessResult Miss(Line* set, uint64_t tag, bool write);

  CacheConfig config_;
  uint32_t line_shift_;
  uint32_t set_shift_;
  uint64_t set_mask_;
  std::vector<Line> lines_;  // num_sets * ways, row-major by set, MRU first
  CacheStats stats_;
};

}  // namespace hw

#endif  // SRC_HW_CACHE_H_
