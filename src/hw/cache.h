// Set-associative cache model with LRU replacement and write-back policy.
// Used for both the instruction and the data cache. The model tracks only
// tags, not contents: it answers "hit or miss" and reports write-backs so the
// CPU model can account bus traffic.
//
// Each set is kept in recency order, most recent way first: a hit moves the
// line to the front, a fill shifts the set down and enters at the front, and
// the victim is always the last way. Invalid lines only ever leave from the
// back and enter (on Flush) all at once, so they are always older than every
// valid line of their set and this order is exact LRU.
//
// The Cpu charges whole runs of lines (every line an executed region
// fetches, every line a data access spans), so the access loop is AccessRun:
// one inline loop over the run that keeps the geometry in locals and updates
// the stats once. Access is the run of one line.
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

  struct RunResult {
    uint64_t misses = 0;
    uint64_t writebacks = 0;  // dirty lines evicted by the run's fills
  };

  // Touch `count` lines, `stride` bytes apart, starting with the line
  // containing `addr`. `write` marks each line dirty on a data cache;
  // instruction caches pass write=false always.
  RunResult AccessRun(PhysAddr addr, uint64_t count, uint64_t stride, bool write) {
    const uint32_t line_shift = line_shift_;
    const uint32_t set_shift = set_shift_;
    const uint64_t set_mask = set_mask_;
    const uint32_t ways = config_.ways;
    Line* const lines = lines_.data();
    RunResult run;
    for (uint64_t i = 0; i < count; ++i, addr += stride) {
      const uint64_t line_addr = addr >> line_shift;
      const uint64_t tag = line_addr >> set_shift;
      Line* set = lines + (line_addr & set_mask) * ways;
      uint32_t w = 0;
      while (w < ways && set[w].tag != tag) {
        ++w;
      }
      Line touched;
      if (w < ways) {
        touched = set[w];
        touched.dirty = touched.dirty || write;
      } else {
        // Miss: the last (least recent) way is the victim.
        w = ways - 1;
        ++run.misses;
        run.writebacks += set[w].dirty ? 1 : 0;
        touched = Line{.tag = tag, .dirty = write};
      }
      for (; w > 0; --w) {
        set[w] = set[w - 1];
      }
      set[0] = touched;
    }
    stats_.accesses += count;
    stats_.misses += run.misses;
    stats_.writebacks += run.writebacks;
    return run;
  }

  // Touch the line containing `addr`.
  AccessResult Access(PhysAddr addr, bool write) {
    const RunResult r = AccessRun(addr, 1, 0, write);
    return {.hit = r.misses == 0, .writeback = r.writebacks != 0};
  }

  // Count `n` more touches of the line touched last, with the same `write`.
  // That line is at the front of its set and already dirty if `write`, so
  // each touch is a hit that changes no state: only the access count moves.
  void RepeatLast(uint64_t n) { stats_.accesses += n; }

  // Invalidate everything, writing back dirty lines (counted in stats).
  void Flush();

  const CacheConfig& config() const { return config_; }
  const CacheStats& stats() const { return stats_; }
  uint32_t num_lines() const { return static_cast<uint32_t>(lines_.size()); }
  uint32_t line_shift() const { return line_shift_; }

 private:
  // An invalid line holds kNoTag, which no address maps to (the constructor
  // checks that a tag drops at least one address bit).
  static constexpr uint64_t kNoTag = ~uint64_t{0};
  struct Line {
    uint64_t tag = kNoTag;
    bool dirty = false;
  };

  CacheConfig config_;
  uint32_t line_shift_;
  uint32_t set_shift_;
  uint64_t set_mask_;
  std::vector<Line> lines_;  // num_sets * ways, row-major by set, MRU first
  CacheStats stats_;
};

}  // namespace hw

#endif  // SRC_HW_CACHE_H_
