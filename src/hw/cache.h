// Set-associative cache model with LRU replacement and write-back policy.
// Used for both the instruction and the data cache. The model tracks only
// tags, not contents: it answers "hit or miss" and reports write-backs so the
// CPU model can account bus traffic.
//
// Each way is one 32-bit key, `tag << 1 | dirty`. An invalid way holds
// kInvalidKey, whose tag field (all ones) no address may map to and whose
// dirty bit is clear, so the hit test is one compare of the key without its
// dirty bit and evicting an invalid way writes nothing back. A tag therefore
// has 31 bits and must stay below all ones: addresses from AddressLimit()
// up cannot be held, and AccessRun DCHECKs that no run reaches them.
//
// Each set is kept in recency order, most recent way first: a hit moves the
// line to the front, a fill shifts the set down and enters at the front, and
// the victim is always the last way. Invalid ways only ever leave from the
// back and enter (on Flush) all at once, so they are always older than every
// valid way of their set and this order is exact LRU.
//
// The Cpu charges whole runs of lines (every line an executed region
// fetches, every line a data access spans), so the access loop is AccessRun.
// It picks the loop body compiled for the cache's associativity (1, 2, 4 or
// 8 ways, checked by the constructor) once per run; the body keeps the
// geometry in locals, stops at the first way when the line is already its
// set's most recent, and the run updates the stats once. Access is the run
// of one line.
#ifndef SRC_HW_CACHE_H_
#define SRC_HW_CACHE_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "src/base/log.h"
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

  // The first address a cache of `config`'s geometry cannot hold: its tag
  // does not fit a key. The geometry must be one the constructor accepts.
  static constexpr PhysAddr AddressLimit(const CacheConfig& config) {
    const uint32_t sets = config.size_bytes / (config.line_bytes * config.ways);
    return (PhysAddr{kMaxTag} + 1)
           << (std::countr_zero(config.line_bytes) + std::countr_zero(sets));
  }

  // Touch `count` lines, `stride` bytes apart, starting with the line
  // containing `addr`. `write` marks each line dirty on a data cache;
  // instruction caches pass write=false always.
  RunResult AccessRun(PhysAddr addr, uint64_t count, uint64_t stride, bool write) {
    WPOS_DCHECK(count == 0 ||
                (addr + (count - 1) * stride) >> (line_shift_ + set_shift_) <= kMaxTag)
        << "cache run from " << addr << " reaches past the key's address limit";
    RunResult run;
    switch (config_.ways) {
      case 1:
        run = Run<1>(addr, count, stride, write);
        break;
      case 2:
        run = Run<2>(addr, count, stride, write);
        break;
      case 4:
        run = Run<4>(addr, count, stride, write);
        break;
      default:  // 8: the constructor admits no other associativity
        run = Run<8>(addr, count, stride, write);
        break;
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
  uint32_t num_lines() const { return static_cast<uint32_t>(keys_.size()); }
  uint32_t line_shift() const { return line_shift_; }

 private:
  // The largest tag a key holds; the all-ones tag is kInvalidKey's.
  static constexpr uint64_t kMaxTag = (uint64_t{1} << 31) - 2;
  static constexpr uint32_t kInvalidKey = ~uint32_t{1};

  // The run loop for a cache of kWays ways.
  template <uint32_t kWays>
  RunResult Run(PhysAddr addr, uint64_t count, uint64_t stride, bool write) {
    const uint32_t line_shift = line_shift_;
    const uint32_t set_shift = set_shift_;
    const uint64_t set_mask = set_mask_;
    const uint32_t dirty = write ? 1 : 0;
    uint32_t* const keys = keys_.data();
    RunResult run;
    for (uint64_t i = 0; i < count; ++i, addr += stride) {
      const uint64_t line_addr = addr >> line_shift;
      // The key of this line, clean; a way holds the line iff its key
      // differs from it in the dirty bit at most.
      const uint32_t key = static_cast<uint32_t>(line_addr >> set_shift) << 1;
      uint32_t* const set = keys + (line_addr & set_mask) * kWays;
      if ((set[0] ^ key) <= 1) {
        set[0] |= dirty;  // already the most recent way
        continue;
      }
      uint32_t w = 1;
      while (w < kWays && (set[w] ^ key) > 1) {
        ++w;
      }
      uint32_t touched;
      if (w < kWays) {
        touched = set[w] | dirty;
      } else {
        // Miss: the last (least recent) way is the victim.
        w = kWays - 1;
        ++run.misses;
        run.writebacks += set[w] & 1;
        touched = key | dirty;
      }
      for (; w > 0; --w) {
        set[w] = set[w - 1];
      }
      set[0] = touched;
    }
    return run;
  }

  CacheConfig config_;
  uint32_t line_shift_;
  uint32_t set_shift_;
  uint64_t set_mask_;
  std::vector<uint32_t> keys_;  // num_sets * ways, row-major by set, MRU first
  CacheStats stats_;
};

}  // namespace hw

#endif  // SRC_HW_CACHE_H_
