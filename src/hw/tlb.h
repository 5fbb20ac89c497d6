// TLB model. The Pentium and 604 of the paper had no address-space tags, so
// an address-space switch flushes the whole TLB; the refill cost after a
// switch is one of the context-switch costs the paper calls out.
//
// Replacement is LRU within a set, kept the same way as in Cache: each set is
// in recency order, most recent entry first, and a miss evicts the last
// entry.
#ifndef SRC_HW_TLB_H_
#define SRC_HW_TLB_H_

#include <cstdint>
#include <vector>

#include "src/hw/types.h"

namespace hw {

struct TlbConfig {
  uint32_t entries = 64;  // Pentium DTLB: 64 entries
  uint32_t ways = 4;
};

struct TlbStats {
  uint64_t accesses = 0;
  uint64_t misses = 0;
  uint64_t flushes = 0;
};

class Tlb {
 public:
  explicit Tlb(const TlbConfig& config);

  // Touch the translation for virtual page `vpn`. Returns true on hit; on a
  // miss the entry is installed (the page walk itself is charged by the CPU).
  bool Access(uint64_t vpn) {
    ++stats_.accesses;
    uint64_t* set = &entries_[(vpn & set_mask_) * config_.ways];
    uint32_t w = 0;
    while (w < config_.ways && set[w] != vpn) {
      ++w;
    }
    const bool hit = w < config_.ways;
    if (!hit) {
      // The last (least recent) entry is the victim.
      w = config_.ways - 1;
      ++stats_.misses;
    }
    for (; w > 0; --w) {
      set[w] = set[w - 1];
    }
    set[0] = vpn;
    return hit;
  }

  // Count `n` more lookups of the page looked up last. Its entry is at the
  // front of its set, so each lookup is a hit that changes no state: only
  // the access count moves.
  void RepeatLast(uint64_t n) { stats_.accesses += n; }

  void Flush();

  const TlbStats& stats() const { return stats_; }

 private:
  // An invalid entry holds kNoVpn; a page index never reaches it.
  static constexpr uint64_t kNoVpn = ~uint64_t{0};

  TlbConfig config_;
  uint64_t set_mask_;
  std::vector<uint64_t> entries_;  // virtual page numbers, row-major by set, MRU first
  TlbStats stats_;
};

}  // namespace hw

#endif  // SRC_HW_TLB_H_
