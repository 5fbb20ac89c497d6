// Client-side file caching: the RPCs you never send.
//
// The paper's Table 2 prices every cross-server interaction at 3-8x a kernel
// trap, so after the zero-copy work made each RPC cheaper the next lever is
// sending fewer of them. FsCache keeps four kinds of client-side state:
//
//   - a name-resolution cache in front of the name-server lookup;
//   - a per-handle attribute/size cache, fed by the handle-based kFsStat op
//     and primed from open replies;
//   - a block-granular read-ahead buffer — a sequential reader's next misses
//     are served from the over-fetch of the previous one;
//   - a bounded write-behind run that coalesces contiguous small writes into
//     one bulk RPC, flushed explicitly on Close/Sync (or when the bound or a
//     non-contiguous write forces it).
//
// Coherence is write-through invalidation locally (a write drops any cached
// read span it overlaps) plus generation stamping for the server side:
// FsClient re-opens and restart-manager death notices call BumpGeneration(),
// which drops every piece of *clean* cached state. Dirty write-behind data is
// deliberately kept — it is the client's only copy — and is flushed through
// the (re-resolved, re-opened) binding on the next write/read/flush. Caching
// is default-off everywhere; the committed bench baselines are produced with
// caches off and stay byte-identical.
//
// The cache holds policy and state only. Its owner, FsClient, implements
// FsCacheBackend; the interface keeps this header independent of
// file_server.h. The same engine runs over a port-bound client's plain stub
// calls and over a name-bound client's crash-transparent robust path
// without knowing the difference.
#ifndef SRC_SVC_FS_FS_CACHE_H_
#define SRC_SVC_FS_FS_CACHE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/mk/kernel.h"
#include "src/svc/fs/pfs.h"
#include "src/svc/fs/protocol.h"

namespace svc {

struct FsCacheOptions {
  // Extra bytes fetched past a sequential read miss (capped so the fetch
  // stays within one kFsMaxIo RPC).
  uint32_t readahead_bytes = 32 * 1024;
  // Write-behind bound: a coalescing run is flushed once it reaches this.
  uint32_t writeback_max_bytes = 64 * 1024;
};

// The uncached I/O the cache falls back to on a miss or flush.
class FsCacheBackend {
 public:
  virtual ~FsCacheBackend() = default;
  virtual base::Result<uint32_t> CacheRead(mk::Env& env, uint64_t handle, uint64_t offset,
                                           void* out, uint32_t len) = 0;
  virtual base::Result<uint32_t> CacheWrite(mk::Env& env, uint64_t handle, uint64_t offset,
                                            const void* data, uint32_t len) = 0;
  virtual base::Result<FileAttr> CacheStat(mk::Env& env, uint64_t handle) = 0;
};

class FsCache {
 public:
  explicit FsCache(const FsCacheOptions& opts = FsCacheOptions());

  // Cached I/O, byte-identical to issuing the same call sequence uncached.
  base::Result<uint32_t> Read(mk::Env& env, FsCacheBackend& be, uint64_t handle, uint64_t offset,
                              void* out, uint32_t len);
  base::Result<uint32_t> Write(mk::Env& env, FsCacheBackend& be, uint64_t handle, uint64_t offset,
                               const void* data, uint32_t len);
  base::Result<FileAttr> Stat(mk::Env& env, FsCacheBackend& be, uint64_t handle);

  // Flushes the handle's write-behind run (if any).
  base::Status FlushHandle(mk::Env& env, FsCacheBackend& be, uint64_t handle);
  base::Status FlushAll(mk::Env& env, FsCacheBackend& be);
  // Close-time: flush, then forget everything about the handle.
  base::Status CloseHandle(mk::Env& env, FsCacheBackend& be, uint64_t handle);

  // Local write-through invalidation for side doors that change file state
  // without going through Read/Write (SetSize, ReadV/WriteV, locks...).
  void InvalidateHandle(uint64_t handle);

  // Seeds the attribute cache without an RPC (open replies carry the attr).
  void PrimeAttr(uint64_t handle, const FileAttr& attr);

  // Name-resolution cache fronting the name server. TakeName is the form a
  // robust resolver wants: one-shot, so a name that turns out to point at a
  // dead instance is not returned twice — the retry goes to the name server.
  bool LookupName(const std::string& name, mk::PortName* out) const;
  bool TakeName(const std::string& name, mk::PortName* out);
  void StoreName(const std::string& name, mk::PortName right);

  // Server-restart coherence: drops all clean cached state (names, attrs,
  // read-ahead) and stamps a new generation. Dirty write-behind runs are
  // kept — they still have to reach the respawned server.
  void BumpGeneration();
  uint64_t generation() const { return generation_; }

  // Observability for tests and benches (mirrored into the metric registry
  // as mk.fs.cache.{hits,misses,invalidations,writeback_bytes} once a call
  // has seen a kernel).
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t invalidations() const { return invalidations_; }
  uint64_t writeback_bytes() const { return writeback_bytes_; }

 private:
  struct HandleState {
    bool attr_valid = false;
    FileAttr attr;
    // Clean read-ahead span [ra_offset, ra_offset + ra_data.size()).
    uint64_t ra_offset = 0;
    std::vector<uint8_t> ra_data;
    // Sequential-read detector: the offset the next in-order read would use.
    uint64_t expected_next = 0;
    // Dirty write-behind run [wb_offset, wb_offset + wb_data.size()).
    uint64_t wb_offset = 0;
    std::vector<uint8_t> wb_data;
  };

  void Observe(mk::Env& env);  // latches the tracer for metrics/events
  void CountHit(uint64_t handle, uint64_t offset);
  void CountMiss();
  void CountInvalidate(uint64_t handle);
  base::Status Flush(mk::Env& env, FsCacheBackend& be, uint64_t handle, HandleState& s);

  FsCacheOptions opts_;
  std::map<uint64_t, HandleState> handles_;
  std::map<std::string, mk::PortName> names_;
  uint64_t generation_ = 0;
  mk::trace::Tracer* tracer_ = nullptr;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t invalidations_ = 0;
  uint64_t writeback_bytes_ = 0;
};

}  // namespace svc

#endif  // SRC_SVC_FS_FS_CACHE_H_
