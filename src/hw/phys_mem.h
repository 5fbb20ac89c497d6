// Simulated physical memory: real backing storage plus a frame allocator.
// Storage and cost are deliberately separate concerns — PhysMem moves bytes,
// the Cpu charges for them.
//
// The storage is lazily zeroed (ZeroedBytes): a simulation that touches a
// few megabytes of a 64 MB machine pays host memory and set-up time for
// those megabytes only.
#ifndef SRC_HW_PHYS_MEM_H_
#define SRC_HW_PHYS_MEM_H_

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "src/base/status.h"
#include "src/hw/types.h"

namespace hw {

// A zero-filled host byte buffer, allocated with calloc. Large callocs are
// served from fresh anonymous mappings, which the host kernel hands out
// already zero, so pages the simulation never touches are never faulted in
// or cleared. Backs simulated RAM and disk images.
struct FreeDeleter {
  void operator()(void* p) const { std::free(p); }
};
using ZeroedBytes = std::unique_ptr<uint8_t[], FreeDeleter>;
ZeroedBytes AllocZeroed(uint64_t size_bytes);

class PhysMem {
 public:
  explicit PhysMem(uint64_t size_bytes);

  uint64_t size() const { return size_; }
  uint64_t num_frames() const { return size() >> kPageShift; }
  uint64_t frames_allocated() const { return frames_allocated_; }
  uint64_t frames_free() const { return num_frames() - frames_allocated_; }

  // Frame allocation. Frames are identified by their base physical address.
  base::Result<PhysAddr> AllocFrame();
  // Allocate `count` physically contiguous frames (DMA buffers, framebuffer).
  base::Result<PhysAddr> AllocContiguous(uint64_t count);
  void FreeFrame(PhysAddr frame);
  bool IsAllocated(PhysAddr frame) const;

  // Raw storage access. Bounds-checked; out-of-range is a programming error
  // in the simulation and aborts.
  void Read(PhysAddr addr, void* out, uint64_t len) const;
  void Write(PhysAddr addr, const void* src, uint64_t len);
  void Fill(PhysAddr addr, uint8_t byte, uint64_t len);

  uint8_t ReadU8(PhysAddr addr) const;
  uint32_t ReadU32(PhysAddr addr) const;
  void WriteU8(PhysAddr addr, uint8_t v);
  void WriteU32(PhysAddr addr, uint32_t v);

 private:
  uint64_t size_;
  ZeroedBytes data_;
  std::vector<bool> frame_used_;
  uint64_t next_hint_ = 0;
  uint64_t frames_allocated_ = 0;
};

}  // namespace hw

#endif  // SRC_HW_PHYS_MEM_H_
