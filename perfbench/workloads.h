// Seeded workloads of the repository benchmark and the checked API probe
// they drive. Every call into a system goes through `Probe`, which times it
// in simulated cycles and host nanoseconds, counts it, and
// checks its result against the value the workload's own model predicts.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "bench/lib/systems.h"
#include "src/mk/kernel.h"

namespace perfbench {

// The Os2ApiBase calls the benchmark times, in report order.
enum Call : int {
  kOpen,
  kRead,
  kWrite,
  kClose,
  kFind,
  kDelete,
  kMkdir,
  kWinCreate,
  kWinPost,
  kWinGet,
  kFillRect,
  kBitBlt,
  kWinSwitch,
  kNumCalls,
};
const char* CallName(int call);

struct CallStats {
  uint64_t count = 0;
  uint64_t sim_cycles = 0;
  uint64_t host_ns = 0;
};

// Wraps one system's Os2ApiBase. A call that returns a non-OK status, a
// short transfer or data that differs from the model's expectation counts as
// failed; the first few failures are described on stderr.
class Probe {
 public:
  Probe(mk::Kernel& kernel, bench::Os2ApiBase& api) : kernel_(kernel), api_(api) {}

  // Clears the per-pass record.
  void BeginPass();

  uint64_t Open(mk::Env& env, const std::string& path, uint32_t flags);
  void Write(mk::Env& env, uint64_t h, uint64_t off, const void* data, uint32_t len);
  void ReadExpect(mk::Env& env, uint64_t h, uint64_t off, const void* expected, uint32_t len);
  void Close(mk::Env& env, uint64_t h);
  void FindExpect(mk::Env& env, const std::string& dir, size_t expected_entries);
  void Delete(mk::Env& env, const std::string& path);
  void Mkdir(mk::Env& env, const std::string& path);
  uint32_t WinCreate(mk::Env& env, uint32_t x, uint32_t y, uint32_t w, uint32_t h);
  void WinPost(mk::Env& env, uint32_t hwnd, uint32_t msg);
  void WinGetExpect(mk::Env& env, uint32_t hwnd, uint32_t expected_msg);
  void FillRect(mk::Env& env, uint32_t hwnd, uint32_t x, uint32_t y, uint32_t w, uint32_t h,
                uint8_t color);
  void BitBlt(mk::Env& env, uint32_t hwnd, uint32_t x, uint32_t y, uint32_t w, uint32_t h);
  void WinSwitch(mk::Env& env, uint32_t hwnd);

  // Per-pass record: one simulated latency per call, and totals per call.
  const std::vector<uint64_t>& latencies() const { return latencies_; }
  const std::array<CallStats, kNumCalls>& stats() const { return stats_; }
  uint64_t pass_calls() const { return latencies_.size(); }
  // Whole-run totals.
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  struct Timer {
    uint64_t cycles;
    uint64_t host_ns;
  };
  Timer Start() const;
  // Records the call and counts it failed unless `ok`; returns `ok`.
  bool Finish(Call call, const Timer& t, bool ok);
  // Describes a failed call on stderr (the first few only).
  void Report(Call call, const std::string& what) const;

  mk::Kernel& kernel_;
  bench::Os2ApiBase& api_;
  std::vector<uint64_t> latencies_;
  std::array<CallStats, kNumCalls> stats_{};
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// A workload: inputs generated from the seed once, then replayed by every
// pass. `Prepare` runs once per system before the first pass (untimed); each
// `Pass` must leave the system in the state it found it in, so passes repeat.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void Prepare(mk::Env& env, Probe& probe) = 0;
  virtual void Pass(mk::Env& env, Probe& probe, uint64_t pass) = 0;
};

// A fresh workload instance (with its own model state) for one system:
// "file-docs", "file-records" or "desktop". Returns nullptr for any other
// name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
