#include "perfbench/workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iterator>

#include "src/base/rng.h"
#include "src/svc/fs/protocol.h"

namespace perfbench {

namespace {

constexpr uint64_t kBadHandle = ~0ull;
constexpr int kFailuresShown = 5;
// Mean application compute between calls, as in bench/lib/workloads.cc: a
// little per file piece or message, a frame's worth of game logic per frame.
constexpr uint64_t kLightCompute = 1200;
constexpr uint64_t kFrameCompute = 20'000;

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t Key(uint64_t a, uint64_t b, uint64_t c, uint64_t d) {
  return Mix(Mix(Mix(Mix(a) ^ b) ^ c) ^ d);
}

// The seeded per-block byte pattern written and expected back.
void FillPattern(uint64_t key, uint8_t* out, uint32_t len) {
  uint64_t word = Mix(key);
  for (uint32_t i = 0; i < len; i += 8) {
    std::memcpy(out + i, &word, std::min<uint32_t>(8, len - i));
    word = word * 6364136223846793005ull + 1442695040888963407ull;
  }
}

template <typename T>
void Shuffle(std::vector<T>& v, base::Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.NextBelow(i)]);
  }
}

// Application compute (instructions) between calls. A pass makes `draws`
// of them: an even ladder from half the mean to 1.5 times it, in seeded
// order, so every pass computes the same total. The amount of I-cache the
// application evicts, and so the cost of the next call, varies from call to
// call. Every pass rewinds the table, so passes repeat.
class Think {
 public:
  Think(uint64_t seed, uint64_t mean, uint64_t draws) {
    for (uint64_t i = 0; i < draws; ++i) {
      table_.push_back(mean / 2 + mean * i / (draws - 1));
    }
    base::Rng rng(seed);
    Shuffle(table_, rng);
  }
  void Rewind() { next_ = 0; }
  void Run(mk::Env& env) {
    env.Compute(table_[next_]);
    next_ = (next_ + 1) % table_.size();
  }

 private:
  std::vector<uint64_t> table_;
  size_t next_ = 0;
};

// --- file-docs ----------------------------------------------------------------------

// Document sessions (IBM Works): create a document, save it in 512 B pieces,
// re-read it, close it and refresh the folder listing; then delete every
// other document. Sizes are a seeded permutation of a fixed ladder, so every
// seed moves the same 2 MB per pass through the file server's 1 MB block
// cache. Each pass also creates and removes a temporary folder.
class DocsWorkload : public Workload {
 public:
  explicit DocsWorkload(uint64_t seed)
      : seed_(seed),
        exists_(kDocs, false),
        think_(Mix(seed ^ 0x7415), kLightCompute, 2 * PiecesPerPass()) {
    for (int i = 0; i < kDocs; ++i) {
      sizes_.push_back(kLadderKb[i % std::size(kLadderKb)] * 1024);
    }
    base::Rng rng(Mix(seed ^ 0xd0c5));
    Shuffle(sizes_, rng);
  }

  void Prepare(mk::Env& env, Probe& probe) override { probe.Mkdir(env, "/docs"); }

  void Pass(mk::Env& env, Probe& probe, uint64_t pass) override {
    uint8_t piece[kPiece];
    think_.Rewind();
    probe.Mkdir(env, "/docs/tmp");
    ++entries_;
    for (int d = 0; d < kDocs; ++d) {
      const uint64_t h = probe.Open(env, DocPath(d), svc::kFsCreate | svc::kFsWrite);
      if (!exists_[d]) {
        exists_[d] = true;
        ++entries_;
      }
      const uint32_t blocks = sizes_[d] / kPiece;
      for (uint32_t b = 0; b < blocks; ++b) {
        FillPattern(Key(seed_, pass, d, b), piece, kPiece);
        probe.Write(env, h, uint64_t{b} * kPiece, piece, kPiece);
        think_.Run(env);
      }
      for (uint32_t b = 0; b < blocks; ++b) {
        FillPattern(Key(seed_, pass, d, b), piece, kPiece);
        probe.ReadExpect(env, h, uint64_t{b} * kPiece, piece, kPiece);
        think_.Run(env);
      }
      probe.Close(env, h);
      probe.FindExpect(env, "/docs", entries_);
    }
    for (int d = 0; d < kDocs; d += 2) {
      probe.Delete(env, DocPath(d));
      exists_[d] = false;
      --entries_;
    }
    probe.Delete(env, "/docs/tmp");
    --entries_;
  }

 private:
  static constexpr int kDocs = 64;
  static constexpr uint32_t kPiece = 512;
  static constexpr uint32_t kLadderKb[] = {8, 16, 24, 32, 32, 40, 48, 56};

  // Pieces each pass writes, and then reads back.
  static constexpr uint64_t PiecesPerPass() {
    uint64_t bytes = 0;
    for (uint32_t kb : kLadderKb) {
      bytes += uint64_t{kb} * 1024;
    }
    return bytes * (kDocs / std::size(kLadderKb)) / kPiece;
  }

  static std::string DocPath(int d) { return "/docs/d" + std::to_string(d) + ".wps"; }

  uint64_t seed_;
  std::vector<uint32_t> sizes_;
  std::vector<bool> exists_;
  size_t entries_ = 0;  // the model of /docs's listing
  Think think_;
};

// --- file-records -------------------------------------------------------------------

// Record database (IBM Works ToDo): one 64 KB file of 128 B records, which
// fits in the block cache; each pass opens it, reads seeded random records
// and rewrites every fourth one in place, then closes it.
class RecordsWorkload : public Workload {
 public:
  explicit RecordsWorkload(uint64_t seed)
      : seed_(seed),
        versions_(kRecords, 0),
        think_(Mix(seed ^ 0x7416), kLightCompute, kOpsPerPass) {
    base::Rng rng(Mix(seed ^ 0x7ec0));
    for (int i = 0; i < kOpsPerPass; ++i) {
      slots_.push_back(static_cast<uint32_t>(rng.NextBelow(kRecords)));
    }
  }

  void Prepare(mk::Env& env, Probe& probe) override {
    const uint64_t h = probe.Open(env, kPath, svc::kFsCreate | svc::kFsWrite);
    uint8_t record[kRecord];
    for (uint32_t slot = 0; slot < kRecords; ++slot) {
      FillPattern(Key(seed_, slot, 0, 0), record, kRecord);
      probe.Write(env, h, uint64_t{slot} * kRecord, record, kRecord);
    }
    probe.Close(env, h);
  }

  void Pass(mk::Env& env, Probe& probe, uint64_t pass) override {
    uint8_t record[kRecord];
    think_.Rewind();
    const uint64_t h = probe.Open(env, kPath, svc::kFsWrite);
    for (int i = 0; i < kOpsPerPass; ++i) {
      const uint32_t slot = slots_[i];
      const uint64_t off = uint64_t{slot} * kRecord;
      FillPattern(Key(seed_, slot, versions_[slot], 0), record, kRecord);
      probe.ReadExpect(env, h, off, record, kRecord);
      think_.Run(env);
      if (i % 4 == 3) {
        versions_[slot] = ++last_version_;
        FillPattern(Key(seed_, slot, versions_[slot], 0), record, kRecord);
        probe.Write(env, h, off, record, kRecord);
      }
    }
    probe.Close(env, h);
  }

 private:
  static constexpr const char* kPath = "/todo.db";
  static constexpr uint32_t kRecord = 128;
  static constexpr uint32_t kRecords = 512;
  static constexpr int kOpsPerPass = 3072;

  uint64_t seed_;
  std::vector<uint32_t> slots_;
  std::vector<uint64_t> versions_;  // the model: current version of each record
  uint64_t last_version_ = 0;
  Think think_;
};

// --- desktop ------------------------------------------------------------------------

// Klondike-style frame loop on a game window (compute, FillRect, BitBlt),
// interleaved with a message volley around a fixed set of windows (each
// window drains its queue) and a window switch every few frames. Windows are
// created once in Prepare: Os2ApiBase cannot destroy them, so creating them
// per pass would grow the desktop every pass.
class DesktopWorkload : public Workload {
 public:
  explicit DesktopWorkload(uint64_t seed)
      : queues_(kWindows),
        frame_think_(Mix(seed ^ 0x7417), kFrameCompute, kFrames),
        msg_think_(Mix(seed ^ 0x7418), kLightCompute, kMessages) {
    base::Rng rng(Mix(seed ^ 0xde5c));
    struct Size {
      uint32_t w, h;
    };
    // Fill sizes are drawn from a range (card-sized sprites), blit sizes
    // from a fixed ladder shuffled per frame.
    static constexpr Size kBlitLadder[kBlits] = {{64, 48}, {96, 64}, {128, 96}, {160, 120}};
    // Every kSwitchEvery-th frame switches windows; each window is the
    // target equally often, in seeded order.
    std::vector<int> targets;
    for (int i = 0; i < kFrames / kSwitchEvery; ++i) {
      targets.push_back(i % kWindows);
    }
    Shuffle(targets, rng);
    for (int f = 0; f < kFrames; ++f) {
      Frame frame;
      std::vector<Size> blits(std::begin(kBlitLadder), std::end(kBlitLadder));
      Shuffle(blits, rng);
      for (int i = 0; i < kFills; ++i) {
        frame.fills[i] = Rect(static_cast<uint32_t>(rng.NextInRange(24, 56)),
                              static_cast<uint32_t>(rng.NextInRange(16, 40)), rng);
        frame.colors[i] = static_cast<uint8_t>(rng.NextBelow(256));
      }
      for (int i = 0; i < kBlits; ++i) {
        frame.blits[i] = Rect(blits[i].w, blits[i].h, rng);
      }
      for (int i = 0; i < kWindows; ++i) {
        frame.msgs[i] = 0x400 + static_cast<uint32_t>(rng.NextBelow(0x100));
      }
      frame.switch_to = f % kSwitchEvery == kSwitchEvery - 1 ? targets[f / kSwitchEvery] : -1;
      frames_.push_back(frame);
    }
  }

  void Prepare(mk::Env& env, Probe& probe) override {
    static constexpr uint32_t kGeometry[kWindows][4] = {
        {10, 10, kGameW, kGameH}, {340, 10, 200, 150}, {340, 170, 200, 150}, {10, 260, 240, 180}};
    for (const auto& g : kGeometry) {
      hwnds_.push_back(probe.WinCreate(env, g[0], g[1], g[2], g[3]));
    }
  }

  void Pass(mk::Env& env, Probe& probe, uint64_t pass) override {
    frame_think_.Rewind();
    msg_think_.Rewind();
    for (const Frame& frame : frames_) {
      frame_think_.Run(env);
      for (int i = 0; i < kFills; ++i) {
        const RectSpec& r = frame.fills[i];
        probe.FillRect(env, hwnds_[0], r.x, r.y, r.w, r.h, frame.colors[i]);
      }
      for (const RectSpec& r : frame.blits) {
        probe.BitBlt(env, hwnds_[0], r.x, r.y, r.w, r.h);
      }
      for (int i = 0; i < kWindows; ++i) {
        const int to = (i + 1) % kWindows;
        probe.WinPost(env, hwnds_[to], frame.msgs[i]);
        queues_[to].push_back(frame.msgs[i]);
      }
      Drain(env, probe);
      if (frame.switch_to >= 0) {
        probe.WinSwitch(env, hwnds_[frame.switch_to]);
        for (int i = 0; i < kWindows; ++i) {
          if (i != frame.switch_to) {
            queues_[i].push_back(kWmActivate);
          }
        }
      }
    }
    Drain(env, probe);
  }

 private:
  static constexpr int kWindows = 4;
  static constexpr int kFrames = 128;
  static constexpr int kSwitchEvery = 8;
  // Messages handled per pass: the volleys, plus the WM_ACTIVATEs that each
  // switch posts to the other windows.
  static constexpr int kMessages = kWindows * kFrames + (kWindows - 1) * (kFrames / kSwitchEvery);
  static constexpr int kFills = 8;
  static constexpr int kBlits = 4;
  static constexpr uint32_t kGameW = 320;
  static constexpr uint32_t kGameH = 240;
  static constexpr uint32_t kWmActivate = 0x0d;  // posted by every window switch

  struct RectSpec {
    uint32_t x = 0, y = 0, w = 0, h = 0;
  };
  struct Frame {
    std::array<RectSpec, kFills> fills{};
    std::array<uint8_t, kFills> colors{};
    std::array<RectSpec, kBlits> blits{};
    std::array<uint32_t, kWindows> msgs{};
    int switch_to = -1;  // window index, or -1 for no switch this frame
  };

  static RectSpec Rect(uint32_t w, uint32_t h, base::Rng& rng) {
    return {static_cast<uint32_t>(rng.NextBelow(kGameW - w + 1)),
            static_cast<uint32_t>(rng.NextBelow(kGameH - h + 1)), w, h};
  }

  // Every window handles its pending messages, as its message loop would.
  void Drain(mk::Env& env, Probe& probe) {
    for (int i = 0; i < kWindows; ++i) {
      while (!queues_[i].empty()) {
        probe.WinGetExpect(env, hwnds_[i], queues_[i].front());
        queues_[i].pop_front();
        msg_think_.Run(env);
      }
    }
  }

  std::vector<Frame> frames_;
  std::vector<uint32_t> hwnds_;
  std::vector<std::deque<uint32_t>> queues_;  // the model of each message queue
  Think frame_think_;
  Think msg_think_;
};

}  // namespace

const char* CallName(int call) {
  static constexpr const char* kNames[kNumCalls] = {
      "open", "read",       "write",    "close",   "find",      "delete", "mkdir",
      "win_create", "win_post", "win_get", "fill_rect", "bitblt", "win_switch"};
  return kNames[call];
}

// --- Probe --------------------------------------------------------------------------

void Probe::BeginPass() {
  latencies_.clear();
  stats_ = {};
}

namespace {
uint64_t HostNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}
}  // namespace

Probe::Timer Probe::Start() const { return {kernel_.NowCycles(), HostNs()}; }

bool Probe::Finish(Call call, const Timer& t, bool ok) {
  const uint64_t cycles = kernel_.NowCycles() - t.cycles;
  CallStats& s = stats_[call];
  s.host_ns += HostNs() - t.host_ns;
  ++s.count;
  s.sim_cycles += cycles;
  latencies_.push_back(cycles);
  ++attempted_;
  failed_ += ok ? 0 : 1;
  return ok;
}

void Probe::Report(Call call, const std::string& what) const {
  if (failed_ <= kFailuresShown) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", CallName(call), what.c_str());
  }
}

namespace {
std::string Why(base::Status st) { return std::string(base::StatusName(st)); }
}  // namespace

uint64_t Probe::Open(mk::Env& env, const std::string& path, uint32_t flags) {
  const Timer t = Start();
  auto r = api_.Open(env, path, flags);
  if (!Finish(kOpen, t, r.ok())) {
    Report(kOpen, path + ": " + Why(r.status()));
  }
  return r.ok() ? *r : kBadHandle;
}

void Probe::Write(mk::Env& env, uint64_t h, uint64_t off, const void* data, uint32_t len) {
  const Timer t = Start();
  auto r = api_.Write(env, h, off, data, len);
  const bool ok = r.ok() && *r == len;
  if (!Finish(kWrite, t, ok)) {
    Report(kWrite, r.ok() ? "short write" : Why(r.status()));
  }
}

void Probe::ReadExpect(mk::Env& env, uint64_t h, uint64_t off, const void* expected,
                       uint32_t len) {
  uint8_t got[512];
  const Timer t = Start();
  auto r = len <= sizeof(got) ? api_.Read(env, h, off, got, len)
                              : base::Result<uint32_t>(base::Status::kInvalidArgument);
  const bool ok = r.ok() && *r == len && std::memcmp(got, expected, len) == 0;
  if (!Finish(kRead, t, ok)) {
    Report(kRead, !r.ok() ? Why(r.status())
                 : "wrong data at offset " + std::to_string(off) + " (" + std::to_string(*r) +
                       " of " + std::to_string(len) + " bytes)");
  }
}

void Probe::Close(mk::Env& env, uint64_t h) {
  const Timer t = Start();
  const base::Status st = api_.Close(env, h);
  if (!Finish(kClose, t, st == base::Status::kOk)) {
    Report(kClose, Why(st));
  }
}

void Probe::FindExpect(mk::Env& env, const std::string& dir, size_t expected_entries) {
  const Timer t = Start();
  auto r = api_.DirCount(env, dir);
  const bool ok = r.ok() && *r == expected_entries;
  if (!Finish(kFind, t, ok)) {
    Report(kFind, !r.ok() ? Why(r.status())
                 : dir + " lists " + std::to_string(*r) + " entries, expected " +
                       std::to_string(expected_entries));
  }
}

void Probe::Delete(mk::Env& env, const std::string& path) {
  const Timer t = Start();
  const base::Status st = api_.Unlink(env, path);
  if (!Finish(kDelete, t, st == base::Status::kOk)) {
    Report(kDelete, path + ": " + Why(st));
  }
}

void Probe::Mkdir(mk::Env& env, const std::string& path) {
  const Timer t = Start();
  const base::Status st = api_.Mkdir(env, path);
  if (!Finish(kMkdir, t, st == base::Status::kOk)) {
    Report(kMkdir, path + ": " + Why(st));
  }
}

uint32_t Probe::WinCreate(mk::Env& env, uint32_t x, uint32_t y, uint32_t w, uint32_t h) {
  const Timer t = Start();
  auto r = api_.WinCreate(env, x, y, w, h);
  if (!Finish(kWinCreate, t, r.ok())) {
    Report(kWinCreate, Why(r.status()));
  }
  return r.ok() ? *r : 0;
}

void Probe::WinPost(mk::Env& env, uint32_t hwnd, uint32_t msg) {
  const Timer t = Start();
  const base::Status st = api_.WinPost(env, hwnd, msg, 0, 0);
  if (!Finish(kWinPost, t, st == base::Status::kOk)) {
    Report(kWinPost, Why(st));
  }
}

void Probe::WinGetExpect(mk::Env& env, uint32_t hwnd, uint32_t expected_msg) {
  const Timer t = Start();
  auto r = api_.WinGet(env, hwnd);
  const bool ok = r.ok() && *r == expected_msg;
  if (!Finish(kWinGet, t, ok)) {
    Report(kWinGet, !r.ok() ? Why(r.status())
                 : "message " + std::to_string(*r) + ", expected " + std::to_string(expected_msg));
  }
}

void Probe::FillRect(mk::Env& env, uint32_t hwnd, uint32_t x, uint32_t y, uint32_t w,
                     uint32_t h, uint8_t color) {
  const Timer t = Start();
  const base::Status st = api_.FillRect(env, hwnd, x, y, w, h, color);
  if (!Finish(kFillRect, t, st == base::Status::kOk)) {
    Report(kFillRect, Why(st));
  }
}

void Probe::BitBlt(mk::Env& env, uint32_t hwnd, uint32_t x, uint32_t y, uint32_t w,
                   uint32_t h) {
  const Timer t = Start();
  const base::Status st = api_.BitBlt(env, hwnd, x, y, w, h);
  if (!Finish(kBitBlt, t, st == base::Status::kOk)) {
    Report(kBitBlt, Why(st));
  }
}

void Probe::WinSwitch(mk::Env& env, uint32_t hwnd) {
  const Timer t = Start();
  const base::Status st = api_.WinSwitch(env, hwnd);
  if (!Finish(kWinSwitch, t, st == base::Status::kOk)) {
    Report(kWinSwitch, Why(st));
  }
}

// --- Registry -----------------------------------------------------------------------

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "file-docs") {
    return std::make_unique<DocsWorkload>(seed);
  }
  if (name == "file-records") {
    return std::make_unique<RecordsWorkload>(seed);
  }
  if (name == "desktop") {
    return std::make_unique<DesktopWorkload>(seed);
  }
  return nullptr;
}

}  // namespace perfbench
