// Ablations of the design choices DESIGN.md calls out:
//   1. Direct thread handoff in the RPC rendezvous (part of the IBM rework)
//      versus waking the peer through the ordinary ready queue.
//   2. RPC cost versus I/D-cache size — the conclusion's architecture claim
//      read forward: the bigger the on-chip state, the more an RPC's
//      footprint and address-space switches cost relative to a trap.
//   8. The server loop's reply: staged and delivered with the next receive
//      in one RpcReplyAndReceive trap (mk::ServerLoop) versus a reply trap
//      followed by a receive trap.
#include <benchmark/benchmark.h>

#include "src/base/log.h"

#include <cstdio>
#include <string>

#include "bench/lib/json_report.h"
#include "bench/lib/trace_export.h"
#include "src/drv/kernel_nic.h"
#include "src/drv/nic_driver.h"
#include "src/hw/disk.h"
#include "src/hw/machine.h"
#include "src/mk/kernel.h"
#include "src/mk/server_loop.h"
#include "src/mks/pager/default_pager.h"
#include "src/svc/fs/file_server.h"
#include "src/svc/fs/inode_fs.h"

namespace {

constexpr int kWarmup = 100;
constexpr int kOps = 500;

double RpcCyclesPerOp(bool handoff, uint32_t cache_kb, int background_threads = 0,
                      const std::string& trace_path = std::string()) {
  hw::MachineConfig config;
  config.ram_bytes = 16 * 1024 * 1024;
  config.cpu.icache.size_bytes = cache_kb * 1024;
  config.cpu.dcache.size_bytes = cache_kb * 1024;
  hw::Machine machine(config);
  mk::Kernel kernel(&machine);
  bench::ArmTrace(kernel, trace_path);
  kernel.scheduler().handoff_enabled = handoff;
  mk::Task* server_task = kernel.CreateTask("server");
  mk::Task* client_task = kernel.CreateTask("client");
  // Background load: without direct handoff, the woken RPC peer queues
  // behind these at every rendezvous.
  bool stop_background = false;
  for (int i = 0; i < background_threads; ++i) {
    mk::Task* bg = kernel.CreateTask("bg" + std::to_string(i));
    kernel.CreateThread(bg, "spin", [&kernel, &stop_background](mk::Env& env) {
      while (!stop_background) {
        env.Compute(800);
        env.Yield();
      }
    });
  }
  auto recv = kernel.PortAllocate(*server_task);
  auto send = kernel.MakeSendRight(*server_task, *recv, *client_task);
  kernel.CreateThread(server_task, "s", [&, recv = *recv](mk::Env& env) {
    char buf[64];
    auto req = env.RpcReceive(recv, buf, sizeof(buf));
    while (req.ok()) {
      req = env.kernel().RpcReplyAndReceive(req->token, nullptr, 0, recv, buf, sizeof(buf));
    }
  });
  double cycles = 0;
  kernel.CreateThread(client_task, "c", [&, send = *send](mk::Env& env) {
    char payload[32] = {};
    char reply[32];
    for (int i = 0; i < kWarmup; ++i) {
      (void)env.RpcCall(send, payload, sizeof(payload), reply, sizeof(reply));
    }
    const uint64_t c0 = kernel.cpu().cycles();
    for (int i = 0; i < kOps; ++i) {
      (void)env.RpcCall(send, payload, sizeof(payload), reply, sizeof(reply));
    }
    cycles = static_cast<double>(kernel.cpu().cycles() - c0) / kOps;
    kernel.PortDestroy(*server_task, *recv);
    stop_background = true;
  });
  kernel.Run();
  bench::ExportTrace(kernel, trace_path);
  return cycles;
}

// Frame echo cost: user-level driver task (RPC + reflected interrupts) vs
// the BSD-style in-kernel driver (trap + in-kernel interrupt handler).
double FrameEchoCycles(bool user_level) {
  hw::Machine machine(hw::MachineConfig{.ram_bytes = 16 * 1024 * 1024});
  mk::Kernel kernel(&machine);
  auto* nic = static_cast<hw::Nic*>(machine.AddDevice(std::make_unique<hw::Nic>("n", 5)));
  mk::Task* app = kernel.CreateTask("app");
  double cycles = 0;
  constexpr int kFrames = 60;
  if (user_level) {
    mk::Task* drv_task = kernel.CreateTask("nic-driver");
    auto* driver = new drv::NicDriver(kernel, drv_task, nic, nullptr);
    const mk::PortName service = driver->GrantTo(*app);
    kernel.CreateThread(app, "a", [&, service](mk::Env& env) {
      drv::NicClient client(service);
      uint8_t frame[256] = {};
      uint8_t in[2048];
      for (int i = 0; i < 10; ++i) {
        (void)client.Send(env, frame, sizeof(frame));
        (void)client.Receive(env, in, sizeof(in));
      }
      const uint64_t c0 = kernel.cpu().cycles();
      for (int i = 0; i < kFrames; ++i) {
        (void)client.Send(env, frame, sizeof(frame));
        (void)client.Receive(env, in, sizeof(in));
      }
      cycles = static_cast<double>(kernel.cpu().cycles() - c0) / kFrames;
      driver->Stop();
      kernel.TerminateTask(drv_task);
    });
  } else {
    auto* driver = new drv::KernelNicDriver(kernel, nic);
    kernel.CreateThread(app, "a", [&](mk::Env& env) {
      uint8_t frame[256] = {};
      uint8_t in[2048];
      for (int i = 0; i < 10; ++i) {
        (void)driver->Send(env, frame, sizeof(frame));
        (void)driver->Receive(env, in, sizeof(in));
      }
      const uint64_t c0 = kernel.cpu().cycles();
      for (int i = 0; i < kFrames; ++i) {
        (void)driver->Send(env, frame, sizeof(frame));
        (void)driver->Receive(env, in, sizeof(in));
      }
      cycles = static_cast<double>(kernel.cpu().cycles() - c0) / kFrames;
    });
  }
  kernel.Run();
  return cycles;
}

// Bulk transfer cost per byte: a client pushes `bytes` of ref data per call
// to an echo server, either through the inline copy loop (forced kCopy) or
// as an out-of-line page reference (kAuto picks OOL above the threshold).
double BulkCyclesPerByte(uint32_t bytes, mk::RpcBulkMode mode) {
  hw::Machine machine(hw::MachineConfig{.ram_bytes = 16 * 1024 * 1024});
  mk::Kernel kernel(&machine);
  mk::Task* server_task = kernel.CreateTask("server");
  mk::Task* client_task = kernel.CreateTask("client");
  auto recv = kernel.PortAllocate(*server_task);
  auto send = kernel.MakeSendRight(*server_task, *recv, *client_task);
  constexpr int kBulkWarmup = 20;
  constexpr int kBulkOps = 100;
  kernel.CreateThread(server_task, "s", [&, recv = *recv](mk::Env& env) {
    char buf[64];
    std::vector<uint8_t> bulk(256 * 1024);
    while (true) {
      mk::RpcRef ref;
      ref.recv_buf = bulk.data();
      ref.recv_cap = static_cast<uint32_t>(bulk.size());
      auto req = env.RpcReceive(recv, buf, sizeof(buf), &ref);
      if (!req.ok()) {
        return;
      }
      env.RpcReply(req->token, buf, req->req_len);
    }
  });
  double cycles = 0;
  kernel.CreateThread(client_task, "c", [&, send = *send](mk::Env& env) {
    std::vector<uint8_t> data(bytes, 0x5a);
    uint32_t hdr = 1;
    uint32_t rep = 0;
    auto call = [&] {
      mk::RpcRef ref;
      ref.send_data = data.data();
      ref.send_len = bytes;
      ref.send_mode = mode;
      (void)env.RpcCall(send, &hdr, sizeof(hdr), &rep, sizeof(rep), nullptr, &ref);
    };
    for (int i = 0; i < kBulkWarmup; ++i) {
      call();
    }
    const uint64_t c0 = kernel.cpu().cycles();
    for (int i = 0; i < kBulkOps; ++i) {
      call();
    }
    cycles = static_cast<double>(kernel.cpu().cycles() - c0) / kBulkOps / bytes;
    kernel.PortDestroy(*server_task, *recv);
  });
  kernel.Run();
  return cycles;
}

// Scatter I/O amortization: move `extents` x `extent_bytes` either as one
// batched call (one trap, one combined — and OOL-eligible — ref payload) or
// as `extents` separate calls. Returns cycles per extent.
double ScatterCyclesPerExtent(uint32_t extents, uint32_t extent_bytes, bool batched) {
  hw::Machine machine(hw::MachineConfig{.ram_bytes = 16 * 1024 * 1024});
  mk::Kernel kernel(&machine);
  mk::Task* server_task = kernel.CreateTask("server");
  mk::Task* client_task = kernel.CreateTask("client");
  auto recv = kernel.PortAllocate(*server_task);
  auto send = kernel.MakeSendRight(*server_task, *recv, *client_task);
  constexpr int kRounds = 60;
  kernel.CreateThread(server_task, "s", [&, recv = *recv](mk::Env& env) {
    char buf[64];
    std::vector<uint8_t> bulk(256 * 1024);
    while (true) {
      mk::RpcRef ref;
      ref.recv_buf = bulk.data();
      ref.recv_cap = static_cast<uint32_t>(bulk.size());
      auto req = env.RpcReceive(recv, buf, sizeof(buf), &ref);
      if (!req.ok()) {
        return;
      }
      env.RpcReply(req->token, buf, req->req_len);
    }
  });
  double cycles = 0;
  kernel.CreateThread(client_task, "c", [&, send = *send](mk::Env& env) {
    std::vector<uint8_t> data(extents * extent_bytes, 0x5a);
    uint32_t hdr = 1;
    uint32_t rep = 0;
    auto round = [&] {
      if (batched) {
        mk::RpcRef ref;
        ref.send_data = data.data();
        ref.send_len = extents * extent_bytes;
        (void)env.RpcCall(send, &hdr, sizeof(hdr), &rep, sizeof(rep), nullptr, &ref);
      } else {
        for (uint32_t e = 0; e < extents; ++e) {
          mk::RpcRef ref;
          ref.send_data = data.data() + e * extent_bytes;
          ref.send_len = extent_bytes;
          (void)env.RpcCall(send, &hdr, sizeof(hdr), &rep, sizeof(rep), nullptr, &ref);
        }
      }
    };
    for (int i = 0; i < 10; ++i) {
      round();
    }
    const uint64_t c0 = kernel.cpu().cycles();
    for (int i = 0; i < kRounds; ++i) {
      round();
    }
    cycles = static_cast<double>(kernel.cpu().cycles() - c0) / kRounds / extents;
    kernel.PortDestroy(*server_task, *recv);
  });
  kernel.Run();
  return cycles;
}

// Overload behaviour: a server with a fixed per-request cost, hammered by
// `clients` closed-loop callers for a fixed simulated horizon, with the RPC
// queue either unbounded (0) or admission-bounded. Shed callers back off
// briefly, as an adaptive client would. Returns goodput and tail queue-wait.
struct OverloadResult {
  double goodput_ops_per_ms = 0;
  double p99_queue_wait_cycles = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
};

OverloadResult OverloadRun(int clients, uint32_t queue_limit) {
  // Enough RAM and kernel heap for the 16x run's 64 single-thread client
  // tasks (task control blocks and page tables all live in the sim heap).
  hw::Machine machine(hw::MachineConfig{.ram_bytes = 64 * 1024 * 1024});
  mk::KernelConfig config;
  config.kernel_heap_bytes = 32 * 1024 * 1024;
  mk::Kernel kernel(&machine, config);
  kernel.tracer().Enable();  // queue-wait attribution needs span metadata
  mk::Task* server_task = kernel.CreateTask("server");
  auto recv = kernel.PortAllocate(*server_task);
  if (queue_limit != 0) {
    WPOS_CHECK(kernel.PortSetQueueLimit(*server_task, *recv, queue_limit) == base::Status::kOk);
  }
  constexpr uint64_t kServiceCycles = 20'000;   // ~150 us/op at 133 MHz
  constexpr uint64_t kHorizonNs = 40'000'000;   // 40 simulated ms of load
  constexpr uint64_t kShedBackoffNs = 200'000;  // client backoff after a shed
  kernel.CreateThread(server_task, "s", [&, recv = *recv](mk::Env& env) {
    char buf[64];
    while (true) {
      auto req = env.RpcReceive(recv, buf, sizeof(buf));
      if (!req.ok()) {
        return;
      }
      env.Compute(kServiceCycles);
      env.RpcReply(req->token, buf, req->req_len);
    }
  });
  OverloadResult out;
  int running = clients;
  for (int c = 0; c < clients; ++c) {
    mk::Task* task = kernel.CreateTask("c" + std::to_string(c));
    auto send = kernel.MakeSendRight(*server_task, *recv, *task);
    kernel.CreateThread(task, "c", [&, send = *send](mk::Env& env) {
      char payload[32] = {};
      char reply[32];
      // Doubling backoff, as RpcCallRobust does. On this one-CPU machine a
      // fixed short backoff would have the shed herd burn the server's own
      // cycles re-trapping into the kernel — adaptation is what keeps
      // shedding cheaper than queueing.
      uint64_t backoff = kShedBackoffNs;
      while (env.NowNs() < kHorizonNs) {
        const base::Status st = env.RpcCall(send, payload, sizeof(payload), reply, sizeof(reply));
        if (st == base::Status::kOk) {
          ++out.ok;
          backoff = kShedBackoffNs;
        } else if (st == base::Status::kBusy) {
          ++out.shed;
          (void)env.SleepNs(backoff);
          if (backoff < 64 * kShedBackoffNs) {
            backoff *= 2;
          }
        } else {
          return;
        }
      }
      if (--running == 0) {
        kernel.PortDestroy(*server_task, recv.value());
      }
    });
  }
  kernel.Run();
  out.goodput_ops_per_ms = static_cast<double>(out.ok) / (kHorizonNs / 1'000'000);
  out.p99_queue_wait_cycles = static_cast<double>(
      kernel.tracer().metrics().Hist("mk.rpc.queue_wait_cycles").PercentileBound(99));
  return out;
}

// File-intensive RPC traffic with and without the client-side FS cache: a
// sequential write pass, a sequential re-read pass and a handful of fstat
// probes against a file server in another task. Returns cross-server RPCs
// per file operation — the cost the cache exists to cut.
double FileIntensiveRpcsPerOp(bool cached) {
  hw::Machine machine(hw::MachineConfig{.ram_bytes = 32 * 1024 * 1024});
  mk::Kernel kernel(&machine);
  auto* disk = static_cast<hw::Disk*>(machine.AddDevice(
      std::make_unique<hw::Disk>("d", 3, hw::Disk::Geometry{.sectors = 64 * 1024})));
  mks::BackdoorBlockStore store(disk, 30'000);
  svc::BlockCache cache(kernel, &store, 1024);
  svc::HpfsFs hpfs(kernel, &cache, 65536);
  mk::Task* fs_task = kernel.CreateTask("file-server");
  svc::FileServer server(kernel, fs_task);
  WPOS_CHECK(server.AddMount("/", &hpfs) == base::Status::kOk);
  mk::Task* app = kernel.CreateTask("app");
  const mk::PortName service = server.GrantTo(*app);
  bool formatted = false;
  kernel.CreateThread(fs_task, "mkfs", [&](mk::Env& env) {
    WPOS_CHECK(hpfs.Format(env) == base::Status::kOk);
    formatted = true;
  });
  double rpcs_per_op = 0;
  kernel.CreateThread(app, "app", [&](mk::Env& env) {
    while (!formatted) {
      (void)env.SleepNs(200'000);
    }
    svc::FsClient fs(service);
    if (cached) {
      fs.EnableCache();
    }
    constexpr uint32_t kChunk = 256;
    constexpr uint32_t kChunks = 64;
    constexpr uint32_t kStats = 8;
    std::vector<uint8_t> data(kChunk, 0x5a);
    std::vector<uint8_t> back(kChunk);
    const uint64_t rpc0 = kernel.rpc_calls();
    auto h = fs.Open(env, "/intensive.dat", svc::kFsCreate | svc::kFsWrite);
    WPOS_CHECK(h.ok());
    for (uint32_t i = 0; i < kChunks; ++i) {
      WPOS_CHECK(fs.Write(env, *h, i * kChunk, data.data(), kChunk).ok());
    }
    for (uint32_t i = 0; i < kChunks; ++i) {
      WPOS_CHECK(fs.Read(env, *h, i * kChunk, back.data(), kChunk).ok());
    }
    for (uint32_t i = 0; i < kStats; ++i) {
      WPOS_CHECK(fs.Stat(env, *h).ok());
    }
    WPOS_CHECK(fs.Close(env, *h) == base::Status::kOk);
    const uint64_t ops = 2 * kChunks + kStats + 2;  // reads+writes+stats+open+close
    rpcs_per_op = static_cast<double>(kernel.rpc_calls() - rpc0) / ops;
    server.Stop();
  });
  kernel.Run();
  return rpcs_per_op;
}

// Mapped file I/O vs per-read RPCs: a sequential pass over a file served by
// another task, either as uncached fs.Read calls (one RPC per page-sized
// read) or through a mapped memory object (per-page faults the pager
// amortizes with readahead). Returns server RPCs per page-sized operation
// and cycles per byte moved.
struct MappedReadResult {
  double rpcs_per_op = 0;
  double cycles_per_byte = 0;
};

MappedReadResult MappedVsReadPass(bool mapped) {
  // 16 pages: the largest page-multiple comfortably under the inode layout's
  // per-file cap (12 direct + 128 indirect sectors at 512 B ~= 70 KB).
  constexpr uint32_t kPages = 16;
  constexpr uint64_t kFileSize = uint64_t{kPages} * hw::kPageSize;
  hw::Machine machine(hw::MachineConfig{.ram_bytes = 32 * 1024 * 1024});
  mk::Kernel kernel(&machine);
  auto* disk = static_cast<hw::Disk*>(machine.AddDevice(
      std::make_unique<hw::Disk>("d", 3, hw::Disk::Geometry{.sectors = 64 * 1024})));
  mks::BackdoorBlockStore store(disk, 30'000);
  svc::BlockCache cache(kernel, &store, 1024);
  svc::HpfsFs hpfs(kernel, &cache, 65536);
  mk::Task* fs_task = kernel.CreateTask("file-server");
  svc::FileServer server(kernel, fs_task);
  WPOS_CHECK(server.AddMount("/", &hpfs) == base::Status::kOk);
  server.EnableMapping();
  mk::Task* app = kernel.CreateTask("app");
  const mk::PortName service = server.GrantTo(*app);
  bool formatted = false;
  kernel.CreateThread(fs_task, "mkfs", [&](mk::Env& env) {
    WPOS_CHECK(hpfs.Format(env) == base::Status::kOk);
    formatted = true;
  });
  MappedReadResult out;
  kernel.CreateThread(app, "app", [&](mk::Env& env) {
    while (!formatted) {
      (void)env.SleepNs(200'000);
    }
    svc::FsClient fs(service);
    std::vector<uint8_t> page(hw::kPageSize, 0x5a);
    auto h = fs.Open(env, "/mapped.dat", svc::kFsCreate | svc::kFsWrite);
    WPOS_CHECK(h.ok());
    for (uint32_t i = 0; i < kPages; ++i) {
      WPOS_CHECK(fs.Write(env, *h, uint64_t{i} * hw::kPageSize, page.data(), page.size()).ok());
    }
    // The measured window is the sequential pass alone in both modes: Open is
    // outside the read() window, and the one-time map setup/teardown (export,
    // kObjectSetup, release) is outside the mapped window — a mapping is
    // long-lived state whose cost amortizes across every pass over it.
    if (mapped) {
      auto m = fs.MapObject(env, *h);
      WPOS_CHECK(m.ok());
      auto object = kernel.LookupPagedObject(m->object_id);
      WPOS_CHECK(object != nullptr);
      auto base_addr = kernel.VmMapObject(*app, object, 0, object->size(), mk::Prot::kRead,
                                          /*anywhere=*/true);
      WPOS_CHECK(base_addr.ok());
      const uint64_t rpc0 = kernel.rpc_calls();
      const uint64_t c0 = kernel.cpu().cycles();
      for (uint32_t i = 0; i < kPages; ++i) {
        WPOS_CHECK(kernel.CopyIn(*app, *base_addr + uint64_t{i} * hw::kPageSize, page.data(),
                                 page.size()) == base::Status::kOk);
      }
      out.rpcs_per_op = static_cast<double>(kernel.rpc_calls() - rpc0) / kPages;
      out.cycles_per_byte = static_cast<double>(kernel.cpu().cycles() - c0) / kFileSize;
      WPOS_CHECK(kernel.VmDeallocate(*app, *base_addr, object->size()) == base::Status::kOk);
      auto remaining = fs.UnmapObject(env, m->object_id);
      WPOS_CHECK(remaining.ok());
      if (*remaining == 0) {
        (void)kernel.ReleasePagedObject(m->object_id);
      }
    } else {
      const uint64_t rpc0 = kernel.rpc_calls();
      const uint64_t c0 = kernel.cpu().cycles();
      for (uint32_t i = 0; i < kPages; ++i) {
        WPOS_CHECK(fs.Read(env, *h, uint64_t{i} * hw::kPageSize, page.data(), page.size()).ok());
      }
      out.rpcs_per_op = static_cast<double>(kernel.rpc_calls() - rpc0) / kPages;
      out.cycles_per_byte = static_cast<double>(kernel.cpu().cycles() - c0) / kFileSize;
    }
    WPOS_CHECK(fs.Close(env, *h) == base::Status::kOk);
    server.Stop();
  });
  kernel.Run();
  return out;
}

struct LoopEchoResult {
  double server_entries_per_rpc = 0;
  double cycles_per_rpc = 0;
};

// A 32-byte echo served by mk::ServerLoop, or by a hand-written loop that
// replies and then receives in two traps. Both charge the same loop and stub
// code per request, so the difference is the trap the combined call saves.
LoopEchoResult LoopEcho(bool server_loop) {
  hw::Machine machine(hw::MachineConfig{.ram_bytes = 16 * 1024 * 1024});
  mk::Kernel kernel(&machine);
  mk::Task* server_task = kernel.CreateTask("server");
  mk::Task* client_task = kernel.CreateTask("client");
  auto recv = kernel.PortAllocate(*server_task);
  auto send = kernel.MakeSendRight(*server_task, *recv, *client_task);
  struct EchoRequest {
    uint32_t op = 1;
    uint8_t payload[28] = {};
  };
  mk::ServerLoop<EchoRequest> loop(*recv, "echo");
  loop.Register(1, [](mk::Env& env, const mk::RpcRequest& rpc, const EchoRequest& req, uint8_t*,
                      uint32_t) { env.RpcReply(rpc.token, &req, sizeof(req)); });
  mk::Thread* server = kernel.CreateThread(server_task, "s", [&, recv = *recv](mk::Env& env) {
    if (server_loop) {
      loop.Run(env);
      return;
    }
    const hw::CodeRegion loop_code =
        hw::DefineKernelCode("loop.echo", mk::Costs::kRpcServerLoop);
    const hw::CodeRegion stub_code =
        hw::DefineKernelCode("stub.echo", mk::Costs::kRpcServerStub);
    EchoRequest req;
    auto rpc = env.RpcReceive(recv, &req, sizeof(req));
    while (rpc.ok()) {
      env.kernel().cpu().Execute(loop_code);
      env.kernel().cpu().Execute(stub_code);
      env.RpcReply(rpc->token, &req, sizeof(req));
      rpc = env.RpcReceive(recv, &req, sizeof(req));
    }
  });
  LoopEchoResult out;
  kernel.CreateThread(client_task, "c", [&, send = *send](mk::Env& env) {
    EchoRequest req;
    EchoRequest reply;
    for (int i = 0; i < kWarmup; ++i) {
      (void)env.RpcCall(send, &req, sizeof(req), &reply, sizeof(reply));
    }
    const uint64_t c0 = kernel.cpu().cycles();
    const uint64_t e0 = server->kernel_entries;
    for (int i = 0; i < kOps; ++i) {
      WPOS_CHECK(env.RpcCall(send, &req, sizeof(req), &reply, sizeof(reply)) ==
                 base::Status::kOk);
    }
    out.cycles_per_rpc = static_cast<double>(kernel.cpu().cycles() - c0) / kOps;
    out.server_entries_per_rpc = static_cast<double>(server->kernel_entries - e0) / kOps;
    loop.Stop();
    (void)kernel.PortDestroy(*server_task, *recv);
  });
  kernel.Run();
  return out;
}

void PrintAblations(bench::JsonReport* report, const std::string& trace_path) {
  std::printf("\n=== Ablation 1: direct handoff in the RPC rendezvous ===\n");
  std::printf("%22s %14s %14s %8s\n", "", "handoff", "ready-queue", "ratio");
  bool first = true;
  for (int bg : {0, 2, 4}) {
    // `--trace` captures the first (handoff, unloaded) rendezvous run.
    const double with_handoff = RpcCyclesPerOp(true, 8, bg, first ? trace_path : std::string());
    first = false;
    const double without = RpcCyclesPerOp(false, 8, bg);
    std::printf("%2d background threads %14.0f %14.0f %8.2f\n", bg, with_handoff, without,
                without / with_handoff);
    const std::string prefix = "handoff.bg" + std::to_string(bg);
    report->Add(prefix + ".handoff_cycles", with_handoff);
    report->Add(prefix + ".ready_queue_cycles", without);
    report->Add(prefix + ".ratio", without / with_handoff);
  }
  std::printf("under load, the woken peer queues behind ready threads unless the\n"
              "rendezvous hands the CPU over directly — the rework's latency win.\n");

  std::printf("\n=== Ablation 2: RPC cost vs cache size ===\n");
  std::printf("%10s %16s\n", "cache", "RPC cycles/op");
  for (uint32_t kb : {4u, 8u, 16u, 32u}) {
    const double cycles = RpcCyclesPerOp(true, kb);
    std::printf("%8u KB %16.0f\n", kb, cycles);
    report->Add("cache" + std::to_string(kb) + "kb.rpc_cycles", cycles);
  }
  std::printf("larger caches absorb the RPC path's footprint; on the small split\n"
              "caches of the paper's era the multi-server structure pays full price.\n");

  std::printf("\n=== Ablation 3: user-level vs in-kernel (BSD-style) NIC driver ===\n");
  const double user = FrameEchoCycles(true);
  const double in_kernel = FrameEchoCycles(false);
  std::printf("256-byte frame echo: user-level %0.f cycles, in-kernel %0.f cycles (%.2fx)\n",
              user, in_kernel, user / in_kernel);
  std::printf("why WPOS kept BSD-like in-kernel drivers for networking.\n\n");
  report->Add("nic_echo.user_level_cycles", user);
  report->Add("nic_echo.in_kernel_cycles", in_kernel);
  report->Add("nic_echo.ratio", user / in_kernel);

  std::printf("\n=== Ablation 4: bulk transfer — inline copy vs out-of-line ===\n");
  std::printf("%10s %14s %14s %8s\n", "payload", "inline c/B", "OOL c/B", "ratio");
  for (uint32_t bytes : {1024u, 4096u, 16384u, 65536u}) {
    const double inline_cpb = BulkCyclesPerByte(bytes, mk::RpcBulkMode::kCopy);
    const double ool_cpb = BulkCyclesPerByte(bytes, mk::RpcBulkMode::kAuto);
    std::printf("%8u B %14.3f %14.3f %8.2f\n", bytes, inline_cpb, ool_cpb,
                inline_cpb / ool_cpb);
    const std::string prefix = "bulk.b" + std::to_string(bytes);
    report->Add(prefix + ".inline_cycles_per_byte", inline_cpb);
    report->Add(prefix + ".ool_cycles_per_byte", ool_cpb);
    report->Add(prefix + ".ratio", inline_cpb / ool_cpb);
    if (bytes >= 4096) {
      WPOS_CHECK(ool_cpb < inline_cpb)
          << "OOL must beat the inline copy per byte at " << bytes << " B";
    }
  }
  std::printf("\"large data passed by reference\": past the threshold the per-page\n"
              "reference beats the per-byte copy loop, and the gap widens with size.\n");

  std::printf("\n=== Ablation 4b: scatter I/O — batched vs per-extent calls ===\n");
  std::printf("%10s %16s %16s %8s\n", "extents", "batched c/ext", "separate c/ext", "ratio");
  for (uint32_t extents : {4u, 8u, 16u}) {
    const double batched = ScatterCyclesPerExtent(extents, 4096, true);
    const double separate = ScatterCyclesPerExtent(extents, 4096, false);
    std::printf("%10u %16.0f %16.0f %8.2f\n", extents, batched, separate, separate / batched);
    const std::string prefix = "scatter.x" + std::to_string(extents);
    report->Add(prefix + ".batched_cycles_per_extent", batched);
    report->Add(prefix + ".separate_cycles_per_extent", separate);
    report->Add(prefix + ".ratio", separate / batched);
    WPOS_CHECK(batched < separate)
        << "batching must amortize the per-call trap cost at " << extents << " extents";
  }
  std::printf("one RPC carrying the whole extent table amortizes the trap and\n"
              "rendezvous cost the paper measured across every extent.\n");

  std::printf("\n=== Ablation 5: overload — bounded admission vs unbounded queueing ===\n");
  std::printf("%6s %12s %12s %14s %14s %8s\n", "load", "goodput/ms", "goodput/ms", "p99 wait",
              "p99 wait", "sheds");
  std::printf("%6s %12s %12s %14s %14s %8s\n", "", "(unbounded)", "(bounded)", "(unbounded)",
              "(bounded)", "");
  for (int mult : {1, 4, 16}) {
    // `mult`x the queue's depth in closed-loop clients: at 1x the bound is
    // never hit (4 callers, one in service, three queued); past that the
    // population exceeds the queue and the bounded port must shed.
    const OverloadResult unbounded = OverloadRun(4 * mult, 0);
    const OverloadResult bounded = OverloadRun(4 * mult, 4);
    std::printf("%5dx %12.1f %12.1f %14.0f %14.0f %8llu\n", mult, unbounded.goodput_ops_per_ms,
                bounded.goodput_ops_per_ms, unbounded.p99_queue_wait_cycles,
                bounded.p99_queue_wait_cycles,
                static_cast<unsigned long long>(bounded.shed));
    const std::string prefix = "overload.x" + std::to_string(mult);
    report->Add(prefix + ".unbounded.goodput_ops_per_ms", unbounded.goodput_ops_per_ms);
    report->Add(prefix + ".bounded.goodput_ops_per_ms", bounded.goodput_ops_per_ms);
    report->Add(prefix + ".unbounded.p99_queue_wait_cycles", unbounded.p99_queue_wait_cycles);
    report->Add(prefix + ".bounded.p99_queue_wait_cycles", bounded.p99_queue_wait_cycles);
    report->Add(prefix + ".bounded.sheds", static_cast<double>(bounded.shed));
    if (mult > 1) {
      WPOS_CHECK(bounded.shed > 0)
          << "a " << mult << "x overload against a 4-deep queue must shed";
      WPOS_CHECK(bounded.p99_queue_wait_cycles * 2 <= unbounded.p99_queue_wait_cycles)
          << "the bound must at least halve the queue-wait tail at " << mult << "x";
      // On one CPU every shed retry is a trap the server does not get to
      // spend serving, so goodput under shedding trails pure queueing — the
      // gate is that it must not collapse while the tail is bought.
      WPOS_CHECK(bounded.goodput_ops_per_ms >= 0.5 * unbounded.goodput_ops_per_ms)
          << "shedding must preserve goodput at " << mult << "x, not collapse it";
    }
    WPOS_CHECK(unbounded.shed == 0) << "an unbounded port must never shed";
  }
  std::printf("the server is saturated either way; what the bound buys is the tail —\n"
              "queued callers wait O(limit) service times instead of O(clients).\n");

  std::printf("\n=== Ablation 6: client-side FS cache — RPCs per file op ===\n");
  const double uncached_rpcs = FileIntensiveRpcsPerOp(false);
  const double cached_rpcs = FileIntensiveRpcsPerOp(true);
  std::printf("file-intensive loop: uncached %.2f RPCs/op, cached %.2f RPCs/op (%.1fx)\n",
              uncached_rpcs, cached_rpcs, uncached_rpcs / cached_rpcs);
  report->Add("fscache.uncached.rpcs_per_op", uncached_rpcs);
  report->Add("fscache.cached.rpcs_per_op", cached_rpcs);
  report->Add("fscache.ratio", uncached_rpcs / cached_rpcs);
  WPOS_CHECK(uncached_rpcs >= 2 * cached_rpcs)
      << "write-behind + read-ahead + the attribute cache must at least halve "
         "cross-server RPC traffic on the file-intensive loop";
  std::printf("write-behind coalesces the write pass, read-ahead turns the re-read\n"
              "pass into one fetch, and fstat is answered from the attribute cache.\n");

  std::printf("\n=== Ablation 7: mapped file I/O vs per-read RPCs ===\n");
  const MappedReadResult read_pass = MappedVsReadPass(false);
  const MappedReadResult mapped_pass = MappedVsReadPass(true);
  std::printf("sequential 64 KB pass: read() %.2f RPCs/op %.3f c/B, "
              "mapped %.2f RPCs/op %.3f c/B (%.1fx fewer RPCs)\n",
              read_pass.rpcs_per_op, read_pass.cycles_per_byte, mapped_pass.rpcs_per_op,
              mapped_pass.cycles_per_byte, read_pass.rpcs_per_op / mapped_pass.rpcs_per_op);
  report->Add("mmap.read.rpcs_per_op", read_pass.rpcs_per_op);
  report->Add("mmap.read.cycles_per_byte", read_pass.cycles_per_byte);
  report->Add("mmap.mapped.rpcs_per_op", mapped_pass.rpcs_per_op);
  report->Add("mmap.mapped.cycles_per_byte", mapped_pass.cycles_per_byte);
  report->Add("mmap.rpc_ratio", read_pass.rpcs_per_op / mapped_pass.rpcs_per_op);
  WPOS_CHECK(read_pass.rpcs_per_op >= 4 * mapped_pass.rpcs_per_op)
      << "per-page faults with readahead must cut server RPCs at least 4x "
         "against uncached per-page reads";
  std::printf("each read() is a cross-server round trip; a mapped pass faults once\n"
              "per readahead batch, so the pager amortizes the RPC across 8 pages.\n");

  std::printf("\n=== Ablation 8: server loop — reply-and-receive vs reply then receive ===\n");
  const LoopEchoResult split = LoopEcho(false);
  const LoopEchoResult combined = LoopEcho(true);
  std::printf("32-byte echo: reply then receive %.2f server traps %.0f cycles/RPC, "
              "ServerLoop %.2f server traps %.0f cycles/RPC (%.2fx)\n",
              split.server_entries_per_rpc, split.cycles_per_rpc,
              combined.server_entries_per_rpc, combined.cycles_per_rpc,
              split.cycles_per_rpc / combined.cycles_per_rpc);
  report->Add("loop_echo.reply_then_receive.server_entries_per_rpc",
              split.server_entries_per_rpc);
  report->Add("loop_echo.reply_then_receive.cycles_per_rpc", split.cycles_per_rpc);
  report->Add("loop_echo.server_loop.server_entries_per_rpc", combined.server_entries_per_rpc);
  report->Add("loop_echo.server_loop.cycles_per_rpc", combined.cycles_per_rpc);
  report->Add("loop_echo.ratio", split.cycles_per_rpc / combined.cycles_per_rpc);
  WPOS_CHECK(split.server_entries_per_rpc - combined.server_entries_per_rpc == 1.0)
      << "the combined call must save exactly one server trap per request";
  WPOS_CHECK(combined.cycles_per_rpc < split.cycles_per_rpc)
      << "the trap the combined call saves must show in cycles per RPC";
  std::printf("the handler's reply rides on the loop's next receive: one trap per\n"
              "served request, and the server is parked when the next call arrives.\n");
}

void BM_Handoff(benchmark::State& state) {
  const bool handoff = state.range(0) != 0;
  for (auto _ : state) {
    const double cycles = RpcCyclesPerOp(handoff, 8);
    state.SetIterationTime(cycles * kOps / 133e6);
    state.counters["cycles_per_op"] = cycles;
  }
}
BENCHMARK(BM_Handoff)->Arg(1)->Arg(0)->UseManualTime()->Iterations(1);

void BM_CacheSize(benchmark::State& state) {
  const uint32_t kb = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    const double cycles = RpcCyclesPerOp(true, kb);
    state.SetIterationTime(cycles * kOps / 133e6);
    state.counters["cycles_per_op"] = cycles;
  }
}
BENCHMARK(BM_CacheSize)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->UseManualTime()->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::ExtractJsonPath(&argc, argv);
  const std::string trace_path = bench::ExtractTracePath(&argc, argv);
  base::SetLogLevel(base::LogLevel::kError);
  bench::JsonReport report;
  PrintAblations(&report, trace_path);
  if (!json_path.empty()) {
    WPOS_CHECK(report.WriteFile(json_path)) << "cannot write " << json_path;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
