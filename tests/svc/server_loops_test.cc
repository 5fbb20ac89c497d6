// Every RPC server in the system runs the one mk::ServerLoop. These tests
// hold each server to the loop's contract instead of to its own copy of it:
//   - an oversized request queued before the server first parks is failed
//     back to its sender, and the server keeps serving everyone else;
//   - the handler-entry fault point fires in every server, scoped by label,
//     and a visit from any other server never draws from the campaign RNG;
//   - every served op opens a kServerOp span carrying the server's label.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/drv/disk_driver.h"
#include "src/drv/nic_driver.h"
#include "src/mks/naming/lite_name_server.h"
#include "src/mks/naming/name_server.h"
#include "src/mks/pager/default_pager.h"
#include "src/pers/os2/os2.h"
#include "src/svc/fs/block_cache.h"
#include "src/svc/fs/file_server.h"
#include "src/svc/fs/inode_fs.h"
#include "src/svc/net/net_server.h"
#include "src/svc/net/stack.h"
#include "tests/mk/kernel_test_fixture.h"

namespace svc {
namespace {

constexpr int kClientPriority = mk::Thread::kDefaultPriority + 6;

// --- Oversized requests ------------------------------------------------------------------

// A started server: a send right for the client, and how to stop it. The
// stop closure also owns the server and its backing objects.
struct Started {
  mk::PortName service = mk::kNullPort;
  std::function<void()> stop;
};

// One server under test: how to start it, how large its request struct is,
// and one ordinary call through its client library.
struct OversizedCase {
  std::string name;
  uint32_t request_size = 0;
  std::function<Started(mk::Kernel&, hw::Machine&, mk::Task& client)> start;
  std::function<base::Status(mk::Env&, mk::PortName service)> call;
};

void PrintTo(const OversizedCase& c, std::ostream* os) { *os << c.name; }

hw::Disk* SmallDisk(hw::Machine& machine) {
  return static_cast<hw::Disk*>(machine.AddDevice(
      std::make_unique<hw::Disk>("d", 3, hw::Disk::Geometry{.sectors = 1024})));
}

std::vector<OversizedCase> OversizedCases() {
  return {
      {"NameServer", sizeof(mks::NameRequest),
       [](mk::Kernel& kernel, hw::Machine&, mk::Task& client) {
         auto server = std::make_shared<mks::NameServer>(kernel, kernel.CreateTask("naming"));
         return Started{server->GrantTo(client), [server] { server->Stop(); }};
       },
       [](mk::Env& env, mk::PortName service) {
         mks::NameClient names(service);
         auto right = env.PortAllocate();
         return right.ok() ? names.Register(env, "/svc/after", *right) : right.status();
       }},
      {"DiskDriver", sizeof(drv::DiskRequest),
       [](mk::Kernel& kernel, hw::Machine& machine, mk::Task& client) {
         auto driver = std::make_shared<drv::DiskDriver>(kernel, kernel.CreateTask("disk"),
                                                         SmallDisk(machine), nullptr);
         return Started{driver->GrantTo(client), [driver] { driver->Stop(); }};
       },
       [](mk::Env& env, mk::PortName service) {
         drv::RpcBlockStore store(service, 1024);
         std::vector<uint8_t> sector(hw::Disk::kSectorSize);
         return store.Read(env, 0, 1, sector.data());
       }},
      {"FileServer", sizeof(FsRequest),
       [](mk::Kernel& kernel, hw::Machine& machine, mk::Task& client) {
         auto store = std::make_shared<mks::BackdoorBlockStore>(SmallDisk(machine), 10'000);
         auto cache = std::make_shared<BlockCache>(kernel, store.get(), 64);
         auto jfs = std::make_shared<JfsFs>(kernel, cache.get(), 1024);
         auto server = std::make_shared<FileServer>(kernel, kernel.CreateTask("fs"));
         EXPECT_EQ(server->AddMount("/", jfs.get()), base::Status::kOk);
         return Started{server->GrantTo(client), [server, jfs, cache, store] { server->Stop(); }};
       },
       [](mk::Env& env, mk::PortName service) { return FsClient(service).Sync(env); }},
      {"Os2Server", sizeof(pers::Os2Request),
       [](mk::Kernel& kernel, hw::Machine&, mk::Task& client) {
         auto server = std::make_shared<pers::Os2Server>(kernel, kernel.CreateTask("os2"));
         return Started{server->GrantTo(client), [server] { server->Stop(); }};
       },
       [](mk::Env& env, mk::PortName service) {
         mk::ClientStub stub("os2.client", service);
         pers::Os2Request req;
         req.op = pers::Os2Op::kCreateSem;
         std::strncpy(req.name, "after", sizeof(req.name) - 1);
         pers::Os2Reply reply;
         const base::Status st = stub.Call(env, req, &reply);
         return st != base::Status::kOk ? st : static_cast<base::Status>(reply.status);
       }},
  };
}

class OversizedRequestTest : public mk::KernelTest,
                             public ::testing::WithParamInterface<OversizedCase> {};

// A request larger than the server's request struct, queued before the
// server first parks, fails back to its sender with kTooLarge. The server
// must keep receiving: a server that gave up here would leave a live port
// with no receiver, and the next caller would hang forever.
TEST_P(OversizedRequestTest, ServerKeepsServingAfterOversizedRequest) {
  const OversizedCase& c = GetParam();
  mk::Task* client = kernel_.CreateTask("client");
  const Started server = c.start(kernel_, machine_, *client);
  const mk::PortName service = server.service;
  base::Status oversized = base::Status::kOk;
  base::Status after = base::Status::kInternal;
  kernel_.CreateThread(
      client, "client",
      [&](mk::Env& env) {
        // Higher priority than every server: this call queues on the port
        // before the server's first receive.
        std::vector<uint8_t> big(c.request_size + 64);
        const uint32_t op = 1;
        std::memcpy(big.data(), &op, sizeof(op));
        uint8_t reply[64];
        oversized = env.RpcCall(service, big.data(), static_cast<uint32_t>(big.size()), reply,
                                sizeof(reply));
        after = c.call(env, service);
        server.stop();
      },
      kClientPriority);
  EXPECT_EQ(kernel_.Run(), 0u) << "a caller after the oversized request must not hang";
  EXPECT_EQ(oversized, base::Status::kTooLarge);
  EXPECT_EQ(after, base::Status::kOk);
}

INSTANTIATE_TEST_SUITE_P(EveryServer, OversizedRequestTest,
                         ::testing::ValuesIn(OversizedCases()),
                         [](const ::testing::TestParamInfo<OversizedCase>& info) {
                           return info.param.name;
                         });

// A path op whose path is empty or relative is answered with
// kInvalidArgument, and the file server keeps serving. Paths name mounts by
// prefix, so only an absolute path can reach one: stripping the "/" mount's
// prefix from "" would throw out of the server and abort the simulation.
class FileServerPathTest : public mk::KernelTest {};

TEST_F(FileServerPathTest, EmptyAndRelativePathsAreRejectedAndServingContinues) {
  mk::Task* client = kernel_.CreateTask("client");
  mks::BackdoorBlockStore store(SmallDisk(machine_), 10'000);
  BlockCache cache(kernel_, &store, 64);
  JfsFs jfs(kernel_, &cache, 1024);
  FileServer server(kernel_, kernel_.CreateTask("fs"));
  ASSERT_EQ(server.AddMount("/", &jfs), base::Status::kOk);
  const mk::PortName service = server.GrantTo(*client);
  std::vector<base::Status> rejected;
  base::Status after = base::Status::kInternal;
  kernel_.CreateThread(client, "client", [&](mk::Env& env) {
    ASSERT_EQ(jfs.Format(env), base::Status::kOk);
    FsClient fs(service);
    rejected.push_back(fs.Open(env, "", kFsCreate | kFsWrite).status());
    rejected.push_back(fs.Mkdir(env, ""));
    rejected.push_back(fs.Open(env, "dir/file", kFsCreate | kFsWrite).status());
    rejected.push_back(fs.Mkdir(env, "dir"));
    EXPECT_EQ(fs.Mkdir(env, "/from"), base::Status::kOk);
    rejected.push_back(fs.Rename(env, "/from", ""));
    after = fs.Mkdir(env, "/after");
    server.Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(rejected, std::vector<base::Status>(5, base::Status::kInvalidArgument));
  EXPECT_EQ(after, base::Status::kOk);
}

// --- Scoped faults and spans in every server ---------------------------------------------

// Labels of every RPC server loop, in probe order.
const std::vector<std::string> kLabels = {"disk", "nic",  "net", "naming", "naming_lite",
                                          "pager", "os2", "fs",  "fs_pager"};

// The whole server population in one kernel. Every server is backed so that
// a probe call reaches that server and no other: the file server and the
// default pager sit on disk backdoors, not on the disk driver.
class ServerFaultScopeTest : public mk::KernelTest,
                             public ::testing::WithParamInterface<std::string> {
 protected:
  ServerFaultScopeTest() {
    kernel_.tracer().Enable();
    client_ = kernel_.CreateTask("client");

    auto* disk = static_cast<hw::Disk*>(machine_.AddDevice(
        std::make_unique<hw::Disk>("d0", 3, hw::Disk::Geometry{.sectors = 1024})));
    disk_task_ = kernel_.CreateTask("disk");
    disk_ = std::make_unique<drv::DiskDriver>(kernel_, disk_task_, disk, nullptr);

    auto* nic = static_cast<hw::Nic*>(machine_.AddDevice(std::make_unique<hw::Nic>("nic0", 5)));
    nic_task_ = kernel_.CreateTask("nic");
    nic_ = std::make_unique<drv::NicDriver>(kernel_, nic_task_, nic, nullptr);
    net_task_ = kernel_.CreateTask("net");
    net_ = std::make_unique<NetServer>(kernel_, net_task_, nic_->GrantTo(*net_task_),
                                       std::make_unique<CoarseStack>(kernel_), false);

    names_ = std::make_unique<mks::NameServer>(kernel_, kernel_.CreateTask("naming"));
    lite_ = std::make_unique<mks::LiteNameServer>(kernel_, kernel_.CreateTask("naming-lite"));

    auto* swap = static_cast<hw::Disk*>(machine_.AddDevice(
        std::make_unique<hw::Disk>("d1", 4, hw::Disk::Geometry{.sectors = 1024})));
    pager_task_ = kernel_.CreateTask("pager");
    pager_ = std::make_unique<mks::DefaultPager>(
        kernel_, pager_task_, std::make_unique<mks::BackdoorBlockStore>(swap, 10'000));
    os2_ = std::make_unique<pers::Os2Server>(kernel_, kernel_.CreateTask("os2"));

    auto* fs_disk = static_cast<hw::Disk*>(machine_.AddDevice(
        std::make_unique<hw::Disk>("d2", 6, hw::Disk::Geometry{.sectors = 128 * 1024})));
    fs_store_ = std::make_unique<mks::BackdoorBlockStore>(fs_disk, 10'000);
    fs_cache_ = std::make_unique<BlockCache>(kernel_, fs_store_.get(), 1024);
    jfs_ = std::make_unique<JfsFs>(kernel_, fs_cache_.get(), 65536);
    fs_task_ = kernel_.CreateTask("fs");
    fs_ = std::make_unique<FileServer>(kernel_, fs_task_);
    fs_->EnableMapping();
    EXPECT_EQ(fs_->AddMount("/", jfs_.get()), base::Status::kOk);
    // The file server's heartbeats, on a port the test reads back.
    mk::Task* watcher = kernel_.CreateTask("watcher");
    auto health = kernel_.PortAllocate(*watcher);
    EXPECT_TRUE(health.ok());
    fs_->EnableHeartbeat(*kernel_.MakeSendRight(*watcher, *health, *fs_task_), 1, 0);
    kernel_.CreateThread(watcher, "watcher", [this, port = *health](mk::Env& env) {
      mk::MachMessage beat;
      if (env.kernel().MachMsgReceive(port, &beat) == base::Status::kOk &&
          beat.msg_id == mk::kHeartbeatMsgId) {
        mk::HeartbeatPing ping;
        std::memcpy(&ping, beat.inline_data.data(), sizeof(ping));
        beat_from_ = ping.task;
      }
    });
    kernel_.CreateThread(fs_task_, "mkfs",
                         [this](mk::Env& env) { ASSERT_EQ(jfs_->Format(env), base::Status::kOk); });
  }

  // Spans the tracer recorded for server ops, by label.
  std::map<std::string, uint64_t> ServerOpSpans() {
    std::map<std::string, uint64_t> count;
    for (const auto& [id, span] : kernel_.tracer().spans()) {
      if (span.kind == mk::trace::SpanKind::kServerOp) {
        ++count[span.label];
      }
    }
    return count;
  }

  mk::Task* client_;
  mk::Task* disk_task_;
  std::unique_ptr<drv::DiskDriver> disk_;
  mk::Task* nic_task_;
  std::unique_ptr<drv::NicDriver> nic_;
  mk::Task* net_task_;
  std::unique_ptr<NetServer> net_;
  std::unique_ptr<mks::NameServer> names_;
  std::unique_ptr<mks::LiteNameServer> lite_;
  mk::Task* pager_task_;
  std::unique_ptr<mks::DefaultPager> pager_;
  std::unique_ptr<pers::Os2Server> os2_;
  std::unique_ptr<mks::BackdoorBlockStore> fs_store_;
  std::unique_ptr<BlockCache> fs_cache_;
  std::unique_ptr<JfsFs> jfs_;
  mk::Task* fs_task_;
  std::unique_ptr<FileServer> fs_;
  mk::TaskId beat_from_ = 0;
};

// Arming kTransientError at one server's label breaks exactly that server:
// calls into all eight others succeed without a draw (the fire log stays
// empty), and the first call into the target completes with kBusy.
TEST_P(ServerFaultScopeTest, ArmedLabelBreaksOnlyThatServer) {
  const std::string target = GetParam();
  std::map<std::string, base::Status> statuses;
  std::vector<std::string> drew_before_target;
  kernel_.CreateThread(client_, "client", [&](mk::Env& env) {
    // Set-up, unarmed: a mapped file and a mapped pager-backed object whose
    // first touch faults into the fs-pager and default-pager loops.
    FsClient fs(fs_->GrantTo(*client_));
    auto handle = fs.Open(env, "/mapped.dat", kFsCreate | kFsWrite);
    ASSERT_TRUE(handle.ok());
    std::vector<uint8_t> page(hw::kPageSize, 0x5a);
    ASSERT_TRUE(fs.Write(env, *handle, 0, page.data(), hw::kPageSize).ok());
    auto mapping = fs.MapObject(env, *handle);
    ASSERT_TRUE(mapping.ok());
    auto file_object = kernel_.LookupPagedObject(mapping->object_id);
    ASSERT_NE(file_object, nullptr);
    auto file_view = kernel_.VmMapObject(*client_, file_object, 0, file_object->size(),
                                         mk::Prot::kRead, /*anywhere=*/true);
    ASSERT_TRUE(file_view.ok());
    auto anon_view = kernel_.VmMapObject(*client_, pager_->CreateBackedObject(hw::kPageSize), 0,
                                         hw::kPageSize, mk::Prot::kReadWrite, /*anywhere=*/true);
    ASSERT_TRUE(anon_view.ok());
    env.SleepNs(1'000'000);  // let the net server's receive pump park

    drv::RpcBlockStore disk(disk_->GrantTo(*client_), 1024);
    drv::NicClient nic(nic_->GrantTo(*client_));
    NetClient net(net_->GrantTo(*client_));
    mks::NameClient names(names_->GrantTo(*client_));
    mks::LiteNameClient lite(lite_->GrantTo(*client_));
    mk::ClientStub os2("os2.client", os2_->GrantTo(*client_));
    auto right = env.PortAllocate();
    ASSERT_TRUE(right.ok());
    std::map<std::string, std::function<base::Status()>> probe = {
        {"disk", [&] { return disk.Read(env, 0, 1, page.data()); }},
        {"nic", [&] { return nic.Send(env, page.data(), 64); }},
        {"net", [&] { return net.Bind(env, 7); }},
        {"naming", [&] { return names.Register(env, "/svc/probe", *right); }},
        {"naming_lite", [&] { return lite.Register(env, "/svc/probe", *right); }},
        {"pager", [&] { return env.CopyIn(*anon_view, page.data(), 1); }},
        {"os2",
         [&] {
           pers::Os2Request req;
           req.op = pers::Os2Op::kCreateSem;
           std::strncpy(req.name, "probe", sizeof(req.name) - 1);
           pers::Os2Reply reply;
           return os2.Call(env, req, &reply);
         }},
        {"fs", [&] { return fs.Sync(env); }},
        {"fs_pager", [&] { return env.CopyIn(*file_view, page.data(), 1); }},
    };

    kernel_.faults().Enable(7);
    kernel_.faults().Arm(mk::fault::FaultPoint::kServerHandlerEntry,
                         mk::fault::FaultMode::kTransientError, 100, /*max_fires=*/1, target);
    for (const std::string& label : kLabels) {
      if (label != target) {
        statuses[label] = probe.at(label)();
        if (!kernel_.faults().log().empty()) {
          drew_before_target.push_back(label);
        }
      }
    }
    statuses[target] = probe.at(target)();

    kernel_.faults().DisarmAll();
    ASSERT_EQ(fs.Close(env, *handle), base::Status::kOk);
    disk_->Stop();
    nic_->Stop();
    net_->Stop();
    names_->Stop();
    lite_->Stop();
    pager_->Stop();
    os2_->Stop();
    fs_->Stop();
    // The receive pump and the NIC's interrupt thread park outside any
    // server loop; end them with their tasks.
    kernel_.TerminateTask(net_task_);
    kernel_.TerminateTask(nic_task_);
  });
  EXPECT_EQ(kernel_.Run(), 0u);

  EXPECT_TRUE(drew_before_target.empty())
      << "a visit from another server drew from the campaign: " << drew_before_target.front();
  for (const std::string& label : kLabels) {
    EXPECT_EQ(statuses[label], label == target ? base::Status::kBusy : base::Status::kOk)
        << "probe into " << label;
  }
  EXPECT_EQ(kernel_.faults().fires(mk::fault::FaultPoint::kServerHandlerEntry), 1u);
  ASSERT_EQ(kernel_.faults().log().size(), 1u);
  EXPECT_EQ(kernel_.faults().log()[0].mode, mk::fault::FaultMode::kTransientError);

  // Every served op carries its server's label; the per-server op counters
  // all follow "server.<label>.ops".
  const std::map<std::string, uint64_t> spans = ServerOpSpans();
  const auto& counters = kernel_.tracer().metrics().counters();
  for (const std::string& label : kLabels) {
    const auto counter = counters.find("server." + label + ".ops");
    const uint64_t served = counter == counters.end() ? 0 : counter->second;
    if (label != target) {
      EXPECT_GT(served, 0u) << label;
    }
    EXPECT_EQ(spans.count(label) != 0 ? spans.at(label) : 0, served) << label;
  }
  EXPECT_EQ(counters.count("server.fs.pager_ops"), 0u);
  EXPECT_EQ(beat_from_, fs_task_->id()) << "the file server beats through the shared loop";
}

INSTANTIATE_TEST_SUITE_P(EveryLabel, ServerFaultScopeTest, ::testing::ValuesIn(kLabels),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace svc
