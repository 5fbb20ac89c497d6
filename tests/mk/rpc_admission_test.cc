// Kernel RPC admission control: a per-port bound on the rendezvous queue.
// When the queue is full, additional callers are shed synchronously with
// kBusy — the overloaded server never sees them, the callers never block —
// and the shed is visible in metrics (mk.rpc.shed, mk.rpc.queue_depth) and
// the trace (kRpcShed).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/mk/kernel.h"
#include "src/mk/rpc_robust.h"
#include "src/mk/server_loop.h"
#include "tests/mk/kernel_test_fixture.h"

namespace mk {
namespace {

constexpr uint32_t kEchoOp = 1;

TEST_F(KernelTest, QueueLimitShedsExcessCallersWithBusy) {
  kernel_.tracer().Enable();
  Task* server_task = kernel_.CreateTask("server");
  Task* client_task = kernel_.CreateTask("client");
  auto recv = kernel_.PortAllocate(*server_task);
  ASSERT_TRUE(recv.ok());
  ASSERT_EQ(kernel_.PortSetQueueLimit(*server_task, *recv, 2), base::Status::kOk);
  auto send = kernel_.MakeSendRight(*server_task, *recv, *client_task);
  ASSERT_TRUE(send.ok());

  // The server parks until the clients have all attempted their calls, then
  // drains whatever was admitted.
  kernel_.CreateThread(server_task, "server", [&, recv = *recv](Env& env) {
    (void)env.SleepNs(1'000'000);
    uint8_t buf[64];
    for (int i = 0; i < 2; ++i) {
      auto request = env.RpcReceive(recv, buf, sizeof(buf));
      ASSERT_TRUE(request.ok());
      env.RpcReply(request->token, buf, request->req_len);
    }
    (void)env.kernel().PortDestroy(env.task(), recv);
  });

  // Four concurrent callers against a limit of 2: two are admitted (and
  // eventually served), two are shed with kBusy without ever blocking.
  std::vector<base::Status> statuses(4, base::Status::kInternal);
  for (int i = 0; i < 4; ++i) {
    kernel_.CreateThread(client_task, "c" + std::to_string(i), [&, i, send = *send](Env& env) {
      uint32_t req[2] = {kEchoOp, static_cast<uint32_t>(i)};
      uint32_t reply[2] = {};
      statuses[i] = env.RpcCall(send, req, sizeof(req), reply, sizeof(reply));
    });
  }
  EXPECT_EQ(kernel_.Run(), 0u);

  int ok = 0;
  int busy = 0;
  for (const base::Status st : statuses) {
    if (st == base::Status::kOk) {
      ++ok;
    } else if (st == base::Status::kBusy) {
      ++busy;
    }
  }
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(busy, 2);
  EXPECT_EQ(kernel_.tracer().metrics().Counter("mk.rpc.shed"), 2u);
  EXPECT_GT(kernel_.tracer().metrics().Hist("mk.rpc.queue_depth").count(), 0u);
  // Shed events carry the saturated port.
  int shed_events = 0;
  for (const auto& event : kernel_.tracer().Events()) {
    if (event.type == trace::EventType::kRpcShed) {
      ++shed_events;
    }
  }
  EXPECT_EQ(shed_events, 2);
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

TEST_F(KernelTest, UnboundedPortNeverSheds) {
  Task* server_task = kernel_.CreateTask("server");
  Task* client_task = kernel_.CreateTask("client");
  auto recv = kernel_.PortAllocate(*server_task);
  auto send = kernel_.MakeSendRight(*server_task, *recv, *client_task);

  kernel_.CreateThread(server_task, "server", [&, recv = *recv](Env& env) {
    (void)env.SleepNs(1'000'000);
    uint8_t buf[64];
    for (int i = 0; i < 6; ++i) {
      auto request = env.RpcReceive(recv, buf, sizeof(buf));
      ASSERT_TRUE(request.ok());
      env.RpcReply(request->token, buf, request->req_len);
    }
    (void)env.kernel().PortDestroy(env.task(), recv);
  });
  std::vector<base::Status> statuses(6, base::Status::kInternal);
  for (int i = 0; i < 6; ++i) {
    kernel_.CreateThread(client_task, "c" + std::to_string(i), [&, i, send = *send](Env& env) {
      uint32_t req[2] = {kEchoOp, static_cast<uint32_t>(i)};
      uint32_t reply[2] = {};
      statuses[i] = env.RpcCall(send, req, sizeof(req), reply, sizeof(reply));
    });
  }
  EXPECT_EQ(kernel_.Run(), 0u);
  for (const base::Status st : statuses) {
    EXPECT_EQ(st, base::Status::kOk);
  }
  EXPECT_EQ(kernel_.tracer().metrics().Counter("mk.rpc.shed"), 0u);
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

TEST_F(KernelTest, PortSetQueueLimitValidatesTheRight) {
  Task* task = kernel_.CreateTask("t");
  EXPECT_EQ(kernel_.PortSetQueueLimit(*task, 12345, 4), base::Status::kInvalidName);
  auto recv = kernel_.PortAllocate(*task);
  ASSERT_TRUE(recv.ok());
  EXPECT_EQ(kernel_.PortSetQueueLimit(*task, *recv, 4), base::Status::kOk);
  // A send right is not a receive right: the holder of a send right must not
  // be able to reconfigure the server's admission policy.
  Task* other = kernel_.CreateTask("other");
  auto send = kernel_.MakeSendRight(*task, *recv, *other);
  ASSERT_TRUE(send.ok());
  EXPECT_NE(kernel_.PortSetQueueLimit(*other, *send, 4), base::Status::kOk);
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

// RpcCallRobust against a persistently saturated port: every attempt is shed
// with kBusy and the exhausted call reports kBusy (overloaded, not gone).
TEST_F(KernelTest, RobustCallExhaustsAttemptsOnPersistentBusy) {
  Task* server_task = kernel_.CreateTask("server");
  Task* client_task = kernel_.CreateTask("client");
  auto recv = kernel_.PortAllocate(*server_task);
  ASSERT_TRUE(recv.ok());
  // Limit 0 is "unbounded", so saturate a limit-1 queue with a parked caller.
  ASSERT_EQ(kernel_.PortSetQueueLimit(*server_task, *recv, 1), base::Status::kOk);
  auto blocker_send = kernel_.MakeSendRight(*server_task, *recv, *client_task);
  auto send = kernel_.MakeSendRight(*server_task, *recv, *client_task);

  // The blocker occupies the queue's only slot for the whole test; nobody
  // ever serves, so its call ends kPortDead when the port is torn down.
  kernel_.CreateThread(client_task, "blocker", [&, right = *blocker_send](Env& env) {
    uint32_t req[2] = {kEchoOp, 0};
    uint32_t reply[2] = {};
    EXPECT_EQ(env.RpcCall(right, req, sizeof(req), reply, sizeof(reply)),
              base::Status::kPortDead);
  });
  kernel_.CreateThread(client_task, "robust", [&, right = *send](Env& env) {
    (void)env.SleepNs(10'000);  // let the blocker park first
    PortName cached = right;
    const PortResolver resolver = [right](Env&) -> base::Result<PortName> { return right; };
    RobustCallOptions opts;
    opts.max_attempts = 3;
    opts.retry_backoff_ns = 20'000;
    uint32_t req[2] = {kEchoOp, 1};
    uint32_t reply[2] = {};
    EXPECT_EQ(RpcCallRobust(env, resolver, &cached, req, sizeof(req), reply, sizeof(reply), opts),
              base::Status::kBusy);
    EXPECT_EQ(env.kernel().tracer().metrics().Counter("mk.rpc.shed"), 3u);
    (void)env.kernel().PortDestroy(*server_task, recv.value());
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

// Satellite regression: concurrent retriers must not retry in lockstep.
// Two robust callers hammer the same saturated port with the same backoff
// configuration; every shed attempt leaves a kRpcShed event stamped with the
// calling thread. The inter-attempt gaps must diverge between the threads —
// per-thread jitter streams — by a sizeable margin, not just interleaving
// noise. A broken jitter (shared stream, or none) retries in near-lockstep
// and fails the margin.
TEST_F(KernelTest, RetryJitterDesynchronizesThreads) {
  kernel_.tracer().Enable();
  Task* server_task = kernel_.CreateTask("server");
  Task* client_task = kernel_.CreateTask("client");
  auto recv = kernel_.PortAllocate(*server_task);
  ASSERT_TRUE(recv.ok());
  ASSERT_EQ(kernel_.PortSetQueueLimit(*server_task, *recv, 1), base::Status::kOk);
  auto blocker_send = kernel_.MakeSendRight(*server_task, *recv, *client_task);
  ASSERT_TRUE(blocker_send.ok());

  kernel_.CreateThread(client_task, "blocker", [&, right = *blocker_send](Env& env) {
    uint32_t req[2] = {kEchoOp, 0};
    uint32_t reply[2] = {};
    EXPECT_EQ(env.RpcCall(right, req, sizeof(req), reply, sizeof(reply)),
              base::Status::kPortDead);
  });

  std::vector<ThreadId> retrier_ids(2);
  int done = 0;
  for (int i = 0; i < 2; ++i) {
    auto send = kernel_.MakeSendRight(*server_task, *recv, *client_task);
    ASSERT_TRUE(send.ok());
    kernel_.CreateThread(client_task, "retrier" + std::to_string(i),
                         [&, i, right = *send](Env& env) {
                           retrier_ids[i] = env.thread()->id();
                           (void)env.SleepNs(10'000);  // let the blocker park
                           PortName cached = right;
                           const PortResolver resolver = [right](Env&) -> base::Result<PortName> {
                             return right;
                           };
                           RobustCallOptions opts;
                           opts.max_attempts = 4;
                           opts.retry_backoff_ns = 100'000;
                           uint32_t req[2] = {kEchoOp, 1};
                           uint32_t reply[2] = {};
                           EXPECT_EQ(RpcCallRobust(env, resolver, &cached, req, sizeof(req), reply,
                                                   sizeof(reply), opts),
                                     base::Status::kBusy);
                           if (++done == 2) {
                             (void)env.kernel().PortDestroy(*server_task, recv.value());
                           }
                         });
  }
  EXPECT_EQ(kernel_.Run(), 0u);

  // Collect each retrier's shed instants (cycles) from the trace.
  std::vector<std::vector<uint64_t>> shed_cycles(2);
  for (const auto& event : kernel_.tracer().Events()) {
    if (event.type != trace::EventType::kRpcShed) {
      continue;
    }
    for (int i = 0; i < 2; ++i) {
      if (event.thread == retrier_ids[i]) {
        shed_cycles[i].push_back(event.cycle);
      }
    }
  }
  ASSERT_EQ(shed_cycles[0].size(), 4u);
  ASSERT_EQ(shed_cycles[1].size(), 4u);
  // Both threads slept the same base backoff before each retry; only jitter
  // separates their inter-attempt gaps. Require a spread well above what
  // deterministic interleaving alone produces (the base unit here is
  // 100'000 ns of backoff — demand at least 1'000 ns of divergence).
  const uint64_t ns_per_cycle_gap_floor = 1'000;
  bool diverged = false;
  for (size_t a = 1; a < 4; ++a) {
    const uint64_t gap0 = shed_cycles[0][a] - shed_cycles[0][a - 1];
    const uint64_t gap1 = shed_cycles[1][a] - shed_cycles[1][a - 1];
    const uint64_t spread = gap0 > gap1 ? gap0 - gap1 : gap1 - gap0;
    if (spread > ns_per_cycle_gap_floor) {
      diverged = true;
    }
  }
  EXPECT_TRUE(diverged) << "per-thread jitter must desynchronize retry schedules";
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

}  // namespace
}  // namespace mk
