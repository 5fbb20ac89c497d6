#include "src/mk/server_loop.h"

#include <gtest/gtest.h>

#include "tests/mk/kernel_test_fixture.h"

namespace mk {
namespace {

struct AddReq {
  uint32_t op = 1;
  uint32_t a = 0;
  uint32_t b = 0;
};
struct AddRep {
  uint32_t sum = 0;
};

TEST_F(KernelTest, ServerLoopDispatchesByOpCode) {
  Task* server_task = kernel_.CreateTask("server");
  Task* client_task = kernel_.CreateTask("client");
  auto recv = kernel_.PortAllocate(*server_task);
  auto send = kernel_.MakeSendRight(*server_task, *recv, *client_task);

  ServerLoop<AddReq> loop(*recv, "calc");
  loop.Register(1, [&](Env& env, const RpcRequest& req, const AddReq& r, uint8_t*, uint32_t) {
    AddRep rep{r.a + r.b};
    env.RpcReply(req.token, &rep, sizeof(rep));
  });
  kernel_.CreateThread(server_task, "s", [&](Env& env) { loop.Run(env); });

  uint32_t sum = 0;
  base::Status unknown_status = base::Status::kOk;
  base::Status after_stop = base::Status::kOk;
  kernel_.CreateThread(client_task, "c", [&, send = *send](Env& env) {
    ClientStub stub("calc.client", send);
    AddReq req{1, 20, 22};
    AddRep rep;
    ASSERT_EQ(stub.Call(env, req, &rep), base::Status::kOk);
    sum = rep.sum;
    // Unknown op code gets a kNotSupported completion.
    AddReq bad{999, 0, 0};
    unknown_status = stub.Call(env, bad, &rep);
    loop.Stop();
    after_stop = stub.Call(env, req, &rep);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(sum, 42u);
  EXPECT_EQ(unknown_status, base::Status::kNotSupported);
  EXPECT_EQ(after_stop, base::Status::kPortDead);
}

// Stop() between receives takes effect immediately: the receive port dies,
// the parked server wakes and exits, and every later call observes kPortDead
// instead of racing against one more served request.
TEST_F(KernelTest, ServerLoopStopKillsPort) {
  Task* server_task = kernel_.CreateTask("server");
  Task* client_task = kernel_.CreateTask("client");
  auto recv = kernel_.PortAllocate(*server_task);
  auto send = kernel_.MakeSendRight(*server_task, *recv, *client_task);
  ServerLoop<uint32_t> loop(*recv, "oneshot");
  loop.Register(1, [&](Env& env, const RpcRequest& req, const uint32_t&, uint8_t*, uint32_t) {
    env.RpcReply(req.token, nullptr, 0);
  });
  kernel_.CreateThread(server_task, "s", [&](Env& env) { loop.Run(env); });
  base::Status after_stop = base::Status::kOk;
  base::Status after_stop2 = base::Status::kOk;
  kernel_.CreateThread(client_task, "c", [&, send = *send](Env& env) {
    ClientStub stub("oneshot.client", send);
    uint32_t op = 1;
    uint32_t rep;
    ASSERT_EQ(stub.Call(env, op, &rep), base::Status::kOk);  // loop is serving
    loop.Stop();  // between receives: the port dies right now
    after_stop = stub.Call(env, op, &rep);
    after_stop2 = stub.Call(env, op, &rep);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(after_stop, base::Status::kPortDead);
  EXPECT_EQ(after_stop2, base::Status::kPortDead);
  EXPECT_FALSE(loop.running());
}

// A caller queued behind a busy server observes kPortDead when a handler
// stops the loop; the in-progress request still completes by token.
TEST_F(KernelTest, ServerLoopStopFailsQueuedCallers) {
  Task* server_task = kernel_.CreateTask("server");
  Task* client_task = kernel_.CreateTask("client");
  auto recv = kernel_.PortAllocate(*server_task);
  auto send = kernel_.MakeSendRight(*server_task, *recv, *client_task);
  ServerLoop<uint32_t> loop(*recv, "shutdown");
  loop.Register(2, [&](Env& env, const RpcRequest& req, const uint32_t&, uint8_t*, uint32_t) {
    env.Yield();  // let the second caller queue up behind us
    loop.Stop();
    env.RpcReply(req.token, nullptr, 0);
  });
  kernel_.CreateThread(server_task, "s", [&](Env& env) { loop.Run(env); });
  base::Status first = base::Status::kInternal;
  base::Status queued = base::Status::kInternal;
  kernel_.CreateThread(client_task, "c1", [&, send = *send](Env& env) {
    ClientStub stub("shutdown.c1", send);
    uint32_t op = 2;
    uint32_t rep;
    first = stub.Call(env, op, &rep);
  });
  kernel_.CreateThread(client_task, "c2", [&, send = *send](Env& env) {
    ClientStub stub("shutdown.c2", send);
    uint32_t op = 2;
    uint32_t rep;
    queued = stub.Call(env, op, &rep);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(first, base::Status::kOk);
  EXPECT_EQ(queued, base::Status::kPortDead);
}

// A served request costs the server one kernel entry: the handler's reply
// is staged and goes out with the next receive in one RpcReplyAndReceive.
TEST_F(KernelTest, ServerLoopServesEachRequestInOneServerKernelEntry) {
  Task* server_task = kernel_.CreateTask("server");
  Task* client_task = kernel_.CreateTask("client");
  auto recv = kernel_.PortAllocate(*server_task);
  auto send = kernel_.MakeSendRight(*server_task, *recv, *client_task);
  ServerLoop<AddReq> loop(*recv, "calc");
  loop.Register(1, [&](Env& env, const RpcRequest& req, const AddReq& r, uint8_t*, uint32_t) {
    AddRep rep{r.a + r.b};
    env.RpcReply(req.token, &rep, sizeof(rep));
  });
  Thread* server = kernel_.CreateThread(server_task, "s", [&](Env& env) { loop.Run(env); });
  constexpr uint64_t kCalls = 10;
  uint64_t server_entries = 0;
  kernel_.CreateThread(client_task, "c", [&, send = *send](Env& env) {
    ClientStub stub("calc.client", send);
    AddRep rep;
    ASSERT_EQ(stub.Call(env, AddReq{1, 1, 1}, &rep), base::Status::kOk);  // loop is parked
    const uint64_t before = server->kernel_entries;
    for (uint32_t i = 0; i < kCalls; ++i) {
      ASSERT_EQ(stub.Call(env, AddReq{1, i, 1}, &rep), base::Status::kOk);
      ASSERT_EQ(rep.sum, i + 1);
    }
    server_entries = server->kernel_entries - before;
    loop.Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(server_entries, kCalls);
}

// Deferred replies: a handler keeps its token and returns without replying;
// a later request's handler replies to it. The deferred caller completes
// with the bytes given to that later reply.
TEST_F(KernelTest, ServerLoopDeferredReplyFromAnotherRequestsHandler) {
  Task* server_task = kernel_.CreateTask("server");
  Task* client_task = kernel_.CreateTask("client");
  auto recv = kernel_.PortAllocate(*server_task);
  auto send = kernel_.MakeSendRight(*server_task, *recv, *client_task);
  constexpr uint32_t kWait = 1;
  constexpr uint32_t kRelease = 2;
  ServerLoop<AddReq> loop(*recv, "latch");
  uint64_t parked = 0;
  loop.Register(kWait, [&](Env&, const RpcRequest& req, const AddReq&, uint8_t*, uint32_t) {
    parked = req.token;  // deferred: no reply now
  });
  loop.Register(kRelease, [&](Env& env, const RpcRequest& req, const AddReq& r, uint8_t*,
                              uint32_t) {
    AddRep released{r.a};
    EXPECT_EQ(env.RpcReply(parked, &released, sizeof(released)), base::Status::kOk);
    AddRep own{0};
    env.RpcReply(req.token, &own, sizeof(own));
  });
  kernel_.CreateThread(server_task, "s", [&](Env& env) { loop.Run(env); });
  base::Status waiter_status = base::Status::kInternal;
  uint32_t waiter_got = 0;
  base::Status releaser_status = base::Status::kInternal;
  kernel_.CreateThread(client_task, "waiter", [&, send = *send](Env& env) {
    ClientStub stub("latch.waiter", send);
    AddRep rep;
    waiter_status = stub.Call(env, AddReq{kWait, 0, 0}, &rep);
    waiter_got = rep.sum;
  });
  kernel_.CreateThread(client_task, "releaser", [&, send = *send](Env& env) {
    ClientStub stub("latch.releaser", send);
    AddRep rep;
    releaser_status = stub.Call(env, AddReq{kRelease, 77, 0}, &rep);
    loop.Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(waiter_status, base::Status::kOk);
  EXPECT_EQ(waiter_got, 77u);
  EXPECT_EQ(releaser_status, base::Status::kOk);
}

// Inside a handler, a reply to a foreign token traps at once (its client
// runs before the handler continues), while the reply to the handler's own
// request is staged until the handler returns.
TEST_F(KernelTest, ServerLoopForeignTokenReplyIsImmediateOwnReplyIsStaged) {
  Task* server_task = kernel_.CreateTask("server");
  Task* client_task = kernel_.CreateTask("client");
  auto recv = kernel_.PortAllocate(*server_task);
  auto send = kernel_.MakeSendRight(*server_task, *recv, *client_task);
  ServerLoop<AddReq> loop(*recv, "latch");
  uint64_t parked = 0;
  bool waiter_done = false;
  bool releaser_done = false;
  bool waiter_done_after_foreign_reply = false;
  bool releaser_done_after_own_reply = true;
  loop.Register(1, [&](Env&, const RpcRequest& req, const AddReq&, uint8_t*, uint32_t) {
    parked = req.token;
  });
  loop.Register(2, [&](Env& env, const RpcRequest& req, const AddReq&, uint8_t*, uint32_t) {
    EXPECT_EQ(env.RpcReply(parked, nullptr, 0), base::Status::kOk);
    waiter_done_after_foreign_reply = waiter_done;
    EXPECT_EQ(env.RpcReply(req.token, nullptr, 0), base::Status::kOk);
    env.Yield();
    releaser_done_after_own_reply = releaser_done;
    // A request is replied to once, staged or not.
    EXPECT_EQ(env.RpcReply(req.token, nullptr, 0), base::Status::kInvalidArgument);
  });
  kernel_.CreateThread(server_task, "s", [&](Env& env) { loop.Run(env); });
  kernel_.CreateThread(client_task, "waiter", [&, send = *send](Env& env) {
    ClientStub stub("latch.waiter", send);
    uint32_t rep;
    EXPECT_EQ(stub.Call(env, AddReq{1, 0, 0}, &rep), base::Status::kOk);
    waiter_done = true;
  });
  kernel_.CreateThread(client_task, "releaser", [&, send = *send](Env& env) {
    ClientStub stub("latch.releaser", send);
    uint32_t rep;
    EXPECT_EQ(stub.Call(env, AddReq{2, 0, 0}, &rep), base::Status::kOk);
    releaser_done = true;
    loop.Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_TRUE(waiter_done_after_foreign_reply);
  EXPECT_FALSE(releaser_done_after_own_reply);
  EXPECT_TRUE(releaser_done);
}

// A handler that replies and then stops the loop: its own client still gets
// the reply (the staged reply is delivered before the port dies), and every
// later caller observes kPortDead.
TEST_F(KernelTest, ServerLoopReplyThenStopCompletesTheRequest) {
  Task* server_task = kernel_.CreateTask("server");
  Task* client_task = kernel_.CreateTask("client");
  auto recv = kernel_.PortAllocate(*server_task);
  auto send = kernel_.MakeSendRight(*server_task, *recv, *client_task);
  ServerLoop<AddReq> loop(*recv, "last");
  loop.Register(1, [&](Env& env, const RpcRequest& req, const AddReq& r, uint8_t*, uint32_t) {
    AddRep rep{r.a + r.b};
    env.RpcReply(req.token, &rep, sizeof(rep));
    loop.Stop();
  });
  kernel_.CreateThread(server_task, "s", [&](Env& env) { loop.Run(env); });
  base::Status first = base::Status::kInternal;
  uint32_t sum = 0;
  base::Status later = base::Status::kInternal;
  base::Status later2 = base::Status::kInternal;
  kernel_.CreateThread(client_task, "c", [&, send = *send](Env& env) {
    ClientStub stub("last.client", send);
    AddRep rep;
    first = stub.Call(env, AddReq{1, 40, 2}, &rep);
    sum = rep.sum;
    later = stub.Call(env, AddReq{1, 1, 1}, &rep);
    later2 = stub.Call(env, AddReq{1, 1, 1}, &rep);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(first, base::Status::kOk);
  EXPECT_EQ(sum, 42u);
  EXPECT_EQ(later, base::Status::kPortDead);
  EXPECT_EQ(later2, base::Status::kPortDead);
  EXPECT_FALSE(loop.running());
}

// A heartbeat-armed loop bounds its receive, also the one that delivers a
// staged reply, so it keeps beating while idle after serving a request.
TEST_F(KernelTest, ServerLoopHeartbeatBeatsWhileIdle) {
  Task* server_task = kernel_.CreateTask("server");
  Task* client_task = kernel_.CreateTask("client");
  Task* watcher = kernel_.CreateTask("watcher");
  auto recv = kernel_.PortAllocate(*server_task);
  auto send = kernel_.MakeSendRight(*server_task, *recv, *client_task);
  auto health = kernel_.PortAllocate(*watcher);
  ServerLoop<AddReq> loop(*recv, "beating");
  loop.Register(1, [&](Env& env, const RpcRequest& req, const AddReq&, uint8_t*, uint32_t) {
    env.RpcReply(req.token, nullptr, 0);
  });
  constexpr uint64_t kBeatNs = 50'000;
  loop.EnableHeartbeat(*kernel_.MakeSendRight(*watcher, *health, *server_task),
                       /*every_requests=*/1000, kBeatNs);
  kernel_.CreateThread(server_task, "s", [&](Env& env) { loop.Run(env); });
  bool served = false;
  bool done = false;
  uint64_t beats_after_request = 0;
  kernel_.CreateThread(watcher, "w", [&, port = *health](Env& env) {
    while (!done) {
      MachMessage beat;
      if (env.MachMsgReceive(port, &beat, kBeatNs) == base::Status::kOk && served) {
        EXPECT_EQ(beat.msg_id, kHeartbeatMsgId);
        ++beats_after_request;
      }
    }
  });
  kernel_.CreateThread(client_task, "c", [&, send = *send](Env& env) {
    ClientStub stub("beating.client", send);
    uint32_t rep;
    EXPECT_EQ(stub.Call(env, AddReq{1, 0, 0}, &rep), base::Status::kOk);
    served = true;
    (void)env.SleepNs(10 * kBeatNs);  // idle: only the receive timeout wakes the loop
    loop.Stop();
    done = true;
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  // One beat per interval plus the beat's own send/receive path: about 7 in
  // 10 intervals.
  EXPECT_GE(beats_after_request, 5u);
}

// The handler-entry transient fault still answers kBusy (its reply goes
// through the staged path), and the loop keeps serving afterwards.
TEST_F(KernelTest, ServerLoopHandlerEntryTransientFaultYieldsBusy) {
  Task* server_task = kernel_.CreateTask("server");
  Task* client_task = kernel_.CreateTask("client");
  auto recv = kernel_.PortAllocate(*server_task);
  auto send = kernel_.MakeSendRight(*server_task, *recv, *client_task);
  ServerLoop<AddReq> loop(*recv, "calc");
  int handled = 0;
  loop.Register(1, [&](Env& env, const RpcRequest& req, const AddReq& r, uint8_t*, uint32_t) {
    ++handled;
    AddRep rep{r.a + r.b};
    env.RpcReply(req.token, &rep, sizeof(rep));
  });
  kernel_.faults().Enable(1);
  kernel_.faults().Arm(fault::FaultPoint::kServerHandlerEntry,
                       fault::FaultMode::kTransientError, 100, /*max_fires=*/1, "calc");
  kernel_.CreateThread(server_task, "s", [&](Env& env) { loop.Run(env); });
  base::Status first = base::Status::kInternal;
  base::Status second = base::Status::kInternal;
  uint32_t sum = 0;
  kernel_.CreateThread(client_task, "c", [&, send = *send](Env& env) {
    ClientStub stub("calc.client", send);
    AddRep rep;
    first = stub.Call(env, AddReq{1, 2, 3}, &rep);
    second = stub.Call(env, AddReq{1, 2, 3}, &rep);
    sum = rep.sum;
    loop.Stop();
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(first, base::Status::kBusy);
  EXPECT_EQ(second, base::Status::kOk);
  EXPECT_EQ(sum, 5u);
  EXPECT_EQ(handled, 1);
  EXPECT_EQ(kernel_.faults().log().size(), 1u);
}

}  // namespace
}  // namespace mk
