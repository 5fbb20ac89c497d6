// Task death notification tests (the Mach notification flavour, broadcast
// to registered watcher ports) plus the TerminateTask teardown regressions
// the restart manager depends on.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "tests/mk/kernel_test_fixture.h"

namespace mk {
namespace {

TaskDeathNotice TaskNoticeOf(const MachMessage& msg) {
  TaskDeathNotice notice;
  EXPECT_GE(msg.inline_data.size(), sizeof(notice));
  std::memcpy(&notice, msg.inline_data.data(), sizeof(notice));
  return notice;
}

// A watcher sees a dying task as exactly one TaskDeathNotice. The receive
// ports torn down with it (its implicit self port and an explicit one) add
// nothing to the queue.
TEST_F(KernelTest, WatcherHearsOnlyTheTaskDeath) {
  Task* watcher_task = kernel_.CreateTask("watcher");
  auto notify = kernel_.PortAllocate(*watcher_task);
  ASSERT_TRUE(notify.ok());
  ASSERT_EQ(kernel_.RegisterDeathWatcher(*watcher_task, *notify), base::Status::kOk);

  Task* victim = kernel_.CreateTask("victim");
  ASSERT_TRUE(kernel_.PortAllocate(*victim).ok());
  const TaskId victim_id = victim->id();

  std::vector<MachMessage> heard;
  kernel_.CreateThread(watcher_task, "watch", [&, notify = *notify](Env& env) {
    MachMessage msg;
    ASSERT_EQ(env.MachMsgReceive(notify, &msg), base::Status::kOk);
    heard.push_back(msg);
    while (env.MachMsgReceive(notify, &msg, /*timeout_ns=*/0) == base::Status::kOk) {
      heard.push_back(msg);
    }
  });
  Task* driver = kernel_.CreateTask("driver");
  kernel_.CreateThread(driver, "kill", [&](Env& env) { env.kernel().TerminateTask(victim); });
  EXPECT_EQ(kernel_.Run(), 0u);
  ASSERT_EQ(heard.size(), 1u);
  EXPECT_EQ(heard[0].msg_id, kTaskDeathMsgId);
  EXPECT_EQ(TaskNoticeOf(heard[0]).task, victim_id);
  EXPECT_EQ(kernel_.tracer().metrics().Counter("mk.task_deaths"), 1u);
}

// Destroying ports enqueues nothing, so a watcher that has not drained its
// queue while its clients closed more files than the queue holds still has
// room for the task death notice supervision needs.
TEST_F(KernelTest, TaskDeathNoticeLandsInAFullWatcherQueue) {
  Task* watcher_task = kernel_.CreateTask("watcher");
  auto notify = kernel_.PortAllocate(*watcher_task);
  ASSERT_TRUE(notify.ok());
  ASSERT_EQ(kernel_.RegisterDeathWatcher(*watcher_task, *notify), base::Status::kOk);
  Port* watcher_port = *kernel_.ResolvePort(*watcher_task, *notify);
  Task* owner = kernel_.CreateTask("owner");
  for (size_t i = 0; i < Port::kDefaultQueueLimit + 2; ++i) {
    auto port = kernel_.PortAllocate(*owner);
    ASSERT_TRUE(port.ok());
    ASSERT_EQ(kernel_.PortDestroy(*owner, *port), base::Status::kOk);
  }
  EXPECT_TRUE(watcher_port->queue.empty());
  Task* victim = kernel_.CreateTask("victim");
  const TaskId victim_id = victim->id();
  kernel_.TerminateTask(victim);
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
  std::vector<TaskId> heard;
  kernel_.CreateThread(watcher_task, "watch", [&, notify = *notify](Env& env) {
    MachMessage msg;
    while (env.MachMsgReceive(notify, &msg, /*timeout_ns=*/0) == base::Status::kOk) {
      ASSERT_EQ(msg.msg_id, kTaskDeathMsgId);
      heard.push_back(TaskNoticeOf(msg).task);
    }
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(heard, std::vector<TaskId>{victim_id});
}

// The watcher queue keeps its bound: once it holds queue_limit task death
// notices, the next one drops and the earlier ones stay in order.
TEST_F(KernelTest, TaskDeathNoticeDropsWhenTheQueueHoldsOnlyTaskNotices) {
  Task* watcher_task = kernel_.CreateTask("watcher");
  auto notify = kernel_.PortAllocate(*watcher_task);
  ASSERT_TRUE(notify.ok());
  ASSERT_EQ(kernel_.RegisterDeathWatcher(*watcher_task, *notify), base::Status::kOk);
  std::vector<TaskId> victims;
  for (size_t i = 0; i < Port::kDefaultQueueLimit + 1; ++i) {
    Task* victim = kernel_.CreateTask("victim");
    victims.push_back(victim->id());
    kernel_.TerminateTask(victim);
  }
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
  std::vector<TaskId> heard;
  kernel_.CreateThread(watcher_task, "watch", [&, notify = *notify](Env& env) {
    MachMessage msg;
    while (env.MachMsgReceive(notify, &msg, /*timeout_ns=*/0) == base::Status::kOk) {
      ASSERT_EQ(msg.msg_id, kTaskDeathMsgId);
      heard.push_back(TaskNoticeOf(msg).task);
    }
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  victims.pop_back();
  EXPECT_EQ(heard, victims);
}

TEST_F(KernelTest, UnregisteredWatcherHearsNothing) {
  Task* watcher_task = kernel_.CreateTask("watcher");
  auto notify = kernel_.PortAllocate(*watcher_task);
  ASSERT_TRUE(notify.ok());
  ASSERT_EQ(kernel_.RegisterDeathWatcher(*watcher_task, *notify), base::Status::kOk);
  // Double registration is rejected; unregistering twice is too.
  EXPECT_EQ(kernel_.RegisterDeathWatcher(*watcher_task, *notify), base::Status::kAlreadyExists);
  ASSERT_EQ(kernel_.UnregisterDeathWatcher(*watcher_task, *notify), base::Status::kOk);
  EXPECT_EQ(kernel_.UnregisterDeathWatcher(*watcher_task, *notify), base::Status::kNotFound);

  Task* victim = kernel_.CreateTask("victim");
  kernel_.CreateThread(watcher_task, "watch", [&, notify = *notify](Env& env) {
    env.kernel().TerminateTask(victim);
    MachMessage msg;
    EXPECT_EQ(env.MachMsgReceive(notify, &msg, /*timeout_ns=*/1'000'000),
              base::Status::kTimedOut);
  });
  EXPECT_EQ(kernel_.Run(), 0u);
}

// Regression for the scheduler's "waking dead thread" check: killing a
// server task while callers are queued on its port (and one request is in
// flight) must fail every caller with kPortDead and leave a consistent
// object graph — nothing may later try to wake a terminated thread.
TEST_F(KernelTest, TerminateServerWithQueuedAndInFlightCallers) {
  Task* server_task = kernel_.CreateTask("server");
  auto recv = kernel_.PortAllocate(*server_task);
  ASSERT_TRUE(recv.ok());
  kernel_.CreateThread(server_task, "crasher", [&, recv = *recv](Env& env) {
    char buf[64];
    auto req = env.RpcReceive(recv, buf, sizeof(buf));
    ASSERT_TRUE(req.ok());
    // Crash with one request in flight and the other callers still queued.
    env.kernel().TerminateTask(&env.task());
  });

  std::vector<base::Status> statuses(3, base::Status::kOk);
  for (int i = 0; i < 3; ++i) {
    Task* client_task = kernel_.CreateTask("client");
    auto send = kernel_.MakeSendRight(*server_task, *recv, *client_task);
    ASSERT_TRUE(send.ok());
    kernel_.CreateThread(client_task, "caller", [&statuses, i, send = *send](Env& env) {
      uint32_t req = 1;
      uint32_t reply = 0;
      statuses[i] = env.RpcCall(send, &req, sizeof(req), &reply, sizeof(reply));
    });
  }
  EXPECT_EQ(kernel_.Run(), 0u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(statuses[i], base::Status::kPortDead) << "caller " << i;
  }
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

// TerminateTask is idempotent and safe on a task whose threads already ran
// to completion.
TEST_F(KernelTest, TerminateTaskIsIdempotent) {
  Task* task = kernel_.CreateTask("shortlived");
  kernel_.CreateThread(task, "t", [](Env&) {});
  EXPECT_EQ(kernel_.Run(), 0u);
  kernel_.TerminateTask(task);
  kernel_.TerminateTask(task);
  EXPECT_EQ(kernel_.tracer().metrics().Counter("mk.task_deaths"), 1u);
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

// A watcher whose own port dies is pruned instead of wedging later deaths.
TEST_F(KernelTest, DeadWatcherPortIsPruned) {
  Task* watcher_task = kernel_.CreateTask("watcher");
  auto notify = kernel_.PortAllocate(*watcher_task);
  ASSERT_TRUE(notify.ok());
  ASSERT_EQ(kernel_.RegisterDeathWatcher(*watcher_task, *notify), base::Status::kOk);
  ASSERT_EQ(kernel_.PortDestroy(*watcher_task, *notify), base::Status::kOk);
  Task* victim = kernel_.CreateTask("victim");
  Task* driver = kernel_.CreateTask("driver");
  kernel_.CreateThread(driver, "kill", [&](Env& env) { env.kernel().TerminateTask(victim); });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
}

}  // namespace
}  // namespace mk
