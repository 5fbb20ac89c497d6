// Dead-name/port-death notification tests (the Mach notification flavour,
// broadcast to registered watcher ports) plus the TerminateTask teardown
// regressions the restart manager depends on.
#include <gtest/gtest.h>

#include <algorithm>
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

PortDeathNotice PortNoticeOf(const MachMessage& msg) {
  PortDeathNotice notice;
  EXPECT_GE(msg.inline_data.size(), sizeof(notice));
  std::memcpy(&notice, msg.inline_data.data(), sizeof(notice));
  return notice;
}

// A watcher sees a dying task as: one TaskDeathNotice (first, always),
// then one PortDeathNotice per receive port torn down with it.
TEST_F(KernelTest, WatcherReceivesTaskThenPortDeath) {
  Task* watcher_task = kernel_.CreateTask("watcher");
  auto notify = kernel_.PortAllocate(*watcher_task);
  ASSERT_TRUE(notify.ok());
  ASSERT_EQ(kernel_.RegisterDeathWatcher(*watcher_task, *notify), base::Status::kOk);

  Task* victim = kernel_.CreateTask("victim");
  auto victim_port = kernel_.PortAllocate(*victim);
  ASSERT_TRUE(victim_port.ok());
  const uint64_t victim_port_id = (*kernel_.ResolvePort(*victim, *victim_port))->id();
  const TaskId victim_id = victim->id();

  kernel_.CreateThread(watcher_task, "watch", [&, notify = *notify](Env& env) {
    MachMessage msg;
    ASSERT_EQ(env.MachMsgReceive(notify, &msg), base::Status::kOk);
    EXPECT_EQ(msg.msg_id, kTaskDeathMsgId);
    EXPECT_EQ(TaskNoticeOf(msg).task, victim_id);
    // The teardown follows with one PortDeathNotice per receive port the
    // victim held — its implicit self port and the explicit one.
    std::vector<uint64_t> dead_ports;
    for (int i = 0; i < 2; ++i) {
      ASSERT_EQ(env.MachMsgReceive(notify, &msg), base::Status::kOk);
      EXPECT_EQ(msg.msg_id, kPortDeathMsgId);
      dead_ports.push_back(PortNoticeOf(msg).port_id);
    }
    EXPECT_NE(std::find(dead_ports.begin(), dead_ports.end(), victim_port_id),
              dead_ports.end());
  });
  Task* driver = kernel_.CreateTask("driver");
  kernel_.CreateThread(driver, "kill", [&](Env& env) { env.kernel().TerminateTask(victim); });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_EQ(kernel_.tracer().metrics().Counter("mk.task_deaths"), 1u);
}

// A watcher that has not drained its queue still hears a task die: port
// death notices (one per destroyed port) fill the bounded queue and the
// overflow drops, and the task death notice evicts the oldest of them, so the
// queue never exceeds its limit. Before, the task notice was dropped too, and
// a restart manager busy elsewhere while its client closed files never
// respawned a crashed server.
TEST_F(KernelTest, TaskDeathNoticeLandsInAFullWatcherQueue) {
  Task* watcher_task = kernel_.CreateTask("watcher");
  auto notify = kernel_.PortAllocate(*watcher_task);
  ASSERT_TRUE(notify.ok());
  ASSERT_EQ(kernel_.RegisterDeathWatcher(*watcher_task, *notify), base::Status::kOk);
  Task* owner = kernel_.CreateTask("owner");
  for (size_t i = 0; i < Port::kDefaultQueueLimit + 2; ++i) {
    auto port = kernel_.PortAllocate(*owner);
    ASSERT_TRUE(port.ok());
    ASSERT_EQ(kernel_.PortDestroy(*owner, *port), base::Status::kOk);
  }
  Task* victim = kernel_.CreateTask("victim");
  const TaskId victim_id = victim->id();
  kernel_.TerminateTask(victim);
  EXPECT_EQ(kernel_.CheckInvariants(), 0u);
  bool saw_task_death = false;
  size_t notices = 0;
  kernel_.CreateThread(watcher_task, "watch", [&, notify = *notify](Env& env) {
    MachMessage msg;
    while (env.MachMsgReceive(notify, &msg, /*timeout_ns=*/0) == base::Status::kOk) {
      ++notices;
      if (msg.msg_id == kTaskDeathMsgId && TaskNoticeOf(msg).task == victim_id) {
        saw_task_death = true;
      }
    }
  });
  EXPECT_EQ(kernel_.Run(), 0u);
  EXPECT_TRUE(saw_task_death);
  EXPECT_EQ(notices, Port::kDefaultQueueLimit);
}

// Eviction only ever removes port death notices: once the queue holds
// nothing but task death notices (each victim's self-port notice having been
// evicted or dropped), the newcomer drops and the queue keeps its bound.
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
