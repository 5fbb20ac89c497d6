#include "src/mks/restart/restart_manager.h"

#include <cstring>

#include "src/base/log.h"

namespace mks {

RestartManager::RestartManager(mk::Kernel& kernel, mk::Task* task, mk::PortName name_service,
                               const RestartPolicy& policy)
    : kernel_(kernel), task_(task), policy_(policy) {
  auto port = kernel_.PortAllocate(*task_);
  WPOS_CHECK(port.ok());
  notify_port_ = *port;
  WPOS_CHECK(kernel_.RegisterDeathWatcher(*task_, notify_port_) == base::Status::kOk);
  if (name_service != mk::kNullPort) {
    names_ = std::make_unique<NameClient>(name_service);
  }
  // Above server priority so a death is handled before more clients pile
  // onto the dead port.
  kernel_.CreateThread(task_, "restart-mgr", [this](mk::Env& env) { Serve(env); },
                       mk::Thread::kDefaultPriority + 3);
}

void RestartManager::Supervise(const std::string& name, mk::Task* server_task, Factory factory) {
  WPOS_CHECK(server_task != nullptr);
  Entry& entry = entries_[name];
  entry.task = server_task;
  entry.factory = std::move(factory);
  by_task_[server_task->id()] = name;
}

void RestartManager::Unsupervise(const std::string& name) {
  // Deliberate shutdown: without this, stopping a supervised server looks to
  // the watchdog exactly like a wedge — the stale `beating` flag would earn
  // the exited task a bogus kill and a zombie respawn nobody ever stops.
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return;
  }
  if (it->second.task != nullptr) {
    by_task_.erase(it->second.task->id());
  }
  entries_.erase(it);
}

void RestartManager::Stop() {
  running_ = false;
  (void)kernel_.UnregisterDeathWatcher(*task_, notify_port_);
  // Killing the notify port wakes the serve thread with kPortDead.
  (void)kernel_.PortDestroy(*task_, notify_port_);
}

base::Result<mk::PortName> RestartManager::HealthRightFor(mk::Task& server_task) {
  return kernel_.MakeSendRight(*task_, notify_port_, server_task);
}

uint64_t RestartManager::restarts(const std::string& name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? 0 : it->second.restarts;
}

bool RestartManager::degraded(const std::string& name) const {
  auto it = entries_.find(name);
  return it != entries_.end() && it->second.degraded;
}

uint64_t RestartManager::watchdog_kills(const std::string& name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? 0 : it->second.watchdog_kills;
}

void RestartManager::Serve(mk::Env& env) {
  while (running_) {
    mk::MachMessage msg;
    // With the watchdog armed the park is bounded so missed deadlines are
    // noticed even when no message ever arrives.
    const uint64_t timeout =
        policy_.heartbeat_deadline_ns != 0 ? WatchdogPollNs() : mk::kForever;
    const base::Status st = env.MachMsgReceive(notify_port_, &msg, timeout);
    if (st == base::Status::kTimedOut) {
      CheckDeadlines(env);
      continue;
    }
    if (st != base::Status::kOk) {
      return;  // notify port destroyed (Stop) or task aborted
    }
    if (msg.msg_id == mk::kTaskDeathMsgId &&
        msg.inline_data.size() >= sizeof(mk::TaskDeathNotice)) {
      mk::TaskDeathNotice notice;
      std::memcpy(&notice, msg.inline_data.data(), sizeof(notice));
      HandleTaskDeath(env, notice.task);
    } else if (msg.msg_id == mk::kHeartbeatMsgId &&
               msg.inline_data.size() >= sizeof(mk::HeartbeatPing)) {
      mk::HeartbeatPing ping;
      std::memcpy(&ping, msg.inline_data.data(), sizeof(ping));
      HandleHeartbeat(env, ping.task);
    }
    if (policy_.heartbeat_deadline_ns != 0) {
      CheckDeadlines(env);
    }
  }
}

void RestartManager::HandleHeartbeat(mk::Env& env, mk::TaskId task) {
  auto by = by_task_.find(task);
  if (by == by_task_.end()) {
    return;  // a beat from an instance we already gave up on (or killed)
  }
  Entry& entry = entries_[by->second];
  entry.last_beat_ns = env.NowNs();
  entry.beating = true;
}

void RestartManager::CheckDeadlines(mk::Env& env) {
  const uint64_t now = env.NowNs();
  mk::trace::MetricRegistry& metrics = kernel_.tracer().metrics();
  for (auto& [name, entry] : entries_) {
    if (entry.degraded || !entry.beating || entry.task == nullptr) {
      continue;
    }
    if (now - entry.last_beat_ns <= policy_.heartbeat_deadline_ns) {
      continue;
    }
    // Missed deadline: the server is alive but wedged (or starved beyond
    // tolerance). Force-terminate it — the teardown fails every queued and
    // in-flight caller with kPortDead — and let the death notice drive the
    // normal backoff/respawn path.
    entry.beating = false;  // one kill per silence
    ++entry.watchdog_kills;
    ++metrics.Counter("restart." + name + ".watchdog_kills");
    ++metrics.Counter("restart.watchdog_kills");
    kernel_.tracer().Emit(mk::trace::EventType::kWatchdogKill, entry.task->id(),
                          now - entry.last_beat_ns);
    WPOS_LOG(kWarn) << "restart: watchdog killing wedged server " << name << " (silent "
                    << now - entry.last_beat_ns << " ns)";
    kernel_.TerminateTask(entry.task);
  }
}

void RestartManager::HandleTaskDeath(mk::Env& env, mk::TaskId dead) {
  auto by = by_task_.find(dead);
  if (by == by_task_.end()) {
    return;  // not one of ours
  }
  const std::string name = by->second;
  by_task_.erase(by);
  Entry& entry = entries_[name];
  // Coherence fan-out before any respawn: whatever clients cached against
  // the dead instance (names, attributes, read-ahead) is now suspect.
  for (const auto& listener : death_listeners_) {
    listener(name);
  }
  mk::trace::MetricRegistry& metrics = kernel_.tracer().metrics();
  if (entry.restarts >= policy_.max_restarts) {
    // Budget exhausted: degrade cleanly. Dropping the name means clients
    // re-resolving it get kNotFound, which RpcCallRobust surfaces as
    // kUnavailable — no half-dead right left behind.
    entry.degraded = true;
    ++metrics.Counter("restart." + name + ".gave_up");
    if (names_ != nullptr) {
      (void)names_->Unregister(env, name);
    }
    WPOS_LOG(kWarn) << "restart: budget exhausted for " << name << ", degraded";
    return;
  }
  const uint64_t backoff = policy_.backoff_initial_ns << entry.restarts;
  (void)env.SleepNs(backoff);
  Respawned spawned = entry.factory(env);
  WPOS_CHECK(spawned.task != nullptr) << "restart factory for " << name << " returned no task";
  ++entry.restarts;
  ++total_restarts_;
  entry.task = spawned.task;
  // The fresh instance hasn't beaten yet; its watchdog deadline arms on its
  // first heartbeat, not on the predecessor's stale timestamp.
  entry.beating = false;
  by_task_[spawned.task->id()] = name;
  if (names_ != nullptr && spawned.service_right != mk::kNullPort) {
    // Register under the same name. The stale entry (if any) must go first:
    // the name server refuses duplicate registration.
    (void)names_->Unregister(env, name);
    (void)names_->Register(env, name, spawned.service_right);
  }
  ++metrics.Counter("restart." + name + ".restarts");
  ++metrics.Counter("restart.total");
  kernel_.tracer().Emit(mk::trace::EventType::kServerRestart, spawned.task->id(),
                        entry.restarts);
  WPOS_LOG(kInfo) << "restart: respawned " << name << " (restart " << entry.restarts << "/"
                  << policy_.max_restarts << ")";
}

}  // namespace mks
