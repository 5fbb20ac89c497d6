#include "src/mk/fault/injector.h"

#include <utility>

#include "src/base/log.h"
#include "src/mk/trace/tracer.h"

namespace mk {
namespace fault {

const char* FaultPointName(FaultPoint point) {
  switch (point) {
    case FaultPoint::kServerHandlerEntry:
      return "server_handler_entry";
    case FaultPoint::kRpcReply:
      return "rpc_reply";
    case FaultPoint::kMessageCopy:
      return "message_copy";
    case FaultPoint::kCount:
      break;
  }
  return "unknown";
}

const char* FaultModeName(FaultMode mode) {
  switch (mode) {
    case FaultMode::kNone:
      return "none";
    case FaultMode::kCrashTask:
      return "crash_task";
    case FaultMode::kDropReply:
      return "drop_reply";
    case FaultMode::kKillPort:
      return "kill_port";
    case FaultMode::kTransientError:
      return "transient_error";
    case FaultMode::kStallTask:
      return "stall_task";
    case FaultMode::kDelayReply:
      return "delay_reply";
    case FaultMode::kCount:
      break;
  }
  return "unknown";
}

void Injector::Enable(uint64_t seed) {
  enabled_ = true;
  seed_ = seed;
  rng_ = base::Rng(seed);
  points_ = {};
  log_.clear();
}

void Injector::Arm(FaultPoint point, FaultMode mode, uint32_t percent,
                   uint64_t max_fires, std::string target) {
  PointState& state = points_[static_cast<size_t>(point)];
  state.mode = mode;
  state.percent = percent > 100 ? 100 : percent;
  state.max_fires = max_fires;
  state.fired = 0;
  state.target = std::move(target);
}

void Injector::ArmDelay(FaultPoint point, uint64_t min_delay_ns, uint64_t max_delay_ns,
                        uint32_t percent, uint64_t max_fires, std::string target) {
  Arm(point, FaultMode::kDelayReply, percent, max_fires, std::move(target));
  PointState& state = points_[static_cast<size_t>(point)];
  state.delay_min_ns = min_delay_ns;
  state.delay_max_ns = max_delay_ns < min_delay_ns ? min_delay_ns : max_delay_ns;
}

uint64_t Injector::DrawDelayNs(FaultPoint point) {
  const PointState& state = points_[static_cast<size_t>(point)];
  const uint64_t span = state.delay_max_ns - state.delay_min_ns;
  return state.delay_min_ns + (span == 0 ? 0 : rng_.NextBelow(span + 1));
}

void Injector::DisarmAll() {
  // Disarm but keep the per-point fire counts: disarming ends a campaign
  // (e.g. before orderly shutdown), it does not erase its results.
  for (PointState& state : points_) {
    state.mode = FaultMode::kNone;
    state.percent = 0;
    state.max_fires = 0;
  }
}

FaultMode Injector::FireSlow(FaultPoint point, std::string_view server) {
  PointState& state = points_[static_cast<size_t>(point)];
  if (state.mode == FaultMode::kNone || state.fired >= state.max_fires ||
      (!state.target.empty() && state.target != server)) {
    return FaultMode::kNone;
  }
  // Draw even at 100% so the schedule depends only on the seed and the
  // sequence of visits, not on the arming percentages.
  const uint64_t draw = rng_.NextBelow(100);
  if (draw >= state.percent) {
    return FaultMode::kNone;
  }
  ++state.fired;
  log_.push_back(FiredFault{point, state.mode, log_.size()});
  if (tracer_ != nullptr) {
    tracer_->Emit(trace::EventType::kFaultInjected,
                  static_cast<uint64_t>(point),
                  static_cast<uint64_t>(state.mode));
    ++tracer_->metrics().Counter("fault.fired");
  }
  WPOS_LOG(kInfo) << "fault: fired " << FaultPointName(point) << "/"
                  << FaultModeName(state.mode) << " (seq " << log_.size() - 1
                  << ")";
  return state.mode;
}

}  // namespace fault
}  // namespace mk
