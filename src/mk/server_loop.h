// The one RPC receive loop, shared by every RPC server in the system:
// receives requests on a port, runs the handler-entry fault point (armed
// campaigns may scope it to one server label), opens the server's kServerOp
// span, charges the server's loop and stub code, and demultiplexes on the
// 32-bit operation code at the start of the request. Requests are POD
// structs whose first field is the op code; the loop hands each handler a
// value-initialized copy of the received bytes. It also owns shutdown
// (Stop), survival of oversized requests, and watchdog heartbeats.
#ifndef SRC_MK_SERVER_LOOP_H_
#define SRC_MK_SERVER_LOOP_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/mk/kernel.h"

namespace mk {

// One code region a server's loop charges per served request: the modelled
// demultiplex loop and stub text of that server, in charge order.
struct LoopCode {
  std::string name;
  uint32_t instructions = 0;
  uint32_t sparsity = 1;  // 1 = DefineCode text, hw::kKernelTextSparsity = stub text
};

template <typename Req>
class ServerLoop {
  static_assert(std::is_trivially_copyable_v<Req> && sizeof(Req) >= sizeof(uint32_t),
                "requests are POD structs led by a 32-bit op code");

 public:
  // A handler gets the request and must end with env.RpcReply(rpc.token,
  // ...) unless it defers the reply (keeps the token and returns).
  // `ref_data` is the loop's by-reference buffer (max_ref bytes), holding
  // `ref_len` bytes the client attached; a handler may reuse it as scratch.
  using Handler = std::function<void(Env& env, const RpcRequest& rpc, const Req& req,
                                     uint8_t* ref_data, uint32_t ref_len)>;

  // `label` names the server in spans, counters ("server.<label>.ops") and
  // scoped fault arming. `code` lists the regions each request charges;
  // they are registered when Run() starts (each server's stubs are distinct
  // linked code, as they were in WPOS). `max_ref` sizes the ref buffer.
  ServerLoop(PortName receive_port, std::string label, uint32_t max_ref,
             std::vector<LoopCode> code)
      : port_(receive_port),
        label_(std::move(label)),
        ops_counter_("server." + label_ + ".ops"),
        max_ref_(max_ref),
        code_(std::move(code)) {}

  // A server with the generic stub pair: "loop.<label>" and "stub.<label>"
  // as dense kernel-style text.
  ServerLoop(PortName receive_port, const std::string& label, uint32_t max_ref = 64 * 1024)
      : ServerLoop(receive_port, label, max_ref,
                   {{"loop." + label, Costs::kRpcServerLoop, hw::kKernelTextSparsity},
                    {"stub." + label, Costs::kRpcServerStub, hw::kKernelTextSparsity}}) {}

  // `op` is a uint32_t or the server's op enum.
  template <typename Op>
  void Register(Op op, Handler handler) {
    handlers_[static_cast<uint32_t>(op)] = std::move(handler);
  }
  // Member-function form: `method` takes (env, rpc, req), or (env, rpc, req,
  // ref_data, ref_len) when it consumes by-reference data.
  template <typename Op, typename T, typename... Ref>
  void Register(Op op, T* self,
                void (T::*method)(Env&, const RpcRequest&, const Req&, Ref...)) {
    Register(op, [self, method](Env& env, const RpcRequest& rpc, const Req& req,
                                uint8_t* ref_data, uint32_t ref_len) {
      if constexpr (sizeof...(Ref) == 0) {
        (self->*method)(env, rpc, req);
      } else {
        (self->*method)(env, rpc, req, ref_data, ref_len);
      }
    });
  }

  // Arms watchdog heartbeats: the loop sends a HeartbeatPing to
  // `health_right` (a send right in the serving task's space, minted by
  // RestartManager::HealthRightFor) after every `every_requests` requests
  // and whenever `every_ns` of simulated time passed since the last beat.
  // Pings are sent with a zero timeout so a full or dead health port can
  // never block the server; a wedged thread stops beating — which is the
  // signal. Call before Run().
  void EnableHeartbeat(PortName health_right, uint64_t every_requests, uint64_t every_ns) {
    health_right_ = health_right;
    heartbeat_every_requests_ = every_requests == 0 ? 1 : every_requests;
    heartbeat_every_ns_ = every_ns;
  }

  // Shuts the loop down deterministically: the receive port is destroyed
  // immediately, so a server parked between receives wakes with kPortDead
  // and exits, and every caller — queued or future — observes kPortDead
  // rather than a request that may or may not still be served. Callable from
  // any thread (including a handler) once Run() has started; calling it
  // before Run() makes Run() destroy the port and return at once. Per-server
  // exit work belongs after Run() returns, in the server's thread body.
  void Stop() {
    stop_requested_ = true;
    running_ = false;
    if (env_ != nullptr) {
      DestroyReceivePort(*env_);
    }
  }
  bool running() const { return running_; }

  // Runs until Stop(), a fault that ends the server, or the port dies.
  // Unknown ops complete with kNotSupported.
  void Run(Env& env) {
    env_ = &env;
    if (stop_requested_) {
      DestroyReceivePort(env);
      env_ = nullptr;
      return;
    }
    Kernel& kernel = env.kernel();
    std::vector<hw::CodeRegion> regions;
    for (const LoopCode& c : code_) {
      regions.push_back(hw::CodeLayout::Global().Register(c.name, c.instructions, c.sparsity));
    }
    std::vector<uint8_t> ref_buf(max_ref_);
    running_ = true;
    if (health_right_ != kNullPort) {
      SendHeartbeat(env);  // first beat arms the watchdog deadline
    }
    while (running_) {
      RpcRef ref;
      ref.recv_buf = ref_buf.data();
      ref.recv_cap = max_ref_;
      // With heartbeats armed the park is bounded so an idle server still
      // wakes to beat; without them this is the plain blocking receive.
      const uint64_t receive_timeout =
          health_right_ != kNullPort && heartbeat_every_ns_ != 0 ? heartbeat_every_ns_ : kForever;
      Req req{};
      auto rpc = env.RpcReceive(port_, &req, sizeof(Req), &ref, receive_timeout);
      if (!rpc.ok()) {
        if (rpc.status() == base::Status::kTooLarge) {
          // An oversized queued request was already failed back to its
          // client; the loop itself is healthy — keep serving. Breaking here
          // would leave the port alive with no receiver, hanging every
          // later caller.
          continue;
        }
        if (rpc.status() == base::Status::kTimedOut) {
          // Idle heartbeat tick: nothing arrived within the beat interval.
          SendHeartbeat(env);
          continue;
        }
        break;  // port destroyed or task aborted
      }
      if (health_right_ != kNullPort) {
        // Beat on arrival (before the handler runs) so a request that wedges
        // the handler starts the watchdog clock at its own dispatch.
        ++requests_since_beat_;
        if (requests_since_beat_ >= heartbeat_every_requests_ ||
            (heartbeat_every_ns_ != 0 && env.NowNs() - last_beat_ns_ >= heartbeat_every_ns_)) {
          SendHeartbeat(env);
        }
      }
      // Fault point: the handler entry, before any handler state changes —
      // the injected failure is indistinguishable from the server crashing
      // at the top of the operation.
      switch (kernel.faults().Fire(fault::FaultPoint::kServerHandlerEntry, label_)) {
        case fault::FaultMode::kNone:
          break;
        case fault::FaultMode::kCrashTask:
          // The task teardown destroys the receive port and fails this
          // request's client (and every queued one) with kPortDead.
          port_destroyed_ = true;
          running_ = false;
          env_ = nullptr;
          kernel.TerminateTask(&env.task());
          return;
        case fault::FaultMode::kDropReply:
          continue;  // swallow: the client waits out its deadline
        case fault::FaultMode::kKillPort:
          DestroyReceivePort(env);
          running_ = false;
          env_ = nullptr;
          return;
        case fault::FaultMode::kTransientError:
          env.RpcReply(rpc->token, nullptr, 0, nullptr, 0, kNullPort, base::Status::kBusy);
          continue;
        case fault::FaultMode::kStallTask: {
          // Wedged, not dead: the thread parks forever mid-request and stops
          // heartbeating. Only a watchdog TerminateTask recovers it — the
          // teardown fails this client and every queued one with kPortDead.
          running_ = false;
          env_ = nullptr;
          (void)kernel.StallForever();
          // Only reached once the stall is aborted by task teardown.
          port_destroyed_ = true;
          return;
        }
        case fault::FaultMode::kDelayReply:
          // Overloaded, not broken: sleep a seeded simulated delay, then
          // serve the request normally. Queued callers see the added wait.
          (void)env.SleepNs(kernel.faults().DrawDelayNs(fault::FaultPoint::kServerHandlerEntry));
          break;
        case fault::FaultMode::kCount:
          break;
      }
      uint32_t op = 0;
      if (rpc->req_len >= sizeof(uint32_t)) {
        std::memcpy(&op, &req, sizeof(uint32_t));
      }
      trace::Tracer& tracer = kernel.tracer();
      trace::ScopedSpan op_span(tracer, trace::SpanKind::kServerOp,
                                trace::EventType::kServerDispatch, trace::EventType::kServerDone,
                                op);
      op_span.set_end_payload(op);
      tracer.LabelSpan(op_span.id(), label_);
      ++tracer.metrics().Counter(ops_counter_);
      for (const hw::CodeRegion& region : regions) {
        kernel.cpu().Execute(region);
      }
      auto it = handlers_.find(op);
      if (it == handlers_.end()) {
        env.RpcReply(rpc->token, nullptr, 0, nullptr, 0, kNullPort, base::Status::kNotSupported);
      } else {
        it->second(env, *rpc, req, ref_buf.data(), ref.recv_len);
      }
    }
    DestroyReceivePort(env);
    running_ = false;
    env_ = nullptr;
  }

 private:
  void DestroyReceivePort(Env& env) {
    // A terminated task's ports died with it; nothing left to destroy.
    if (!port_destroyed_ && !env.task().terminated()) {
      port_destroyed_ = true;
      (void)env.kernel().PortDestroy(env.task(), port_);
    }
  }

  void SendHeartbeat(Env& env) {
    HeartbeatPing ping{env.task().id()};
    MachMessage msg;
    msg.msg_id = kHeartbeatMsgId;
    msg.dest = health_right_;
    msg.inline_data.assign(reinterpret_cast<const uint8_t*>(&ping),
                           reinterpret_cast<const uint8_t*>(&ping) + sizeof(ping));
    // Zero timeout: a full or dead health port must never block the server.
    // A dropped beat only advances the watchdog clock, it cannot wedge us.
    (void)env.kernel().MachMsgSend(std::move(msg), /*timeout_ns=*/0);
    last_beat_ns_ = env.NowNs();
    requests_since_beat_ = 0;
  }

  PortName port_;
  std::string label_;
  std::string ops_counter_;
  uint32_t max_ref_;
  std::vector<LoopCode> code_;
  std::unordered_map<uint32_t, Handler> handlers_;
  Env* env_ = nullptr;  // set while Run() is active; lets Stop() act at once
  bool running_ = false;
  bool stop_requested_ = false;
  bool port_destroyed_ = false;
  PortName health_right_ = kNullPort;  // kNullPort = heartbeats disabled
  uint64_t heartbeat_every_requests_ = 1;
  uint64_t heartbeat_every_ns_ = 0;  // 0 = beat only on requests
  uint64_t requests_since_beat_ = 0;
  uint64_t last_beat_ns_ = 0;
};

// Client-side stub helper: charges a per-interface stub region around a
// typed call. REQ/REP are POD structs.
class ClientStub {
 public:
  ClientStub(const std::string& interface, PortName port)
      : region_(hw::DefineKernelCode("cstub." + interface, Costs::kRpcClientStub)), port_(port) {}

  PortName port() const { return port_; }

  // Deadline applied when a call site passes kForever (the common case):
  // lets a client library bound every call against a possibly-wedged server
  // without touching each call site. kForever (default) = unbounded.
  void set_default_timeout_ns(uint64_t ns) { default_timeout_ns_ = ns; }

  template <typename Req, typename Rep>
  base::Status Call(Env& env, const Req& req, Rep* rep, RpcRef* ref = nullptr,
                    const RightDescriptor* rights = nullptr, uint32_t rights_count = 0,
                    PortName* granted = nullptr, uint64_t timeout_ns = kForever) {
    env.kernel().cpu().Execute(region_);
    uint32_t reply_len = 0;
    if (timeout_ns == kForever) {
      timeout_ns = default_timeout_ns_;
    }
    return env.RpcCall(port_, &req, sizeof(Req), rep, sizeof(Rep), &reply_len, ref, rights,
                       rights_count, granted, timeout_ns);
  }

 private:
  hw::CodeRegion region_;
  PortName port_;
  uint64_t default_timeout_ns_ = kForever;
};

}  // namespace mk

#endif  // SRC_MK_SERVER_LOOP_H_
