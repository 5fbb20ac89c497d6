// The reworked RPC (paper, "The IBM Microkernel" / IPC section):
//   - synchronous call, receive and reply; no reply ports, no queuing
//   - threads block waiting to send or receive
//   - physical copy replaces virtual copy; large data passed by reference and
//     copied directly from sender to receiver
//   - direct thread handoff between client and server.
#include <algorithm>

#include "src/base/log.h"
#include "src/mk/kernel.h"

namespace mk {

namespace {
const hw::CodeRegion& ClientStubRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("ustub.rpc_call", Costs::kRpcClientStub);
  return r;
}
const hw::CodeRegion& SendPathRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.rpc.send", Costs::kRpcSendPath);
  return r;
}
const hw::CodeRegion& ReceivePathRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.rpc.receive", Costs::kRpcReceivePath);
  return r;
}
const hw::CodeRegion& ReplyPathRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.rpc.reply", Costs::kRpcReplyPath);
  return r;
}
const hw::CodeRegion& TrapEntry() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.trap.entry", Costs::kTrapEntry);
  return r;
}
const hw::CodeRegion& RightsRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.rpc.rights", Costs::kPortRightTransfer);
  return r;
}
const hw::CodeRegion& OolPrepareRegion() {
  static const hw::CodeRegion r =
      hw::DefineKernelCode("mk.rpc.ool_prepare", Costs::kRpcOolPreparePerPage);
  return r;
}
const hw::CodeRegion& OolMapRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.rpc.ool_map", Costs::kRpcOolMapPerPage);
  return r;
}
// Offset within a thread's message window where by-reference bulk data is
// modelled (separate from the inline request/reply area).
constexpr uint64_t kRefWindowOffset = 16 * 1024;

// Whether a bulk transfer of `len` bytes goes out-of-line under `mode`.
bool UseOol(RpcBulkMode mode, uint64_t len) {
  switch (mode) {
    case RpcBulkMode::kCopy:
      return false;
    case RpcBulkMode::kOol:
      return true;
    case RpcBulkMode::kAuto:
      break;
  }
  return len >= Costs::kRpcOolThresholdBytes;
}
}  // namespace

void Kernel::ChargeOolTransfer(Thread* from, Thread* to, uint64_t len) {
  const uint64_t pages = hw::PageRound(len) >> hw::kPageShift;
  // Sender side: reference and wire the source pages; receiver side: enter
  // them into the receiver's window. The data bytes themselves are never
  // touched — that is the whole point.
  cpu().ExecuteInstructions(OolPrepareRegion(), pages * Costs::kRpcOolPreparePerPage);
  cpu().ExecuteInstructions(OolMapRegion(), pages * Costs::kRpcOolMapPerPage);
  // Page-table traffic: one descriptor read on the sender's side and one PTE
  // write on the receiver's side per page.
  const hw::PhysAddr src = from != nullptr ? from->msg_window() + kRefWindowOffset : heap_->base();
  const hw::PhysAddr dst = to != nullptr ? to->msg_window() + kRefWindowOffset : heap_->base();
  for (uint64_t i = 0; i < pages; ++i) {
    cpu().AccessData(src + i * 64, 8, /*write=*/false);
    cpu().AccessData(dst + i * 64, 8, /*write=*/true);
  }
  ++tracer_->metrics().Counter("mk.rpc.ool_transfers");
  tracer_->metrics().Counter("mk.rpc.ool_bytes") += len;
}

void Kernel::CopyMessageBytes(const void* src, void* dst, uint64_t len, Thread* from, Thread* to) {
  if (len == 0) {
    return;
  }
  std::memcpy(dst, src, len);
  const hw::PhysAddr src_win = from != nullptr ? from->msg_window() : heap_->base();
  const hw::PhysAddr dst_win = to != nullptr ? to->msg_window() : heap_->base();
  // Wrap long transfers around the modelled window.
  const uint64_t span = len < Thread::kMsgWindowSize ? len : Thread::kMsgWindowSize;
  ChargeCopy(src_win, dst_win, span);
}

base::Status Kernel::TransferRights(Task& from, Task& to, const RightDescriptor* rights,
                                    uint32_t count, std::vector<PortName>* out_names) {
  for (uint32_t i = 0; i < count; ++i) {
    cpu().Execute(RightsRegion());
    auto port = from.port_space().LookupSendable(rights[i].name);
    if (!port.ok()) {
      return port.status();
    }
    cpu().AccessData(to.port_space().sim_addr(), 32, /*write=*/true);
    const PortName name = to.port_space().Insert(*port, rights[i].disposition);
    if (out_names != nullptr) {
      out_names->push_back(name);
    }
    if (rights[i].disposition == RightType::kReceive) {
      (*port)->set_receiver(&to);
    }
  }
  return base::Status::kOk;
}

// Moves the client's request (inline bytes, by-reference data, rights) into
// the waiting server's posted buffers. Returns false and completes the
// client's call with an error if the request does not fit.
void Kernel::DeliverRpcToServer(Thread* client, Thread* server) {
  Thread::RpcState& c = client->rpc;
  Thread::RpcState& s = server->rpc;
  if (c.req_len > s.srv_cap) {
    c.completion = base::Status::kTooLarge;
    return;
  }
  CopyMessageBytes(c.req_data, s.srv_buf, c.req_len, client, server);
  s.srv_req_len = c.req_len;
  s.srv_ref_len = 0;
  if (c.ref != nullptr && c.ref->send_len > 0) {
    if (s.srv_ref == nullptr || c.ref->send_len > s.srv_ref->recv_cap) {
      c.completion = base::Status::kTooLarge;
      return;
    }
    std::memcpy(s.srv_ref->recv_buf, c.ref->send_data, c.ref->send_len);
    const bool ool = UseOol(c.ref->send_mode, c.ref->send_len);
    if (ool) {
      ChargeOolTransfer(client, server, c.ref->send_len);
    } else {
      const uint64_t span = c.ref->send_len < Thread::kMsgWindowSize - kRefWindowOffset
                                ? c.ref->send_len
                                : Thread::kMsgWindowSize - kRefWindowOffset;
      ChargeCopy(client->msg_window() + kRefWindowOffset, server->msg_window() + kRefWindowOffset,
                 span);
    }
    c.ref->sent_ool = ool;
    s.srv_ref->recv_ool = ool;
    s.srv_ref->recv_len = c.ref->send_len;
    s.srv_ref_len = c.ref->send_len;
  }
  s.srv_rights.clear();
  if (c.req_rights != nullptr && c.req_rights_count > 0) {
    const base::Status st = TransferRights(*client->task(), *server->task(), c.req_rights,
                                           c.req_rights_count, &s.srv_rights);
    if (st != base::Status::kOk) {
      c.completion = st;
      return;
    }
  }
  s.client = client;
  s.token = next_rpc_token_++;
  c.token = s.token;
  rpc_waiters_[s.token] = RpcInFlight{client, server};
  s.srv_client_task = client->task()->id();
  c.completion = base::Status::kOk;
  if (sync_observer_ != nullptr) {
    // Request delivery is a happens-before edge from the (blocked or about to
    // block) client into the server.
    sync_observer_->OnRendezvous(client, server);
  }
  // The client's call span enters its server phase; the label must land
  // before the dispatch mark so the per-server queue-wait histogram splits.
  tracer_->LabelSpan(c.span_id, server->task()->name());
  tracer_->MarkPhase(c.span_id, trace::EventType::kRpcDispatch, server->id());
  // Bind the server thread to the caller's trace: every span the handler
  // opens (server op, nested RPCs to other servers) now chains onto this
  // call span. The reply paths unbind it.
  if (c.span_id != 0) {
    server->trace_ctx = TraceContext{tracer_->SpanTraceId(c.span_id), c.span_id};
  }
}

base::Status Kernel::RpcCall(PortName port_name, const void* req, uint32_t req_len, void* reply,
                             uint32_t reply_cap, uint32_t* reply_len, RpcRef* ref,
                             const RightDescriptor* rights, uint32_t rights_count,
                             PortName* granted, uint64_t timeout_ns) {
  Thread* client = scheduler_.current();
  WPOS_DCHECK(client != nullptr) << "RpcCall outside thread context";
  // The span opens before the client stub executes so its counter delta
  // covers the complete call: stub, kernel entry, server work, reply return.
  client->rpc.span_id =
      tracer_->BeginSpan(trace::SpanKind::kRpc, trace::EventType::kRpcCall, port_name);
  cpu().Execute(ClientStubRegion());
  EnterKernel(TrapEntry());
  cpu().Execute(SendPathRegion());
  cpu().AccessData(client->task()->port_space().sim_addr(), 32, /*write=*/false);
  auto port_r = client->task()->port_space().LookupSendable(port_name);
  if (!port_r.ok()) {
    LeaveKernel();
    tracer_->EndSpan(client->rpc.span_id, trace::EventType::kRpcReturn,
                     static_cast<uint64_t>(port_r.status()));
    return port_r.status();
  }
  LeaveKernel();  // cost bracketing only; the call continues below
  const base::Status st =
      RpcCallOnPort(*port_r, req, req_len, reply, reply_cap, reply_len, ref, rights, rights_count,
                    granted, timeout_ns);
  tracer_->EndSpan(client->rpc.span_id, trace::EventType::kRpcReturn, static_cast<uint64_t>(st));
  return st;
}

base::Status Kernel::RpcCallOnPort(Port* port, const void* req, uint32_t req_len, void* reply,
                                   uint32_t reply_cap, uint32_t* reply_len, RpcRef* ref,
                                   const RightDescriptor* rights, uint32_t rights_count,
                                   PortName* granted, uint64_t timeout_ns) {
  Thread* client = scheduler_.current();
  WPOS_DCHECK(client != nullptr);
  if (sync_observer_ != nullptr) {
    sync_observer_->OnOpLabel(client, "RpcCall", port->id());
  }
  if (port->dead()) {
    return base::Status::kPortDead;
  }
  // Fault point: the request copy. Fails the call before any state transfer,
  // so the server (parked or not) is untouched.
  if (faults_->Fire(fault::FaultPoint::kMessageCopy) != fault::FaultMode::kNone) {
    return base::Status::kBusy;
  }
  ++rpc_calls_;
  ++port->rpc_count;
  ++tracer_->metrics().Counter("mk.rpc.calls");
  cpu().AccessData(port->sim_addr(), 64, /*write=*/true);

  Thread::RpcState& c = client->rpc;
  // A fresh call must not inherit the previous call's token: the error paths
  // below erase rpc_waiters_[c.token], and a stale token from a completed
  // call must erase nothing.
  c.token = 0;
  c.req_data = req;
  c.req_len = req_len;
  c.reply_buf = reply;
  c.reply_cap = reply_cap;
  c.reply_len = 0;
  c.ref = ref;
  if (ref != nullptr) {
    // Stale results from a previous attempt on the same descriptor (robust
    // retries) must not survive into this call's outcome.
    ref->recv_len = 0;
    ref->sent_ool = false;
    ref->recv_ool = false;
  }
  c.req_rights = rights;
  c.req_rights_count = rights_count;
  c.granted_right = kNullPort;
  c.completion = base::Status::kOk;
  c.port = port;

  // A server may be parked on the port itself or on the set it belongs to.
  std::deque<Thread*>* server_queue = nullptr;
  if (!port->waiting_servers.empty()) {
    server_queue = &port->waiting_servers;
  } else if (port->member_of != nullptr && !port->member_of->waiting_servers.empty()) {
    server_queue = &port->member_of->waiting_servers;
  }
  if (server_queue != nullptr) {
    Thread* server = server_queue->front();
    server_queue->pop_front();
    server->rpc.arrived_port = port->id();
    DeliverRpcToServer(client, server);
    if (c.completion != base::Status::kOk) {
      // Delivery failed; re-park the server, fail the call.
      server_queue->push_front(server);
      return c.completion;
    }
    scheduler_.Wake(server, base::Status::kOk);
    StartTimedWake(client, timeout_ns);
    const base::Status block_status = scheduler_.BlockAndHandoff(nullptr, server);
    if (block_status != base::Status::kOk) {
      // Timed out or aborted while in flight: drop the waiter entry so a
      // late reply by the server finds nothing and returns kInvalidArgument.
      rpc_waiters_.erase(c.token);
      return block_status;
    }
  } else {
    // Admission control: past the configured bound the caller is shed with
    // kBusy instead of parking behind a queue the server may never drain.
    if (port->rpc_queue_limit != 0 && port->waiting_clients.size() >= port->rpc_queue_limit) {
      ++tracer_->metrics().Counter("mk.rpc.shed");
      tracer_->metrics().Hist("mk.rpc.queue_depth").Record(port->waiting_clients.size());
      tracer_->Emit(trace::EventType::kRpcShed, c.span_id, port->id());
      return base::Status::kBusy;
    }
    port->waiting_clients.push_back(client);
    tracer_->MarkQueued(c.span_id, trace::EventType::kRpcQueued, port->id());
    tracer_->metrics().GaugeMax("mk.rpc.waiting_clients_hwm", port->waiting_clients.size());
    tracer_->metrics().Hist("mk.rpc.queue_depth").Record(port->waiting_clients.size());
    StartTimedWake(client, timeout_ns);
    const base::Status block_status = scheduler_.Block(Thread::State::kBlocked, nullptr);
    if (block_status != base::Status::kOk) {
      // Aborted or port died while queued; make sure we are off the list.
      for (auto it = port->waiting_clients.begin(); it != port->waiting_clients.end(); ++it) {
        if (*it == client) {
          port->waiting_clients.erase(it);
          break;
        }
      }
      rpc_waiters_.erase(c.token);
      return block_status;
    }
    // A server received our request and will reply; if the reply already
    // happened (it must have — we were woken by RpcReply or an error), fall
    // through.
  }
  if (reply_len != nullptr) {
    *reply_len = c.reply_len;
  }
  if (granted != nullptr) {
    *granted = c.granted_right;
  }
  return c.completion;
}

base::Result<RpcRequest> Kernel::RpcReceive(PortName receive_name, void* buf, uint32_t cap,
                                            RpcRef* ref, uint64_t timeout_ns) {
  Thread* server = scheduler_.current();
  WPOS_DCHECK(server != nullptr) << "RpcReceive outside thread context";
  if (sync_observer_ != nullptr) {
    sync_observer_->OnOpLabel(server, "RpcReceive", receive_name);
  }
  EnterKernel(TrapEntry());
  cpu().Execute(ReceivePathRegion());
  cpu().AccessData(server->task()->port_space().sim_addr(), 32, /*write=*/false);
  auto port_r = server->task()->port_space().LookupReceive(receive_name);
  if (!port_r.ok()) {
    LeaveKernel();
    return port_r.status();
  }
  Port* port = *port_r;
  Thread::RpcState& s = server->rpc;
  // Between requests the server works for nobody: drop any stale trace
  // binding (DeliverRpcToServer rebinds it for the request received here).
  server->trace_ctx = TraceContext{};
  s.token = 0;  // set again only by a delivered request
  s.srv_buf = buf;
  s.srv_cap = cap;
  s.srv_ref = ref;
  if (ref != nullptr) {
    ref->recv_len = 0;
    ref->recv_ool = false;
  }

  // Receiving on a port set services whichever member has a caller waiting.
  Port* source = port;
  if (port->is_port_set) {
    source = nullptr;
    for (Port* member : port->set_members) {
      if (!member->waiting_clients.empty()) {
        source = member;
        break;
      }
    }
  } else if (!port->waiting_clients.empty()) {
    source = port;
  } else {
    source = nullptr;
  }
  if (source != nullptr) {
    Thread* client = source->waiting_clients.front();
    source->waiting_clients.pop_front();
    server->rpc.arrived_port = source->id();
    DeliverRpcToServer(client, server);
    if (client->rpc.completion != base::Status::kOk) {
      // The queued request didn't fit; fail the client, keep receiving.
      scheduler_.Wake(client, client->rpc.completion);
      LeaveKernel();
      return base::Status::kTooLarge;
    }
  } else {
    // Never park on a dead port (TerminateTask already failed its callers) or
    // from a terminated task: a READY thread of a dying task can reach here
    // after the teardown ran, and parking would wedge it forever.
    if (port->dead() || server->task()->terminated()) {
      LeaveKernel();
      return port->dead() ? base::Status::kPortDead : base::Status::kAborted;
    }
    port->waiting_servers.push_back(server);
    StartTimedWake(server, timeout_ns);
    const base::Status st = scheduler_.Block(Thread::State::kBlocked, nullptr);
    if (st != base::Status::kOk && !ParkEndedWithRequest(port, server, st)) {
      LeaveKernel();
      return st;
    }
  }
  RpcRequest out;
  out.token = s.token;
  out.arrived_port = s.arrived_port;
  out.req_len = s.srv_req_len;
  out.ref_len = s.srv_ref_len;
  out.rights = std::move(s.srv_rights);
  out.client_task = s.srv_client_task;
  LeaveKernel();
  return out;
}

bool Kernel::ParkEndedWithRequest(Port* port, Thread* server, base::Status st) {
  if (st == base::Status::kTimedOut && server->rpc.token != 0) {
    return true;
  }
  auto& parked = port->waiting_servers;
  parked.erase(std::remove(parked.begin(), parked.end(), server), parked.end());
  return false;
}

// Copies the reply (inline, bulk, granted right) into the blocked client's
// posted buffers. Shared by RpcReply and RpcReplyAndReceive.
base::Status Kernel::DeliverReply(Thread* server, Thread* client, const void* reply,
                                  uint32_t len, const void* ref_data, uint32_t ref_len,
                                  PortName grant, base::Status completion) {
  Thread::RpcState& c = client->rpc;
  // Server phase of the client's span ends here: what follows is reply copy
  // and the return to user mode on the client side.
  tracer_->MarkPhase(c.span_id, trace::EventType::kRpcReply, len);
  if (sync_observer_ != nullptr) {
    // The reply is the matching happens-before edge back from the server
    // into the blocked client.
    sync_observer_->OnRendezvous(server, client);
  }
  c.completion = completion;
  if (len > c.reply_cap) {
    c.completion = base::Status::kTooLarge;
  } else {
    CopyMessageBytes(reply, c.reply_buf, len, server, client);
    c.reply_len = len;
  }
  if (ref_data != nullptr && ref_len > 0 && c.completion == base::Status::kOk) {
    if (c.ref == nullptr || ref_len > c.ref->recv_cap) {
      c.completion = base::Status::kTooLarge;
    } else {
      std::memcpy(c.ref->recv_buf, ref_data, ref_len);
      const bool ool = UseOol(c.ref->recv_mode, ref_len);
      if (ool) {
        ChargeOolTransfer(server, client, ref_len);
      } else {
        const uint64_t span = ref_len < Thread::kMsgWindowSize - kRefWindowOffset
                                  ? ref_len
                                  : Thread::kMsgWindowSize - kRefWindowOffset;
        ChargeCopy(server->msg_window() + kRefWindowOffset,
                   client->msg_window() + kRefWindowOffset, span);
      }
      c.ref->recv_ool = ool;
      c.ref->recv_len = ref_len;
    }
  }
  if (grant != kNullPort && c.completion == base::Status::kOk) {
    RightDescriptor rd{.name = grant, .disposition = RightType::kSend};
    std::vector<PortName> names;
    const base::Status st = TransferRights(*server->task(), *client->task(), &rd, 1, &names);
    if (st == base::Status::kOk) {
      c.granted_right = names.front();
    } else {
      c.completion = st;
    }
  }
  return c.completion;
}

base::Status Kernel::ReplyToWaiter(Thread* server, uint64_t token, const void* reply,
                                   uint32_t len, const void* ref_data, uint32_t ref_len,
                                   PortName grant, base::Status completion, Thread** client) {
  *client = nullptr;
  auto waiter = rpc_waiters_.find(token);
  if (waiter == rpc_waiters_.end()) {
    return base::Status::kInvalidArgument;
  }
  Thread* target = waiter->second.client;
  rpc_waiters_.erase(waiter);
  if (target->rpc.token != token || target->state() != Thread::State::kBlocked) {
    return base::Status::kInvalidArgument;
  }
  server->rpc.client = nullptr;
  // The reply ends this server's work for the caller: unbind its trace.
  server->trace_ctx = TraceContext{};
  // Fault point: the reply. The waiter is already erased, so every mode
  // leaves the token unreplayable — exactly once per request.
  switch (faults_->Fire(fault::FaultPoint::kRpcReply)) {
    case fault::FaultMode::kNone:
      break;
    case fault::FaultMode::kDropReply:
      // Swallow the reply; the client stays blocked until its deadline.
      return base::Status::kOk;
    case fault::FaultMode::kCrashTask:
      target->rpc.completion = base::Status::kPortDead;
      scheduler_.Wake(target, base::Status::kPortDead);
      LeaveKernel();
      TerminateTask(server->task());
      return base::Status::kAborted;
    case fault::FaultMode::kKillPort: {
      Port* request_port = target->rpc.port;
      target->rpc.completion = base::Status::kPortDead;
      scheduler_.Wake(target, base::Status::kPortDead);
      LeaveKernel();
      if (request_port != nullptr && !request_port->dead()) {
        DestroyPort(request_port);
      }
      return base::Status::kPortDead;
    }
    case fault::FaultMode::kTransientError:
      completion = base::Status::kBusy;
      len = 0;
      ref_data = nullptr;
      ref_len = 0;
      grant = kNullPort;
      break;
    case fault::FaultMode::kStallTask:
    case fault::FaultMode::kDelayReply:
      break;  // server-loop-only modes (see points.h); reply normally
    case fault::FaultMode::kCount:
      break;
  }
  (void)DeliverReply(server, target, reply, len, ref_data, ref_len, grant, completion);
  *client = target;
  return base::Status::kOk;
}

base::Result<RpcRequest> Kernel::RpcReplyAndReceive(uint64_t token, const void* reply,
                                                    uint32_t len, PortName receive_name,
                                                    void* buf, uint32_t cap, RpcRef* ref,
                                                    const void* reply_ref_data,
                                                    uint32_t reply_ref_len, PortName grant,
                                                    base::Status completion,
                                                    uint64_t timeout_ns) {
  Thread* server = scheduler_.current();
  WPOS_DCHECK(server != nullptr) << "RpcReplyAndReceive outside thread context";
  if (sync_observer_ != nullptr) {
    sync_observer_->OnOpLabel(server, "RpcReplyAndReceive", token);
  }
  EnterKernel(TrapEntry());
  cpu().Execute(ReplyPathRegion());
  cpu().Execute(ReceivePathRegion());

  // The reply half. A stale token drops the reply (the client timed out or
  // died); a dropped reply leaves its client blocked until its deadline.
  // Either way the receive half runs, so the server keeps serving.
  Thread* client = nullptr;
  const base::Status replied = ReplyToWaiter(server, token, reply, len, reply_ref_data,
                                             reply_ref_len, grant, completion, &client);
  if (replied == base::Status::kAborted || replied == base::Status::kPortDead) {
    return replied;  // a reply fault ended the server or its port
  }
  // Between requests the server works for nobody (see RpcReceive).
  server->trace_ctx = TraceContext{};

  auto port_r = server->task()->port_space().LookupReceive(receive_name);
  if (!port_r.ok()) {
    if (client != nullptr) {
      scheduler_.Wake(client, base::Status::kOk);
    }
    LeaveKernel();
    return port_r.status();
  }
  Port* port = *port_r;

  // Post the receive buffers BEFORE resuming the replied client, so its next
  // call finds this server already parked (reply_and_wait).
  Thread::RpcState& s = server->rpc;
  s.token = 0;  // set again only by a delivered request
  s.srv_buf = buf;
  s.srv_cap = cap;
  s.srv_ref = ref;
  if (ref != nullptr) {
    ref->recv_len = 0;
    ref->recv_ool = false;
  }

  // Serve any caller already queued on a member/port.
  Port* source = nullptr;
  if (port->is_port_set) {
    for (Port* member : port->set_members) {
      if (!member->waiting_clients.empty()) {
        source = member;
        break;
      }
    }
  } else if (!port->waiting_clients.empty()) {
    source = port;
  }
  if (source != nullptr) {
    Thread* next_client = source->waiting_clients.front();
    source->waiting_clients.pop_front();
    server->rpc.arrived_port = source->id();
    DeliverRpcToServer(next_client, server);
    if (next_client->rpc.completion != base::Status::kOk) {
      // The queued request didn't fit the posted buffers. Fail that client —
      // found by schedule exploration: leaving it unwoken here blocked it
      // forever, and the RpcRequest below would have carried a stale token.
      // Same contract as RpcReceive: wake the loser, report kTooLarge.
      scheduler_.Wake(next_client, next_client->rpc.completion);
      if (client != nullptr) {
        scheduler_.Wake(client, base::Status::kOk);
      }
      LeaveKernel();
      return base::Status::kTooLarge;
    }
    if (client != nullptr) {
      scheduler_.Wake(client, base::Status::kOk);
    }
    RpcRequest out;
    out.token = s.token;
    out.arrived_port = s.arrived_port;
    out.req_len = s.srv_req_len;
    out.ref_len = s.srv_ref_len;
    out.rights = std::move(s.srv_rights);
    out.client_task = s.srv_client_task;
    LeaveKernel();
    return out;
  }

  // Same guard as RpcReceive: the reply above still lands, but a dead port
  // or terminated task must not park.
  if (port->dead() || server->task()->terminated()) {
    if (client != nullptr) {
      scheduler_.Wake(client, base::Status::kOk);
    }
    LeaveKernel();
    return port->dead() ? base::Status::kPortDead : base::Status::kAborted;
  }
  port->waiting_servers.push_back(server);
  StartTimedWake(server, timeout_ns);
  base::Status st;
  if (client != nullptr) {
    scheduler_.Wake(client, base::Status::kOk);
    st = scheduler_.BlockAndHandoff(nullptr, client);
  } else {
    st = scheduler_.Block(Thread::State::kBlocked, nullptr);
  }
  if (st != base::Status::kOk && !ParkEndedWithRequest(port, server, st)) {
    LeaveKernel();
    return st;
  }
  RpcRequest out;
  out.token = s.token;
  out.arrived_port = s.arrived_port;
  out.req_len = s.srv_req_len;
  out.ref_len = s.srv_ref_len;
  out.rights = std::move(s.srv_rights);
  out.client_task = s.srv_client_task;
  LeaveKernel();
  return out;
}

base::Status Kernel::RpcReply(uint64_t token, const void* reply, uint32_t len,
                              const void* ref_data, uint32_t ref_len, PortName grant,
                              base::Status completion) {
  Thread* server = scheduler_.current();
  WPOS_DCHECK(server != nullptr) << "RpcReply outside thread context";
  if (sync_observer_ != nullptr) {
    sync_observer_->OnOpLabel(server, "RpcReply", token);
  }
  EnterKernel(TrapEntry());
  cpu().Execute(ReplyPathRegion());
  Thread* client = nullptr;
  const base::Status st =
      ReplyToWaiter(server, token, reply, len, ref_data, ref_len, grant, completion, &client);
  if (st == base::Status::kAborted || st == base::Status::kPortDead) {
    return st;  // a reply fault ended the server or its port
  }
  if (client != nullptr) {
    scheduler_.Wake(client, base::Status::kOk);
    // Direct handoff back to the client: the paper's synchronous reply path.
    scheduler_.HandoffTo(client);
  }
  LeaveKernel();
  return st;
}

base::Status Env::RpcReply(uint64_t token, const void* reply, uint32_t len, const void* ref_data,
                           uint32_t ref_len, PortName grant, base::Status completion) {
  if (serving_token_ == 0 || token != serving_token_) {
    return kernel_.RpcReply(token, reply, len, ref_data, ref_len, grant, completion);
  }
  if (reply_staged_) {
    return base::Status::kInvalidArgument;  // this request already has its reply
  }
  const auto* bytes = static_cast<const uint8_t*>(reply);
  staged_reply_.assign(bytes, bytes + len);
  const auto* ref_bytes = static_cast<const uint8_t*>(ref_data);
  staged_ref_.assign(ref_bytes, ref_bytes + (ref_bytes != nullptr ? ref_len : 0));
  staged_grant_ = grant;
  staged_completion_ = completion;
  reply_staged_ = true;
  return base::Status::kOk;
}

base::Result<RpcRequest> Env::ReplyAndReceive(PortName port, void* buf, uint32_t cap,
                                              RpcRef* ref, uint64_t timeout_ns) {
  base::Result<RpcRequest> rpc =
      reply_staged_
          ? kernel_.RpcReplyAndReceive(serving_token_, staged_reply_.data(),
                                       static_cast<uint32_t>(staged_reply_.size()), port, buf,
                                       cap, ref, staged_ref_.data(),
                                       static_cast<uint32_t>(staged_ref_.size()), staged_grant_,
                                       staged_completion_, timeout_ns)
          : kernel_.RpcReceive(port, buf, cap, ref, timeout_ns);
  reply_staged_ = false;
  serving_token_ = rpc.ok() ? rpc->token : 0;
  return rpc;
}

void Env::FlushStagedReply() {
  if (reply_staged_) {
    reply_staged_ = false;
    (void)kernel_.RpcReply(serving_token_, staged_reply_.data(),
                           static_cast<uint32_t>(staged_reply_.size()), staged_ref_.data(),
                           static_cast<uint32_t>(staged_ref_.size()), staged_grant_,
                           staged_completion_);
  }
  serving_token_ = 0;
}

}  // namespace mk
