// Kernel core: boot, tasks/threads, ports, traps, interrupts, instrumentation.
// VM lives in kernel_vm.cc, RPC in kernel_rpc.cc, legacy IPC in kernel_ipc.cc,
// synchronizers/clocks/timers/IO in kernel_sync.cc.
#include "src/mk/kernel.h"

#include <algorithm>
#include <iostream>

#include "src/base/log.h"
#include "src/mk/analysis/invariants.h"
#include "src/mk/analysis/wait_for_graph.h"
#include "src/mk/trace/exporters.h"
#include "src/mk/vm_object.h"

namespace mk {

namespace {
// Kernel data structures live in their own simulated address range. The
// addresses are never backed by PhysMem storage — only the cache model sees
// them — so the range can sit above RAM.
constexpr hw::PhysAddr kKernelHeapBase = 0x8000'0000ull;

const hw::CodeRegion& TrapEntryRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.trap.entry", Costs::kTrapEntry);
  return r;
}
const hw::CodeRegion& TrapExitRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.trap.exit", Costs::kTrapExit);
  return r;
}
const hw::CodeRegion& CopyLoopRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.lib.copy_loop", 48);
  return r;
}
const hw::CodeRegion& ThreadSelfRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.trap.thread_self", Costs::kThreadSelfBody);
  return r;
}
const hw::CodeRegion& TaskSelfRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.trap.task_self", Costs::kThreadSelfBody);
  return r;
}
const hw::CodeRegion& PortLookupRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.port.lookup", Costs::kPortNameLookup);
  return r;
}
const hw::CodeRegion& PortAllocRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.port.allocate", Costs::kPortAllocate);
  return r;
}
const hw::CodeRegion& PortTransferRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.port.transfer", Costs::kPortRightTransfer);
  return r;
}
const hw::CodeRegion& PortDestroyRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.port.destroy", Costs::kPortDeallocate);
  return r;
}
const hw::CodeRegion& TaskCreateRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.task.create", Costs::kTaskCreate);
  return r;
}
const hw::CodeRegion& ThreadCreateRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.thread.create", Costs::kThreadCreate);
  return r;
}
const hw::CodeRegion& InterruptRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.io.intr_deliver", Costs::kInterruptDeliver);
  return r;
}
const hw::CodeRegion& InterruptReflectRegion() {
  static const hw::CodeRegion r = hw::DefineKernelCode("mk.io.intr_reflect", Costs::kInterruptReflect);
  return r;
}
}  // namespace

Kernel::Kernel(hw::Machine* machine, const KernelConfig& config)
    : machine_(machine), config_(config), scheduler_(this) {
  heap_ = std::make_unique<KernelHeap>(kKernelHeapBase, config.kernel_heap_bytes);
  scheduler_.quantum_cycles = config.quantum_cycles;
  tracer_ = std::make_unique<trace::Tracer>(&machine->cpu(), &scheduler_, config.trace_capacity);
  faults_ = std::make_unique<fault::Injector>(tracer_.get());
  prev_log_cycle_source_ = base::SetLogCycleSource([this] { return cpu().cycles(); });
  prev_log_trace_source_ = base::SetLogTraceSource([this] {
    Thread* t = scheduler_.current();
    return t == nullptr ? uint64_t{0} : t->trace_ctx.trace_id;
  });
  HostInfo info;
  info.name = "wpos-sim";
  info.cpu_mhz = machine->cpu().config().mhz;
  info.memory_bytes = machine->mem().size();
  host_.set_info(info);
}

Kernel::~Kernel() {
  base::SetLogCycleSource(std::move(prev_log_cycle_source_));
  base::SetLogTraceSource(std::move(prev_log_trace_source_));
}

size_t Kernel::Run() {
  scheduler_.Run();
  return Halt();
}

size_t Kernel::Halt() {
  const size_t violations = CheckInvariants();
  if (violations != 0) {
    WPOS_LOG(kError) << "halt: " << violations << " kernel invariant violation(s)";
  }
  analysis::WaitForGraph graph = analysis::WaitForGraph::Build(*this);
  size_t blocked = 0;
  for (const auto& t : threads_) {
    if (t->state() == Thread::State::kBlocked) {
      ++blocked;
      WPOS_LOG(kWarn) << "thread still blocked at halt: " << graph.DescribeBlocked(t.get());
    }
  }
  for (const std::string& cycle : graph.FindCycleReports()) {
    WPOS_LOG(kError) << "deadlock cycle: " << cycle;
  }
  if (config_.profile_at_halt && tracer_->enabled()) {
    trace::WriteFlatProfile(std::cerr, *this);
  }
  return blocked;
}

size_t Kernel::CheckInvariants() const {
  const std::vector<std::string> violations = analysis::CollectViolations(*this);
  for (const std::string& v : violations) {
    WPOS_LOG(kError) << "invariant violation: " << v;
  }
  return violations.size();
}

void Kernel::EnterKernel(const hw::CodeRegion& trap_entry_region) {
  // Explorer preemption point: under a schedule policy, the moment just
  // before a thread traps is where a bounded-preemption search may force a
  // switch (the racy window is before the kernel operation takes effect).
  // A single null test when no policy is installed.
  scheduler_.PreemptPoint();
  ++kernel_entries_;
  if (Thread* t = scheduler_.current(); t != nullptr) {
    ++t->kernel_entries;
  }
  if (config_.invariant_check_interval != 0 &&
      kernel_entries_ % config_.invariant_check_interval == 0) {
    WPOS_CHECK(CheckInvariants() == 0)
        << "kernel invariants violated at entry " << kernel_entries_;
  }
  PollHardware();
  tracer_->Emit(trace::EventType::kTrapEnter, kernel_entries_);
  if (sync_observer_ != nullptr) {
    sync_observer_->OnKernelEnter(scheduler_.current());
  }
  cpu().Stall(Costs::kTrapStallCycles);
  cpu().BusTransactions(Costs::kTrapEntryBus);
  cpu().Execute(trap_entry_region);
}

void Kernel::LeaveKernel() {
  cpu().Execute(TrapExitRegion());
  cpu().BusTransactions(Costs::kTrapExitBus);
  tracer_->Emit(trace::EventType::kTrapExit);
  if (sync_observer_ != nullptr) {
    sync_observer_->OnKernelLeave(scheduler_.current());
  }
  Thread* t = scheduler_.current();
  if (t != nullptr && cpu().cycles() - t->dispatch_cycle > scheduler_.quantum_cycles) {
    scheduler_.Yield();
  }
}

void Kernel::PollHardware() {
  machine_->PollEvents();
  hw::InterruptController& pic = machine_->pic();
  int line;
  while ((line = pic.NextPending()) >= 0) {
    pic.Ack(static_cast<uint32_t>(line));
    DispatchInterrupt(static_cast<uint32_t>(line));
  }
}

void Kernel::DispatchInterrupt(uint32_t line) {
  ++interrupts_delivered_;
  tracer_->Emit(trace::EventType::kInterrupt, line);
  ++tracer_->metrics().Counter("mk.interrupts");
  cpu().Stall(Costs::kContextSwitchStallCycles);  // pipeline drain
  cpu().Execute(InterruptRegion());
  auto it = interrupt_bindings_.find(line);
  if (it == interrupt_bindings_.end()) {
    WPOS_LOG(kDebug) << "unclaimed interrupt line " << line;
    return;
  }
  InterruptBinding& binding = it->second;
  if (binding.kernel_handler) {
    binding.kernel_handler();
  }
  if (binding.reflect_port != nullptr && !binding.reflect_port->dead()) {
    cpu().Execute(InterruptReflectRegion());
    auto qm = std::make_unique<QueuedMessage>();
    qm->msg_id = 0x1000 + line;
    qm->kernel_buffer = heap_->Allocate(64);
    qm->send_cycle = cpu().cycles();
    Port* port = binding.reflect_port;
    if (port->queue.size() >= port->queue_limit) {
      WPOS_LOG(kDebug) << "dropping interrupt notification, queue full, line " << line;
      return;
    }
    port->queue.push_back(std::move(qm));
    WakeOneReceiver(port);
  }
}

void Kernel::RegisterKernelInterrupt(uint32_t line, std::function<void()> handler) {
  interrupt_bindings_[line].kernel_handler = std::move(handler);
}

base::Status Kernel::ReflectInterrupt(Task& task, uint32_t line, PortName port) {
  auto p = task.port_space().LookupReceive(port);
  if (!p.ok()) {
    return p.status();
  }
  interrupt_bindings_[line].reflect_task = &task;
  interrupt_bindings_[line].reflect_port = *p;
  return base::Status::kOk;
}

uint32_t Kernel::IoRead(hw::Device* device, uint32_t reg) {
  static const hw::CodeRegion kRegion = hw::DefineKernelCode("mk.io.reg_access", Costs::kIoRegAccess);
  cpu().Execute(kRegion);
  cpu().AccessUncached(device->reg_base() + reg, 4, /*write=*/false);
  return machine_->DeviceRead(device->reg_base() + reg);
}

void Kernel::IoWrite(hw::Device* device, uint32_t reg, uint32_t value) {
  static const hw::CodeRegion kRegion = hw::DefineKernelCode("mk.io.reg_access", Costs::kIoRegAccess);
  cpu().Execute(kRegion);
  cpu().AccessUncached(device->reg_base() + reg, 4, /*write=*/true);
  machine_->DeviceWrite(device->reg_base() + reg, value);
}

// --- Tasks and threads ---------------------------------------------------------

Task* Kernel::CreateTask(const std::string& name, uint32_t app_footprint_instr) {
  cpu().Execute(TaskCreateRegion());
  const hw::PhysAddr sim_addr = heap_->Allocate(512);
  const hw::PhysAddr pt_base = heap_->Allocate(Pmap::kPteWindowEntries * 4, hw::kPageSize);
  auto task = std::make_unique<Task>(next_task_id_++, name, sim_addr, pt_base);
  if (app_footprint_instr == 0) {
    app_footprint_instr = config_.default_app_footprint;
  }
  task->app_code = hw::DefineKernelCode("app." + name, app_footprint_instr);
  task->set_processor_set(host_.default_pset());
  ++host_.default_pset()->tasks_assigned;
  Port* self = NewPort();
  self->set_receiver(task.get());
  task->set_self_port(self);
  tasks_.push_back(std::move(task));
  return tasks_.back().get();
}

Thread* Kernel::CreateThread(Task* task, const std::string& name, ThreadBody body, int priority) {
  WPOS_CHECK(task != nullptr);
  WPOS_CHECK(priority >= 0 && priority < Thread::kNumPriorities);
  cpu().Execute(ThreadCreateRegion());
  const hw::PhysAddr sim_addr = heap_->Allocate(512);
  const hw::PhysAddr window = heap_->Allocate(Thread::kMsgWindowSize, 64);
  auto thread = std::make_unique<Thread>(next_thread_id_++, task, name, priority, sim_addr, window);
  Thread* t = thread.get();
  t->entry_ = [this, t, body = std::move(body)] {
    Env env(*this, t);
    body(env);
  };
  task->threads().push_back(t);
  threads_.push_back(std::move(thread));
  if (sync_observer_ != nullptr) {
    sync_observer_->OnThreadStart(t, scheduler_.current());
  }
  scheduler_.StartThread(t);
  return t;
}

base::Status Kernel::ThreadJoin(Thread* target) {
  WPOS_CHECK(scheduler_.current() != nullptr) << "ThreadJoin outside thread context";
  if (target->state() == Thread::State::kTerminated) {
    return base::Status::kOk;
  }
  return scheduler_.Block(Thread::State::kBlocked, &target->exit_waiters);
}

void Kernel::TerminateTask(Task* task) {
  if (task->terminated()) {
    return;
  }
  if (sync_observer_ != nullptr) {
    sync_observer_->OnGlobalOp(scheduler_.current());
  }
  task->set_terminated();
  // Notify watchers before tearing the task down so the TaskDeathNotice is
  // ahead of the PortDeathNotices the teardown emits (watcher queues are
  // bounded; the task notice is the one that must land).
  size_t owned_ports = 0;
  for (const auto& port : ports_) {
    if (!port->dead() && port->receiver() == task) {
      ++owned_ports;
    }
  }
  tracer_->Emit(trace::EventType::kTaskDeath, task->id(), owned_ports);
  ++tracer_->metrics().Counter("mk.task_deaths");
  TaskDeathNotice notice{task->id()};
  NotifyDeathWatchers(kTaskDeathMsgId, &notice, sizeof(notice));
  // Destroy every port the task holds the receive right for: queued legacy
  // messages drop, queued RPC callers wake with kPortDead — the same
  // semantics ServerLoop::Stop gives a clean shutdown.
  for (const auto& port : ports_) {
    if (!port->dead() && port->receiver() == task) {
      DestroyPort(port.get());
    }
  }
  // In-flight RPCs served by this task's threads can never be replied to;
  // fail their clients with kPortDead now. Entries whose client belongs to
  // the dying task are dropped — a late reply finds no waiter and returns
  // kInvalidArgument to the server, which is the safe outcome.
  for (auto it = rpc_waiters_.begin(); it != rpc_waiters_.end();) {
    Thread* client = it->second.client;
    Thread* server = it->second.server;
    const bool server_dying = server != nullptr && server->task() == task;
    const bool client_dying = client != nullptr && client->task() == task;
    if (server_dying || client_dying) {
      it = rpc_waiters_.erase(it);
      if (server_dying && !client_dying && client != nullptr &&
          client->state() == Thread::State::kBlocked) {
        client->rpc.completion = base::Status::kPortDead;
        scheduler_.Wake(client, base::Status::kPortDead);
      }
    } else {
      ++it;
    }
  }
  // The task's own threads: pull them out of any rendezvous deque they are
  // parked in (a foreign server's waiting_clients/waiting_servers are raw
  // deques Wake() doesn't know about — left in place, a later rendezvous
  // would hand work to a terminated thread and trip the scheduler's
  // "waking dead thread" check), then abort them. None are kTerminated yet,
  // and Wake() only acts on kBlocked threads, so threads already woken by
  // the port teardown above are skipped safely.
  for (Thread* t : task->threads()) {
    for (const auto& port : ports_) {
      auto& wc = port->waiting_clients;
      wc.erase(std::remove(wc.begin(), wc.end(), t), wc.end());
      auto& ws = port->waiting_servers;
      ws.erase(std::remove(ws.begin(), ws.end(), t), ws.end());
    }
    if (t->state() == Thread::State::kBlocked) {
      scheduler_.Wake(t, base::Status::kAborted);
    }
  }
}

// --- Death notifications ---------------------------------------------------------

base::Status Kernel::RegisterDeathWatcher(Task& task, PortName receive_name) {
  auto port = task.port_space().LookupReceive(receive_name);
  if (!port.ok()) {
    return port.status();
  }
  if (std::find(death_watchers_.begin(), death_watchers_.end(), *port) !=
      death_watchers_.end()) {
    return base::Status::kAlreadyExists;
  }
  death_watchers_.push_back(*port);
  return base::Status::kOk;
}

base::Status Kernel::UnregisterDeathWatcher(Task& task, PortName receive_name) {
  auto port = task.port_space().LookupReceive(receive_name);
  if (!port.ok()) {
    return port.status();
  }
  auto it = std::find(death_watchers_.begin(), death_watchers_.end(), *port);
  if (it == death_watchers_.end()) {
    return base::Status::kNotFound;
  }
  death_watchers_.erase(it);
  return base::Status::kOk;
}

void Kernel::NotifyDeathWatchers(uint32_t msg_id, const void* notice, uint32_t len) {
  if (death_watchers_.empty()) {
    return;
  }
  death_watchers_.erase(std::remove_if(death_watchers_.begin(), death_watchers_.end(),
                                       [](Port* p) { return p->dead(); }),
                        death_watchers_.end());
  for (Port* watcher : death_watchers_) {
    if (watcher->queue.size() >= watcher->queue_limit) {
      // The queue stays bounded. Supervision keys off task death notices, so
      // one makes room by evicting the oldest port death notice (one per
      // destroyed port, e.g. every closed file); left unread, those would
      // otherwise crowd it out. Anything else that meets a full queue drops.
      auto evict = watcher->queue.end();
      if (msg_id == kTaskDeathMsgId) {
        evict = std::find_if(watcher->queue.begin(), watcher->queue.end(),
                             [](const auto& qm) { return qm->msg_id == kPortDeathMsgId; });
      }
      if (evict == watcher->queue.end()) {
        WPOS_LOG(kDebug) << "dropping death notice " << msg_id << ", watcher queue full (port "
                         << watcher->id() << ")";
        continue;
      }
      WPOS_LOG(kDebug) << "evicting a port death notice for a task death notice, watcher queue "
                       << "full (port " << watcher->id() << ")";
      watcher->queue.erase(evict);
    }
    auto qm = std::make_unique<QueuedMessage>();
    qm->msg_id = msg_id;
    qm->inline_data.assign(static_cast<const uint8_t*>(notice),
                           static_cast<const uint8_t*>(notice) + len);
    qm->kernel_buffer = heap_->Allocate(64);
    qm->send_cycle = cpu().cycles();
    watcher->queue.push_back(std::move(qm));
    WakeOneReceiver(watcher);
  }
}

// --- Ports ------------------------------------------------------------------------

void Kernel::WakeOneReceiver(Port* port) {
  if (Thread* receiver = port->blocked_receivers.DequeueFront()) {
    receiver->waiting_on = nullptr;
    scheduler_.Wake(receiver, base::Status::kOk);
    return;
  }
  // Nobody on the port: a receiver may be parked on its port set.
  if (port->member_of != nullptr) {
    if (Thread* receiver = port->member_of->blocked_receivers.DequeueFront()) {
      receiver->waiting_on = nullptr;
      scheduler_.Wake(receiver, base::Status::kOk);
    }
  }
}

Port* Kernel::NewPort() {
  ports_.push_back(std::make_unique<Port>(next_port_id_++, heap_->Allocate(128)));
  return ports_.back().get();
}

void Kernel::DestroyPort(Port* port) {
  port->MarkDead();
  // A dead port keeps no messages and no set linkage; drop them now so the
  // object graph stays consistent (checked by CheckInvariants).
  port->queue.clear();
  if (port->member_of != nullptr) {
    auto& members = port->member_of->set_members;
    members.erase(std::remove(members.begin(), members.end(), port), members.end());
    port->member_of = nullptr;
  }
  for (Port* member : port->set_members) {
    member->member_of = nullptr;
  }
  port->set_members.clear();
  while (Thread* t = port->blocked_receivers.DequeueFront()) {
    t->waiting_on = nullptr;
    scheduler_.Wake(t, base::Status::kPortDead);
  }
  while (Thread* t = port->blocked_senders.DequeueFront()) {
    t->waiting_on = nullptr;
    scheduler_.Wake(t, base::Status::kPortDead);
  }
  for (Thread* t : port->waiting_servers) {
    scheduler_.Wake(t, base::Status::kPortDead);
  }
  port->waiting_servers.clear();
  for (Thread* t : port->waiting_clients) {
    t->rpc.completion = base::Status::kPortDead;
    scheduler_.Wake(t, base::Status::kPortDead);
  }
  port->waiting_clients.clear();
  if (!death_watchers_.empty()) {
    PortDeathNotice notice{port->id()};
    NotifyDeathWatchers(kPortDeathMsgId, &notice, sizeof(notice));
  }
}

base::Result<PortName> Kernel::PortAllocate(Task& task) {
  cpu().Execute(PortAllocRegion());
  Port* port = NewPort();
  port->set_receiver(&task);
  cpu().AccessData(port->sim_addr(), 64, /*write=*/true);
  cpu().AccessData(task.port_space().sim_addr(), 32, /*write=*/true);
  return task.port_space().Insert(port, RightType::kReceive);
}

base::Status Kernel::PortDestroy(Task& task, PortName name) {
  cpu().Execute(PortDestroyRegion());
  auto port = task.port_space().LookupReceive(name);
  if (!port.ok()) {
    return port.status();
  }
  if (sync_observer_ != nullptr) {
    sync_observer_->OnGlobalOp(scheduler_.current());
  }
  DestroyPort(*port);
  return task.port_space().Release(name);
}

base::Status Kernel::PortSetQueueLimit(Task& task, PortName receive_name, uint32_t limit) {
  cpu().Execute(PortLookupRegion());
  auto port = task.port_space().LookupReceive(receive_name);
  if (!port.ok()) {
    return port.status();
  }
  if ((*port)->is_port_set) {
    return base::Status::kInvalidRight;  // sets carry no traffic of their own
  }
  cpu().AccessData((*port)->sim_addr(), 64, /*write=*/true);
  (*port)->rpc_queue_limit = limit;
  return base::Status::kOk;
}

base::Result<PortName> Kernel::MakeSendRight(Task& from, PortName receive_name, Task& to) {
  cpu().Execute(PortTransferRegion());
  auto port = from.port_space().LookupReceive(receive_name);
  if (!port.ok()) {
    return port.status();
  }
  cpu().AccessData(to.port_space().sim_addr(), 32, /*write=*/true);
  return to.port_space().Insert(*port, RightType::kSend);
}

base::Result<PortName> Kernel::MakeReceiveRight(Task& from, PortName receive_name, Task& to) {
  cpu().Execute(PortTransferRegion());
  auto port = from.port_space().LookupReceive(receive_name);
  if (!port.ok()) {
    return port.status();
  }
  cpu().AccessData(to.port_space().sim_addr(), 32, /*write=*/true);
  return to.port_space().Insert(*port, RightType::kReceive);
}

base::Result<PortName> Kernel::PortSetAllocate(Task& task) {
  cpu().Execute(PortAllocRegion());
  Port* set = NewPort();
  set->is_port_set = true;
  set->set_receiver(&task);
  cpu().AccessData(set->sim_addr(), 64, /*write=*/true);
  return task.port_space().Insert(set, RightType::kReceive);
}

base::Status Kernel::PortSetAdd(Task& task, PortName set_name, PortName member_receive) {
  cpu().Execute(PortTransferRegion());
  auto set = task.port_space().LookupReceive(set_name);
  if (!set.ok()) {
    return set.status();
  }
  if (!(*set)->is_port_set) {
    return base::Status::kInvalidRight;
  }
  auto member = task.port_space().LookupReceive(member_receive);
  if (!member.ok()) {
    return member.status();
  }
  if ((*member)->is_port_set) {
    return base::Status::kInvalidArgument;  // sets do not nest
  }
  if ((*member)->member_of != nullptr) {
    return base::Status::kAlreadyExists;
  }
  (*member)->member_of = *set;
  (*set)->set_members.push_back(*member);
  return base::Status::kOk;
}

base::Status Kernel::PortSetRemove(Task& task, PortName set_name, PortName member_receive) {
  auto set = task.port_space().LookupReceive(set_name);
  if (!set.ok()) {
    return set.status();
  }
  auto member = task.port_space().LookupReceive(member_receive);
  if (!member.ok()) {
    return member.status();
  }
  if ((*member)->member_of != *set) {
    return base::Status::kNotFound;
  }
  (*member)->member_of = nullptr;
  auto& members = (*set)->set_members;
  members.erase(std::find(members.begin(), members.end(), *member));
  return base::Status::kOk;
}

base::Result<Port*> Kernel::ResolvePort(Task& task, PortName name) {
  auto right = task.port_space().Lookup(name);
  if (!right.ok()) {
    return right.status();
  }
  return (*right)->port;
}

// --- Traps -------------------------------------------------------------------------

PortName Kernel::TrapThreadSelf() {
  Thread* t = scheduler_.current();
  WPOS_DCHECK(t != nullptr) << "TrapThreadSelf outside thread context";
  EnterKernel(TrapEntryRegion());
  cpu().Execute(ThreadSelfRegion());
  cpu().AccessData(t->sim_addr(), 32, /*write=*/false);
  if (t->self_port() == nullptr) {
    Port* port = NewPort();
    port->set_receiver(t->task());
    t->set_self_port(port);
    cpu().Execute(PortAllocRegion());
    cpu().Execute(PortLookupRegion());
    cpu().AccessData(t->task()->port_space().sim_addr(), 32, /*write=*/true);
    t->set_self_port_name(t->task()->port_space().Insert(port, RightType::kSend));
  } else {
    cpu().Execute(PortLookupRegion());
    cpu().AccessData(t->task()->port_space().sim_addr(), 16, /*write=*/false);
  }
  const PortName name = t->self_port_name();
  LeaveKernel();
  return name;
}

TaskId Kernel::TrapTaskSelf() {
  Thread* t = scheduler_.current();
  WPOS_DCHECK(t != nullptr);
  EnterKernel(TrapEntryRegion());
  cpu().Execute(TaskSelfRegion());
  cpu().AccessData(t->task()->sim_addr(), 16, /*write=*/false);
  const TaskId id = t->task()->id();
  LeaveKernel();
  return id;
}

// --- Instrumentation ------------------------------------------------------------------

void Kernel::ChargeCopy(hw::PhysAddr src, hw::PhysAddr dst, uint64_t len) {
  if (len == 0) {
    return;
  }
  cpu().ExecuteInstructions(CopyLoopRegion(),
                            Costs::kCopyLoopOverhead + len / Costs::kCopyBytesPerInstr);
  const uint32_t line = cpu().config().dcache.line_bytes;
  for (uint64_t off = 0; off < len; off += line) {
    const uint32_t chunk = static_cast<uint32_t>(len - off < line ? len - off : line);
    cpu().AccessData(src + off, chunk, /*write=*/false);
    cpu().AccessData(dst + off, chunk, /*write=*/true);
  }
}

// --- Env ---------------------------------------------------------------------------------

void Env::Compute(uint64_t instructions) {
  kernel_.cpu().ExecuteInstructions(thread_->task()->app_code, instructions);
}

PortName Env::ThreadSelf() {
  static const hw::CodeRegion kStub =
      hw::DefineKernelCode("ustub.thread_self", Costs::kUserTrapStub);
  // The span opens before the user-level stub so its counter delta covers
  // the complete trap as the paper measured it: stub, kernel entry, body,
  // kernel exit.
  const uint64_t span = kernel_.tracer().BeginSpan(trace::SpanKind::kTrap,
                                                   trace::EventType::kTrapCall);
  kernel_.cpu().Execute(kStub);
  const PortName name = kernel_.TrapThreadSelf();
  kernel_.tracer().EndSpan(span, trace::EventType::kTrapReturn);
  return name;
}

}  // namespace mk
