// The IBM Microkernel: the central kernel object.
//
// Facilities (paper, "The IBM Microkernel" section): IPC/RPC, tasks and
// threads, virtual memory management, I/O support, hosts and processor sets,
// clocks and timers, synchronizers. IPC is present in both forms: the
// inherited Mach 3.0 mach_msg (queued, asynchronous, reply ports, virtual
// copy) and the reworked RPC (synchronous, no reply ports, no queuing,
// blocked send/receive, physical copy, by-reference bulk data) whose 2-10x
// advantage the paper reports.
//
// All kernel paths are instrumented against the hw::Cpu cost model; see
// src/mk/costs.h for the path-length table.
#ifndef SRC_MK_KERNEL_H_
#define SRC_MK_KERNEL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/log.h"
#include "src/base/status.h"
#include "src/hw/machine.h"
#include "src/mk/costs.h"
#include "src/mk/fault/injector.h"
#include "src/mk/host.h"
#include "src/mk/ids.h"
#include "src/mk/kernel_heap.h"
#include "src/mk/message.h"
#include "src/mk/port.h"
#include "src/mk/scheduler.h"
#include "src/mk/sync_observer.h"
#include "src/mk/task.h"
#include "src/mk/thread.h"
#include "src/mk/trace/tracer.h"
#include "src/mk/vm_map.h"
#include "src/mk/vm_object.h"

namespace mk {

class Env;

namespace analysis {
class Introspector;  // read-only access for the kernel state analyzer
}

using ThreadBody = std::function<void(Env&)>;

struct KernelConfig {
  uint64_t kernel_heap_bytes = 8 * 1024 * 1024;
  uint64_t quantum_cycles = 1'000'000;
  // Instruction-footprint of the generic application region used when a task
  // doesn't specify one.
  uint32_t default_app_footprint = 2048;
  // Debug aid: when non-zero, CheckInvariants() runs on every N-th kernel
  // entry and aborts on the first violation. The analyzer charges no
  // simulated cycles, so enabling it does not perturb measurements — it only
  // costs host time.
  uint64_t invariant_check_interval = 0;
  // Event-ring capacity of the tracer (events kept once tracing is enabled
  // via Kernel::tracer().Enable(); older events drop on overflow). The
  // tracer is host-side bookkeeping and charges no simulated cycles.
  size_t trace_capacity = 64 * 1024;
  // When tracing is enabled, Halt() prints the flat profile to stderr.
  bool profile_at_halt = false;
};

// Result of a server-side RpcReceive.
struct RpcRequest {
  uint64_t token = 0;
  uint64_t arrived_port = 0;  // Port::id() the call arrived on (set receives)
  uint32_t req_len = 0;
  uint32_t ref_len = 0;               // bulk data copied into the posted ref buffer
  std::vector<PortName> rights;       // rights transferred to the server
  TaskId client_task = 0;
};

constexpr uint64_t kForever = ~0ull;

// Kernel-generated legacy messages delivered to death watchers (the Mach
// dead-name notification flavour, broadcast instead of per-name). The
// notice struct is the message's inline data.
constexpr uint32_t kTaskDeathMsgId = 0x4D00;
constexpr uint32_t kPortDeathMsgId = 0x4D01;
// Heartbeat ping a supervised server loop sends to its restart manager's
// health port (see mks::RestartManager watchdog). The ping struct is the
// message's inline data.
constexpr uint32_t kHeartbeatMsgId = 0x4D10;

struct TaskDeathNotice {
  TaskId task = 0;
};

struct PortDeathNotice {
  uint64_t port_id = 0;  // Port::id() of the port that died
};

struct HeartbeatPing {
  TaskId task = 0;
};

class Kernel {
 public:
  explicit Kernel(hw::Machine* machine, const KernelConfig& config = KernelConfig());
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  hw::Machine& machine() { return *machine_; }
  hw::Cpu& cpu() { return machine_->cpu(); }
  Scheduler& scheduler() { return scheduler_; }
  KernelHeap& heap() { return *heap_; }
  Host& host() { return host_; }
  trace::Tracer& tracer() { return *tracer_; }
  fault::Injector& faults() { return *faults_; }
  Thread* current() const { return scheduler_.current(); }
  Task* current_task() const { return scheduler_.current_task(); }

  // Runs the machine until no thread is runnable and no device event is
  // pending. Returns the number of threads still blocked (0 = clean halt).
  size_t Run();

  // Final accounting once the scheduler is idle (called by Run): checks the
  // kernel object-graph invariants, and if threads are still blocked builds
  // a wait-for graph to report *why* each one is blocked — and any deadlock
  // cycle — instead of just how many. Returns the blocked count.
  size_t Halt();

  // Walks the kernel object graph (port rights, queues and wait queues,
  // port-set back-pointers, thread states, in-flight RPCs, counters)
  // checking structural invariants; logs each violation at kError and
  // returns the number found (0 = consistent). See src/mk/analysis/.
  size_t CheckInvariants() const;

  // --- Tasks and threads -------------------------------------------------------
  Task* CreateTask(const std::string& name, uint32_t app_footprint_instr = 0);
  Thread* CreateThread(Task* task, const std::string& name, ThreadBody body,
                       int priority = Thread::kDefaultPriority);
  // Waits (current thread) until `target` terminates.
  base::Status ThreadJoin(Thread* target);
  // Terminates a task: destroys the ports it holds the receive right for
  // (queued and in-flight callers get kPortDead, as with ServerLoop::Stop),
  // fails RPCs the task's threads were serving, aborts its blocked threads,
  // and enqueues a TaskDeathNotice to every registered death watcher.
  // Idempotent.
  void TerminateTask(Task* task);
  const std::vector<std::unique_ptr<Task>>& tasks() const { return tasks_; }

  // --- Ports ---------------------------------------------------------------------
  base::Result<PortName> PortAllocate(Task& task);  // fresh port + receive right
  base::Status PortDestroy(Task& task, PortName name);
  // Creates a send right in `to` for the port named by a *receive* right
  // `receive_name` held by `from`.
  base::Result<PortName> MakeSendRight(Task& from, PortName receive_name, Task& to);
  // Creates a receive right in `to` for the same port. The port's receiver
  // task (teardown ownership) stays with the original allocator; the extra
  // right only lets `to` dequeue — how a forked child inherits a pipe's
  // read end.
  base::Result<PortName> MakeReceiveRight(Task& from, PortName receive_name, Task& to);
  // Bounds the synchronous-RPC rendezvous queue of the port named by a
  // receive right: once `limit` callers are parked in waiting_clients, new
  // callers are shed with kBusy instead of parking (admission control).
  // 0 restores the default unbounded queue.
  base::Status PortSetQueueLimit(Task& task, PortName receive_name, uint32_t limit);
  // Test/diagnostic access.
  base::Result<Port*> ResolvePort(Task& task, PortName name);

  // --- Death notifications --------------------------------------------------------
  // Registers a receive right held by `task` as a death-notification port:
  // every subsequent task death (TerminateTask) enqueues a TaskDeathNotice
  // legacy message to it, and every port death (DestroyPort / MarkDead) a
  // PortDeathNotice. Watchers with full queues drop notices (logged), like
  // interrupt reflection. A watcher port that itself dies is pruned.
  base::Status RegisterDeathWatcher(Task& task, PortName receive_name);
  base::Status UnregisterDeathWatcher(Task& task, PortName receive_name);

  // --- Port sets -----------------------------------------------------------------
  // A port set groups receive rights so one thread can serve many ports
  // (as in Mach). Receiving on the set takes work from any member.
  base::Result<PortName> PortSetAllocate(Task& task);
  base::Status PortSetAdd(Task& task, PortName set, PortName member_receive);
  base::Status PortSetRemove(Task& task, PortName set, PortName member_receive);

  // --- Traps (the Table 2 comparison point) -------------------------------------
  // Returns the current thread's self port name, creating it on first use.
  PortName TrapThreadSelf();
  TaskId TrapTaskSelf();
  uint64_t TrapClockGetTimeNs();

  // --- Reworked RPC ----------------------------------------------------------------
  // Synchronous call on the current thread. Blocks until the server replies.
  // Rights in `rights` are transferred to the server; a right granted back by
  // the server (e.g. an open-file port) is returned in `*granted`.
  // `timeout_ns` bounds the whole call in simulated time (kForever = no
  // deadline, the default — no timer event is scheduled). On expiry the call
  // returns kTimedOut; a reply the server delivers later is dropped safely.
  base::Status RpcCall(PortName port, const void* req, uint32_t req_len, void* reply,
                       uint32_t reply_cap, uint32_t* reply_len = nullptr, RpcRef* ref = nullptr,
                       const RightDescriptor* rights = nullptr, uint32_t rights_count = 0,
                       PortName* granted = nullptr, uint64_t timeout_ns = kForever);
  // Server side: blocks until a request arrives. Request bytes are copied into
  // `buf`; bulk by-reference data into `ref->recv_buf` if posted. `timeout_ns`
  // bounds the park in simulated time (kForever = wait indefinitely); on
  // expiry the receive returns kTimedOut with no request consumed — used by
  // heartbeat-enabled server loops so an idle server still wakes to beat.
  base::Result<RpcRequest> RpcReceive(PortName receive_name, void* buf, uint32_t cap,
                                      RpcRef* ref = nullptr, uint64_t timeout_ns = kForever);
  // Server side: completes the call identified by `token`. `ref_data` is bulk
  // data physically copied into the client's posted receive-ref buffer;
  // `grant` (a name in the server's space) transfers a right to the client.
  base::Status RpcReply(uint64_t token, const void* reply, uint32_t len,
                        const void* ref_data = nullptr, uint32_t ref_len = 0,
                        PortName grant = kNullPort, base::Status completion = base::Status::kOk);
  // Combined reply-and-receive (Mach's mach_msg send+receive, the server-loop
  // fast path): delivers the reply and atomically re-enters receive on
  // `receive_name` in the same kernel entry, so the server is already parked
  // when the client's next call arrives and the rendezvous can hand off
  // directly in both directions. A stale `token` (the client timed out or
  // died) drops the reply and still receives. `timeout_ns` bounds the receive
  // half as in RpcReceive; the reply has landed whatever it returns.
  base::Result<RpcRequest> RpcReplyAndReceive(uint64_t token, const void* reply, uint32_t len,
                                              PortName receive_name, void* buf, uint32_t cap,
                                              RpcRef* ref = nullptr,
                                              const void* reply_ref_data = nullptr,
                                              uint32_t reply_ref_len = 0,
                                              PortName grant = kNullPort,
                                              base::Status completion = base::Status::kOk,
                                              uint64_t timeout_ns = kForever);

  // --- Legacy Mach 3.0 IPC ------------------------------------------------------------
  base::Status MachMsgSend(MachMessage&& msg, uint64_t timeout_ns = kForever);
  base::Status MachMsgReceive(PortName name, MachMessage* out, uint64_t timeout_ns = kForever);

  // --- Virtual memory -----------------------------------------------------------------
  base::Result<hw::VirtAddr> VmAllocate(Task& task, uint64_t size);
  base::Status VmAllocateAt(Task& task, hw::VirtAddr addr, uint64_t size);
  base::Status VmDeallocate(Task& task, hw::VirtAddr addr, uint64_t size);
  base::Status VmProtect(Task& task, hw::VirtAddr addr, uint64_t size, Prot prot);
  base::Result<hw::VirtAddr> VmMapObject(Task& task, std::shared_ptr<VmObject> object,
                                         uint64_t offset, uint64_t size, Prot prot,
                                         bool anywhere, hw::VirtAddr fixed = 0,
                                         Inherit inherit = Inherit::kShare);
  // Coerced memory (IBM extension): shared memory mapped at the same address
  // range in every participating address space.
  base::Result<hw::VirtAddr> VmAllocateCoerced(Task& first, uint64_t size);
  base::Status VmMapCoerced(Task& task, hw::VirtAddr coerced_addr);
  // Fork-style address-space copy honouring entry inheritance; used by the
  // UNIX personality.
  Task* TaskForkVm(Task& parent, const std::string& name);

  // External memory objects (OSF RI flavour): associate the object with a
  // pager port. Faults on absent pages RPC to the pager with the object id.
  uint64_t RegisterPagedObject(std::shared_ptr<VmObject> object, Port* pager_port,
                               uint64_t pager_offset);
  std::shared_ptr<VmObject> LookupPagedObject(uint64_t object_id);

  // --- Managed file-backed objects (mmap support) ------------------------------
  // These only apply to pager-backed objects with dirty tracking enabled
  // (see VmObject::EnableDirtyTracking); the anonymous/default-pager fault
  // paths are untouched.
  //
  // Pushes one dirty page to the object's pager (PagerOp::kDataWrite) from
  // the current thread. Does not clear the dirty bit; pair with
  // VmObjectMarkClean once a range is safely written back.
  base::Status PagerWriteback(Task& task, VmObject* object, uint64_t page_index);
  // Drops resident pages of [first_page, first_page+count) — only clean ones
  // when `clean_only` — and removes every task's translations for mappings
  // backed by `object` (directly or through a shadow chain) so the next
  // touch refaults against the pager's current generation. Returns the
  // number of pages dropped.
  uint64_t VmObjectInvalidate(VmObject* object, uint64_t first_page, uint64_t count,
                              bool clean_only);
  // Clears dirty bits in [first_page, first_page+count) and write-protects
  // live translations of mappings backed directly by `object`, so the next
  // store faults and re-marks the page dirty.
  void VmObjectMarkClean(VmObject* object, uint64_t first_page, uint64_t count);
  // Re-points `object` at the pager backing registered under
  // `fresh_object_id` (a new registration by a restarted server). Resident
  // pages — in particular dirty ones — survive; the registry entry for the
  // fresh id is re-pointed at `object` so later lookups and releases see the
  // surviving object.
  base::Status AdoptPagerBacking(std::shared_ptr<VmObject> object, uint64_t fresh_object_id);
  // Writes back every dirty page of the entry containing `addr` (clipped to
  // [addr, addr+len)) through the pager and marks the range clean. The
  // kernel-level msync; personalities that need crash-consistent replay
  // write through their file session instead and then call
  // VmObjectMarkClean.
  base::Status VmMsync(Task& task, hw::VirtAddr addr, uint64_t len);
  // Sends PagerOp::kObjectTerminate for the object (current thread), drops
  // all of its resident pages and translations, and unregisters it.
  base::Status ReleasePagedObject(uint64_t object_id);

  // --- User memory access (with full fault + cost modelling) ---------------------------
  base::Status CopyOut(Task& task, hw::VirtAddr dst, const void* src, uint64_t len);
  base::Status CopyIn(Task& task, hw::VirtAddr src, void* dst, uint64_t len);
  base::Status UserFill(Task& task, hw::VirtAddr dst, uint8_t byte, uint64_t len);
  base::Status CopyUserToUser(Task& src_task, hw::VirtAddr src, Task& dst_task, hw::VirtAddr dst,
                              uint64_t len);
  // Touch (read or write) a range, faulting pages in; models the access costs
  // without host-visible data movement. Used by synthetic workloads.
  base::Status UserTouch(Task& task, hw::VirtAddr addr, uint64_t len, bool write);
  // Resolve a virtual address for access, running the page-fault path as
  // needed. Returns the physical address.
  base::Result<hw::PhysAddr> ResolveForAccess(Task& task, hw::VirtAddr vaddr, bool write);

  // --- Synchronizers ---------------------------------------------------------------------
  base::Result<uint32_t> SemCreate(uint32_t initial);
  base::Status SemWait(uint32_t sem, uint64_t timeout_ns = kForever);
  base::Status SemSignal(uint32_t sem);
  base::Status SemDestroy(uint32_t sem);
  // Memory-based synchronizers (futex style). The address is resolved in the
  // current task; waiters on the same physical word rendezvous even across
  // address spaces (coerced shared memory).
  base::Status MemSyncWait(hw::VirtAddr addr, uint32_t expected, uint64_t timeout_ns = kForever);
  uint32_t MemSyncWake(hw::VirtAddr addr, uint32_t count);

  // --- Clocks and timers -------------------------------------------------------------------
  uint64_t NowNs();
  uint64_t NowCycles() { return cpu().cycles(); }
  base::Status SleepNs(uint64_t ns);
  // Parks the current thread with no wake scheduled: it stays blocked until
  // something external aborts it (TerminateTask). Models a wedged thread for
  // the kStallTask fault mode; returns the abort status when woken.
  base::Status StallForever();
  // Periodic timer posting an (empty) legacy message to `port` every period.
  base::Result<uint32_t> TimerArmPeriodic(Task& task, PortName port, uint64_t period_ns);
  base::Status TimerCancel(uint32_t timer_id);

  // --- I/O support ----------------------------------------------------------------------------
  // In-kernel interrupt handler (BSD-style drivers).
  void RegisterKernelInterrupt(uint32_t line, std::function<void()> handler);
  // Reflect interrupts on `line` as legacy messages to a user-level driver.
  base::Status ReflectInterrupt(Task& task, uint32_t line, PortName port);
  // Kernel-mediated device register access (charges the uncached access).
  uint32_t IoRead(hw::Device* device, uint32_t reg);
  void IoWrite(hw::Device* device, uint32_t reg, uint32_t value);
  // Process any pending device events/interrupts now (kernel entry point).
  void PollHardware();

  // --- Instrumentation helpers (used by services too) ---------------------------------------
  void ChargeCode(const hw::CodeRegion& region) { cpu().Execute(region); }
  void ChargeCodePartial(const hw::CodeRegion& region, uint64_t instr) {
    cpu().ExecuteInstructions(region, instr);
  }
  // Models a tight copy loop moving `len` bytes between two simulated
  // physical buffers (instructions + D-cache traffic on both).
  void ChargeCopy(hw::PhysAddr src, hw::PhysAddr dst, uint64_t len);
  // Touch kernel data (object headers etc.) through the D-cache.
  void ChargeKernelData(hw::PhysAddr addr, uint32_t size, bool write) {
    cpu().AccessData(addr, size, write);
  }
  hw::CpuCounters Counters() const { return machine_->cpu().counters(); }

  // Trap-side cost bracketing, public so personality fast paths can model
  // system-call-like entries of their own.
  void EnterKernel(const hw::CodeRegion& trap_entry_region);
  void LeaveKernel();

  // Installs (or clears, with nullptr) the concurrency checker's observer of
  // synchronization events. Host-side bookkeeping only: no simulated cycles
  // are charged on its behalf, and with none installed every hook site is a
  // single null test. See src/mk/sync_observer.h.
  void set_sync_observer(SyncObserver* observer) { sync_observer_ = observer; }
  SyncObserver* sync_observer() const { return sync_observer_; }

  uint64_t rpc_calls() const { return rpc_calls_; }
  uint64_t mach_msgs() const { return mach_msgs_; }
  uint64_t interrupts_delivered() const { return interrupts_delivered_; }

 private:
  friend class Scheduler;
  friend class analysis::Introspector;

  struct Semaphore {
    uint32_t count = 0;
    WaitQueue waiters;
    hw::PhysAddr sim_addr = 0;
    bool alive = true;
  };

  struct PeriodicTimer {
    Task* task = nullptr;
    Port* port = nullptr;
    uint64_t period_cycles = 0;
    bool cancelled = false;
  };

  Port* NewPort();
  void DestroyPort(Port* port);
  // Wakes one thread blocked receiving on `port` or on its port set.
  void WakeOneReceiver(Port* port);
  base::Status RpcCallOnPort(Port* port, const void* req, uint32_t req_len, void* reply,
                             uint32_t reply_cap, uint32_t* reply_len, RpcRef* ref,
                             const RightDescriptor* rights, uint32_t rights_count,
                             PortName* granted, uint64_t timeout_ns);
  // Charge a translated user-memory access (TLB + D-cache) for `task` to
  // [vaddr, vaddr+len), which lies in one page and resolves to `pa`: one
  // access per line-sized step from `vaddr`, as a copy loop issues them.
  void AccessUser(Task& task, hw::VirtAddr vaddr, hw::PhysAddr pa, uint64_t len, bool write);
  // Virtual-copy snapshot of [addr, addr+size) for legacy OOL transfer:
  // returns an object that sees the current contents; later writes by the
  // sender COW away from it.
  base::Result<std::shared_ptr<VmObject>> SnapshotForOol(Task& task, hw::VirtAddr addr,
                                                         uint64_t size);
  // Copies `len` bytes between host buffers while charging simulated costs
  // against the two threads' message windows.
  void CopyMessageBytes(const void* src, void* dst, uint64_t len, Thread* from, Thread* to);
  // Charges the out-of-line transfer of `len` bulk bytes from `from` to
  // `to`: per-page reference/map work plus page-table traffic, no per-byte
  // copy loop. Used by the RPC ref paths above the OOL threshold.
  void ChargeOolTransfer(Thread* from, Thread* to, uint64_t len);
  base::Status TransferRights(Task& from, Task& to, const RightDescriptor* rights, uint32_t count,
                              std::vector<PortName>* out_names);
  void DeliverRpcToServer(Thread* client, Thread* server);
  // Ends a server's park on `port` that returned `st` != kOk. Returns true
  // when a caller delivered a request after the server's timed wake made it
  // ready but before it ran (that caller's Wake found a ready thread and left
  // kTimedOut standing): the request is served, not lost with its caller
  // blocked forever. Otherwise takes the server off the port's deque.
  bool ParkEndedWithRequest(Port* port, Thread* server, base::Status st);
  base::Status DeliverReply(Thread* server, Thread* client, const void* reply, uint32_t len,
                            const void* ref_data, uint32_t ref_len, PortName grant,
                            base::Status completion);
  // The reply half shared by RpcReply and RpcReplyAndReceive, run inside the
  // caller's kernel entry: claims the waiter for `token`, fires the reply
  // fault point and delivers. Sets `*client` to the thread to resume
  // (nullptr when the fault point dropped the reply) and returns kOk;
  // returns kInvalidArgument for a stale token; after a crash or kill-port
  // fault it has already left the kernel and returns kAborted or kPortDead.
  base::Status ReplyToWaiter(Thread* server, uint64_t token, const void* reply, uint32_t len,
                             const void* ref_data, uint32_t ref_len, PortName grant,
                             base::Status completion, Thread** client);
  base::Status FaultIn(Task& task, VmMapEntry* entry, hw::VirtAddr vaddr, bool write,
                       hw::PhysAddr* out_pa);
  base::Status PagerFill(Task& task, VmObject* object, uint64_t page_index, hw::PhysAddr frame);
  void ArmTimer(uint32_t timer_id);
  void StartTimedWake(Thread* t, uint64_t timeout_ns);
  void ClearTimedWake(Thread* t);
  void DispatchInterrupt(uint32_t line);
  // Enqueues a death notice (msg_id + notice payload bytes) to every live
  // registered watcher port; prunes watchers whose port has died.
  void NotifyDeathWatchers(uint32_t msg_id, const void* notice, uint32_t len);

  hw::Machine* machine_;
  KernelConfig config_;
  std::unique_ptr<KernelHeap> heap_;
  SyncObserver* sync_observer_ = nullptr;
  Scheduler scheduler_;
  std::unique_ptr<trace::Tracer> tracer_;
  std::unique_ptr<fault::Injector> faults_;
  Host host_;

  std::vector<std::unique_ptr<Task>> tasks_;
  std::vector<std::unique_ptr<Thread>> threads_;
  std::vector<std::unique_ptr<Port>> ports_;
  TaskId next_task_id_ = 1;
  ThreadId next_thread_id_ = 1;
  uint64_t next_port_id_ = 1;
  uint64_t next_rpc_token_ = 1;
  // In-flight RPCs by token; lets any thread of the server task reply
  // (deferred replies, e.g. a driver ISR completing a queued receive). The
  // thread that received the request is recorded so the wait-for-graph
  // analyzer can resolve client -> server edges exactly.
  struct RpcInFlight {
    Thread* client = nullptr;
    Thread* server = nullptr;
  };
  std::unordered_map<uint64_t, RpcInFlight> rpc_waiters_;

  // Ports registered via RegisterDeathWatcher, in registration order.
  std::vector<Port*> death_watchers_;

  std::unordered_map<uint32_t, Semaphore> semaphores_;
  uint32_t next_sem_id_ = 1;
  // Memory synchronizer wait queues keyed by physical word address.
  std::unordered_map<uint64_t, WaitQueue> memsync_waiters_;

  std::unordered_map<uint32_t, PeriodicTimer> timers_;
  uint32_t next_timer_id_ = 1;

  std::unordered_map<uint64_t, std::shared_ptr<VmObject>> paged_objects_;
  uint64_t next_object_id_ = 1;

  struct CoercedRegion {
    hw::VirtAddr addr = 0;
    uint64_t size = 0;
    std::shared_ptr<VmObject> object;
  };
  std::vector<CoercedRegion> coerced_;
  hw::VirtAddr next_coerced_ = VmMap::kCoercedMin;

  struct InterruptBinding {
    std::function<void()> kernel_handler;
    Task* reflect_task = nullptr;
    Port* reflect_port = nullptr;
  };
  std::unordered_map<uint32_t, InterruptBinding> interrupt_bindings_;

  uint64_t rpc_calls_ = 0;
  uint64_t mach_msgs_ = 0;
  uint64_t interrupts_delivered_ = 0;

  // Kernel entries since boot; drives the invariant-check cadence.
  uint64_t kernel_entries_ = 0;
  // Cycle source active before this kernel registered its clock with the
  // logger; restored on destruction. Same for the causal-trace-id source.
  base::LogCycleSource prev_log_cycle_source_;
  base::LogTraceSource prev_log_trace_source_;
  // Monotonicity snapshot for CheckInvariants: counters must never regress
  // between two successive checks. Mutable because checking is const.
  mutable uint64_t last_rpc_calls_ = 0;
  mutable uint64_t last_mach_msgs_ = 0;
  mutable std::unordered_map<uint64_t, std::pair<uint64_t, uint64_t>> last_port_counters_;
};

// Per-thread user-level view of the system: what "user code" (workloads,
// servers, personality libraries) programs against. Wrappers charge the
// user-level stub costs before entering the kernel.
class Env {
 public:
  Env(Kernel& kernel, Thread* thread) : kernel_(kernel), thread_(thread) {}

  Kernel& kernel() { return kernel_; }
  Thread* thread() { return thread_; }
  Task& task() { return *thread_->task(); }

  // Model application-level computation: `instructions` executed from this
  // task's application code region (wrapping around its footprint).
  void Compute(uint64_t instructions);

  // Convenience wrappers on the kernel interface for the current thread/task.
  base::Result<PortName> PortAllocate() { return kernel_.PortAllocate(task()); }
  PortName ThreadSelf();
  base::Status RpcCall(PortName port, const void* req, uint32_t req_len, void* reply,
                       uint32_t reply_cap, uint32_t* reply_len = nullptr, RpcRef* ref = nullptr,
                       const RightDescriptor* rights = nullptr, uint32_t rights_count = 0,
                       PortName* granted = nullptr, uint64_t timeout_ns = kForever) {
    return kernel_.RpcCall(port, req, req_len, reply, reply_cap, reply_len, ref, rights,
                           rights_count, granted, timeout_ns);
  }
  base::Result<RpcRequest> RpcReceive(PortName port, void* buf, uint32_t cap,
                                      RpcRef* ref = nullptr, uint64_t timeout_ns = kForever) {
    return kernel_.RpcReceive(port, buf, cap, ref, timeout_ns);
  }
  // Inside a ServerLoop handler, a reply to the request being served is
  // staged: the bytes, the ref data and the grant are copied (the handler's
  // buffers die with it) and the loop delivers them with its next receive
  // in one RpcReplyAndReceive trap. A second reply to that request gets
  // kInvalidArgument, as from the kernel. Any other token (a deferred reply,
  // such as a lock waiter's) traps at once.
  base::Status RpcReply(uint64_t token, const void* reply, uint32_t len,
                        const void* ref_data = nullptr, uint32_t ref_len = 0,
                        PortName grant = kNullPort,
                        base::Status completion = base::Status::kOk);
  // The ServerLoop's one receive: delivers the staged reply, if any, with the
  // receive (RpcReplyAndReceive), else receives plainly (RpcReceive). A
  // request received here is the one whose reply RpcReply stages next.
  base::Result<RpcRequest> ReplyAndReceive(PortName port, void* buf, uint32_t cap, RpcRef* ref,
                                           uint64_t timeout_ns);
  // Delivers a staged reply with a plain RpcReply and stops staging: for a
  // loop that ends, or stops, between a handler and its next receive.
  void FlushStagedReply();
  base::Status MachMsgReceive(PortName port, MachMessage* out, uint64_t timeout_ns = kForever) {
    return kernel_.MachMsgReceive(port, out, timeout_ns);
  }
  base::Result<hw::VirtAddr> VmAllocate(uint64_t size) { return kernel_.VmAllocate(task(), size); }
  base::Status CopyOut(hw::VirtAddr dst, const void* src, uint64_t len) {
    return kernel_.CopyOut(task(), dst, src, len);
  }
  base::Status CopyIn(hw::VirtAddr src, void* dst, uint64_t len) {
    return kernel_.CopyIn(task(), src, dst, len);
  }
  base::Status Touch(hw::VirtAddr addr, uint64_t len, bool write) {
    return kernel_.UserTouch(task(), addr, len, write);
  }
  base::Status SleepNs(uint64_t ns) { return kernel_.SleepNs(ns); }
  uint64_t NowNs() { return kernel_.NowNs(); }
  void Yield() { kernel_.scheduler().Yield(); }

 private:
  Kernel& kernel_;
  Thread* thread_;
  // ServerLoop reply staging (see RpcReply). Token 0 is never issued.
  uint64_t serving_token_ = 0;
  bool reply_staged_ = false;
  std::vector<uint8_t> staged_reply_;
  std::vector<uint8_t> staged_ref_;
  PortName staged_grant_ = kNullPort;
  base::Status staged_completion_ = base::Status::kOk;
};

}  // namespace mk

#endif  // SRC_MK_KERNEL_H_
