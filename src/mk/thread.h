// Kernel threads. Each simulated thread is a ucontext green thread with its
// own host stack; the scheduler switches between them and the kernel's main
// context. All scheduling is deterministic.
#ifndef SRC_MK_THREAD_H_
#define SRC_MK_THREAD_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/hw/types.h"
#include "src/mk/ids.h"
#include "src/mk/port.h"
#include "src/mk/wait_queue.h"

namespace mk {

class Task;

// How by-reference bulk data crosses address spaces at rendezvous time.
// kAuto lets the kernel pick: transfers of at least
// Costs::kRpcOolThresholdBytes move out-of-line (page reference + remap, no
// per-byte copy loop); smaller ones go through the physical copy loop whose
// constant cost beats page bookkeeping. kCopy / kOol force one path — the
// benches use kCopy to measure what zero-copy saves.
enum class RpcBulkMode : uint8_t {
  kAuto = 0,
  kCopy,
  kOol,
};

// Bulk-data descriptor for the reworked RPC: data too large for the message
// body is passed by reference and either physically copied or remapped
// out-of-line across address spaces by the kernel at rendezvous time.
struct RpcRef {
  const void* send_data = nullptr;  // client -> server bulk data
  uint32_t send_len = 0;
  void* recv_buf = nullptr;  // buffer for server -> client bulk data
  uint32_t recv_cap = 0;
  uint32_t recv_len = 0;  // filled by the kernel on reply
  RpcBulkMode send_mode = RpcBulkMode::kAuto;  // request-direction transfer
  RpcBulkMode recv_mode = RpcBulkMode::kAuto;  // reply-direction transfer
  // Filled by the kernel: whether the last transfer in each direction went
  // out-of-line. On a server-posted ref, recv_ool describes the request
  // data; on a client ref, sent_ool the request and recv_ool the reply.
  bool sent_ool = false;
  bool recv_ool = false;
};

struct RightDescriptor;  // message.h

// Causal-tracing context carried by every thread: which request (trace_id)
// the thread is currently working for, and the innermost open span of that
// request (span_id — the parent of any span the thread opens next). The
// kernel propagates it across RPC rendezvous so one user-visible operation
// renders as a single tree no matter how many servers it hops through.
// Both fields stay 0 while tracing is detached; all maintenance is
// host-side bookkeeping that charges no simulated cycles.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
};

class Thread {
 public:
  enum class State : uint8_t {
    kEmbryo,      // created, not yet started
    kReady,       // on a run queue
    kRunning,     // the current thread
    kBlocked,     // waiting (IPC, sync, sleep, page-in)
    kTerminated,  // body returned or killed
  };

  static constexpr int kNumPriorities = 32;
  static constexpr int kDefaultPriority = 16;

  Thread(ThreadId id, Task* task, std::string name, int priority, hw::PhysAddr sim_addr,
         hw::PhysAddr msg_window);
  ~Thread();

  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;

  ThreadId id() const { return id_; }
  Task* task() const { return task_; }
  const std::string& name() const { return name_; }
  int priority() const { return priority_; }
  void set_priority(int p) { priority_ = p; }
  State state() const { return state_; }
  hw::PhysAddr sim_addr() const { return sim_addr_; }
  // Simulated address window standing in for this thread's user-level message
  // buffers (stack/heap) in the cache model.
  hw::PhysAddr msg_window() const { return msg_window_; }
  static constexpr uint64_t kMsgWindowSize = 64 * 1024;

  Port* self_port() const { return self_port_; }
  void set_self_port(Port* p) { self_port_ = p; }
  PortName self_port_name() const { return self_port_name_; }
  void set_self_port_name(PortName n) { self_port_name_ = n; }

  // --- Wait bookkeeping -------------------------------------------------------
  // Why the last block ended: kOk (woken normally), kTimedOut, kAborted.
  base::Status wait_status = base::Status::kOk;
  WaitQueue* waiting_on = nullptr;
  uint64_t wake_deadline = 0;  // cycle of a pending timed wake, 0 = none
  uint64_t wake_generation = 0;

  // Threads waiting for this thread to terminate (join).
  WaitQueue exit_waiters;

  // --- RPC rendezvous state ------------------------------------------------------
  struct RpcState {
    // Client side (valid while blocked in RpcCall):
    const void* req_data = nullptr;
    uint32_t req_len = 0;
    void* reply_buf = nullptr;
    uint32_t reply_cap = 0;
    uint32_t reply_len = 0;
    RpcRef* ref = nullptr;
    const RightDescriptor* req_rights = nullptr;
    uint32_t req_rights_count = 0;
    PortName granted_right = kNullPort;  // right received with the reply
    base::Status completion = base::Status::kOk;
    Port* port = nullptr;
    // Tracer span covering this call (0 when tracing is disabled). Server-
    // side delivery/reply code marks phase boundaries on the client's span.
    uint64_t span_id = 0;

    // Server side (valid between RpcReceive and RpcReply):
    Thread* client = nullptr;
    uint64_t token = 0;
    uint64_t arrived_port = 0;
    void* srv_buf = nullptr;
    uint32_t srv_cap = 0;
    RpcRef* srv_ref = nullptr;
    uint32_t srv_req_len = 0;
    uint32_t srv_ref_len = 0;
    std::vector<PortName> srv_rights;
    TaskId srv_client_task = 0;
  };
  RpcState rpc;

  // --- Causal-tracing context ----------------------------------------------------
  // Maintained by trace::Tracer (span begin/end on this thread) and by the
  // kernel RPC paths (request delivery binds the server thread to the
  // client's context; the reply unbinds it). Zero while tracing is off.
  TraceContext trace_ctx;

  // --- Legacy IPC state --------------------------------------------------------
  Port* ipc_receiving_from = nullptr;

  // --- Scheduling --------------------------------------------------------------
  uint64_t dispatch_cycle = 0;   // when this thread last went on-CPU
  uint64_t cpu_cycles_used = 0;  // accumulated on-CPU cycles
  uint64_t kernel_entries = 0;   // traps this thread made (Kernel::EnterKernel)

 private:
  friend class Scheduler;
  friend class Kernel;

  ThreadId id_;
  Task* task_;
  std::string name_;
  int priority_;
  State state_ = State::kEmbryo;
  hw::PhysAddr sim_addr_;
  hw::PhysAddr msg_window_;
  Port* self_port_ = nullptr;
  PortName self_port_name_ = kNullPort;

  // Host execution context (see src/mk/context.h). The stack is
  // mmap-allocated with a PROT_NONE guard page below it so an overflow
  // faults immediately instead of corrupting the heap.
  void* ctx_sp_ = nullptr;
  uint8_t* stack_ = nullptr;
  size_t stack_bytes_ = 0;
  std::function<void()> entry_;
  bool started_ = false;

  void set_state(State s) { state_ = s; }
};

}  // namespace mk

#endif  // SRC_MK_THREAD_H_
