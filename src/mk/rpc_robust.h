// Client-side RPC recovery: deadline, bounded retry, re-resolution.
//
// RpcCallRobust wraps Env::RpcCall with the recovery loop every client of a
// supervised server wants: a per-attempt simulated-time deadline (kTimedOut
// instead of hanging on a dropped reply), bounded retry with exponential
// backoff on transient failures (kBusy), and re-lookup of the destination
// through a caller-supplied resolver when the port is dead or the call timed
// out — which is how a client finds the respawned instance the restart
// manager registered under the same name. When the name cannot be resolved
// or the attempts are exhausted on a dead port, the call returns
// kUnavailable: the service is in degraded mode.
//
// Bulk data rides along unchanged: the RpcRef descriptor (including the
// out-of-line transfer the kernel picks for large payloads) is reset at the
// start of every attempt, so retries never observe a previous attempt's
// partial results.
#ifndef SRC_MK_RPC_ROBUST_H_
#define SRC_MK_RPC_ROBUST_H_

#include <cstdint>
#include <functional>

#include "src/base/status.h"
#include "src/mk/kernel.h"

namespace mk {

// Resolves the service port, e.g. via mks::NameClient::Resolve. Called on
// the first attempt when `*cached_port` is kNullPort and again after any
// failure that invalidates the cached right.
using PortResolver = std::function<base::Result<PortName>(Env&)>;

struct RobustCallOptions {
  // Per-attempt deadline in simulated ns; kForever disables the deadline
  // (then a dropped reply blocks forever, as plain RpcCall would).
  uint64_t attempt_timeout_ns = 2'000'000'000;
  uint32_t max_attempts = 4;
  // Backoff before the 2nd, 3rd, ... attempt; doubles every retry. Gives a
  // restart manager's backoff window time to pass in simulated time.
  uint64_t retry_backoff_ns = 500'000;
  // Deterministic per-thread backoff jitter: each retry sleeps a uniform
  // draw from [backoff/2, backoff] out of a stream seeded by the calling
  // thread's id, so clients of a restarted server fan out instead of
  // re-resolving in lockstep (thundering herd). Same seed, same schedule.
  bool jitter = true;
};

// Calls `port` (resolving it first if `*cached_port` is kNullPort) and
// retries per `opts`. On success `*cached_port` holds a usable send right
// for subsequent calls. Retryable failures: kPortDead / kInvalidName /
// kTimedOut (cached right invalidated, resolver consulted again) and kBusy
// (same right retried). Everything else — including application-level reply
// payloads — is returned as-is.
base::Status RpcCallRobust(Env& env, const PortResolver& resolve, PortName* cached_port,
                           const void* req, uint32_t req_len, void* reply, uint32_t reply_cap,
                           const RobustCallOptions& opts = RobustCallOptions(),
                           uint32_t* reply_len = nullptr, RpcRef* ref = nullptr,
                           PortName* granted = nullptr);

}  // namespace mk

#endif  // SRC_MK_RPC_ROBUST_H_
