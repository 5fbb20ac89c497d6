// The file server: the archetypal personality-neutral shared service.
//
// A separate user-level task providing generic file service over an extended
// vnode architecture (multiple physical file systems mounted into one rooted
// tree, integrated with the name service), with the *union* of the
// personalities' stateful semantics implemented server-side:
//   - OS/2: deny-mode sharing, delete-on-close, extended attributes,
//     case-insensitive lookup;
//   - UNIX: append mode, byte-range locks, case-sensitive lookup;
//   - TalOS: case-insensitive opens over case-preserving stores.
// Open files are tracked per handle with a port granted to the client (the
// paper: "heavy use of ports to manage open files").
#ifndef SRC_SVC_FS_FILE_SERVER_H_
#define SRC_SVC_FS_FILE_SERVER_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/mk/kernel.h"
#include "src/mk/pager_protocol.h"
#include "src/mk/rpc_robust.h"
#include "src/mk/server_loop.h"
#include "src/mks/naming/name_server.h"
#include "src/svc/fs/fs_cache.h"
#include "src/svc/fs/pfs.h"
#include "src/svc/fs/protocol.h"

namespace svc {

class FileServer {
 public:
  // `handle_base` is where handle numbering starts. A restart factory passes
  // a per-generation base so a client's stale handle from the crashed
  // instance can never alias a live handle on the respawn — it fails with
  // kInvalidArgument and a name-bound FsClient re-opens.
  FileServer(mk::Kernel& kernel, mk::Task* task, uint64_t handle_base = 1);

  // Mounts `pfs` at `prefix` (e.g. "/os2"). Must happen before Run serves
  // requests that touch the prefix. The PFS must already be formatted.
  base::Status AddMount(const std::string& prefix, Pfs* pfs);

  mk::Task* task() const { return task_; }
  mk::PortName receive_port() const { return receive_port_; }
  mk::PortName GrantTo(mk::Task& client);
  void Stop() { loop_->Stop(); }

  // Turns the server into a pager: allocates a second service port, spawns a
  // "fs-pager" thread serving PagerOp requests against the mounted files, and
  // lets kMapObject export kernel memory objects for open files. Default-off:
  // without this call kMapObject answers kNotSupported and no extra thread
  // exists, so existing workloads are bit-identical. Call before Run.
  void EnableMapping();
  bool mapping_enabled() const { return pager_loop_ != nullptr; }

  // Arms watchdog heartbeats (see mk::ServerLoop::EnableHeartbeat). Call
  // before the server thread starts serving.
  void EnableHeartbeat(mk::PortName health_right, uint64_t every_requests, uint64_t every_ns) {
    loop_->EnableHeartbeat(health_right, every_requests, every_ns);
  }

  uint64_t opens() const { return opens_; }
  uint64_t reads() const { return reads_; }
  uint64_t writes() const { return writes_; }
  size_t open_files() const { return open_files_.size(); }
  uint64_t pageins() const { return pageins_; }
  uint64_t pageouts() const { return pageouts_; }
  size_t mapped_objects() const { return map_objects_.size(); }

 private:
  struct Mount {
    std::string prefix;  // "/", "/os2", ... canonical, no trailing slash
    Pfs* pfs = nullptr;
  };

  struct LockRange {
    uint64_t start = 0;
    uint64_t len = 0;
    bool exclusive = false;
    uint64_t handle = 0;
  };

  // Shared, per-file state (all opens of the same node).
  struct NodeState {
    uint32_t open_count = 0;
    uint32_t deny_write = 0;  // opens holding deny-write or deny-all
    uint32_t deny_all = 0;
    uint32_t writers = 0;
    bool delete_on_close = false;
    NodeId parent = 0;
    std::string name;  // for delete-on-close
    std::vector<LockRange> locks;
  };

  struct OpenFile {
    Mount* mount = nullptr;
    NodeId node = 0;
    uint32_t flags = 0;
    FsShare share = FsShare::kDenyNone;
    mk::PortName file_port = mk::kNullPort;  // identity object granted to the client
    hw::PhysAddr sim_addr = 0;
  };

  // One mapped file: the kernel VmObject exported for a node, shared by every
  // client mapping it. `map_count` counts kMapObject grants minus kMapRelease
  // drops; the state dies when the last mapping's kObjectTerminate arrives.
  struct MapObjectState {
    std::shared_ptr<mk::VmObject> object;
    uint64_t object_id = 0;
    uint32_t map_count = 0;
    Mount* mount = nullptr;
    NodeId node = 0;
  };

  void HandlePageIn(mk::Env& env, const mk::RpcRequest& rpc, const mk::PagerRequest& req);
  void HandlePageOut(mk::Env& env, const mk::RpcRequest& rpc, const mk::PagerRequest& req,
                     const uint8_t* page, uint32_t page_len);
  void HandleObjectSetup(mk::Env& env, const mk::RpcRequest& rpc, const mk::PagerRequest& req);
  void HandleObjectTerminate(mk::Env& env, const mk::RpcRequest& rpc,
                             const mk::PagerRequest& req);
  // Drops clean resident pages of the node's mapped object overlapping
  // [offset, offset+len) so mapped readers refault and observe a write made
  // through the file API. No-op when the node isn't mapped.
  void InvalidateMappedRange(Mount* mount, NodeId node, uint64_t offset, uint64_t len);
  // The mount serving absolute `path`, with the path below the mount point
  // in `rest`. kInvalidArgument unless `path` starts with '/'; kNotFound
  // when no mount covers it.
  base::Result<Mount*> MountFor(const std::string& path, std::string* rest);
  // Walks `rest` within `mount`; returns the final node and (optionally) its
  // parent + leaf name. Honours kFsCaseInsensitive over case-sensitive PFSes
  // by falling back to a directory scan (one of the union-semantics costs).
  base::Result<NodeId> Walk(mk::Env& env, Mount* mount, const std::string& rest,
                            bool case_insensitive, NodeId* parent, std::string* leaf,
                            bool stop_at_parent);
  base::Result<NodeId> LookupChild(mk::Env& env, Mount* mount, NodeId dir,
                                   const std::string& name, bool case_insensitive);

  void HandleOpen(mk::Env& env, const mk::RpcRequest& rpc, const FsRequest& r);
  void HandleClose(mk::Env& env, const mk::RpcRequest& rpc, const FsRequest& r);
  void HandleRead(mk::Env& env, const mk::RpcRequest& rpc, const FsRequest& r);
  void HandleWrite(mk::Env& env, const mk::RpcRequest& rpc, const FsRequest& r,
                   const uint8_t* data, uint32_t data_len);
  void HandleReadV(mk::Env& env, const mk::RpcRequest& rpc, const FsRequest& r,
                   const uint8_t* ref_data, uint32_t ref_len);
  void HandleWriteV(mk::Env& env, const mk::RpcRequest& rpc, const FsRequest& r,
                    const uint8_t* ref_data, uint32_t ref_len);
  void HandlePathOp(mk::Env& env, const mk::RpcRequest& rpc, const FsRequest& r);
  void HandleLock(mk::Env& env, const mk::RpcRequest& rpc, const FsRequest& r);
  void HandleStat(mk::Env& env, const mk::RpcRequest& rpc, const FsRequest& r);
  void HandleSetSize(mk::Env& env, const mk::RpcRequest& rpc, const FsRequest& r);
  void HandleMapObject(mk::Env& env, const mk::RpcRequest& rpc, const FsRequest& r);
  void HandleMapRelease(mk::Env& env, const mk::RpcRequest& rpc, const FsRequest& r);

  bool LockConflicts(const NodeState& state, uint64_t start, uint64_t len, bool exclusive,
                     uint64_t handle) const;

  std::pair<uint64_t, uint64_t> NodeKey(Mount* m, NodeId n) const {
    return {reinterpret_cast<uint64_t>(m), n};
  }

  mk::Kernel& kernel_;
  mk::Task* task_;
  mk::PortName receive_port_ = mk::kNullPort;
  std::unique_ptr<mk::ServerLoop<FsRequest>> loop_;
  std::vector<std::unique_ptr<Mount>> mounts_;  // longest prefix wins
  std::map<uint64_t, OpenFile> open_files_;
  std::map<std::pair<uint64_t, uint64_t>, NodeState> node_states_;
  uint64_t next_handle_ = 1;
  uint64_t opens_ = 0;
  uint64_t reads_ = 0;
  uint64_t writes_ = 0;
  // --- Mapping/pager state (EnableMapping) ---
  std::unique_ptr<mk::ServerLoop<mk::PagerRequest>> pager_loop_;  // null = mapping off
  mk::Port* pager_port_raw_ = nullptr;
  std::vector<uint8_t> pager_io_;  // a full readahead batch
  std::map<uint64_t, MapObjectState> map_objects_;              // by object id
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> node_map_;  // NodeKey -> object id
  uint64_t pageins_ = 0;
  uint64_t pageouts_ = 0;
};

// Client-side scatter/gather descriptors for FsClient::ReadV/WriteV. Each
// extent names its own file offset and buffer; one RPC moves all of them.
struct FsReadExtent {
  uint64_t offset = 0;
  void* buf = nullptr;
  uint32_t len = 0;
};
struct FsWriteExtent {
  uint64_t offset = 0;
  const void* buf = nullptr;
  uint32_t len = 0;
};

// FsClient::MapObject result: the kernel memory-object id the server exported
// for the file, plus the file size at map time.
struct FsMapping {
  uint64_t object_id = 0;
  uint64_t size = 0;
};

// Client library: the RPC stubs a personality links against.
//
// One client, two bindings: every op, request builder and cache hook exists
// once, and only the private Call differs. A port-bound client sends through
// a ClientStub to one service port. A name-bound client resolves the server
// through the name service and sends through mk::RpcCallRobust, so it rides
// out a crash and restart-manager respawn: each Open records its path, flags,
// share and the binding epoch (bumped on every (re-)resolution), and a handle
// from an earlier epoch that the server no longer knows is re-opened. The
// file server keeps its state on the simulated disk, so the crash is
// invisible to the caller.
class FsClient : private FsCacheBackend {
 public:
  // Port-bound. `call_timeout_ns` bounds every RPC in simulated time
  // (kForever = none): a wedged server then surfaces as kTimedOut instead of
  // a hung client. The epoch never moves, so this client never re-opens.
  explicit FsClient(mk::PortName service, uint64_t call_timeout_ns = mk::kForever);

  // Name-bound. `name_service` is a send right to the name service in the
  // caller's task; `fs_name` is the name the file server (and its respawns)
  // register under. The caller keeps the handle its first Open returned;
  // after a re-open the client maps it to the respawn's handle. That relies
  // on the per-generation `handle_base` every restart factory passes to
  // FileServer: a handle from a dead generation never aliases a live one,
  // and a handle that was never re-opened is the server's own, so copies of
  // it (UnixProcess::Fork's fd table) keep working through another client.
  // Calls are at-least-once: a reply lost to a crash is retried, so an Open
  // may leave an orphaned open on the instance that died, and a retried open
  // with a restrictive deny-mode may be refused. Re-opens strip kFsExclusive
  // and kFsTruncate. When the restart manager has given up on the server,
  // calls return kUnavailable.
  FsClient(mk::PortName name_service, std::string fs_name,
           const mk::RobustCallOptions& opts = mk::RobustCallOptions());

  // Re-bounds every subsequent RPC attempt (in-flight calls keep their
  // deadline).
  void set_call_timeout_ns(uint64_t ns);

  // Turns on the client-side cache (attr + read-ahead + write-behind), keyed
  // by the caller's handles. Default-off: until this call every operation is
  // a straight RPC and the committed bench baselines are reproduced
  // bit-for-bit.
  void EnableCache(const FsCacheOptions& opts = FsCacheOptions());
  FsCache* cache() { return cache_.get(); }
  // Coherence hook for restart-manager death notices: drops clean cached
  // state, as a re-open does, without needing an Env.
  void OnServerDeath() {
    if (cache_ != nullptr) {
      cache_->BumpGeneration();
    }
  }
  // Files re-opened after a re-binding (always 0 when port-bound).
  uint64_t reopens() const { return reopens_; }

  base::Result<uint64_t> Open(mk::Env& env, const std::string& path, uint32_t flags = 0,
                              FsShare share = FsShare::kDenyNone);
  base::Status Close(mk::Env& env, uint64_t handle);
  base::Result<uint32_t> Read(mk::Env& env, uint64_t handle, uint64_t offset, void* out,
                              uint32_t len);
  base::Result<uint32_t> Write(mk::Env& env, uint64_t handle, uint64_t offset, const void* data,
                               uint32_t len);
  // Scatter read / gather write: up to kFsMaxExtents extents (total bytes
  // capped at kFsMaxIo) served by a single RPC. Returns total bytes moved;
  // a short count fills extents in order and stops at the first short one.
  base::Result<uint32_t> ReadV(mk::Env& env, uint64_t handle, const FsReadExtent* extents,
                               uint32_t count);
  base::Result<uint32_t> WriteV(mk::Env& env, uint64_t handle, const FsWriteExtent* extents,
                                uint32_t count);
  base::Result<FileAttr> GetAttr(mk::Env& env, const std::string& path);
  // Handle-based attributes (kFsStat): no server-side path walk, and served
  // from the attribute cache when caching is on. What fstat/SEEK_END want.
  base::Result<FileAttr> Stat(mk::Env& env, uint64_t handle);
  base::Status SetSize(mk::Env& env, uint64_t handle, uint64_t size);
  base::Status Mkdir(mk::Env& env, const std::string& path);
  base::Result<std::vector<DirEntry>> ReadDir(mk::Env& env, const std::string& path);
  base::Status Unlink(mk::Env& env, const std::string& path);
  base::Status Rename(mk::Env& env, const std::string& from, const std::string& to);
  base::Status Lock(mk::Env& env, uint64_t handle, uint64_t start, uint64_t len, bool exclusive);
  base::Status Unlock(mk::Env& env, uint64_t handle, uint64_t start, uint64_t len);
  base::Status SetEa(mk::Env& env, const std::string& path, const std::string& key,
                     const std::string& value);
  base::Result<std::string> GetEa(mk::Env& env, const std::string& path, const std::string& key);
  base::Status Sync(mk::Env& env);
  // Exports a memory object for the open file (server must have
  // EnableMapping); `min_len` sizes the object to at least that many bytes so
  // a mapping larger than the current file is honoured. Pending write-behind
  // for the handle is flushed first so mapped pages observe it.
  base::Result<FsMapping> MapObject(mk::Env& env, uint64_t handle, uint64_t min_len = 0);
  // Drops one mapping reference; returns the references remaining server-side.
  base::Result<uint32_t> UnmapObject(mk::Env& env, uint64_t object_id);
  // Publishes the handle's write-behind run to the server (no-op without the
  // cache). Mapped readers of the same file need this after cached writes.
  base::Status Flush(mk::Env& env, uint64_t handle);

 private:
  // What re-opening a caller's handle takes, and which server handle and
  // binding epoch currently stand behind it.
  struct OpenRecord {
    std::string path;
    uint32_t flags = 0;
    FsShare share = FsShare::kDenyNone;
    uint64_t server_handle = 0;
    uint64_t epoch = 0;
  };

  // The one per-binding function: one request, one reply.
  base::Status Call(mk::Env& env, const FsRequest& r, FsReply* reply, mk::RpcRef* ref = nullptr);
  // Call for an op naming caller handle `handle`: sends the server handle
  // behind it, and re-opens + retries when the handle predates the current
  // epoch and the server answers that it does not know it.
  base::Status CallHandle(mk::Env& env, uint64_t handle, FsRequest& r, FsReply* reply,
                          mk::RpcRef* ref = nullptr);
  base::Status Reopen(mk::Env& env, OpenRecord& rec);

  // FsCacheBackend: the raw single-RPC path the cache misses into.
  base::Result<uint32_t> CacheRead(mk::Env& env, uint64_t handle, uint64_t offset, void* out,
                                   uint32_t len) override;
  base::Result<uint32_t> CacheWrite(mk::Env& env, uint64_t handle, uint64_t offset,
                                    const void* data, uint32_t len) override;
  base::Result<FileAttr> CacheStat(mk::Env& env, uint64_t handle) override;

  // Exactly one binding is engaged. The name binding builds no ClientStub;
  // it charges the same stub region itself, once per call.
  std::optional<mk::ClientStub> stub_;
  hw::CodeRegion name_stub_region_;
  std::optional<mks::NameClient> names_;
  std::string fs_name_;
  mk::RobustCallOptions opts_;
  mk::PortName resolved_ = mk::kNullPort;  // last right the resolver handed out

  uint64_t epoch_ = 0;
  std::map<uint64_t, OpenRecord> opens_;  // by caller handle
  uint64_t reopens_ = 0;
  std::unique_ptr<FsCache> cache_;  // null = caching off
};

}  // namespace svc

#endif  // SRC_SVC_FS_FILE_SERVER_H_
