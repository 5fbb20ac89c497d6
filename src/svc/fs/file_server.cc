#include "src/svc/fs/file_server.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <utility>

#include "src/base/log.h"
#include "src/mk/pager_protocol.h"

namespace svc {

namespace {
const hw::CodeRegion& WalkRegion() {
  static const hw::CodeRegion r = hw::DefineCode("svc.fs.walk", 150);
  return r;
}
const hw::CodeRegion& UnionSemRegion() {
  // The union-of-personalities semantic checks around every operation.
  static const hw::CodeRegion r = hw::DefineCode("svc.fs.union_sem", 190);
  return r;
}
const hw::CodeRegion& CaseScanRegion() {
  static const hw::CodeRegion r = hw::DefineCode("svc.fs.case_scan", 120);
  return r;
}

std::string LowerCase(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

// The client stub interface: both FsClient bindings charge its
// "cstub.svc.fs.client" region once per call.
constexpr char kClientInterface[] = "svc.fs.client";
}  // namespace

FileServer::FileServer(mk::Kernel& kernel, mk::Task* task, uint64_t handle_base)
    : kernel_(kernel), task_(task), next_handle_(handle_base == 0 ? 1 : handle_base) {
  auto port = kernel_.PortAllocate(*task_);
  WPOS_CHECK(port.ok());
  receive_port_ = *port;
  // kWriteV carries its extent table in front of the payload bytes.
  loop_ = std::make_unique<mk::ServerLoop<FsRequest>>(
      receive_port_, "fs", kFsMaxIo + kFsMaxExtents * sizeof(FsExtent),
      std::vector<mk::LoopCode>{{"loop.fs", mk::Costs::kRpcServerLoop},
                                {"stub.fs", mk::Costs::kRpcServerStub}});
  loop_->Register(FsOp::kOpen, this, &FileServer::HandleOpen);
  loop_->Register(FsOp::kClose, this, &FileServer::HandleClose);
  loop_->Register(FsOp::kRead, this, &FileServer::HandleRead);
  loop_->Register(FsOp::kWrite, this, &FileServer::HandleWrite);
  loop_->Register(FsOp::kReadV, this, &FileServer::HandleReadV);
  loop_->Register(FsOp::kWriteV, this, &FileServer::HandleWriteV);
  loop_->Register(FsOp::kLock, this, &FileServer::HandleLock);
  loop_->Register(FsOp::kUnlock, this, &FileServer::HandleLock);
  loop_->Register(FsOp::kFsStat, this, &FileServer::HandleStat);
  loop_->Register(FsOp::kSetSize, this, &FileServer::HandleSetSize);
  loop_->Register(FsOp::kMapObject, this, &FileServer::HandleMapObject);
  loop_->Register(FsOp::kMapRelease, this, &FileServer::HandleMapRelease);
  for (FsOp op : {FsOp::kGetAttr, FsOp::kMkdir, FsOp::kReadDir, FsOp::kUnlink,
                  FsOp::kRename, FsOp::kSetEa, FsOp::kGetEa, FsOp::kSync}) {
    loop_->Register(op, this, &FileServer::HandlePathOp);
  }
  kernel_.CreateThread(task_, "file-server",
                       [this](mk::Env& env) {
                         loop_->Run(env);
                         // Every exit must kill the pager port too, or the
                         // fs-pager thread would park forever and the system
                         // never halts cleanly.
                         if (pager_loop_ != nullptr) {
                           pager_loop_->Stop();
                         }
                       },
                       mk::Thread::kDefaultPriority + 2);
}

base::Status FileServer::AddMount(const std::string& prefix, Pfs* pfs) {
  std::string canon = prefix;
  while (canon.size() > 1 && canon.back() == '/') {
    canon.pop_back();
  }
  if (canon.empty() || canon.front() != '/') {
    return base::Status::kInvalidArgument;
  }
  for (const auto& m : mounts_) {
    if (m->prefix == canon) {
      return base::Status::kAlreadyExists;
    }
  }
  auto mount = std::make_unique<Mount>();
  mount->prefix = canon;
  mount->pfs = pfs;
  mounts_.push_back(std::move(mount));
  // Longest prefix first.
  std::sort(mounts_.begin(), mounts_.end(),
            [](const auto& a, const auto& b) { return a->prefix.size() > b->prefix.size(); });
  return base::Status::kOk;
}

mk::PortName FileServer::GrantTo(mk::Task& client) {
  auto name = kernel_.MakeSendRight(*task_, receive_port_, client);
  WPOS_CHECK(name.ok());
  return *name;
}

void FileServer::EnableMapping() {
  if (pager_loop_ != nullptr) {
    return;
  }
  auto port = kernel_.PortAllocate(*task_);
  WPOS_CHECK(port.ok());
  pager_port_raw_ = *kernel_.ResolvePort(*task_, *port);
  // Out: a full readahead batch. In: one page (a kDataWrite's payload).
  pager_io_.resize(static_cast<size_t>(mk::Costs::kMmapReadaheadPages) * hw::kPageSize);
  pager_loop_ = std::make_unique<mk::ServerLoop<mk::PagerRequest>>(
      *port, "fs_pager", hw::kPageSize, std::vector<mk::LoopCode>{{"svc.fs.pager", 230}});
  pager_loop_->Register(mk::PagerOp::kDataRequest, this, &FileServer::HandlePageIn);
  pager_loop_->Register(mk::PagerOp::kDataWrite, this, &FileServer::HandlePageOut);
  pager_loop_->Register(mk::PagerOp::kObjectSetup, this, &FileServer::HandleObjectSetup);
  pager_loop_->Register(mk::PagerOp::kObjectTerminate, this, &FileServer::HandleObjectTerminate);
  kernel_.CreateThread(task_, "fs-pager", [this](mk::Env& env) { pager_loop_->Run(env); },
                       mk::Thread::kDefaultPriority + 3);
}

void FileServer::InvalidateMappedRange(Mount* mount, NodeId node, uint64_t offset, uint64_t len) {
  if (node_map_.empty() || len == 0) {
    return;
  }
  auto it = node_map_.find(NodeKey(mount, node));
  if (it == node_map_.end()) {
    return;
  }
  MapObjectState& st = map_objects_[it->second];
  const uint64_t end = len > ~0ull - offset ? ~0ull : offset + len;
  const uint64_t first = offset >> hw::kPageShift;
  const uint64_t count = ((end - 1) >> hw::kPageShift) - first + 1;
  // Invalidate through the registry, not our captured reference: after a
  // server crash a client can re-point (adopt) its surviving object under
  // this id, and the invalidation must reach the object clients actually map.
  auto current = kernel_.LookupPagedObject(st.object_id);
  mk::VmObject* target = current != nullptr ? current.get() : st.object.get();
  // Only clean pages are dropped: a dirty mapped page is newer than (or
  // concurrent with) this file write, and msync decides its fate.
  (void)kernel_.VmObjectInvalidate(target, first, count, /*clean_only=*/true);
}

base::Result<FileServer::Mount*> FileServer::MountFor(const std::string& path,
                                                     std::string* rest) {
  if (path.empty() || path[0] != '/') {
    return base::Status::kInvalidArgument;
  }
  for (const auto& m : mounts_) {
    const std::string& p = m->prefix;
    if (p == "/") {
      *rest = path.substr(1);
      return m.get();
    }
    if (path.compare(0, p.size(), p) == 0 &&
        (path.size() == p.size() || path[p.size()] == '/')) {
      *rest = path.size() == p.size() ? "" : path.substr(p.size() + 1);
      return m.get();
    }
  }
  return base::Status::kNotFound;
}

base::Result<NodeId> FileServer::LookupChild(mk::Env& env, Mount* mount, NodeId dir,
                                             const std::string& name, bool case_insensitive) {
  auto direct = mount->pfs->Lookup(env, dir, name);
  if (direct.ok() || !case_insensitive || mount->pfs->capabilities().case_sensitive == false) {
    return direct;
  }
  // Union-semantics fallback: a case-insensitive personality looking at a
  // case-sensitive store must scan the directory — slow and ambiguous, one
  // of the compromises the paper describes.
  kernel_.cpu().Execute(CaseScanRegion());
  auto entries = mount->pfs->ReadDir(env, dir);
  if (!entries.ok()) {
    return entries.status();
  }
  const std::string wanted = LowerCase(name);
  for (const DirEntry& e : *entries) {
    kernel_.cpu().Execute(CaseScanRegion());
    if (LowerCase(e.name) == wanted) {
      return e.node;
    }
  }
  return base::Status::kNotFound;
}

base::Result<NodeId> FileServer::Walk(mk::Env& env, Mount* mount, const std::string& rest,
                                      bool case_insensitive, NodeId* parent, std::string* leaf,
                                      bool stop_at_parent) {
  kernel_.cpu().Execute(WalkRegion());
  NodeId dir = mount->pfs->root();
  if (parent != nullptr) {
    *parent = dir;
  }
  if (rest.empty()) {
    if (leaf != nullptr) {
      leaf->clear();
    }
    return dir;
  }
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= rest.size()) {
    const size_t slash = rest.find('/', start);
    const std::string part =
        slash == std::string::npos ? rest.substr(start) : rest.substr(start, slash - start);
    if (!part.empty()) {
      parts.push_back(part);
    }
    if (slash == std::string::npos) {
      break;
    }
    start = slash + 1;
  }
  if (parts.empty()) {
    return dir;
  }
  for (size_t i = 0; i + 1 < parts.size(); ++i) {
    auto next = LookupChild(env, mount, dir, parts[i], case_insensitive);
    if (!next.ok()) {
      return next.status();
    }
    dir = *next;
  }
  if (parent != nullptr) {
    *parent = dir;
  }
  if (leaf != nullptr) {
    *leaf = parts.back();
  }
  if (stop_at_parent) {
    return dir;
  }
  return LookupChild(env, mount, dir, parts.back(), case_insensitive);
}

bool FileServer::LockConflicts(const NodeState& state, uint64_t start, uint64_t len,
                               bool exclusive, uint64_t handle) const {
  for (const LockRange& l : state.locks) {
    if (l.handle == handle) {
      continue;  // a handle never conflicts with its own locks
    }
    const bool overlap = start < l.start + l.len && l.start < start + len;
    if (overlap && (exclusive || l.exclusive)) {
      return true;
    }
  }
  return false;
}

void FileServer::HandleOpen(mk::Env& env, const mk::RpcRequest& rpc, const FsRequest& r) {
  FsReply reply;
  kernel_.cpu().Execute(UnionSemRegion());
  std::string rest;
  auto found = MountFor(r.path, &rest);
  if (!found.ok()) {
    reply.status = static_cast<int32_t>(found.status());
    env.RpcReply(rpc.token, &reply, sizeof(reply));
    return;
  }
  Mount* mount = *found;
  const bool ci = (r.flags & kFsCaseInsensitive) != 0;
  NodeId parent = 0;
  std::string leaf;
  auto node = Walk(env, mount, rest, ci, &parent, &leaf, /*stop_at_parent=*/false);
  if (!node.ok() && node.status() == base::Status::kNotFound && (r.flags & kFsCreate) != 0 &&
      !leaf.empty()) {
    node = mount->pfs->Create(env, parent, leaf, /*directory=*/false);
  } else if (node.ok() && (r.flags & kFsExclusive) != 0 && (r.flags & kFsCreate) != 0) {
    reply.status = static_cast<int32_t>(base::Status::kAlreadyExists);
    env.RpcReply(rpc.token, &reply, sizeof(reply));
    return;
  }
  if (!node.ok()) {
    reply.status = static_cast<int32_t>(node.status());
    env.RpcReply(rpc.token, &reply, sizeof(reply));
    return;
  }
  // Sharing-mode admission (OS/2 deny modes).
  NodeState& state = node_states_[NodeKey(mount, *node)];
  const bool wants_write = (r.flags & (kFsWrite | kFsTruncate | kFsAppend)) != 0;
  if (state.deny_all > 0 || (wants_write && state.deny_write > 0) ||
      (r.share == FsShare::kDenyAll && state.open_count > 0) ||
      (r.share == FsShare::kDenyWrite && state.writers > 0)) {
    reply.status = static_cast<int32_t>(base::Status::kBusy);
    env.RpcReply(rpc.token, &reply, sizeof(reply));
    return;
  }
  if ((r.flags & kFsTruncate) != 0) {
    const base::Status st = mount->pfs->SetSize(env, *node, 0);
    if (st != base::Status::kOk && st != base::Status::kNotSupported) {
      reply.status = static_cast<int32_t>(st);
      env.RpcReply(rpc.token, &reply, sizeof(reply));
      return;
    }
    InvalidateMappedRange(mount, *node, 0, ~0ull);
  }
  ++state.open_count;
  if (wants_write) {
    ++state.writers;
  }
  if (r.share == FsShare::kDenyWrite) {
    ++state.deny_write;
  } else if (r.share == FsShare::kDenyAll) {
    ++state.deny_all;
  }
  if ((r.flags & kFsDeleteOnClose) != 0) {
    state.delete_on_close = true;
    state.parent = parent;
    state.name = leaf;
  }
  OpenFile of;
  of.mount = mount;
  of.node = *node;
  of.flags = r.flags;
  of.share = r.share;
  of.sim_addr = kernel_.heap().Allocate(96);
  // The open file is represented by a port granted to the client.
  auto file_port_name = kernel_.PortAllocate(*task_);
  WPOS_CHECK(file_port_name.ok());
  of.file_port = *file_port_name;
  const uint64_t handle = next_handle_++;
  open_files_.emplace(handle, of);
  ++opens_;
  reply.handle = handle;
  auto attr = mount->pfs->GetAttr(env, *node);
  if (attr.ok()) {
    reply.attr = {attr->size, attr->directory ? uint8_t{1} : uint8_t{0}};
  }
  env.RpcReply(rpc.token, &reply, sizeof(reply), nullptr, 0, /*grant=*/*file_port_name);
}

void FileServer::HandleClose(mk::Env& env, const mk::RpcRequest& rpc, const FsRequest& r) {
  FsReply reply;
  kernel_.cpu().Execute(UnionSemRegion());
  auto it = open_files_.find(r.handle);
  if (it == open_files_.end()) {
    reply.status = static_cast<int32_t>(base::Status::kNotFound);
    env.RpcReply(rpc.token, &reply, sizeof(reply));
    return;
  }
  OpenFile& of = it->second;
  auto key = NodeKey(of.mount, of.node);
  NodeState& state = node_states_[key];
  // Drop this handle's locks.
  std::erase_if(state.locks, [&](const LockRange& l) { return l.handle == r.handle; });
  --state.open_count;
  if ((of.flags & (kFsWrite | kFsTruncate | kFsAppend)) != 0) {
    --state.writers;
  }
  if (of.share == FsShare::kDenyWrite) {
    --state.deny_write;
  } else if (of.share == FsShare::kDenyAll) {
    --state.deny_all;
  }
  if (state.open_count == 0 && state.delete_on_close && !state.name.empty()) {
    (void)of.mount->pfs->Remove(env, state.parent, state.name);
  }
  if (state.open_count == 0) {
    node_states_.erase(key);
  }
  (void)kernel_.PortDestroy(*task_, of.file_port);
  open_files_.erase(it);
  env.RpcReply(rpc.token, &reply, sizeof(reply));
}

void FileServer::HandleRead(mk::Env& env, const mk::RpcRequest& rpc, const FsRequest& r) {
  FsReply reply;
  static std::vector<uint8_t> buffer(kFsMaxIo);
  auto it = open_files_.find(r.handle);
  if (it == open_files_.end() || r.len > kFsMaxIo) {
    reply.status = static_cast<int32_t>(base::Status::kInvalidArgument);
    env.RpcReply(rpc.token, &reply, sizeof(reply));
    return;
  }
  OpenFile& of = it->second;
  kernel_.cpu().AccessData(of.sim_addr, 48, /*write=*/true);
  auto got = of.mount->pfs->Read(env, of.node, r.offset, buffer.data(), r.len);
  if (!got.ok()) {
    reply.status = static_cast<int32_t>(got.status());
    env.RpcReply(rpc.token, &reply, sizeof(reply));
    return;
  }
  ++reads_;
  reply.len = *got;
  env.RpcReply(rpc.token, &reply, sizeof(reply), buffer.data(), *got);
}

void FileServer::HandleWrite(mk::Env& env, const mk::RpcRequest& rpc, const FsRequest& r,
                             const uint8_t* data, uint32_t data_len) {
  FsReply reply;
  auto it = open_files_.find(r.handle);
  if (it == open_files_.end() || data_len != r.len || r.len > kFsMaxIo) {
    reply.status = static_cast<int32_t>(base::Status::kInvalidArgument);
    env.RpcReply(rpc.token, &reply, sizeof(reply));
    return;
  }
  OpenFile& of = it->second;
  kernel_.cpu().AccessData(of.sim_addr, 48, /*write=*/true);
  uint64_t offset = r.offset;
  if ((of.flags & kFsAppend) != 0) {
    auto attr = of.mount->pfs->GetAttr(env, of.node);
    if (attr.ok()) {
      offset = attr->size;  // UNIX O_APPEND semantics
    }
  }
  // Byte-range lock enforcement.
  NodeState& state = node_states_[NodeKey(of.mount, of.node)];
  if (LockConflicts(state, offset, r.len, /*exclusive=*/true, r.handle)) {
    reply.status = static_cast<int32_t>(base::Status::kBusy);
    env.RpcReply(rpc.token, &reply, sizeof(reply));
    return;
  }
  auto wrote = of.mount->pfs->Write(env, of.node, offset, data, r.len);
  if (!wrote.ok()) {
    reply.status = static_cast<int32_t>(wrote.status());
    env.RpcReply(rpc.token, &reply, sizeof(reply));
    return;
  }
  ++writes_;
  InvalidateMappedRange(of.mount, of.node, offset, *wrote);
  reply.len = *wrote;
  env.RpcReply(rpc.token, &reply, sizeof(reply));
}

void FileServer::HandleReadV(mk::Env& env, const mk::RpcRequest& rpc, const FsRequest& r,
                             const uint8_t* ref_data, uint32_t ref_len) {
  FsReply reply;
  static std::vector<uint8_t> buffer(kFsMaxIo);
  auto it = open_files_.find(r.handle);
  const uint32_t count = r.extent_count;
  if (it == open_files_.end() || count == 0 || count > kFsMaxExtents ||
      ref_len < count * sizeof(FsExtent)) {
    reply.status = static_cast<int32_t>(base::Status::kInvalidArgument);
    env.RpcReply(rpc.token, &reply, sizeof(reply));
    return;
  }
  FsExtent extents[kFsMaxExtents];
  std::memcpy(extents, ref_data, count * sizeof(FsExtent));
  uint64_t total = 0;
  for (uint32_t i = 0; i < count; ++i) {
    total += extents[i].len;
  }
  if (total > kFsMaxIo) {
    reply.status = static_cast<int32_t>(base::Status::kInvalidArgument);
    env.RpcReply(rpc.token, &reply, sizeof(reply));
    return;
  }
  OpenFile& of = it->second;
  kernel_.cpu().AccessData(of.sim_addr, 48, /*write=*/true);
  uint32_t filled = 0;
  for (uint32_t i = 0; i < count; ++i) {
    auto got = of.mount->pfs->Read(env, of.node, extents[i].offset, buffer.data() + filled,
                                   extents[i].len);
    if (!got.ok()) {
      reply.status = static_cast<int32_t>(got.status());
      env.RpcReply(rpc.token, &reply, sizeof(reply));
      return;
    }
    ++reads_;
    filled += *got;
    if (*got < extents[i].len) {
      break;  // short extent (EOF): later extents are not attempted
    }
  }
  reply.len = filled;
  env.RpcReply(rpc.token, &reply, sizeof(reply), buffer.data(), filled);
}

void FileServer::HandleWriteV(mk::Env& env, const mk::RpcRequest& rpc, const FsRequest& r,
                              const uint8_t* ref_data, uint32_t ref_len) {
  FsReply reply;
  auto it = open_files_.find(r.handle);
  const uint32_t count = r.extent_count;
  if (it == open_files_.end() || count == 0 || count > kFsMaxExtents ||
      ref_len < count * sizeof(FsExtent)) {
    reply.status = static_cast<int32_t>(base::Status::kInvalidArgument);
    env.RpcReply(rpc.token, &reply, sizeof(reply));
    return;
  }
  FsExtent extents[kFsMaxExtents];
  std::memcpy(extents, ref_data, count * sizeof(FsExtent));
  uint64_t total = 0;
  for (uint32_t i = 0; i < count; ++i) {
    total += extents[i].len;
  }
  const uint64_t table_bytes = count * sizeof(FsExtent);
  if (total > kFsMaxIo || total != r.len || ref_len != table_bytes + total) {
    reply.status = static_cast<int32_t>(base::Status::kInvalidArgument);
    env.RpcReply(rpc.token, &reply, sizeof(reply));
    return;
  }
  OpenFile& of = it->second;
  kernel_.cpu().AccessData(of.sim_addr, 48, /*write=*/true);
  NodeState& state = node_states_[NodeKey(of.mount, of.node)];
  for (uint32_t i = 0; i < count; ++i) {
    if (LockConflicts(state, extents[i].offset, extents[i].len, /*exclusive=*/true, r.handle)) {
      reply.status = static_cast<int32_t>(base::Status::kBusy);
      env.RpcReply(rpc.token, &reply, sizeof(reply));
      return;
    }
  }
  const uint8_t* data = ref_data + table_bytes;
  uint32_t written = 0;
  for (uint32_t i = 0; i < count; ++i) {
    auto wrote = of.mount->pfs->Write(env, of.node, extents[i].offset, data + written,
                                      extents[i].len);
    if (!wrote.ok()) {
      reply.status = static_cast<int32_t>(wrote.status());
      env.RpcReply(rpc.token, &reply, sizeof(reply));
      return;
    }
    ++writes_;
    InvalidateMappedRange(of.mount, of.node, extents[i].offset, *wrote);
    written += *wrote;
    if (*wrote < extents[i].len) {
      break;
    }
  }
  reply.len = written;
  env.RpcReply(rpc.token, &reply, sizeof(reply));
}

void FileServer::HandleLock(mk::Env& env, const mk::RpcRequest& rpc, const FsRequest& r) {
  FsReply reply;
  kernel_.cpu().Execute(UnionSemRegion());
  auto it = open_files_.find(r.handle);
  if (it == open_files_.end()) {
    reply.status = static_cast<int32_t>(base::Status::kNotFound);
    env.RpcReply(rpc.token, &reply, sizeof(reply));
    return;
  }
  OpenFile& of = it->second;
  NodeState& state = node_states_[NodeKey(of.mount, of.node)];
  if (r.op == FsOp::kLock) {
    if (LockConflicts(state, r.offset, r.len, r.lock_exclusive != 0, r.handle)) {
      reply.status = static_cast<int32_t>(base::Status::kBusy);
    } else {
      state.locks.push_back({r.offset, r.len, r.lock_exclusive != 0, r.handle});
    }
  } else {
    const size_t before = state.locks.size();
    std::erase_if(state.locks, [&](const LockRange& l) {
      return l.handle == r.handle && l.start == r.offset && l.len == r.len;
    });
    if (state.locks.size() == before) {
      reply.status = static_cast<int32_t>(base::Status::kNotFound);
    }
  }
  env.RpcReply(rpc.token, &reply, sizeof(reply));
}

void FileServer::HandleStat(mk::Env& env, const mk::RpcRequest& rpc, const FsRequest& r) {
  // Handle-based GetAttr: no path walk, so a hot stat (fstat, SEEK_END,
  // O_APPEND positioning) costs one table lookup instead of a name walk.
  // A stale handle answers kInvalidArgument, the same signal a name-bound
  // FsClient re-opens on.
  FsReply reply;
  kernel_.cpu().Execute(UnionSemRegion());
  auto it = open_files_.find(r.handle);
  if (it == open_files_.end()) {
    reply.status = static_cast<int32_t>(base::Status::kInvalidArgument);
    env.RpcReply(rpc.token, &reply, sizeof(reply));
    return;
  }
  OpenFile& of = it->second;
  kernel_.cpu().AccessData(of.sim_addr, 48, /*write=*/false);
  auto attr = of.mount->pfs->GetAttr(env, of.node);
  if (!attr.ok()) {
    reply.status = static_cast<int32_t>(attr.status());
  } else {
    reply.attr = {attr->size, attr->directory ? uint8_t{1} : uint8_t{0}};
  }
  env.RpcReply(rpc.token, &reply, sizeof(reply));
}

void FileServer::HandleMapObject(mk::Env& env, const mk::RpcRequest& rpc, const FsRequest& r) {
  FsReply reply;
  kernel_.cpu().Execute(UnionSemRegion());
  if (pager_port_raw_ == nullptr) {
    reply.status = static_cast<int32_t>(base::Status::kNotSupported);
    env.RpcReply(rpc.token, &reply, sizeof(reply));
    return;
  }
  auto it = open_files_.find(r.handle);
  if (it == open_files_.end()) {
    reply.status = static_cast<int32_t>(base::Status::kInvalidArgument);
    env.RpcReply(rpc.token, &reply, sizeof(reply));
    return;
  }
  OpenFile& of = it->second;
  auto attr = of.mount->pfs->GetAttr(env, of.node);
  if (!attr.ok()) {
    reply.status = static_cast<int32_t>(attr.status());
    env.RpcReply(rpc.token, &reply, sizeof(reply));
    return;
  }
  const auto key = NodeKey(of.mount, of.node);
  auto existing = node_map_.find(key);
  if (existing != node_map_.end()) {
    // All mappings of one node share one memory object: that sharing IS the
    // coherence between two clients mapping the same file.
    MapObjectState& st = map_objects_[existing->second];
    ++st.map_count;
    reply.handle = st.object_id;
  } else {
    const uint64_t want = std::max<uint64_t>(std::max<uint64_t>(r.len, attr->size), 1);
    auto object = std::make_shared<mk::VmObject>(hw::PageRound(want));
    object->EnableDirtyTracking();
    const uint64_t id = kernel_.RegisterPagedObject(object, pager_port_raw_, 0);
    MapObjectState st;
    st.object = std::move(object);
    st.object_id = id;
    st.map_count = 1;
    st.mount = of.mount;
    st.node = of.node;
    node_map_.emplace(key, id);
    map_objects_.emplace(id, std::move(st));
    reply.handle = id;
  }
  reply.attr = {attr->size, attr->directory ? uint8_t{1} : uint8_t{0}};
  env.RpcReply(rpc.token, &reply, sizeof(reply));
}

void FileServer::HandleMapRelease(mk::Env& env, const mk::RpcRequest& rpc, const FsRequest& r) {
  FsReply reply;
  kernel_.cpu().Execute(UnionSemRegion());
  auto it = map_objects_.find(r.handle);
  if (it == map_objects_.end()) {
    reply.status = static_cast<int32_t>(base::Status::kInvalidArgument);
  } else {
    if (it->second.map_count > 0) {
      --it->second.map_count;
    }
    // State lives until the kernel's kObjectTerminate reaches the pager port;
    // the count only tells the caller whether it was the last mapper.
    reply.len = it->second.map_count;
  }
  env.RpcReply(rpc.token, &reply, sizeof(reply));
}

void FileServer::HandlePageIn(mk::Env& env, const mk::RpcRequest& rpc,
                              const mk::PagerRequest& req) {
  mk::PagerReply reply{};
  auto it = map_objects_.find(req.object_id);
  if (it == map_objects_.end()) {
    reply.status = static_cast<int32_t>(base::Status::kInvalidArgument);
    env.RpcReply(rpc.token, &reply, sizeof(reply));
    return;
  }
  MapObjectState& st = it->second;
  const uint64_t object_pages = st.object->size() >> hw::kPageShift;
  uint64_t want = 1;
  if (st.object->dirty_tracking() && req.page_index < object_pages) {
    want = std::min<uint64_t>(mk::Costs::kMmapReadaheadPages, object_pages - req.page_index);
  }
  const uint32_t bytes = static_cast<uint32_t>(want * hw::kPageSize);
  std::memset(pager_io_.data(), 0, bytes);
  // A short (or failed) read leaves zeros: pages at and past EOF map in as
  // zeros, the same bytes read() can never return.
  (void)st.mount->pfs->Read(env, st.node, req.page_index << hw::kPageShift, pager_io_.data(),
                            bytes);
  ++pageins_;
  env.RpcReply(rpc.token, &reply, sizeof(reply), pager_io_.data(), bytes);
}

void FileServer::HandlePageOut(mk::Env& env, const mk::RpcRequest& rpc,
                               const mk::PagerRequest& req, const uint8_t* page,
                               uint32_t page_len) {
  mk::PagerReply reply{};
  auto it = map_objects_.find(req.object_id);
  if (it == map_objects_.end() || page_len != hw::kPageSize) {
    reply.status = static_cast<int32_t>(base::Status::kInvalidArgument);
    env.RpcReply(rpc.token, &reply, sizeof(reply));
    return;
  }
  MapObjectState& st = it->second;
  const uint64_t offset = req.page_index << hw::kPageShift;
  auto attr = st.mount->pfs->GetAttr(env, st.node);
  const uint64_t limit = attr.ok() ? attr->size : 0;
  if (offset < limit) {
    // Writeback never extends the file: a mapped store past EOF is only
    // durable up to the current size (msync through a session that also
    // grows the file is the personality's business).
    const uint32_t n = static_cast<uint32_t>(std::min<uint64_t>(hw::kPageSize, limit - offset));
    auto wrote = st.mount->pfs->Write(env, st.node, offset, page, n);
    if (!wrote.ok()) {
      reply.status = static_cast<int32_t>(wrote.status());
    }
  }
  ++pageouts_;
  env.RpcReply(rpc.token, &reply, sizeof(reply));
}

void FileServer::HandleObjectSetup(mk::Env& env, const mk::RpcRequest& rpc,
                                   const mk::PagerRequest& req) {
  mk::PagerReply reply{};
  if (!map_objects_.contains(req.object_id)) {
    reply.status = static_cast<int32_t>(base::Status::kInvalidArgument);
  }
  env.RpcReply(rpc.token, &reply, sizeof(reply));
}

void FileServer::HandleObjectTerminate(mk::Env& env, const mk::RpcRequest& rpc,
                                       const mk::PagerRequest& req) {
  auto it = map_objects_.find(req.object_id);
  if (it != map_objects_.end()) {
    node_map_.erase(NodeKey(it->second.mount, it->second.node));
    map_objects_.erase(it);
  }
  mk::PagerReply reply{};
  env.RpcReply(rpc.token, &reply, sizeof(reply));
}

void FileServer::HandleSetSize(mk::Env& env, const mk::RpcRequest& rpc, const FsRequest& r) {
  // Handle-based: the request carries no path to resolve.
  FsReply reply;
  kernel_.cpu().Execute(UnionSemRegion());
  auto it = open_files_.find(r.handle);
  if (it == open_files_.end()) {
    reply.status = static_cast<int32_t>(base::Status::kNotFound);
  } else {
    reply.status =
        static_cast<int32_t>(it->second.mount->pfs->SetSize(env, it->second.node, r.offset));
    if (reply.status == 0) {
      // Resizing moves EOF under every mapped view: drop all clean pages.
      InvalidateMappedRange(it->second.mount, it->second.node, 0, ~0ull);
    }
  }
  env.RpcReply(rpc.token, &reply, sizeof(reply));
}

void FileServer::HandlePathOp(mk::Env& env, const mk::RpcRequest& rpc, const FsRequest& r) {
  FsReply reply;
  kernel_.cpu().Execute(UnionSemRegion());
  std::string rest;
  auto found = MountFor(r.path, &rest);
  if (!found.ok()) {
    reply.status = static_cast<int32_t>(found.status());
    env.RpcReply(rpc.token, &reply, sizeof(reply));
    return;
  }
  Mount* mount = *found;
  const bool ci = (r.flags & kFsCaseInsensitive) != 0;
  switch (r.op) {
    case FsOp::kGetAttr: {
      auto node = Walk(env, mount, rest, ci, nullptr, nullptr, false);
      if (!node.ok()) {
        reply.status = static_cast<int32_t>(node.status());
        break;
      }
      auto attr = mount->pfs->GetAttr(env, *node);
      if (!attr.ok()) {
        reply.status = static_cast<int32_t>(attr.status());
        break;
      }
      reply.attr = {attr->size, attr->directory ? uint8_t{1} : uint8_t{0}};
      break;
    }
    case FsOp::kMkdir: {
      NodeId parent = 0;
      std::string leaf;
      auto st = Walk(env, mount, rest, ci, &parent, &leaf, /*stop_at_parent=*/true);
      if (!st.ok()) {
        reply.status = static_cast<int32_t>(st.status());
        break;
      }
      if (leaf.empty()) {
        reply.status = static_cast<int32_t>(base::Status::kInvalidArgument);
        break;
      }
      auto node = mount->pfs->Create(env, parent, leaf, /*directory=*/true);
      reply.status = static_cast<int32_t>(node.status());
      break;
    }
    case FsOp::kUnlink: {
      NodeId parent = 0;
      std::string leaf;
      auto node = Walk(env, mount, rest, ci, &parent, &leaf, false);
      if (!node.ok()) {
        reply.status = static_cast<int32_t>(node.status());
        break;
      }
      // Union rule: an open file cannot be unlinked by path on OS/2; UNIX
      // would allow it. The server takes the restrictive intersection and
      // reports busy (one of the inevitable compromises).
      if (node_states_.contains(NodeKey(mount, *node))) {
        reply.status = static_cast<int32_t>(base::Status::kBusy);
        break;
      }
      reply.status = static_cast<int32_t>(mount->pfs->Remove(env, parent, leaf));
      break;
    }
    case FsOp::kRename: {
      NodeId from_parent = 0;
      std::string from_leaf;
      auto node = Walk(env, mount, rest, ci, &from_parent, &from_leaf, false);
      if (!node.ok()) {
        reply.status = static_cast<int32_t>(node.status());
        break;
      }
      std::string rest2;
      auto mount2 = MountFor(r.path2, &rest2);
      if (mount2.status() == base::Status::kInvalidArgument) {
        reply.status = static_cast<int32_t>(base::Status::kInvalidArgument);
        break;
      }
      if (mount2.value_or(nullptr) != mount) {
        reply.status = static_cast<int32_t>(base::Status::kNotSupported);  // cross-FS rename
        break;
      }
      NodeId to_parent = 0;
      std::string to_leaf;
      auto tst = Walk(env, mount, rest2, ci, &to_parent, &to_leaf, /*stop_at_parent=*/true);
      if (!tst.ok()) {
        reply.status = static_cast<int32_t>(tst.status());
        break;
      }
      reply.status = static_cast<int32_t>(
          mount->pfs->Rename(env, from_parent, from_leaf, to_parent, to_leaf));
      break;
    }
    case FsOp::kReadDir: {
      auto node = Walk(env, mount, rest, ci, nullptr, nullptr, false);
      if (!node.ok()) {
        reply.status = static_cast<int32_t>(node.status());
        break;
      }
      auto entries = mount->pfs->ReadDir(env, *node);
      if (!entries.ok()) {
        reply.status = static_cast<int32_t>(entries.status());
        break;
      }
      std::vector<FsDirEntryWire> wire;
      for (const DirEntry& e : *entries) {
        FsDirEntryWire w;
        std::strncpy(w.name, e.name.c_str(), sizeof(w.name) - 1);
        w.directory = e.directory ? 1 : 0;
        wire.push_back(w);
        if (wire.size() * sizeof(FsDirEntryWire) + sizeof(FsDirEntryWire) > kFsMaxIo) {
          break;
        }
      }
      reply.len = static_cast<uint32_t>(wire.size());
      env.RpcReply(rpc.token, &reply, sizeof(reply), wire.data(),
                   static_cast<uint32_t>(wire.size() * sizeof(FsDirEntryWire)));
      return;
    }
    case FsOp::kSetEa: {
      auto node = Walk(env, mount, rest, ci, nullptr, nullptr, false);
      if (!node.ok()) {
        reply.status = static_cast<int32_t>(node.status());
        break;
      }
      // Value travels in path2 after the key's NUL: "key\0value\0". A raw
      // request is untrusted: both strings must terminate inside the fixed
      // buffer or the parse would run off the end of the request struct.
      const void* key_nul = std::memchr(r.path2, '\0', kFsMaxPath);
      if (key_nul == nullptr) {
        reply.status = static_cast<int32_t>(base::Status::kInvalidArgument);
        break;
      }
      const std::string key(r.path2);
      const size_t value_off = key.size() + 1;
      if (value_off >= kFsMaxPath ||
          std::memchr(r.path2 + value_off, '\0', kFsMaxPath - value_off) == nullptr) {
        reply.status = static_cast<int32_t>(base::Status::kInvalidArgument);
        break;
      }
      const char* value = r.path2 + value_off;
      reply.status = static_cast<int32_t>(mount->pfs->SetEa(env, *node, key, value));
      break;
    }
    case FsOp::kGetEa: {
      auto node = Walk(env, mount, rest, ci, nullptr, nullptr, false);
      if (!node.ok()) {
        reply.status = static_cast<int32_t>(node.status());
        break;
      }
      auto value = mount->pfs->GetEa(env, *node, r.path2);
      if (!value.ok()) {
        reply.status = static_cast<int32_t>(value.status());
        break;
      }
      reply.len = static_cast<uint32_t>(value->size());
      env.RpcReply(rpc.token, &reply, sizeof(reply), value->data(),
                   static_cast<uint32_t>(value->size()));
      return;
    }
    case FsOp::kSync: {
      for (const auto& m : mounts_) {
        (void)m->pfs->Sync(env);
      }
      break;
    }
    default:
      reply.status = static_cast<int32_t>(base::Status::kNotSupported);
  }
  env.RpcReply(rpc.token, &reply, sizeof(reply));
}

// --- Client ------------------------------------------------------------------------------

FsClient::FsClient(mk::PortName service, uint64_t call_timeout_ns)
    : stub_(std::in_place, kClientInterface, service) {
  stub_->set_default_timeout_ns(call_timeout_ns);
}

FsClient::FsClient(mk::PortName name_service, std::string fs_name,
                   const mk::RobustCallOptions& opts)
    : name_stub_region_(hw::DefineKernelCode(std::string("cstub.") + kClientInterface,
                                             mk::Costs::kRpcClientStub)),
      names_(std::in_place, name_service),
      fs_name_(std::move(fs_name)),
      opts_(opts) {}

void FsClient::set_call_timeout_ns(uint64_t ns) {
  if (stub_.has_value()) {
    stub_->set_default_timeout_ns(ns);
  } else {
    opts_.attempt_timeout_ns = ns;
  }
}

void FsClient::EnableCache(const FsCacheOptions& opts) {
  cache_ = std::make_unique<FsCache>(opts);
}

base::Status FsClient::Call(mk::Env& env, const FsRequest& r, FsReply* reply, mk::RpcRef* ref) {
  if (stub_.has_value()) {
    return stub_->Call(env, r, reply, ref);
  }
  env.kernel().cpu().Execute(name_stub_region_);
  const auto resolver = [this](mk::Env& e) -> base::Result<mk::PortName> {
    // Every resolution starts a new epoch: handles obtained before it may
    // name an instance that is gone.
    ++epoch_;
    // Name cache first. One-shot (TakeName): the robust loop re-invokes the
    // resolver precisely when the right it last handed out failed, so a name
    // is never served twice — the retry always reaches the name server,
    // which knows the respawned instance.
    if (cache_ != nullptr) {
      mk::PortName cached = mk::kNullPort;
      if (cache_->TakeName(fs_name_, &cached)) {
        return cached;
      }
    }
    auto right = names_->Resolve(e, fs_name_);
    if (right.ok() && cache_ != nullptr) {
      cache_->StoreName(fs_name_, *right);
    }
    return right;
  };
  return mk::RpcCallRobust(env, resolver, &resolved_, &r, sizeof(r), reply, sizeof(*reply), opts_,
                           nullptr, ref);
}

base::Status FsClient::CallHandle(mk::Env& env, uint64_t handle, FsRequest& r, FsReply* reply,
                                  mk::RpcRef* ref) {
  auto it = opens_.find(handle);
  for (;;) {
    // A handle this client never opened (e.g. inherited across Fork) is
    // the server's own and goes out as-is.
    r.handle = it == opens_.end() ? handle : it->second.server_handle;
    const base::Status st = Call(env, r, reply, ref);
    if (st != base::Status::kOk) {
      return st;
    }
    const auto app = static_cast<base::Status>(reply->status);
    // The server's answer for a handle it never issued: kInvalidArgument
    // from the I/O ops, kNotFound from SetSize and the lock ops.
    const bool unknown = app == base::Status::kInvalidArgument || app == base::Status::kNotFound;
    // Re-open whenever the binding moved on since the handle was (re-)opened:
    // the instance that answered a re-open can crash before the retried op
    // reaches it. Each further round needs a fresh rebinding, i.e. another
    // failed instance, so the restart budget bounds the loop.
    if (!unknown || it == opens_.end() || it->second.epoch == epoch_) {
      return base::Status::kOk;
    }
    const base::Status ro = Reopen(env, it->second);
    if (ro != base::Status::kOk) {
      return ro;
    }
  }
}

base::Status FsClient::Reopen(mk::Env& env, OpenRecord& rec) {
  // The server we cached against is gone: everything clean is suspect.
  if (cache_ != nullptr) {
    cache_->BumpGeneration();
  }
  FsRequest r;
  r.op = FsOp::kOpen;
  // The file exists and holds data we must keep.
  r.flags = rec.flags & ~(kFsExclusive | kFsTruncate);
  r.share = rec.share;
  r.SetPath(rec.path.c_str());
  FsReply reply;
  const base::Status st = Call(env, r, &reply);
  if (st != base::Status::kOk) {
    return st;
  }
  if (reply.status != 0) {
    return static_cast<base::Status>(reply.status);
  }
  rec.server_handle = reply.handle;
  rec.epoch = epoch_;
  ++reopens_;
  return base::Status::kOk;
}

base::Result<uint64_t> FsClient::Open(mk::Env& env, const std::string& path, uint32_t flags,
                                      FsShare share) {
  FsRequest r;
  r.op = FsOp::kOpen;
  r.flags = flags;
  r.share = share;
  r.SetPath(path.c_str());
  FsReply reply;
  const base::Status st = Call(env, r, &reply);
  if (st != base::Status::kOk) {
    return st;
  }
  if (reply.status != 0) {
    return static_cast<base::Status>(reply.status);
  }
  opens_[reply.handle] = OpenRecord{path, flags, share, reply.handle, epoch_};
  if (cache_ != nullptr) {
    // The open reply already carries the attributes: the first Stat is free.
    cache_->PrimeAttr(reply.handle,
                      FileAttr{.size = reply.attr.size, .directory = reply.attr.directory != 0});
  }
  return reply.handle;
}

base::Status FsClient::Close(mk::Env& env, uint64_t handle) {
  if (cache_ != nullptr) {
    // Flush the handle's write-behind run while the handle is still open
    // (a re-binding mid-flush re-opens it).
    const base::Status fl = cache_->CloseHandle(env, *this, handle);
    if (fl != base::Status::kOk) {
      return fl;
    }
  }
  const auto rec = opens_.extract(handle);
  FsRequest r;
  r.op = FsOp::kClose;
  r.handle = rec.empty() ? handle : rec.mapped().server_handle;
  FsReply reply;
  const base::Status st = Call(env, r, &reply);
  if (st != base::Status::kOk) {
    return st;
  }
  const auto app = static_cast<base::Status>(reply.status);
  if (app == base::Status::kNotFound && !rec.empty() && rec.mapped().epoch != epoch_) {
    // The open died with the instance that granted it: nothing to close.
    return base::Status::kOk;
  }
  return app;
}

base::Result<uint32_t> FsClient::Read(mk::Env& env, uint64_t handle, uint64_t offset, void* out,
                                      uint32_t len) {
  if (cache_ != nullptr) {
    return cache_->Read(env, *this, handle, offset, out, len);
  }
  return CacheRead(env, handle, offset, out, len);
}

base::Result<uint32_t> FsClient::CacheRead(mk::Env& env, uint64_t handle, uint64_t offset,
                                           void* out, uint32_t len) {
  FsRequest r;
  r.op = FsOp::kRead;
  r.offset = offset;
  r.len = std::min(len, kFsMaxIo);
  FsReply reply;
  mk::RpcRef ref;
  ref.recv_buf = out;
  ref.recv_cap = len;
  const base::Status st = CallHandle(env, handle, r, &reply, &ref);
  if (st != base::Status::kOk) {
    return st;
  }
  if (reply.status != 0) {
    return static_cast<base::Status>(reply.status);
  }
  return reply.len;
}

base::Result<uint32_t> FsClient::Write(mk::Env& env, uint64_t handle, uint64_t offset,
                                       const void* data, uint32_t len) {
  if (cache_ != nullptr) {
    return cache_->Write(env, *this, handle, offset, data, len);
  }
  return CacheWrite(env, handle, offset, data, len);
}

base::Result<uint32_t> FsClient::CacheWrite(mk::Env& env, uint64_t handle, uint64_t offset,
                                            const void* data, uint32_t len) {
  FsRequest r;
  r.op = FsOp::kWrite;
  r.offset = offset;
  r.len = std::min(len, kFsMaxIo);  // short write past the cap, like Read
  FsReply reply;
  mk::RpcRef ref;
  ref.send_data = data;
  ref.send_len = r.len;
  const base::Status st = CallHandle(env, handle, r, &reply, &ref);
  if (st != base::Status::kOk) {
    return st;
  }
  if (reply.status != 0) {
    return static_cast<base::Status>(reply.status);
  }
  return reply.len;
}

base::Result<uint32_t> FsClient::ReadV(mk::Env& env, uint64_t handle,
                                       const FsReadExtent* extents, uint32_t count) {
  if (count == 0 || count > kFsMaxExtents) {
    return base::Status::kInvalidArgument;
  }
  if (cache_ != nullptr) {
    // The scatter read goes to the server; pending write-behind must land
    // first so it observes them.
    const base::Status fl = cache_->FlushHandle(env, *this, handle);
    if (fl != base::Status::kOk) {
      return fl;
    }
  }
  FsExtent wire[kFsMaxExtents];
  uint64_t total = 0;
  for (uint32_t i = 0; i < count; ++i) {
    wire[i].offset = extents[i].offset;
    wire[i].len = extents[i].len;
    total += extents[i].len;
  }
  if (total > kFsMaxIo) {
    return base::Status::kInvalidArgument;
  }
  FsRequest r;
  r.op = FsOp::kReadV;
  r.extent_count = count;
  r.len = static_cast<uint32_t>(total);
  // The extent table rides out in the ref's send direction; the concatenated
  // extent data comes back in its receive direction — one RPC each way.
  std::vector<uint8_t> data(total);
  FsReply reply;
  mk::RpcRef ref;
  ref.send_data = wire;
  ref.send_len = static_cast<uint32_t>(count * sizeof(FsExtent));
  ref.recv_buf = data.data();
  ref.recv_cap = static_cast<uint32_t>(data.size());
  const base::Status st = CallHandle(env, handle, r, &reply, &ref);
  if (st != base::Status::kOk) {
    return st;
  }
  if (reply.status != 0) {
    return static_cast<base::Status>(reply.status);
  }
  // Scatter the concatenated payload back into the caller's buffers.
  uint32_t consumed = 0;
  for (uint32_t i = 0; i < count && consumed < reply.len; ++i) {
    const uint32_t n = std::min(extents[i].len, reply.len - consumed);
    std::memcpy(extents[i].buf, data.data() + consumed, n);
    consumed += n;
  }
  return reply.len;
}

base::Result<uint32_t> FsClient::WriteV(mk::Env& env, uint64_t handle,
                                        const FsWriteExtent* extents, uint32_t count) {
  if (count == 0 || count > kFsMaxExtents) {
    return base::Status::kInvalidArgument;
  }
  if (cache_ != nullptr) {
    // Side door past the write-behind run: keep ordering (flush first), then
    // drop cached read/attr state the gather write may supersede.
    const base::Status fl = cache_->FlushHandle(env, *this, handle);
    if (fl != base::Status::kOk) {
      return fl;
    }
    cache_->InvalidateHandle(handle);
  }
  uint64_t total = 0;
  for (uint32_t i = 0; i < count; ++i) {
    total += extents[i].len;
  }
  if (total > kFsMaxIo) {
    return base::Status::kInvalidArgument;
  }
  // Gather [extent table][payload bytes] into one bulk buffer.
  const uint32_t table_bytes = static_cast<uint32_t>(count * sizeof(FsExtent));
  std::vector<uint8_t> bulk(table_bytes + total);
  FsExtent* wire = reinterpret_cast<FsExtent*>(bulk.data());
  uint32_t filled = 0;
  for (uint32_t i = 0; i < count; ++i) {
    wire[i] = FsExtent{extents[i].offset, extents[i].len, 0};
    std::memcpy(bulk.data() + table_bytes + filled, extents[i].buf, extents[i].len);
    filled += extents[i].len;
  }
  FsRequest r;
  r.op = FsOp::kWriteV;
  r.extent_count = count;
  r.len = static_cast<uint32_t>(total);
  FsReply reply;
  mk::RpcRef ref;
  ref.send_data = bulk.data();
  ref.send_len = static_cast<uint32_t>(bulk.size());
  const base::Status st = CallHandle(env, handle, r, &reply, &ref);
  if (st != base::Status::kOk) {
    return st;
  }
  if (reply.status != 0) {
    return static_cast<base::Status>(reply.status);
  }
  return reply.len;
}

base::Result<FileAttr> FsClient::GetAttr(mk::Env& env, const std::string& path) {
  FsRequest r;
  r.op = FsOp::kGetAttr;
  r.SetPath(path.c_str());
  FsReply reply;
  const base::Status st = Call(env, r, &reply);
  if (st != base::Status::kOk) {
    return st;
  }
  if (reply.status != 0) {
    return static_cast<base::Status>(reply.status);
  }
  return FileAttr{.size = reply.attr.size, .directory = reply.attr.directory != 0};
}

base::Result<FileAttr> FsClient::Stat(mk::Env& env, uint64_t handle) {
  if (cache_ != nullptr) {
    return cache_->Stat(env, *this, handle);
  }
  return CacheStat(env, handle);
}

base::Result<FileAttr> FsClient::CacheStat(mk::Env& env, uint64_t handle) {
  FsRequest r;
  r.op = FsOp::kFsStat;
  FsReply reply;
  const base::Status st = CallHandle(env, handle, r, &reply);
  if (st != base::Status::kOk) {
    return st;
  }
  if (reply.status != 0) {
    return static_cast<base::Status>(reply.status);
  }
  return FileAttr{.size = reply.attr.size, .directory = reply.attr.directory != 0};
}

base::Status FsClient::SetSize(mk::Env& env, uint64_t handle, uint64_t size) {
  if (cache_ != nullptr) {
    // Truncation past buffered bytes must not resurrect them: flush, call,
    // then drop every cached view of the handle.
    const base::Status fl = cache_->FlushHandle(env, *this, handle);
    if (fl != base::Status::kOk) {
      return fl;
    }
    cache_->InvalidateHandle(handle);
  }
  FsRequest r;
  r.op = FsOp::kSetSize;
  r.offset = size;
  FsReply reply;
  const base::Status st = CallHandle(env, handle, r, &reply);
  return st != base::Status::kOk ? st : static_cast<base::Status>(reply.status);
}

base::Status FsClient::Mkdir(mk::Env& env, const std::string& path) {
  FsRequest r;
  r.op = FsOp::kMkdir;
  r.SetPath(path.c_str());
  FsReply reply;
  const base::Status st = Call(env, r, &reply);
  return st != base::Status::kOk ? st : static_cast<base::Status>(reply.status);
}

base::Result<std::vector<DirEntry>> FsClient::ReadDir(mk::Env& env, const std::string& path) {
  FsRequest r;
  r.op = FsOp::kReadDir;
  r.SetPath(path.c_str());
  FsReply reply;
  std::vector<FsDirEntryWire> wire(kFsMaxIo / sizeof(FsDirEntryWire));
  mk::RpcRef ref;
  ref.recv_buf = wire.data();
  ref.recv_cap = static_cast<uint32_t>(wire.size() * sizeof(FsDirEntryWire));
  const base::Status st = Call(env, r, &reply, &ref);
  if (st != base::Status::kOk) {
    return st;
  }
  if (reply.status != 0) {
    return static_cast<base::Status>(reply.status);
  }
  std::vector<DirEntry> out;
  for (uint32_t i = 0; i < reply.len; ++i) {
    out.push_back({wire[i].name, 0, wire[i].directory != 0});
  }
  return out;
}

base::Status FsClient::Unlink(mk::Env& env, const std::string& path) {
  FsRequest r;
  r.op = FsOp::kUnlink;
  r.SetPath(path.c_str());
  FsReply reply;
  const base::Status st = Call(env, r, &reply);
  return st != base::Status::kOk ? st : static_cast<base::Status>(reply.status);
}

base::Status FsClient::Rename(mk::Env& env, const std::string& from, const std::string& to) {
  FsRequest r;
  r.op = FsOp::kRename;
  r.SetPath(from.c_str());
  r.SetPath2(to.c_str());
  FsReply reply;
  const base::Status st = Call(env, r, &reply);
  return st != base::Status::kOk ? st : static_cast<base::Status>(reply.status);
}

base::Status FsClient::Lock(mk::Env& env, uint64_t handle, uint64_t start, uint64_t len,
                            bool exclusive) {
  if (cache_ != nullptr) {
    // Lock acquisition is a coherence point: another client may have written
    // the range since we cached it. Publish our pending bytes, drop ours.
    const base::Status fl = cache_->FlushHandle(env, *this, handle);
    if (fl != base::Status::kOk) {
      return fl;
    }
    cache_->InvalidateHandle(handle);
  }
  FsRequest r;
  r.op = FsOp::kLock;
  r.offset = start;
  r.len = static_cast<uint32_t>(len);
  r.lock_exclusive = exclusive ? 1 : 0;
  FsReply reply;
  const base::Status st = CallHandle(env, handle, r, &reply);
  return st != base::Status::kOk ? st : static_cast<base::Status>(reply.status);
}

base::Status FsClient::Unlock(mk::Env& env, uint64_t handle, uint64_t start, uint64_t len) {
  if (cache_ != nullptr) {
    // Writes made under the lock must be visible before the lock drops.
    const base::Status fl = cache_->FlushHandle(env, *this, handle);
    if (fl != base::Status::kOk) {
      return fl;
    }
  }
  FsRequest r;
  r.op = FsOp::kUnlock;
  r.offset = start;
  r.len = static_cast<uint32_t>(len);
  FsReply reply;
  const base::Status st = CallHandle(env, handle, r, &reply);
  return st != base::Status::kOk ? st : static_cast<base::Status>(reply.status);
}

base::Status FsClient::SetEa(mk::Env& env, const std::string& path, const std::string& key,
                             const std::string& value) {
  FsRequest r;
  r.op = FsOp::kSetEa;
  r.SetPath(path.c_str());
  // Key + value + both NULs must fit the fixed path2 buffer; anything larger
  // would overflow the request struct.
  if (key.size() + value.size() + 2 > kFsMaxPath) {
    return base::Status::kInvalidArgument;
  }
  std::memcpy(r.path2, key.c_str(), key.size() + 1);
  std::memcpy(r.path2 + key.size() + 1, value.c_str(), value.size() + 1);
  FsReply reply;
  const base::Status st = Call(env, r, &reply);
  return st != base::Status::kOk ? st : static_cast<base::Status>(reply.status);
}

base::Result<std::string> FsClient::GetEa(mk::Env& env, const std::string& path,
                                          const std::string& key) {
  FsRequest r;
  r.op = FsOp::kGetEa;
  r.SetPath(path.c_str());
  r.SetPath2(key.c_str());
  FsReply reply;
  char value[256] = {};
  mk::RpcRef ref;
  ref.recv_buf = value;
  ref.recv_cap = sizeof(value) - 1;
  const base::Status st = Call(env, r, &reply, &ref);
  if (st != base::Status::kOk) {
    return st;
  }
  if (reply.status != 0) {
    return static_cast<base::Status>(reply.status);
  }
  return std::string(value, reply.len);
}

base::Result<FsMapping> FsClient::MapObject(mk::Env& env, uint64_t handle, uint64_t min_len) {
  if (cache_ != nullptr) {
    // Mapped pages fault in from the server: pending write-behind must land
    // there first or the mapping would read stale bytes.
    const base::Status fl = cache_->FlushHandle(env, *this, handle);
    if (fl != base::Status::kOk) {
      return fl;
    }
  }
  FsRequest r;
  r.op = FsOp::kMapObject;
  r.len = static_cast<uint32_t>(min_len);
  FsReply reply;
  const base::Status st = CallHandle(env, handle, r, &reply);
  if (st != base::Status::kOk) {
    return st;
  }
  if (reply.status != 0) {
    return static_cast<base::Status>(reply.status);
  }
  return FsMapping{reply.handle, reply.attr.size};
}

base::Result<uint32_t> FsClient::UnmapObject(mk::Env& env, uint64_t object_id) {
  FsRequest r;
  r.op = FsOp::kMapRelease;
  r.handle = object_id;
  FsReply reply;
  const base::Status st = Call(env, r, &reply);
  if (st != base::Status::kOk) {
    return st;
  }
  if (reply.status != 0) {
    return static_cast<base::Status>(reply.status);
  }
  return reply.len;
}

base::Status FsClient::Flush(mk::Env& env, uint64_t handle) {
  if (cache_ == nullptr) {
    return base::Status::kOk;
  }
  return cache_->FlushHandle(env, *this, handle);
}

base::Status FsClient::Sync(mk::Env& env) {
  if (cache_ != nullptr) {
    const base::Status fl = cache_->FlushAll(env, *this);
    if (fl != base::Status::kOk) {
      return fl;
    }
  }
  FsRequest r;
  r.op = FsOp::kSync;
  r.SetPath("/");
  FsReply reply;
  const base::Status st = Call(env, r, &reply);
  return st != base::Status::kOk ? st : static_cast<base::Status>(reply.status);
}

}  // namespace svc
