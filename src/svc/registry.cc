#include "src/svc/registry.h"

#include <cstring>

#include "src/base/log.h"

namespace svc {

namespace {
const hw::CodeRegion& RegRegion() {
  static const hw::CodeRegion r = hw::DefineCode("svc.registry.op", 130);
  return r;
}

// Request strings are fixed-size fields: read at most the field, so a
// client that fills one without a terminator cannot run the server past it.
template <size_t N>
std::string Field(const char (&s)[N]) {
  return std::string(s, strnlen(s, N));
}
}  // namespace

RegistryServer::RegistryServer(mk::Kernel& kernel, mk::Task* task)
    : kernel_(kernel), task_(task) {
  auto port = kernel_.PortAllocate(*task_);
  WPOS_CHECK(port.ok());
  receive_port_ = *port;
  loop_ = std::make_unique<mk::ServerLoop<RegRequest>>(receive_port_, "svc.registry");
  loop_->Register(RegOp::kSet, this, &RegistryServer::HandleSet);
  loop_->Register(RegOp::kGet, this, &RegistryServer::HandleGet);
  loop_->Register(RegOp::kDelete, this, &RegistryServer::HandleDelete);
  loop_->Register(RegOp::kList, this, &RegistryServer::HandleList);
  kernel_.CreateThread(task_, "registry", [this](mk::Env& env) { loop_->Run(env); },
                       mk::Thread::kDefaultPriority + 1);
}

mk::PortName RegistryServer::GrantTo(mk::Task& client) {
  auto name = kernel_.MakeSendRight(*task_, receive_port_, client);
  WPOS_CHECK(name.ok());
  return *name;
}

void RegistryServer::HandleSet(mk::Env& env, const mk::RpcRequest& rpc, const RegRequest& r) {
  kernel_.cpu().Execute(RegRegion());
  entries_[Field(r.key)] = Field(r.value);
  RegReply reply;
  reply.status = static_cast<int32_t>(base::Status::kOk);
  env.RpcReply(rpc.token, &reply, sizeof(reply));
}

void RegistryServer::HandleGet(mk::Env& env, const mk::RpcRequest& rpc, const RegRequest& r) {
  kernel_.cpu().Execute(RegRegion());
  RegReply reply;
  auto it = entries_.find(Field(r.key));
  if (it == entries_.end()) {
    reply.status = static_cast<int32_t>(base::Status::kNotFound);
  } else {
    reply.status = static_cast<int32_t>(base::Status::kOk);
    std::strncpy(reply.value, it->second.c_str(), sizeof(reply.value) - 1);
  }
  env.RpcReply(rpc.token, &reply, sizeof(reply));
}

void RegistryServer::HandleDelete(mk::Env& env, const mk::RpcRequest& rpc, const RegRequest& r) {
  kernel_.cpu().Execute(RegRegion());
  RegReply reply;
  const bool erased = entries_.erase(Field(r.key)) != 0;
  reply.status = static_cast<int32_t>(erased ? base::Status::kOk : base::Status::kNotFound);
  env.RpcReply(rpc.token, &reply, sizeof(reply));
}

void RegistryServer::HandleList(mk::Env& env, const mk::RpcRequest& rpc, const RegRequest& r) {
  kernel_.cpu().Execute(RegRegion());
  std::string bulk;
  const std::string prefix = Field(r.key) + "/";
  uint32_t count = 0;
  for (const auto& [key, value] : entries_) {
    if (key.compare(0, prefix.size(), prefix) == 0 &&
        key.find('/', prefix.size()) == std::string::npos) {
      bulk += key;
      bulk.push_back('\0');
      ++count;
    }
  }
  RegReply reply;
  reply.status = static_cast<int32_t>(base::Status::kOk);
  reply.count = count;
  env.RpcReply(rpc.token, &reply, sizeof(reply), bulk.data(),
               static_cast<uint32_t>(bulk.size()));
}

base::Status RegistryClient::Set(mk::Env& env, const std::string& key, const std::string& value) {
  RegRequest r;
  r.op = RegOp::kSet;
  r.SetKey(key.c_str());
  std::strncpy(r.value, value.c_str(), sizeof(r.value) - 1);
  RegReply reply;
  const base::Status st = stub_.Call(env, r, &reply);
  return st != base::Status::kOk ? st : static_cast<base::Status>(reply.status);
}

base::Result<std::string> RegistryClient::Get(mk::Env& env, const std::string& key) {
  RegRequest r;
  r.op = RegOp::kGet;
  r.SetKey(key.c_str());
  RegReply reply;
  const base::Status st = stub_.Call(env, r, &reply);
  if (st != base::Status::kOk) {
    return st;
  }
  if (reply.status != 0) {
    return static_cast<base::Status>(reply.status);
  }
  return std::string(reply.value);
}

base::Status RegistryClient::Delete(mk::Env& env, const std::string& key) {
  RegRequest r;
  r.op = RegOp::kDelete;
  r.SetKey(key.c_str());
  RegReply reply;
  const base::Status st = stub_.Call(env, r, &reply);
  return st != base::Status::kOk ? st : static_cast<base::Status>(reply.status);
}

base::Result<std::vector<std::string>> RegistryClient::List(mk::Env& env,
                                                            const std::string& prefix) {
  RegRequest r;
  r.op = RegOp::kList;
  r.SetKey(prefix.c_str());
  RegReply reply;
  std::vector<char> bulk(8192);
  mk::RpcRef ref;
  ref.recv_buf = bulk.data();
  ref.recv_cap = static_cast<uint32_t>(bulk.size());
  const base::Status st = stub_.Call(env, r, &reply, &ref);
  if (st != base::Status::kOk) {
    return st;
  }
  std::vector<std::string> out;
  const char* p = bulk.data();
  for (uint32_t i = 0; i < reply.count; ++i) {
    out.emplace_back(p);
    p += out.back().size() + 1;
  }
  return out;
}

}  // namespace svc
