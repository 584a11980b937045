#include "federation/cluster.h"

#include <algorithm>

#include "common/str_util.h"
#include "core/serialize.h"

namespace nexus {

Status Cluster::AddServer(const std::string& name, ProviderPtr provider) {
  if (name.empty() || name == kClientNode) {
    return Status::InvalidArgument("invalid server name");
  }
  for (const Server& s : servers_) {
    if (s.name == name) {
      return Status::AlreadyExists(StrCat("server '", name, "' already registered"));
    }
  }
  if (provider == nullptr) {
    return Status::InvalidArgument("null provider");
  }
  // The provider's wire capability becomes part of the transport's
  // negotiation table: links to a text-only peer fall back to the textual
  // format.
  transport_.SetNodeBinaryCapable(name, provider->AcceptsBinaryWire());
  servers_.push_back(Server{name, std::move(provider)});
  return Status::OK();
}

Status Cluster::PutData(const std::string& server, const std::string& table,
                        Dataset data) {
  Provider* p = provider(server);
  if (p == nullptr) {
    return Status::NotFound(StrCat("no server named '", server, "'"));
  }
  return p->catalog()->Put(table, std::move(data));
}

Status Cluster::Replicate(const std::string& table, const std::string& to) {
  Provider* dst = provider(to);
  if (dst == nullptr) {
    return Status::NotFound(StrCat("no server named '", to, "'"));
  }
  if (dst->catalog()->Contains(table)) return Status::OK();
  std::vector<std::string> holders = HoldersOf(table);
  if (holders.empty()) {
    return Status::NotFound(StrCat("no server holds '", table, "'"));
  }
  NEXUS_ASSIGN_OR_RETURN(Dataset d,
                         provider(holders[0])->catalog()->Get(table));
  // Real serialization end to end: the copy is encoded in the negotiated
  // link format, metered at its actual wire size, and decoded on arrival.
  if (d.is_array()) NEXUS_RETURN_NOT_OK(d.array()->EnsureAllResident());
  std::string wire = SerializeDatasetWire(
      d, transport_.NegotiatedFormat(holders[0], to));
  transport_.Send(holders[0], to, static_cast<int64_t>(wire.size()),
                  MessageKind::kData);
  NEXUS_ASSIGN_OR_RETURN(Dataset copy, ParseDatasetWire(wire));
  return dst->catalog()->Put(table, std::move(copy));
}

Provider* Cluster::provider(const std::string& server) {
  for (Server& s : servers_) {
    if (s.name == server) return s.provider.get();
  }
  return nullptr;
}

const Provider* Cluster::provider(const std::string& server) const {
  for (const Server& s : servers_) {
    if (s.name == server) return s.provider.get();
  }
  return nullptr;
}

std::vector<std::string> Cluster::ServerNames() const {
  std::vector<std::string> out;
  out.reserve(servers_.size());
  for (const Server& s : servers_) out.push_back(s.name);
  return out;
}

std::vector<std::string> Cluster::HoldersOf(const std::string& table) const {
  std::vector<std::string> out;
  for (const Server& s : servers_) {
    if (s.provider->catalog()->Contains(table)) out.push_back(s.name);
  }
  return out;
}

int Cluster::LeaseNamespace() {
  std::lock_guard<std::mutex> lock(lease_mu_);
  auto free = std::find(leased_.begin(), leased_.end(), false);
  if (free == leased_.end()) free = leased_.insert(free, false);
  *free = true;
  return static_cast<int>(free - leased_.begin());
}

void Cluster::ReleaseNamespace(int index) {
  std::lock_guard<std::mutex> lock(lease_mu_);
  leased_[static_cast<size_t>(index)] = false;
}

}  // namespace nexus
