// Cluster: a set of named servers (each hosting one provider and its
// catalog) joined by a metered transport. The substrate the multi-server
// experiments run on.
#ifndef NEXUS_FEDERATION_CLUSTER_H_
#define NEXUS_FEDERATION_CLUSTER_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "federation/transport.h"
#include "provider/provider.h"

namespace nexus {

/// One simulated back-end server.
struct Server {
  std::string name;
  ProviderPtr provider;
};

/// Owns the servers and the transport connecting them (and the client).
class Cluster {
 public:
  explicit Cluster(TransportOptions transport_options = {})
      : transport_(transport_options) {}

  /// Registers a server; names must be unique and may not be "client".
  Status AddServer(const std::string& name, ProviderPtr provider);

  /// Stores a collection at a server (the "data lives somewhere" primitive).
  Status PutData(const std::string& server, const std::string& table, Dataset data);

  /// Copies `table` from its first holder to `to` so the table has multiple
  /// holders — the redundancy the coordinator's failover replanning routes
  /// through when a holder dies. The copy is metered as one server→server
  /// data message. No-op when `to` already holds the table.
  Status Replicate(const std::string& table, const std::string& to);

  Provider* provider(const std::string& server);
  const Provider* provider(const std::string& server) const;

  /// Server names in registration order.
  std::vector<std::string> ServerNames() const;

  /// Servers whose catalog contains `table`, in registration order.
  std::vector<std::string> HoldersOf(const std::string& table) const;

  Transport* transport() { return &transport_; }
  const Transport& transport() const { return transport_; }

  /// Leases the lowest temp namespace index no running coordinator call
  /// holds. Calls that run at once hold distinct indices, so the temps and
  /// loop bindings they name on shared servers never collide; a call hands
  /// its index back with ReleaseNamespace once its temps are dropped.
  int LeaseNamespace();
  void ReleaseNamespace(int index);

 private:
  std::vector<Server> servers_;
  Transport transport_;
  std::mutex lease_mu_;
  std::vector<bool> leased_;  // by namespace index
};

}  // namespace nexus

#endif  // NEXUS_FEDERATION_CLUSTER_H_
