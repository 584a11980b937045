#include "optimizer/fusion.h"

namespace nexus {

namespace {

bool IsRowLocal(OpKind k) {
  return k == OpKind::kSelect || k == OpKind::kProject || k == OpKind::kExtend;
}

}  // namespace

std::optional<FusedChain> MatchFusedChain(const Plan& root) {
  if (!IsRowLocal(root.kind()) && root.kind() != OpKind::kAggregate) {
    return std::nullopt;
  }
  // Collect top-down, then reverse into application order.
  std::vector<const Plan*> down;
  down.push_back(&root);
  const Plan* cur = root.child(0).get();
  while (IsRowLocal(cur->kind())) {
    down.push_back(cur);
    cur = cur->child(0).get();
  }
  if (down.size() < 2) return std::nullopt;
  FusedChain chain;
  chain.source = cur;
  chain.ops.assign(down.rbegin(), down.rend());
  return chain;
}

}  // namespace nexus
