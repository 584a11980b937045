#include "optimizer/lower_semiring.h"

namespace nexus {

bool SemiringLowerable(const Plan& node) {
  switch (node.kind()) {
    case OpKind::kAggregate:
    case OpKind::kMatMul:
    case OpKind::kPageRank:
      return true;
    default:
      return false;
  }
}

int64_t CountLowerableOps(const Plan& plan) {
  int64_t n = SemiringLowerable(plan) ? 1 : 0;
  for (const PlanPtr& c : plan.children()) n += CountLowerableOps(*c);
  return n;
}

}  // namespace nexus
