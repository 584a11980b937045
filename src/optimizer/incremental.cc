#include "optimizer/incremental.h"

#include <utility>

#include "common/str_util.h"

namespace nexus {
namespace incremental {

namespace {

/// Builds the delta node for `plan`, or sets *refusal and returns null.
/// `at_root` is true only along the spine where an aggregate may sit (the
/// root itself): anywhere else its output would change by update rather
/// than by append, which insert-only deltas cannot express.
std::unique_ptr<DeltaNode> Rewrite(const PlanPtr& plan, bool at_root,
                                   std::string* refusal) {
  auto make = [&](DeltaKind kind) {
    auto node = std::make_unique<DeltaNode>();
    node->kind = kind;
    node->plan = plan.get();
    return node;
  };
  auto child = [&](size_t i) {
    return Rewrite(plan->children()[i], false, refusal);
  };
  switch (plan->kind()) {
    case OpKind::kScan:
      return make(DeltaKind::kScan);
    case OpKind::kValues: {
      if (!plan->As<ValuesOp>().data.is_table()) {
        *refusal = "inline array Values have no row-delta form";
        return nullptr;
      }
      return make(DeltaKind::kConst);
    }
    case OpKind::kSelect: {
      auto c = child(0);
      if (c == nullptr) return nullptr;
      auto node = make(DeltaKind::kFilter);
      node->children.push_back(std::move(c));
      return node;
    }
    case OpKind::kProject: {
      auto c = child(0);
      if (c == nullptr) return nullptr;
      auto node = make(DeltaKind::kProject);
      node->children.push_back(std::move(c));
      return node;
    }
    case OpKind::kExtend: {
      auto c = child(0);
      if (c == nullptr) return nullptr;
      auto node = make(DeltaKind::kExtend);
      node->children.push_back(std::move(c));
      return node;
    }
    case OpKind::kRename: {
      auto c = child(0);
      if (c == nullptr) return nullptr;
      auto node = make(DeltaKind::kRename);
      node->children.push_back(std::move(c));
      return node;
    }
    case OpKind::kJoin: {
      const auto& op = plan->As<JoinOp>();
      if (op.type != JoinType::kInner) {
        *refusal = StrCat(
            "non-inner join needs retractions: an append can match a row "
            "already emitted as unmatched");
        return nullptr;
      }
      if (op.left_keys.empty()) {
        *refusal = "keys-free (cross) join: delta is not proportional to |Δ|";
        return nullptr;
      }
      auto l = child(0);
      if (l == nullptr) return nullptr;
      auto r = child(1);
      if (r == nullptr) return nullptr;
      auto node = make(DeltaKind::kJoin);
      node->children.push_back(std::move(l));
      node->children.push_back(std::move(r));
      return node;
    }
    case OpKind::kUnion: {
      auto l = child(0);
      if (l == nullptr) return nullptr;
      auto r = child(1);
      if (r == nullptr) return nullptr;
      auto node = make(DeltaKind::kUnion);
      node->children.push_back(std::move(l));
      node->children.push_back(std::move(r));
      return node;
    }
    case OpKind::kAggregate: {
      if (!at_root) {
        *refusal =
            "aggregate below the root: its output changes by update, not by "
            "append";
        return nullptr;
      }
      auto c = child(0);
      if (c == nullptr) return nullptr;
      auto node = make(DeltaKind::kAggregate);
      node->children.push_back(std::move(c));
      return node;
    }
    default:
      *refusal = StrCat(OpKindName(plan->kind()),
                        " has no insert-only delta rule");
      return nullptr;
  }
}

void Describe(const DeltaNode& node, int indent, std::string* out) {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  *out += StrCat(DeltaKindName(node.kind), " ", OpKindName(node.plan->kind()),
                 "\n");
  for (const auto& c : node.children) Describe(*c, indent + 1, out);
}

}  // namespace

const char* DeltaKindName(DeltaKind kind) {
  switch (kind) {
    case DeltaKind::kScan:
      return "Δscan";
    case DeltaKind::kConst:
      return "Δconst";
    case DeltaKind::kFilter:
      return "Δfilter";
    case DeltaKind::kProject:
      return "Δproject";
    case DeltaKind::kExtend:
      return "Δextend";
    case DeltaKind::kRename:
      return "Δrename";
    case DeltaKind::kJoin:
      return "Δjoin";
    case DeltaKind::kUnion:
      return "Δunion";
    case DeltaKind::kAggregate:
      return "Δreduce⊕";
  }
  return "?";
}

DeltaForm RewriteToDelta(const PlanPtr& plan) {
  DeltaForm form;
  form.root = Rewrite(plan, /*at_root=*/true, &form.refusal);
  return form;
}

std::string DescribeDeltaForm(const DeltaForm& form) {
  if (!form.supported()) return StrCat("refused: ", form.refusal, "\n");
  std::string out;
  Describe(*form.root, 0, &out);
  return out;
}

}  // namespace incremental
}  // namespace nexus
