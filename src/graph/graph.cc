#include "graph/graph.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <unordered_map>

#include "algebra/kernels.h"
#include "common/str_util.h"
#include "telemetry/telemetry.h"

namespace nexus {
namespace graph {

CsrGraph CsrGraph::FromEdges(const std::vector<int64_t>& src,
                             const std::vector<int64_t>& dst) {
  CsrGraph g;
  // Compact ids: sort distinct originals so compact order is deterministic.
  std::vector<int64_t> ids;
  ids.reserve(src.size() + dst.size());
  ids.insert(ids.end(), src.begin(), src.end());
  ids.insert(ids.end(), dst.begin(), dst.end());
  std::sort(ids.begin(), ids.end());
  g.original_id_.assign(ids.begin(), std::unique(ids.begin(), ids.end()));
  std::unordered_map<int64_t, int64_t> compact;
  compact.reserve(g.original_id_.size());
  for (size_t i = 0; i < g.original_id_.size(); ++i) {
    compact.emplace(g.original_id_[i], static_cast<int64_t>(i));
  }
  // Each endpoint is mapped once: sources here, destinations on placement.
  std::vector<int64_t> from(src.size());
  g.offsets_.assign(static_cast<size_t>(g.num_nodes()) + 1, 0);
  for (size_t e = 0; e < src.size(); ++e) {
    from[e] = compact.find(src[e])->second;
    g.offsets_[static_cast<size_t>(from[e]) + 1]++;
  }
  for (size_t i = 1; i < g.offsets_.size(); ++i) g.offsets_[i] += g.offsets_[i - 1];
  g.adj_.resize(src.size());
  std::vector<int64_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (size_t e = 0; e < src.size(); ++e) {
    g.adj_[static_cast<size_t>(cursor[static_cast<size_t>(from[e])]++)] =
        compact.find(dst[e])->second;
  }
  return g;
}

Result<CsrGraph> CsrGraph::FromTable(const Table& edges, const std::string& src_col,
                                     const std::string& dst_col) {
  NEXUS_ASSIGN_OR_RETURN(int sc, edges.schema()->FindFieldOrError(src_col));
  NEXUS_ASSIGN_OR_RETURN(int dc, edges.schema()->FindFieldOrError(dst_col));
  if (edges.schema()->field(sc).type != DataType::kInt64 ||
      edges.schema()->field(dc).type != DataType::kInt64) {
    return Status::TypeError("edge endpoints must be int64");
  }
  if (edges.column(sc).has_nulls() || edges.column(dc).has_nulls()) {
    return Status::InvalidArgument("edge endpoints may not be null");
  }
  return FromEdges(edges.column(sc).ints(), edges.column(dc).ints());
}

PageRankResult PageRank(const CsrGraph& g, const PageRankOptions& opts) {
  telemetry::SpanGuard span(telemetry::kCategoryEngine, "graph.PageRank");
  span.AddCounter("nodes", g.num_nodes());
  span.AddCounter("edges", g.num_edges());
  PageRankResult out;
  int64_t n = g.num_nodes();
  if (n == 0) return out;
  algebra::CountLowered("algebra.pagerank_lowered");
  out.rank.assign(static_cast<size_t>(n), 1.0 / static_cast<double>(n));
  std::vector<double> next(static_cast<size_t>(n));
  std::vector<double> share(static_cast<size_t>(n));
  for (int64_t iter = 0; iter < opts.max_iters; ++iter) {
    double dangling = 0.0;
    for (int64_t u = 0; u < n; ++u) {
      int64_t deg = g.out_degree(u);
      double r = out.rank[static_cast<size_t>(u)];
      if (deg == 0) dangling += r;
      share[static_cast<size_t>(u)] =
          deg == 0 ? 0.0 : opts.damping * r / static_cast<double>(deg);
    }
    double base = (1.0 - opts.damping) / static_cast<double>(n) +
                  opts.damping * dangling / static_cast<double>(n);
    // Rank propagation over plus_times: next = base ⊕ shareᵀ·A, pushed in
    // (source-ascending, adjacency) order onto the base vector.
    std::fill(next.begin(), next.end(), base);
    {
      telemetry::SpanGuard step(telemetry::kCategoryEngine, "alg.VxM");
      step.AddCounter("entries", g.num_edges());
      algebra::VxMPush<algebra::PlusTimes>(g.adjacency(), share, &next);
    }
    double delta = 0.0;
    for (int64_t u = 0; u < n; ++u) {
      delta += std::fabs(next[static_cast<size_t>(u)] - out.rank[static_cast<size_t>(u)]);
    }
    out.rank.swap(next);
    out.final_delta = delta;
    ++out.iterations;
    if (delta < opts.epsilon) break;
  }
  return out;
}

std::vector<int64_t> Bfs(const CsrGraph& g, int64_t source) {
  std::vector<int64_t> level(static_cast<size_t>(g.num_nodes()), -1);
  if (source < 0 || source >= g.num_nodes()) return level;
  algebra::CountLowered("algebra.bfs_lowered");
  // Level-synchronous (min,+) relaxation: each step reaches the unsettled
  // out-neighbors of the frontier at level ⊗ 1 = level + 1.
  algebra::TraversalMask mask(g.num_nodes());
  mask.state[static_cast<size_t>(source)] = algebra::TraversalMask::kSettled;
  level[static_cast<size_t>(source)] = 0;
  algebra::SparseVec frontier{{source}, {0.0}};
  algebra::SparseVec next;
  while (!frontier.idx.empty()) {
    algebra::MaskedVxM<algebra::MinPlus>(g.adjacency(), frontier, &mask, &next);
    for (size_t i = 0; i < next.idx.size(); ++i) {
      level[static_cast<size_t>(next.idx[i])] = static_cast<int64_t>(next.val[i]);
    }
    std::swap(frontier, next);
  }
  return level;
}

Result<std::vector<double>> ShortestPaths(const CsrGraph& g, int64_t source,
                                          const std::vector<double>& weights) {
  if (static_cast<int64_t>(weights.size()) != g.num_edges()) {
    return Status::InvalidArgument(
        StrCat("expected ", g.num_edges(), " edge weights, got ", weights.size()));
  }
  for (double w : weights) {
    if (w < 0) return Status::InvalidArgument("negative edge weight");
  }
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(static_cast<size_t>(g.num_nodes()), inf);
  if (source < 0 || source >= g.num_nodes()) return dist;
  using Item = std::pair<double, int64_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[static_cast<size_t>(source)] = 0.0;
  pq.emplace(0.0, source);
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[static_cast<size_t>(u)]) continue;
    const int64_t* begin = g.neighbors_begin(u);
    for (const int64_t* v = begin; v != g.neighbors_end(u); ++v) {
      size_t edge_idx = static_cast<size_t>(
          (begin - g.neighbors_begin(0)) + (v - begin));
      double nd = d + weights[edge_idx];
      if (nd < dist[static_cast<size_t>(*v)]) {
        dist[static_cast<size_t>(*v)] = nd;
        pq.emplace(nd, *v);
      }
    }
  }
  return dist;
}

std::vector<int64_t> ConnectedComponents(const CsrGraph& g) {
  int64_t n = g.num_nodes();
  std::vector<int64_t> parent(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) parent[static_cast<size_t>(i)] = i;
  std::function<int64_t(int64_t)> find = [&](int64_t x) {
    while (parent[static_cast<size_t>(x)] != x) {
      parent[static_cast<size_t>(x)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  };
  auto unite = [&](int64_t a, int64_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (a > b) std::swap(a, b);
    parent[static_cast<size_t>(b)] = a;  // smaller id wins → stable labels
  };
  for (int64_t u = 0; u < n; ++u) {
    for (const int64_t* v = g.neighbors_begin(u); v != g.neighbors_end(u); ++v) {
      unite(u, *v);
    }
  }
  std::vector<int64_t> label(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) label[static_cast<size_t>(i)] = find(i);
  return label;
}

int64_t CountTriangles(const CsrGraph& g) {
  int64_t n = g.num_nodes();
  // Undirected neighbor sets, deduplicated, self-loops dropped.
  std::vector<std::vector<int64_t>> nbrs(static_cast<size_t>(n));
  for (int64_t u = 0; u < n; ++u) {
    for (const int64_t* v = g.neighbors_begin(u); v != g.neighbors_end(u); ++v) {
      if (*v == u) continue;
      nbrs[static_cast<size_t>(u)].push_back(*v);
      nbrs[static_cast<size_t>(*v)].push_back(u);
    }
  }
  for (auto& list : nbrs) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  // Count each triangle once via the ordered-intersection method.
  int64_t triangles = 0;
  for (int64_t u = 0; u < n; ++u) {
    const auto& nu = nbrs[static_cast<size_t>(u)];
    for (int64_t v : nu) {
      if (v <= u) continue;
      const auto& nv = nbrs[static_cast<size_t>(v)];
      // Intersect neighbors greater than v.
      size_t i = 0, j = 0;
      while (i < nu.size() && j < nv.size()) {
        if (nu[i] < nv[j]) {
          ++i;
        } else if (nu[i] > nv[j]) {
          ++j;
        } else {
          if (nu[i] > v) ++triangles;
          ++i;
          ++j;
        }
      }
    }
  }
  return triangles;
}

}  // namespace graph
}  // namespace nexus
