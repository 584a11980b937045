// Graph analytics engine — the framework's graph-processing substrate
// (exercising the paper's "graph analytics … require repeated execution
// until convergence" motivation for control iteration).
//
// CSR adjacency over compacted node ids, with the classic analytics kernels:
// PageRank, BFS, single-source shortest paths, connected components, and
// triangle counting.
#ifndef NEXUS_GRAPH_GRAPH_H_
#define NEXUS_GRAPH_GRAPH_H_

#include <cstdint>
#include <vector>

#include "algebra/csr.h"
#include "common/result.h"
#include "types/table.h"

namespace nexus {
namespace graph {

/// Directed graph in CSR form. Node ids are compacted to [0, num_nodes);
/// original ids are kept for translation back to collections.
class CsrGraph {
 public:
  /// Builds from parallel src/dst vectors of original (sparse) node ids.
  static CsrGraph FromEdges(const std::vector<int64_t>& src,
                            const std::vector<int64_t>& dst);

  /// Builds from an edge table's two int64 columns.
  static Result<CsrGraph> FromTable(const Table& edges, const std::string& src_col,
                                    const std::string& dst_col);

  int64_t num_nodes() const { return static_cast<int64_t>(original_id_.size()); }
  int64_t num_edges() const { return static_cast<int64_t>(adj_.size()); }

  /// Out-neighbors of compact node u.
  const int64_t* neighbors_begin(int64_t u) const {
    return adj_.data() + offsets_[static_cast<size_t>(u)];
  }
  const int64_t* neighbors_end(int64_t u) const {
    return adj_.data() + offsets_[static_cast<size_t>(u) + 1];
  }
  int64_t out_degree(int64_t u) const {
    return offsets_[static_cast<size_t>(u) + 1] - offsets_[static_cast<size_t>(u)];
  }

  /// The adjacency as a pattern matrix (every edge stored as 1.0), the
  /// operand of the algebra's CSR kernels.
  algebra::CsrView adjacency() const {
    return algebra::CsrView{num_nodes(), num_nodes(), offsets_.data(),
                            adj_.data(), nullptr};
  }

  /// Original id of compact node u.
  int64_t original_id(int64_t u) const { return original_id_[static_cast<size_t>(u)]; }

 private:
  std::vector<int64_t> offsets_;      // size num_nodes + 1
  std::vector<int64_t> adj_;          // compact dst ids
  std::vector<int64_t> original_id_;  // compact id -> original id (sorted)
};

/// Options and result for PageRank.
struct PageRankOptions {
  double damping = 0.85;
  int64_t max_iters = 50;
  double epsilon = 1e-9;  ///< L1 convergence threshold
};
struct PageRankResult {
  std::vector<double> rank;  ///< per compact node id
  int64_t iterations = 0;
  double final_delta = 0.0;
};

/// Power iteration with uniform dangling-mass redistribution; ranks sum to 1.
PageRankResult PageRank(const CsrGraph& g, const PageRankOptions& opts);

/// BFS levels from `source` (compact id); unreachable nodes get -1.
std::vector<int64_t> Bfs(const CsrGraph& g, int64_t source);

/// Dijkstra over per-edge weights aligned with the CSR adjacency order
/// (weights.size() == num_edges). Unreachable nodes get +inf.
Result<std::vector<double>> ShortestPaths(const CsrGraph& g, int64_t source,
                                          const std::vector<double>& weights);

/// Weakly connected component label per node (labels are the smallest
/// compact node id in the component).
std::vector<int64_t> ConnectedComponents(const CsrGraph& g);

/// Triangle count treating edges as undirected (each triangle counted once).
int64_t CountTriangles(const CsrGraph& g);

}  // namespace graph
}  // namespace nexus

#endif  // NEXUS_GRAPH_GRAPH_H_
