// Basic traversals and tree utilities shared by the protocol substrates.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace lrdip {

/// A rooted spanning structure: parent[v] == -1 iff v is a root (or
/// unreachable — see `reached`). parent_edge mirrors parent with edge ids.
struct RootedForest {
  std::vector<NodeId> parent;
  std::vector<EdgeId> parent_edge;
  std::vector<int> depth;
  std::vector<NodeId> order;  // nodes in visit order (roots first in their tree)
};

/// BFS tree from `root`; nodes unreachable from root have parent -1 and depth -1.
RootedForest bfs_tree(const Graph& g, NodeId root);

/// True iff every node is reachable from node 0 (or n == 0).
bool is_connected(const Graph& g);

/// Connected component id per node, and the number of components.
std::pair<std::vector<int>, int> components(const Graph& g);

/// True iff the edge subset `in_tree` (indexed by edge id) forms a spanning
/// tree of g: spans all nodes, connected, acyclic.
bool is_spanning_tree(const Graph& g, const std::vector<char>& in_tree);

/// Children lists of a rooted forest, indexed by node.
std::vector<std::vector<NodeId>> children_of(const RootedForest& f);

/// A Hamiltonian-path check: `order` must visit every node exactly once with
/// consecutive nodes adjacent in g.
bool is_hamiltonian_path(const Graph& g, const std::vector<NodeId>& order);

/// Nodes in non-increasing finish order of a DFS — handy for deterministic
/// processing orders in tests.
std::vector<NodeId> dfs_postorder(const Graph& g, NodeId root);

/// A subgraph together with the id maps back to the host graph. Used by the
/// block-decomposition protocols, which run sub-protocols on induced pieces.
/// Its size is the piece's, not the host's.
struct Subgraph {
  Graph graph;
  std::vector<NodeId> node_to_orig;  // new node id -> host node id
  std::vector<EdgeId> edge_to_orig;  // new edge id -> host edge id

  /// New node id of host node `v`, or -1 when v is not in the subgraph.
  NodeId local(NodeId v) const;

  /// (host id, new id) per node, sorted by host id; `local` searches it.
  std::vector<std::pair<NodeId, NodeId>> by_orig;
};

/// Builds the subgraph on `nodes` containing exactly `edges` (all endpoints
/// must be in `nodes`). Node and edge order are preserved: host node
/// nodes[i] becomes node i. O((|nodes| + |edges|) log |nodes|).
Subgraph make_subgraph(const Graph& g, const std::vector<NodeId>& nodes,
                       const std::vector<EdgeId>& edges);

/// Matches blocks to certificates by node set: for each block (distinct host
/// ids, any order), the index of the first certificate, in certificate
/// order, whose sorted node list equals the block's sorted nodes, or -1. A
/// certificate listing a node twice matches no block. The certificates are
/// sorted once and ordered by node list, and each block binary-searches
/// that order: O((sum |block| + sum |cert|) log) when distinct certificates
/// share at most one node, as blocks do.
std::vector<int> match_node_sets(const std::vector<std::vector<NodeId>>& blocks,
                                 std::vector<std::vector<NodeId>> certs);

}  // namespace lrdip
