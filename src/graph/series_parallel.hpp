// Series-parallel recognition, SP composition trees, and nested ear
// decompositions (Eppstein), plus the treewidth-2 recognizer.
//
// Section 8 of the paper verifies series-parallel graphs through nested ear
// decompositions: a partition of E into simple paths ("ears") such that
// (1) both endpoints of every non-first ear lie on one earlier ear,
// (2) interior nodes of an ear are new, and
// (3) the ears attached to an ear are properly nested within it.
// The honest prover needs such a decomposition; this module computes one from
// the SP composition tree produced by the classic series/parallel reduction.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "graph/graph.hpp"

namespace lrdip {

/// True iff the (connected, biconnected, possibly multi-) graph reduces to a
/// single edge under series/parallel reductions. For n <= 2 returns connected.
bool is_series_parallel(const Graph& g);

/// True iff g has treewidth at most 2: iteratively eliminate degree <= 2
/// vertices (adding the fill edge for degree-2 nodes).
bool is_treewidth_at_most_2(const Graph& g);

/// One ear: its node sequence (a simple path in g) and the index of the ear
/// hosting its endpoints (-1 for the first ear).
struct Ear {
  std::vector<NodeId> path;
  int host = -1;

  bool operator==(const Ear&) const = default;
};

using EarDecomposition = std::vector<Ear>;

/// A nested ear decomposition of a series-parallel graph, or nullopt if g is
/// not series-parallel. g must be connected with n >= 2.
std::optional<EarDecomposition> nested_ear_decomposition(const Graph& g);

/// The honest prover's best effort on a graph that may miss the class by one
/// edge: the nested ear decomposition of g if it has one, else that of g - e
/// for the smallest edge id e whose deletion leaves a connected graph that
/// has one (its ears use g's node ids and skip e), else nullopt. One
/// reduction of g answers the first question and names the only edges whose
/// deletion can succeed. g must have n >= 2.
std::optional<EarDecomposition> one_deletion_ear_decomposition(const Graph& g);

/// Centralized validity oracle for an ear decomposition (conditions 1-3 plus
/// the edge-partition property). Used in tests and by the verifier oracle.
bool is_valid_nested_ear_decomposition(const Graph& g, const EarDecomposition& ears);

}  // namespace lrdip
