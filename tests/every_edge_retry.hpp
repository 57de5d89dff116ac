// The every-edge retry that one_deletion_ear_decomposition replaced in the
// series-parallel prover, kept as the reference its exactness tests compare
// against: g's own nested ear decomposition, else that of g - e for the first
// edge id e whose deletion leaves a connected graph that has one, trying
// every edge in turn.
#pragma once

#include <optional>

#include "graph/algorithms.hpp"
#include "graph/series_parallel.hpp"

namespace lrdip::reference {

inline std::optional<EarDecomposition> every_edge_retry(const Graph& g) {
  if (auto ears = nested_ear_decomposition(g)) return ears;
  for (EdgeId skip = 0; skip < g.m(); ++skip) {
    Graph h(g.n());
    for (EdgeId e = 0; e < g.m(); ++e) {
      if (e == skip) continue;
      const auto [u, v] = g.endpoints(e);
      h.add_edge(u, v);
    }
    if (!is_connected(h)) continue;
    if (auto ears = nested_ear_decomposition(h)) return ears;
  }
  return std::nullopt;
}

}  // namespace lrdip::reference
