// General-graph planarity testing and embedding, answered by the O(n + m)
// Boyer–Myrvold edge-addition engine (graph/boyer_myrvold.hpp). Verdicts
// never materialize rotations, and embeddings come straight out of the
// engine's relative arc lists. Callers that need a checkable certificate for
// either verdict call boyer_myrvold() directly: a genus-0 rotation system
// (is_planar_embedding) or a K5/K3,3 subdivision (is_kuratowski_witness).
#pragma once

#include <optional>

#include "graph/graph.hpp"
#include "graph/rotation.hpp"

namespace lrdip {

/// True iff g (connected or not) is planar, without building any rotation
/// system.
bool is_planar(const Graph& g);

/// A genus-0 rotation system for g, or nullopt if g is non-planar.
/// g must be simple.
std::optional<RotationSystem> planar_embedding(const Graph& g);

}  // namespace lrdip
