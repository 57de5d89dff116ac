#include "graph/planarity.hpp"

#include "graph/boyer_myrvold.hpp"
#include "support/check.hpp"

namespace lrdip {

bool is_planar(const Graph& g) {
  return boyer_myrvold_is_planar(g);
}

std::optional<RotationSystem> planar_embedding(const Graph& g) {
  LRDIP_CHECK_MSG(g.is_simple(), "planar_embedding requires a simple graph");
  return boyer_myrvold(g, BmOutput::kEmbedding).embedding;
}

}  // namespace lrdip
