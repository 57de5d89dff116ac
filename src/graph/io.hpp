// Plain-text graph serialization.
//
// Format (whitespace/line oriented, '#' comments):
//   graph <n> <m>
//   e <u> <v>          x m          (0-based endpoints, edge ids in file order)
// optional sections, each introduced by one keyword line:
//   order <v0> <v1> ... <v_{n-1}>   (a Hamiltonian path / node ordering)
//   rotation                         (then n lines: "r <v> <e1> <e2> ...")
//   tails <t0> ... <t_{m-1}>         (orientation: tail node id per edge)
//
// Used by the CLI and the examples; intentionally minimal and strict: graphs
// are simple, so self-loops and repeated edges are input errors. Two reader
// surfaces:
//
//   * read_graph_checked never throws on bad *input*: truncated, corrupt,
//     or oversized streams come back as a structured GraphReadResult with a
//     line-numbered message, so callers can classify instead of
//     unwinding. Resource bounds (GraphReadLimits) are enforced before
//     allocation — a header declaring 2^30 nodes is an error, not an OOM.
//   * read_graph / read_graph_file keep the historical throwing contract
//     (GraphParseError, an InvariantError subtype) for call sites where
//     malformed input IS caller misuse.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "graph/rotation.hpp"
#include "support/check.hpp"

namespace lrdip {

struct GraphFile {
  Graph graph;
  std::optional<std::vector<NodeId>> order;
  std::optional<RotationSystem> rotation;
  std::optional<std::vector<NodeId>> tails;
};

/// Malformed graph input on the throwing surface. Subtypes InvariantError so
/// existing catch sites keep working, while callers that care (the CLI exit
/// taxonomy) can tell "your file is bad" from "the library is broken".
class GraphParseError : public InvariantError {
 public:
  explicit GraphParseError(const std::string& what) : InvariantError(what) {}
};

/// Resource ceilings enforced by the checked reader *before* allocating.
/// Defaults fit the one-shot tools; callers reading untrusted input can
/// narrow them.
struct GraphReadLimits {
  int max_nodes = 1 << 24;
  long long max_edges = 1ll << 26;
  /// Longest accepted input line ('order'/'tails' lines scale with n).
  std::size_t max_line_bytes = 16u << 20;
  /// Total stream size ceiling.
  std::size_t max_total_bytes = 256u << 20;  // 256 MiB
};

/// Outcome of a checked parse: either a GraphFile or a line-numbered error.
struct GraphReadResult {
  std::optional<GraphFile> file;
  std::string error;  // empty iff ok()
  int line = 0;       // 1-based line of the defect; 0 when not line-specific

  bool ok() const { return file.has_value(); }
};

/// Parses the format above without ever throwing on malformed or oversized
/// input (stream/allocation failures from the host OS aside).
GraphReadResult read_graph_checked(std::istream& in, const GraphReadLimits& limits = {});
/// As above; an unopenable path is an error result, not an exception.
GraphReadResult read_graph_file_checked(const std::string& path,
                                        const GraphReadLimits& limits = {});

/// Throwing wrappers: GraphParseError with the line-numbered message.
GraphFile read_graph(std::istream& in);
GraphFile read_graph_file(const std::string& path);

void write_graph(std::ostream& out, const GraphFile& gf);
void write_graph_file(const std::string& path, const GraphFile& gf);

}  // namespace lrdip
