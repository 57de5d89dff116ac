#include "graph/io.hpp"

#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "support/check.hpp"

namespace lrdip {
namespace {

/// Parse state for one checked read. `fail` records the first defect and
/// makes every subsequent step a no-op, so the loop below needs no early
/// returns and the stream is never read past its limits.
struct Parser {
  const GraphReadLimits& limits;
  GraphReadResult result;
  bool failed = false;

  explicit Parser(const GraphReadLimits& l) : limits(l) {}

  bool fail(int line, const std::string& what) {
    if (!failed) {
      failed = true;
      result.line = line;
      result.error = "graph file, line " + std::to_string(line) + ": " + what;
    }
    return false;
  }
};

/// One bounded-int extraction from the token stream. `end` is the benign
/// "nothing left on the line" case; everything else that is not a clean
/// in-range integer — non-numeric garbage, overflow, out-of-range values —
/// is `bad`, even when the offending token is the last one on the line (a
/// range defect must never be silently dropped).
enum class Tok { end, ok, bad };

Tok read_int(std::istream& ss, long long lo, long long hi, long long* out) {
  long long v = 0;
  if (!(ss >> v)) return ss.eof() && ss.fail() && !ss.bad() && v == 0 ? Tok::end : Tok::bad;
  if (v < lo || v > hi) return Tok::bad;
  *out = v;
  return Tok::ok;
}

/// The smallest edge id that repeats an earlier edge's endpoints, or -1 when
/// g is simple. O(n + m): adjacency lists are in edge-id order, so the first
/// repeat of a neighbor in a node's list is the pair's second copy.
EdgeId first_repeated_edge(const Graph& g) {
  std::vector<NodeId> seen_from(static_cast<std::size_t>(g.n()), -1);
  EdgeId first = -1;
  for (NodeId v = 0; v < g.n(); ++v) {
    for (const Half& h : g.neighbors(v)) {
      if (seen_from[static_cast<std::size_t>(h.to)] == v && (first == -1 || h.edge < first)) {
        first = h.edge;
      }
      seen_from[static_cast<std::size_t>(h.to)] = v;
    }
  }
  return first;
}

GraphReadResult read_graph_checked_impl(std::istream& in, const GraphReadLimits& limits) {
  Parser p(limits);
  GraphFile gf;
  std::string line;
  int lineno = 0;
  long long n = -1, m = -1;
  long long edges_seen = 0;
  std::size_t bytes_seen = 0;
  std::vector<int> edge_line;  // file line of each edge, for the duplicate check
  std::vector<std::vector<EdgeId>> rotation_order;
  bool in_rotation = false;
  std::vector<char> rotation_row_seen;
  long long rotation_rows = 0;
  long long rotation_entries = 0;

  while (!p.failed && std::getline(in, line)) {
    ++lineno;
    bytes_seen += line.size() + 1;
    if (line.size() > limits.max_line_bytes) {
      p.fail(lineno, "line exceeds " + std::to_string(limits.max_line_bytes) + " bytes");
      break;
    }
    if (bytes_seen > limits.max_total_bytes) {
      p.fail(lineno, "input exceeds " + std::to_string(limits.max_total_bytes) + " bytes");
      break;
    }
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ss(line);
    std::string tok;
    if (!(ss >> tok)) continue;  // blank

    if (tok == "graph") {
      if (n != -1) {
        p.fail(lineno, "duplicate graph header");
        break;
      }
      long long hn = 0, hm = 0;
      if (read_int(ss, 0, limits.max_nodes, &hn) != Tok::ok) {
        p.fail(lineno, "bad graph header (node count must be in [0, " +
                           std::to_string(limits.max_nodes) + "])");
        break;
      }
      if (read_int(ss, 0, limits.max_edges, &hm) != Tok::ok) {
        p.fail(lineno, "bad graph header (edge count must be in [0, " +
                           std::to_string(limits.max_edges) + "])");
        break;
      }
      n = hn;
      m = hm;
      gf.graph = Graph(static_cast<int>(n));
    } else if (tok == "e") {
      if (n == -1) {
        p.fail(lineno, "edge before graph header");
        break;
      }
      long long u = 0, v = 0;
      if (read_int(ss, 0, n - 1, &u) != Tok::ok || read_int(ss, 0, n - 1, &v) != Tok::ok ||
          u == v) {
        p.fail(lineno, "bad edge line");
        break;
      }
      if (edges_seen >= m) {
        p.fail(lineno, "more edges than the header declared");
        break;
      }
      gf.graph.add_edge(static_cast<NodeId>(u), static_cast<NodeId>(v));
      edge_line.push_back(lineno);
      ++edges_seen;
    } else if (tok == "order") {
      if (n == -1) {
        p.fail(lineno, "order before graph header");
        break;
      }
      std::vector<NodeId> order;
      order.reserve(static_cast<std::size_t>(n));
      long long v = 0;
      Tok t = Tok::end;
      while ((t = read_int(ss, 0, n - 1, &v)) == Tok::ok) {
        if (static_cast<long long>(order.size()) >= n) {
          t = Tok::bad;
          break;
        }
        order.push_back(static_cast<NodeId>(v));
      }
      if (t == Tok::bad || static_cast<long long>(order.size()) != n) {
        p.fail(lineno, "order must list n in-range nodes");
        break;
      }
      gf.order = std::move(order);
    } else if (tok == "tails") {
      if (m == -1) {
        p.fail(lineno, "tails before graph header");
        break;
      }
      std::vector<NodeId> tails;
      tails.reserve(static_cast<std::size_t>(m));
      long long v = 0;
      Tok t = Tok::end;
      while ((t = read_int(ss, 0, n - 1, &v)) == Tok::ok) {
        if (static_cast<long long>(tails.size()) >= m) {
          t = Tok::bad;
          break;
        }
        tails.push_back(static_cast<NodeId>(v));
      }
      if (t == Tok::bad || static_cast<long long>(tails.size()) != m) {
        p.fail(lineno, "tails must list m in-range entries");
        break;
      }
      gf.tails = std::move(tails);
    } else if (tok == "rotation") {
      if (n == -1) {
        p.fail(lineno, "rotation before graph header");
        break;
      }
      in_rotation = true;
      rotation_order.assign(static_cast<std::size_t>(n), {});
      rotation_row_seen.assign(static_cast<std::size_t>(n), 0);
    } else if (tok == "r") {
      if (!in_rotation) {
        p.fail(lineno, "'r' line outside a rotation section");
        break;
      }
      long long v = 0;
      if (read_int(ss, 0, n - 1, &v) != Tok::ok) {
        p.fail(lineno, "bad rotation node");
        break;
      }
      if (rotation_row_seen[static_cast<std::size_t>(v)] != 0) {
        p.fail(lineno, "duplicate rotation row");
        break;
      }
      rotation_row_seen[static_cast<std::size_t>(v)] = 1;
      long long e = 0;
      Tok t = Tok::end;
      while ((t = read_int(ss, 0, m - 1, &e)) == Tok::ok) {
        if (++rotation_entries > 2 * m) {
          t = Tok::bad;
          break;
        }
        rotation_order[static_cast<std::size_t>(v)].push_back(static_cast<EdgeId>(e));
      }
      if (t == Tok::bad) {
        p.fail(lineno, "bad rotation entry (edge ids must be in [0, m), 2m entries total)");
        break;
      }
      ++rotation_rows;
    } else {
      p.fail(lineno, "unknown keyword '" + tok + "'");
      break;
    }
  }
  if (!p.failed && n == -1) p.fail(lineno, "missing graph header");
  if (!p.failed && edges_seen != m) p.fail(lineno, "edge count mismatch");
  if (!p.failed) {
    const EdgeId dup = first_repeated_edge(gf.graph);
    if (dup != -1) p.fail(edge_line[static_cast<std::size_t>(dup)], "duplicate edge");
  }
  if (!p.failed && in_rotation) {
    if (rotation_rows != n) {
      p.fail(lineno, "rotation must cover every node");
    } else {
      // RotationSystem enforces that each row is a permutation of the node's
      // incident edges; on prover-supplied input that is a parse defect, not
      // a caller bug, so the invariant throw is converted here.
      try {
        gf.rotation = RotationSystem(gf.graph, std::move(rotation_order));
      } catch (const InvariantError& ex) {
        p.fail(lineno, std::string("inconsistent rotation system: ") + ex.what());
      }
    }
  }
  if (!p.failed) p.result.file = std::move(gf);
  return std::move(p.result);
}

}  // namespace

GraphReadResult read_graph_checked(std::istream& in, const GraphReadLimits& limits) {
  return read_graph_checked_impl(in, limits);
}

GraphReadResult read_graph_file_checked(const std::string& path, const GraphReadLimits& limits) {
  std::ifstream in(path);
  if (!in.good()) {
    GraphReadResult r;
    r.error = "cannot open graph file: " + path;
    return r;
  }
  return read_graph_checked_impl(in, limits);
}

GraphFile read_graph(std::istream& in) {
  GraphReadResult r = read_graph_checked(in);
  if (!r.ok()) throw GraphParseError(r.error);
  return std::move(*r.file);
}

GraphFile read_graph_file(const std::string& path) {
  GraphReadResult r = read_graph_file_checked(path);
  if (!r.ok()) throw GraphParseError(r.error);
  return std::move(*r.file);
}

void write_graph(std::ostream& out, const GraphFile& gf) {
  out << "graph " << gf.graph.n() << " " << gf.graph.m() << "\n";
  for (EdgeId e = 0; e < gf.graph.m(); ++e) {
    const auto [u, v] = gf.graph.endpoints(e);
    out << "e " << u << " " << v << "\n";
  }
  if (gf.order) {
    out << "order";
    for (NodeId v : *gf.order) out << " " << v;
    out << "\n";
  }
  if (gf.tails) {
    out << "tails";
    for (NodeId v : *gf.tails) out << " " << v;
    out << "\n";
  }
  if (gf.rotation) {
    out << "rotation\n";
    for (NodeId v = 0; v < gf.graph.n(); ++v) {
      out << "r " << v;
      for (EdgeId e : gf.rotation->order_at(v)) out << " " << e;
      out << "\n";
    }
  }
}

void write_graph_file(const std::string& path, const GraphFile& gf) {
  std::ofstream out(path);
  LRDIP_CHECK_MSG(out.good(), "cannot open graph file for writing: " + path);
  write_graph(out, gf);
}

}  // namespace lrdip
