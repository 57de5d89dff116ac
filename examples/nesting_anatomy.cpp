// Nesting anatomy: reproduces Figure 1 of the paper as an ASCII rendering —
// a path-outerplanar graph with its longest-left/right edges, successors, and
// "above" assignments (the structures driving the Section 5 protocol).
//
//   $ ./nesting_anatomy
#include <iostream>
#include <string>

#include "gen/generators.hpp"
#include "graph/outerplanar.hpp"

int main() {
  using namespace lrdip;

  // Figure 1's path a..f with arcs (b,f), (c,e), (c,f).
  Graph g = path_graph(6);
  const EdgeId bf = g.add_edge(1, 5);
  const EdgeId ce = g.add_edge(2, 4);
  const EdgeId cf = g.add_edge(2, 5);
  const std::vector<NodeId> order{0, 1, 2, 3, 4, 5};
  const auto name = [](NodeId v) { return std::string(1, static_cast<char>('a' + v)); };

  const NestingStructure ns = compute_nesting(g, order);

  // ASCII arc diagram (widest arc on top).
  std::cout << "     .-----------.      (b,f)\n"
            << "     |  .--------.      (c,f)\n"
            << "     |  |  .--.  |      (c,e)\n"
            << "  a--b--c--d--e--f\n\n";

  auto edge_str = [&](EdgeId e) {
    const auto [u, v] = g.endpoints(e);
    std::string s = "(";
    s += name(std::min(u, v));
    s += ',';
    s += name(std::max(u, v));
    s += ')';
    return s;
  };

  std::cout << "edge facts (cf. the Figure 1 caption):\n";
  for (EdgeId e : {bf, ce, cf}) {
    std::cout << "  " << edge_str(e) << ": successor = "
              << (ns.successor[e] == -1 ? std::string("virtual edge")
                                        : edge_str(ns.successor[e]))
              << (ns.longest_right[e] ? ", longest right edge of its left endpoint" : "")
              << (ns.longest_left[e] ? ", longest left edge of its right endpoint" : "")
              << "\n";
  }
  std::cout << "\nper-node 'above' (the first edge drawn entirely above the node):\n";
  for (NodeId v = 0; v < g.n(); ++v) {
    std::cout << "  " << name(v) << ": "
              << (ns.above[v] == -1 ? std::string("none (virtual edge)")
                                    : edge_str(ns.above[v]))
              << "\n";
  }
  std::cout << "\nObservation 2.1: every non-path edge is the longest right edge of\n"
               "its left endpoint or the longest left edge of its right endpoint —\n"
               "the hook on which the O(log log n) nesting verification hangs.\n";
  return 0;
}
