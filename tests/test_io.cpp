#include <gtest/gtest.h>

#include <sstream>

#include "support/check.hpp"
#include "gen/generators.hpp"
#include "graph/io.hpp"
#include "support/rng.hpp"

namespace lrdip {
namespace {

TEST(GraphIo, RoundTripPlainGraph) {
  Rng rng(1);
  GraphFile gf;
  gf.graph = random_maximal_outerplanar(20, rng);
  std::stringstream ss;
  write_graph(ss, gf);
  const GraphFile back = read_graph(ss);
  EXPECT_EQ(back.graph.n(), gf.graph.n());
  EXPECT_EQ(back.graph.m(), gf.graph.m());
  for (EdgeId e = 0; e < gf.graph.m(); ++e) {
    EXPECT_EQ(back.graph.endpoints(e), gf.graph.endpoints(e));
  }
  EXPECT_FALSE(back.order.has_value());
  EXPECT_FALSE(back.rotation.has_value());
}

TEST(GraphIo, RoundTripWithSections) {
  Rng rng(2);
  const auto planar = random_planar(30, 0.4, rng);
  GraphFile gf;
  gf.graph = planar.graph;
  gf.rotation = planar.rotation;
  std::vector<NodeId> tails(gf.graph.m());
  for (EdgeId e = 0; e < gf.graph.m(); ++e) tails[e] = gf.graph.endpoints(e).first;
  gf.tails = tails;
  std::vector<NodeId> order(gf.graph.n());
  for (int i = 0; i < gf.graph.n(); ++i) order[i] = i;
  gf.order = order;

  std::stringstream ss;
  write_graph(ss, gf);
  const GraphFile back = read_graph(ss);
  ASSERT_TRUE(back.order && back.rotation && back.tails);
  EXPECT_EQ(*back.order, order);
  EXPECT_EQ(*back.tails, tails);
  for (NodeId v = 0; v < gf.graph.n(); ++v) {
    EXPECT_EQ(back.rotation->order_at(v), planar.rotation.order_at(v));
  }
}

TEST(GraphIo, CommentsAndBlanksIgnored) {
  std::stringstream ss("# header comment\n\ngraph 3 2\ne 0 1 # inline\n\ne 1 2\n");
  const GraphFile gf = read_graph(ss);
  EXPECT_EQ(gf.graph.n(), 3);
  EXPECT_EQ(gf.graph.m(), 2);
}

TEST(GraphIo, RejectsMalformedInput) {
  auto expect_bad = [](const std::string& text) {
    std::stringstream ss(text);
    EXPECT_THROW(read_graph(ss), InvariantError) << text;
  };
  expect_bad("");                                // no header
  expect_bad("e 0 1\n");                         // edge before header
  expect_bad("graph 2 1\n");                     // missing edges
  expect_bad("graph 2 1\ne 0 5\n");              // endpoint out of range
  expect_bad("graph 2 1\ne 0 0\n");              // self loop
  expect_bad("graph 2 1\ne 0 1\nnope 3\n");      // unknown keyword
  expect_bad("graph 2 1\ne 0 1\norder 0\n");     // short order
  expect_bad("graph 2 1\ne 0 1\ntails 0 1 0\n"); // long tails
  expect_bad("graph 3 2\ne 0 1\ne 1 2\ngraph 1 0\n");  // duplicate header
}

TEST(GraphIo, RejectsDuplicateEdgeAtItsSecondCopy) {
  std::stringstream ss("graph 3 3\ne 0 1\ne 1 2\ne 1 0\n");
  const GraphReadResult r = read_graph_checked(ss);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.line, 4);
  EXPECT_NE(r.error.find("duplicate edge"), std::string::npos) << r.error;
}

TEST(GraphIo, RejectsBadRotation) {
  // Rotation listing a non-incident edge must fail validation.
  std::stringstream ss("graph 3 2\ne 0 1\ne 1 2\nrotation\nr 0 1\nr 1 0 1\nr 2 1\n");
  EXPECT_THROW(read_graph(ss), InvariantError);
}

TEST(GraphIo, FileRoundTrip) {
  Rng rng(3);
  GraphFile gf;
  gf.graph = cycle_graph(9);
  const std::string path = "/tmp/lrdip_io_test.graph";
  write_graph_file(path, gf);
  const GraphFile back = read_graph_file(path);
  EXPECT_EQ(back.graph.n(), 9);
  EXPECT_EQ(back.graph.m(), 9);
}

TEST(GraphIo, MissingFileThrows) {
  EXPECT_THROW(read_graph_file("/tmp/definitely/not/here.graph"), InvariantError);
}

// --- checked reader: adversarial input comes back classified, never thrown --

GraphReadResult checked(const std::string& text, const GraphReadLimits& limits = {}) {
  std::stringstream ss(text);
  return read_graph_checked(ss, limits);
}

TEST(GraphIoChecked, ValidInputHasNoError) {
  const GraphReadResult r = checked("graph 3 2\ne 0 1\ne 1 2\n");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.error.empty());
  EXPECT_EQ(r.line, 0);
  EXPECT_EQ(r.file->graph.n(), 3);
}

TEST(GraphIoChecked, TruncatedInputsClassify) {
  for (const char* text : {
           "",                     // empty
           "graph 5",              // header cut mid-line
           "graph 3 3\ne 0 1\n",   // fewer edges than declared
           "graph 3 2\ne 0",       // edge cut mid-line
           "graph 2 1\ne 0 1\norder 0\n",  // short order
       }) {
    const GraphReadResult r = checked(text);
    EXPECT_FALSE(r.ok()) << text;
    EXPECT_FALSE(r.error.empty()) << text;
  }
}

TEST(GraphIoChecked, CorruptTokensClassifyWithLineNumber) {
  const GraphReadResult r = checked("graph 3 2\ne 0 1\ne one two\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.line, 3);
  EXPECT_NE(r.error.find("line 3"), std::string::npos) << r.error;
}

TEST(GraphIoChecked, RangeDefectInFinalTokenIsCaught) {
  // Regression: the defective value being the LAST token of the line (where
  // extraction also sets eofbit) must not be silently dropped.
  EXPECT_FALSE(checked("graph 3 2\ne 0 1\ne 1 2\norder 0 1 99").ok());
  EXPECT_FALSE(checked("graph 3 2\ne 0 1\ne 1 2\ntails 0 7").ok());
  EXPECT_FALSE(checked("graph 3 2\ne 0 1\ne 1 2\nrotation\nr 0 0\nr 1 0 1\nr 2 9").ok());
}

TEST(GraphIoChecked, IntegerOverflowClassifies) {
  EXPECT_FALSE(checked("graph 99999999999999999999 1\ne 0 1\n").ok());
  EXPECT_FALSE(checked("graph 3 2\ne 0 99999999999999999999\ne 1 2\n").ok());
}

TEST(GraphIoChecked, HeaderBoundsEnforcedBeforeAllocation) {
  // A header declaring 2^30 nodes is an error, not an attempted allocation.
  GraphReadLimits limits;
  limits.max_nodes = 100;
  limits.max_edges = 50;
  EXPECT_FALSE(checked("graph 1073741824 0\n", limits).ok());
  EXPECT_FALSE(checked("graph 101 0\n", limits).ok());
  EXPECT_FALSE(checked("graph 10 51\n", limits).ok());
  EXPECT_TRUE(checked("graph 100 0\n", limits).ok());
}

TEST(GraphIoChecked, LineAndTotalByteLimits) {
  GraphReadLimits limits;
  limits.max_line_bytes = 16;
  {
    const GraphReadResult r = checked("graph 2 1\ne 0 1   # a very long trailing comment\n",
                                      limits);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.error.find("bytes"), std::string::npos) << r.error;
  }
  limits = GraphReadLimits{};
  limits.max_total_bytes = 20;
  EXPECT_FALSE(checked("graph 3 2\ne 0 1\ne 1 2\n", limits).ok());
}

TEST(GraphIoChecked, RotationDefectsClassify) {
  // Duplicate row, row for every node missing, non-incident edge, and a
  // defect in the final rotation token all classify (the last one used to be
  // RotationSystem's InvariantError; the checked reader converts it).
  EXPECT_FALSE(checked("graph 3 2\ne 0 1\ne 1 2\nrotation\nr 0 0\nr 0 0\n").ok());
  EXPECT_FALSE(checked("graph 3 2\ne 0 1\ne 1 2\nrotation\nr 0 0\n").ok());
  const GraphReadResult r =
      checked("graph 3 2\ne 0 1\ne 1 2\nrotation\nr 0 1\nr 1 0 1\nr 2 1\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("rotation"), std::string::npos) << r.error;
}

TEST(GraphIoChecked, NeverThrowsOnGarbage) {
  // A sweep of adversarial shapes: the checked reader's contract is that no
  // input reaches a throw path.
  for (const char* text : {
           "\x01\x02\x03\xff garbage bytes",
           "graph -3 2\ne 0 1\n",
           "graph 3 -2\n",
           "e 0 1\ngraph 3 2\n",
           "graph 3 2\ne 0 1\ne 1 2\ngraph 3 2\n",
           "graph 3 2\ne 0 1\ne 1 2\nr 0 1\n",
           "graph 3 2\ne 0 1\ne 1 2\norder 0 1 2 0\n",
           "graph 2 1\ne 0 0\n",
       }) {
    GraphReadResult r;
    EXPECT_NO_THROW(r = checked(text)) << text;
    EXPECT_FALSE(r.ok()) << text;
  }
  // And the empty graph, which IS valid.
  EXPECT_TRUE(checked("graph 0 0\n").ok());
}

TEST(GraphIoChecked, MissingFileClassifies) {
  const GraphReadResult r = read_graph_file_checked("/tmp/definitely/not/here.graph");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error.find("cannot open"), std::string::npos);
}

TEST(GraphIoChecked, ThrowingWrapperThrowsGraphParseError) {
  std::stringstream ss("graph 2 1\ne 0 5\n");
  try {
    read_graph(ss);
    FAIL() << "expected GraphParseError";
  } catch (const GraphParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

}  // namespace
}  // namespace lrdip
