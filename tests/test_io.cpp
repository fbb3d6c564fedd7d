// Unit tests for graph text/binary I/O and ingestion re-indexing.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include "graph/io.hpp"

namespace cgraph {
namespace {

TEST(Io, ParseReindexesDensely) {
  const auto r = parse_edge_list("100 200\n200 300\n100 300\n");
  EXPECT_EQ(r.num_vertices, 3u);
  EXPECT_EQ(r.edges.size(), 3u);
  // First appearance order: 100 -> 0, 200 -> 1, 300 -> 2.
  EXPECT_EQ(r.edges[0].src, 0u);
  EXPECT_EQ(r.edges[0].dst, 1u);
  EXPECT_EQ(r.edges[2].dst, 2u);
  EXPECT_EQ(r.id_map.at(300), 2u);
}

TEST(Io, ParseWithoutReindexKeepsIds) {
  const auto r = parse_edge_list("5 9\n", /*reindex=*/false);
  EXPECT_EQ(r.edges[0].src, 5u);
  EXPECT_EQ(r.edges[0].dst, 9u);
  EXPECT_EQ(r.num_vertices, 10u);
}

TEST(Io, ParseSkipsCommentsAndBlanks) {
  const auto r = parse_edge_list("# SNAP header\n% konect header\n\n0 1\n");
  EXPECT_EQ(r.edges.size(), 1u);
}

TEST(Io, ParseIgnoresColumnsAfterDst) {
  // Weighted SNAP files still load: a third column is skipped.
  const auto r = parse_edge_list("0 1 2.5\n1 2\n2 0 7 x\n",
                                 /*reindex=*/false);
  const std::vector<Edge> want{{0, 1}, {1, 2}, {2, 0}};
  EXPECT_EQ(r.edges.edges(), want);
  EXPECT_EQ(r.num_vertices, 3u);
}

TEST(Io, TextFileRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() / "cg_io_t.txt";
  {
    std::ofstream out(path);
    out << "# test\n7 8\n8 9\n";
  }
  const auto r = load_edge_list_text(path.string());
  EXPECT_EQ(r.edges.size(), 2u);
  EXPECT_EQ(r.num_vertices, 3u);
  std::filesystem::remove(path);
}

TEST(Io, MissingFileThrows) {
  EXPECT_THROW(load_edge_list_text("/nonexistent/nope.txt"),
               std::runtime_error);
}

TEST(Io, TextSaveRoundTrip) {
  EdgeList edges;
  edges.add(3, 1);
  edges.add(0, 2);
  const auto path = std::filesystem::temp_directory_path() / "cg_io_s.txt";
  save_edge_list_text(path.string(), edges);
  const auto r = load_edge_list_text(path.string(), /*reindex=*/false);
  std::filesystem::remove(path);
  ASSERT_EQ(r.edges.size(), 2u);
  EXPECT_EQ(r.edges[0].src, 3u);
  EXPECT_EQ(r.edges[0].dst, 1u);
  EXPECT_EQ(r.edges[1].src, 0u);
}

TEST(Io, BinaryRoundTripExact) {
  EdgeList edges;
  edges.add(0, 1);
  edges.add(2, 3);
  const auto path = std::filesystem::temp_directory_path() / "cg_io_t.bin";
  save_edge_list_binary(path.string(), edges, 4);
  const auto r = load_edge_list_binary(path.string());
  EXPECT_EQ(r.num_vertices, 4u);
  ASSERT_EQ(r.edges.size(), 2u);
  EXPECT_EQ(r.edges[1].src, 2u);
  EXPECT_EQ(r.edges[1].dst, 3u);
  std::filesystem::remove(path);
}

// Hostile-input hardening: malformed edge lists must fail with a clear
// error (vertex aliasing, unsigned wraparound, and huge bogus allocations
// were all silent before).

TEST(Io, ParseRejectsNegativeIds) {
  EXPECT_THROW(parse_edge_list("0 1\n-3 2\n"), std::runtime_error);
  EXPECT_THROW(parse_edge_list("0 -1\n", /*reindex=*/false),
               std::runtime_error);
  try {
    parse_edge_list("0 1\n\n# ok\n-3 2\n");
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
        << e.what();
  }
}

TEST(Io, ParseWithoutReindexRejectsOverflowingId) {
  // 2^40 survives the uint64 parse but cannot fit a 32-bit VertexId; keeping
  // it would silently truncate and alias a low vertex id.
  EXPECT_THROW(parse_edge_list("0 1099511627776\n", /*reindex=*/false),
               std::runtime_error);
  // With re-indexing the raw id is interned, so the same line is fine.
  const auto r = parse_edge_list("0 1099511627776\n", /*reindex=*/true);
  EXPECT_EQ(r.num_vertices, 2u);
}

TEST(Io, ParseStillToleratesNonNumericTokens) {
  const auto r = parse_edge_list("src dst\n0 1\nfoo bar 1.5\n");
  EXPECT_EQ(r.edges.size(), 1u);
}

TEST(Io, BinaryRejectsEdgeCountBeyondFileSize) {
  EdgeList edges;
  edges.add(0, 1);
  const auto path = std::filesystem::temp_directory_path() / "cg_io_ec.bin";
  save_edge_list_binary(path.string(), edges, 2);
  {
    // Corrupt the header's edge count (offset 16: after magic + vertex
    // count) to claim ~10^18 edges; the loader must reject it against the
    // file size instead of attempting the allocation.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(16);
    const std::uint64_t absurd = std::uint64_t{1} << 60;
    f.write(reinterpret_cast<const char*>(&absurd), sizeof absurd);
  }
  try {
    load_edge_list_binary(path.string());
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds file size"),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

TEST(Io, BinaryRejectsVertexCountOverflowingVertexId) {
  EdgeList edges;
  edges.add(0, 1);
  const auto path = std::filesystem::temp_directory_path() / "cg_io_vc.bin";
  save_edge_list_binary(path.string(), edges, 2);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8);  // vertex count field follows the 8-byte magic
    const std::uint64_t absurd = std::uint64_t{1} << 40;
    f.write(reinterpret_cast<const char*>(&absurd), sizeof absurd);
  }
  EXPECT_THROW(load_edge_list_binary(path.string()), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Io, BinaryRejectsOutOfRangeEndpoints) {
  EdgeList edges;
  edges.add(0, 5);  // endpoint 5 >= declared vertex count 2
  const auto path = std::filesystem::temp_directory_path() / "cg_io_oor.bin";
  save_edge_list_binary(path.string(), edges, 2);
  try {
    load_edge_list_binary(path.string());
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

TEST(Io, BinaryRejectsBadMagic) {
  const auto path = std::filesystem::temp_directory_path() / "cg_io_bad.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTCGRAPH_______";
  }
  EXPECT_THROW(load_edge_list_binary(path.string()), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Io, BinaryRejectsVersion1File) {
  // A well-formed file in the old format (magic CGRAPH01, 12-byte
  // src/dst/weight records). Its 24 body bytes pass the size check for
  // E=2 8-byte records, and with a zero first weight the misread edges
  // (0,1) and (0,2) are in range too, so only the magic rejects it.
  const auto path = std::filesystem::temp_directory_path() / "cg_io_v1.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out.write("CGRAPH01", 8);
    const std::uint64_t v = 4, e = 2;
    out.write(reinterpret_cast<const char*>(&v), sizeof v);
    out.write(reinterpret_cast<const char*>(&e), sizeof e);
    struct {
      std::uint32_t src, dst;
      float weight;
    } const records[2] = {{0, 1, 0.0f}, {2, 3, 2.5f}};
    static_assert(sizeof records == 24);
    out.write(reinterpret_cast<const char*>(records), sizeof records);
  }
  EXPECT_THROW(load_edge_list_binary(path.string()), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Io, BinaryRejectsTruncated) {
  EdgeList edges;
  edges.add(0, 1);
  const auto path = std::filesystem::temp_directory_path() / "cg_io_tr.bin";
  save_edge_list_binary(path.string(), edges, 2);
  std::filesystem::resize_file(
      path, std::filesystem::file_size(path) - 4);
  EXPECT_THROW(load_edge_list_binary(path.string()), std::runtime_error);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace cgraph
