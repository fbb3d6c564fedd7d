#include "graph/io.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/assert.hpp"
#include "util/logging.hpp"

namespace cgraph {
namespace {

// The last two bytes are the format version; bump them whenever the record
// layout changes, so an old file fails the magic check instead of being
// misread (see io.hpp).
constexpr char kBinaryMagic[8] = {'C', 'G', 'R', 'A', 'P', 'H', '0', '2'};
static_assert(sizeof(Edge) == 8, "binary format stores packed 8-byte edges");

LoadResult parse_stream(std::istream& in, bool reindex) {
  LoadResult result;
  std::size_t lineno = 0;
  auto intern = [&](std::uint64_t raw) -> VertexId {
    if (!reindex) {
      // Without re-indexing the raw id IS the VertexId; a raw id that
      // doesn't fit would silently truncate and alias another vertex.
      if (raw >= std::numeric_limits<VertexId>::max()) {
        throw std::runtime_error("vertex id " + std::to_string(raw) +
                                 " does not fit VertexId (line " +
                                 std::to_string(lineno) + ")");
      }
      result.num_vertices =
          std::max<VertexId>(result.num_vertices, static_cast<VertexId>(raw) + 1);
      return static_cast<VertexId>(raw);
    }
    auto [it, inserted] =
        result.id_map.try_emplace(raw, static_cast<VertexId>(result.id_map.size()));
    if (inserted) result.num_vertices = static_cast<VertexId>(result.id_map.size());
    return it->second;
  };

  std::string line;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::uint64_t s = 0, t = 0;
    std::istringstream ls(line);
    std::string ts, tt;
    if (!(ls >> ts >> tt)) continue;  // tolerate malformed lines
    // A negative id would wrap through the unsigned parse into a bogus
    // (usually enormous) vertex — reject it loudly instead.
    if (ts[0] == '-' || tt[0] == '-') {
      throw std::runtime_error("negative vertex id (line " +
                               std::to_string(lineno) + ")");
    }
    {
      std::istringstream is(ts), it(tt);
      if (!(is >> s) || !(it >> t)) continue;  // non-numeric: tolerated
    }
    // Intern in source-then-destination order (function argument
    // evaluation order is unspecified).
    const VertexId src = intern(s);
    const VertexId dst = intern(t);
    result.edges.add(src, dst);
  }
  return result;
}

}  // namespace

LoadResult load_edge_list_text(const std::string& path, bool reindex) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open edge list: " + path);
  return parse_stream(in, reindex);
}

LoadResult parse_edge_list(const std::string& text, bool reindex) {
  std::istringstream in(text);
  return parse_stream(in, reindex);
}

void save_edge_list_text(const std::string& path, const EdgeList& edges) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write: " + path);
  out << "# cgraph edge list, " << edges.size() << " edges\n";
  for (const Edge& e : edges) out << e.src << ' ' << e.dst << '\n';
  if (!out) throw std::runtime_error("short write: " + path);
}

void save_edge_list_binary(const std::string& path, const EdgeList& edges,
                           VertexId num_vertices) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write: " + path);
  out.write(kBinaryMagic, sizeof kBinaryMagic);
  const std::uint64_t v = num_vertices;
  const std::uint64_t e = edges.size();
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
  out.write(reinterpret_cast<const char*>(&e), sizeof e);
  out.write(reinterpret_cast<const char*>(edges.edges().data()),
            static_cast<std::streamsize>(e * sizeof(Edge)));
  if (!out) throw std::runtime_error("short write: " + path);
}

LoadResult load_edge_list_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open: " + path);
  char magic[8];
  in.read(magic, sizeof magic);
  if (!in || std::memcmp(magic, kBinaryMagic, sizeof magic) != 0)
    throw std::runtime_error("bad magic in: " + path);
  std::uint64_t v = 0, e = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  in.read(reinterpret_cast<char*>(&e), sizeof e);
  if (!in) throw std::runtime_error("truncated header in: " + path);

  if (v > std::numeric_limits<VertexId>::max()) {
    throw std::runtime_error("vertex count " + std::to_string(v) +
                             " does not fit VertexId in: " + path);
  }
  // Validate the edge count against the actual file size before resizing:
  // a corrupt header would otherwise drive a huge allocation (or overflow
  // e * sizeof(Edge) entirely).
  const std::istream::pos_type body_pos = in.tellg();
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end_pos = in.tellg();
  if (body_pos == std::istream::pos_type(-1) ||
      end_pos == std::istream::pos_type(-1)) {
    throw std::runtime_error("cannot determine size of: " + path);
  }
  const auto body_bytes = static_cast<std::uint64_t>(end_pos - body_pos);
  if (e > std::numeric_limits<std::uint64_t>::max() / sizeof(Edge) ||
      e * sizeof(Edge) > body_bytes) {
    throw std::runtime_error("edge count " + std::to_string(e) +
                             " exceeds file size in: " + path);
  }
  in.seekg(body_pos);

  LoadResult result;
  result.num_vertices = static_cast<VertexId>(v);
  result.edges.edges().resize(e);
  in.read(reinterpret_cast<char*>(result.edges.edges().data()),
          static_cast<std::streamsize>(e * sizeof(Edge)));
  if (!in) throw std::runtime_error("truncated edge data in: " + path);
  for (const Edge& edge : result.edges) {
    if (edge.src >= v || edge.dst >= v) {
      throw std::runtime_error("edge endpoint out of range (V=" +
                               std::to_string(v) + ") in: " + path);
    }
  }
  return result;
}

}  // namespace cgraph
