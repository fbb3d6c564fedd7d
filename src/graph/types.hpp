// Fundamental graph identifier and property types.
//
// Vertex ids are dense 32-bit indices after ingestion re-indexing (paper
// §3.1); 4 G vertices is far beyond what this reproduction hosts. Edge
// counts use 64 bits since edge arrays routinely exceed 4 G entries in the
// paper's setting.
#pragma once

#include <cstdint>
#include <limits>

namespace cgraph {

using VertexId = std::uint32_t;
using EdgeIndex = std::uint64_t;
using PartitionId = std::uint32_t;
using QueryId = std::uint32_t;

inline constexpr VertexId kInvalidVertex =
    std::numeric_limits<VertexId>::max();
inline constexpr PartitionId kInvalidPartition =
    std::numeric_limits<PartitionId>::max();

/// Depth/level in a traversal. 255 = unvisited sentinel in compact stores.
using Depth = std::uint8_t;
inline constexpr Depth kUnvisitedDepth = std::numeric_limits<Depth>::max();

/// Half-open contiguous vertex range [begin, end) — the unit of range-based
/// partitioning and of edge-set tiling.
struct VertexRange {
  VertexId begin = 0;
  VertexId end = 0;

  [[nodiscard]] constexpr VertexId size() const { return end - begin; }
  [[nodiscard]] constexpr bool contains(VertexId v) const {
    return v >= begin && v < end;
  }
  [[nodiscard]] constexpr bool empty() const { return begin >= end; }

  friend constexpr bool operator==(const VertexRange&,
                                   const VertexRange&) = default;
};

}  // namespace cgraph
