// Raw directed edge record as produced by generators and file loaders,
// before conversion to CSR/CSC/edge-set forms.
#pragma once

#include "graph/types.hpp"

namespace cgraph {

struct Edge {
  VertexId src = 0;
  VertexId dst = 0;

  friend constexpr bool operator==(const Edge&, const Edge&) = default;
};

/// Source-major, destination-minor ordering used before CSR construction.
struct EdgeLess {
  constexpr bool operator()(const Edge& a, const Edge& b) const {
    if (a.src != b.src) return a.src < b.src;
    return a.dst < b.dst;
  }
};

}  // namespace cgraph
