// vec.hpp — dense vector kernels for the Krylov solvers.
//
// Reductions are fixed-block sums (DESIGN.md §16): the vector is cut into
// blocks of kReduceBlock elements, each block is summed left to right,
// and the block partials are added in block order. The definition does
// not mention threads, so a pooled reduction that computes the same
// per-block partials on different members (solve::KrylovOps) returns the
// same bits as these sequential functions at every width.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>

namespace pdx::solve {

/// Elements per reduction block.
inline constexpr std::size_t kReduceBlock = 2048;

/// Blocks covering n elements (0 for n = 0).
constexpr std::size_t reduce_blocks(std::size_t n) noexcept {
  return (n + kReduceBlock - 1) / kReduceBlock;
}

/// Left-to-right partial of a·b over [begin, end): one block's term.
inline double dot_range(const double* a, const double* b, std::size_t begin,
                        std::size_t end) noexcept {
  double s = 0.0;
  for (std::size_t i = begin; i < end; ++i) s += a[i] * b[i];
  return s;
}

/// Fixed-block a·b: block partials (dot_range) added in block order.
inline double dot(std::span<const double> a, std::span<const double> b) {
  double s = 0.0;
  for (std::size_t lo = 0; lo < a.size(); lo += kReduceBlock) {
    s += dot_range(a.data(), b.data(), lo,
                   std::min(a.size(), lo + kReduceBlock));
  }
  return s;
}

inline double norm2(std::span<const double> a) { return std::sqrt(dot(a, a)); }

}  // namespace pdx::solve
