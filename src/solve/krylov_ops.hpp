// krylov_ops.hpp — the execution context of a Krylov iteration's doall work.
//
// pcg, bicgstab and gmres run every SpMV, reduction and vector update
// through a KrylovOps, so each method has one loop body. A default
// KrylovOps runs everything inline on the caller. One built over a pool
// runs the SpMV as sparse::spmv_parallel and every vector operation as a
// single pool region over fixed reduction blocks (vec.hpp), with fused
// update-and-reduce bodies so a CG iteration costs four regions besides
// the preconditioner's (DESIGN.md §16).
//
// Both contexts call the same block bodies on the same blocks and add the
// block partials in block order, so their answers are bitwise identical
// at every width. Single caller at a time: a pooled context owns the
// partials scratch of its regions.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "runtime/barrier.hpp"
#include "runtime/schedule.hpp"
#include "runtime/thread_pool.hpp"
#include "solve/vec.hpp"
#include "sparse/csr.hpp"
#include "sparse/spmv.hpp"

namespace pdx::solve {

class KrylovOps {
 public:
  /// Sequential context: every operation runs inline, no dispatch.
  KrylovOps() = default;

  /// Pooled context: regions of `nthreads` members of `pool` (0 = pool
  /// width). Width 1 is the sequential context.
  KrylovOps(rt::ThreadPool& pool, unsigned nthreads)
      : pool_(&pool), width_(pool.clamp_threads(nthreads)) {}

  unsigned width() const noexcept { return width_; }

  /// y = A x (bitwise sparse::spmv at every width).
  void spmv(const sparse::Csr& a, std::span<const double> x,
            std::span<double> y) const {
    if (width_ > 1) {
      sparse::spmv_parallel(*pool_, a, x, y, width_);
    } else {
      sparse::spmv(a, x, y);
    }
  }

  /// Fixed-block sum over [0, n) in one region. `body(begin, end)` runs
  /// once per block, may update the block's elements, and returns the
  /// block's left-to-right partial: a double, or std::array<double, K>
  /// for K sums at once (then the result is an array too).
  template <class Body>
  auto sum(std::size_t n, const Body& body) const {
    return run(n, body, [](std::size_t, std::size_t, const auto&) {
      return 0.0;
    }).first;
  }

  /// sum(n, body), then — in the same region, once every partial is in —
  /// `then(begin, end, s)` per block with the total s of the first sum;
  /// `then` returns the block's partial of a second sum. Returns both
  /// totals. Used for a reduction whose scalar drives an update (CG's
  /// β = ρ'/ρ and p = z + βp) without a second fork/join.
  template <class Body, class Then>
  auto sum_then(std::size_t n, const Body& body, const Then& then) const {
    return run(n, body, then, /*two_phase=*/true);
  }

  /// Elementwise update over [0, n): body(begin, end) per block.
  template <class Body>
  void for_each(std::size_t n, const Body& body) const {
    sum(n, [&body](std::size_t lo, std::size_t hi) {
      body(lo, hi);
      return 0.0;
    });
  }

  double dot(std::span<const double> a, std::span<const double> b) const {
    return sum(a.size(), [&](std::size_t lo, std::size_t hi) {
      return dot_range(a.data(), b.data(), lo, hi);
    });
  }

  double norm2(std::span<const double> a) const {
    return std::sqrt(dot(a, a));
  }

 private:
  /// Sums carried by one partial of type R (double or std::array).
  template <class R>
  static constexpr std::size_t lanes() {
    if constexpr (std::is_same_v<R, double>) {
      return 1;
    } else {
      return std::tuple_size_v<R>;
    }
  }

  template <class R>
  static double& lane(R& r, std::size_t k) {
    if constexpr (std::is_same_v<R, double>) {
      (void)k;
      return r;
    } else {
      return r[k];
    }
  }

  /// Adds `nb` stored block partials of K lanes in block order.
  template <class R>
  static R add_partials(const double* p, std::size_t nb) {
    constexpr std::size_t k = lanes<R>();
    R s{};
    for (std::size_t b = 0; b < nb; ++b) {
      for (std::size_t j = 0; j < k; ++j) lane(s, j) += p[b * k + j];
    }
    return s;
  }

  template <class Body>
  using PartialOf =
      std::decay_t<std::invoke_result_t<const Body&, std::size_t, std::size_t>>;

  template <class Body, class Then>
  std::pair<PartialOf<Body>, double> run(std::size_t n, const Body& body,
                                         const Then& then,
                                         bool two_phase = false) const {
    using R = PartialOf<Body>;
    constexpr std::size_t k = lanes<R>();
    const std::size_t nb = reduce_blocks(n);
    const auto block_end = [n](std::size_t b) {
      return std::min(n, (b + 1) * kReduceBlock);
    };

    if (width_ <= 1 || nb < 2) {
      R s{};
      for (std::size_t b = 0; b < nb; ++b) {
        R p = body(b * kReduceBlock, block_end(b));
        for (std::size_t j = 0; j < k; ++j) lane(s, j) += lane(p, j);
      }
      double s2 = 0.0;
      if (two_phase) {
        for (std::size_t b = 0; b < nb; ++b) {
          s2 += then(b * kReduceBlock, block_end(b), s);
        }
      }
      return std::pair<R, double>(s, s2);
    }

    // One region: member t owns a contiguous run of blocks and stores
    // each block's partials; a two-phase call meets at a barrier, after
    // which every member adds the same partials in the same order (so
    // all see the same total) and runs `then` on its blocks.
    if (partials_.size() < nb * (k + 1)) partials_.resize(nb * (k + 1));
    double* const p1 = partials_.data();
    double* const p2 = p1 + nb * k;
    const unsigned nth =
        static_cast<unsigned>(std::min<std::size_t>(width_, nb));
    rt::Barrier barrier(nth);
    const auto member = [&](unsigned tid, unsigned nthreads) {
      const rt::IterRange mine = rt::static_block_range(
          static_cast<index_t>(nb), tid, nthreads);
      const auto lo = static_cast<std::size_t>(mine.begin);
      const auto hi = static_cast<std::size_t>(mine.end);
      for (std::size_t b = lo; b < hi; ++b) {
        R p = body(b * kReduceBlock, block_end(b));
        for (std::size_t j = 0; j < k; ++j) p1[b * k + j] = lane(p, j);
      }
      if (two_phase) {
        barrier.arrive_and_wait();
        const R s = add_partials<R>(p1, nb);
        for (std::size_t b = lo; b < hi; ++b) {
          p2[b] = then(b * kReduceBlock, block_end(b), s);
        }
      }
    };
    // One captured reference keeps the region function in std::function's
    // small buffer: no allocation per region.
    pool_->parallel_region(nth, [&member](unsigned tid, unsigned nthreads) {
      member(tid, nthreads);
    });
    const R s = add_partials<R>(p1, nb);
    return std::pair<R, double>(s, two_phase ? add_partials<double>(p2, nb)
                                             : 0.0);
  }

  rt::ThreadPool* pool_ = nullptr;
  unsigned width_ = 1;
  mutable std::vector<double> partials_;
};

}  // namespace pdx::solve
