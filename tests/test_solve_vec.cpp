// Tests for the dense vector kernels under the Krylov solvers: the
// fixed-block reduction definition, and the pooled KrylovOps reductions
// and fused updates agreeing with it bit for bit at every pool width.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "gen/rng.hpp"
#include "runtime/thread_pool.hpp"
#include "solve/krylov_ops.hpp"
#include "solve/vec.hpp"

namespace solve = pdx::solve;
namespace rt = pdx::rt;

namespace {

constexpr std::size_t B = solve::kReduceBlock;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::vector<double> random_vec(std::size_t n, std::uint64_t seed) {
  pdx::gen::SplitMix64 rng(seed);
  std::vector<double> v(n);
  for (auto& e : v) e = rng.next_double(-1.0, 1.0);
  return v;
}

/// The definition, written out: each block of B summed left to right,
/// block partials added in block order.
double fixed_block_dot(const std::vector<double>& a,
                       const std::vector<double>& b) {
  double total = 0.0;
  for (std::size_t lo = 0; lo < a.size(); lo += B) {
    double part = 0.0;
    for (std::size_t i = lo; i < a.size() && i < lo + B; ++i) {
      part += a[i] * b[i];
    }
    total += part;
  }
  return total;
}

const std::vector<std::size_t>& edge_sizes() {
  static const std::vector<std::size_t> s = {0, 1, B - 1, B, B + 1,
                                             5 * B + 3};
  return s;
}

/// Pools of widths 1, 2, 3, 4 and 7 (7 oversubscribes a small box with
/// 6 worker threads).
std::vector<std::unique_ptr<rt::ThreadPool>>& pools() {
  static std::vector<std::unique_ptr<rt::ThreadPool>> p = [] {
    std::vector<std::unique_ptr<rt::ThreadPool>> v;
    for (unsigned w : {1u, 2u, 3u, 4u, 7u}) {
      v.push_back(std::make_unique<rt::ThreadPool>(w));
    }
    return v;
  }();
  return p;
}

}  // namespace

TEST(Vec, DotBasics) {
  const std::vector<double> a = {1, 2, 3};
  const std::vector<double> b = {4, -5, 6};
  EXPECT_DOUBLE_EQ(solve::dot(a, b), 4 - 10 + 18);
  EXPECT_DOUBLE_EQ(solve::dot(a, a), 14.0);
  const std::vector<double> empty;
  EXPECT_DOUBLE_EQ(solve::dot(empty, empty), 0.0);
}

TEST(Vec, Norm2MatchesHandComputation) {
  const std::vector<double> a = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(solve::norm2(a), 5.0);
  const std::vector<double> zero(10, 0.0);
  EXPECT_DOUBLE_EQ(solve::norm2(zero), 0.0);
}

TEST(Vec, DotIsAFixedBlockSum) {
  // Block 0 = {1, 2^-53 x (B-1)}: each tiny term rounds away against 1,
  // so its partial is 1. Block 1 = {2^-53 x B}: its partial is exactly
  // B * 2^-53 = 2^-42. A plain left-to-right sum would stay at 1.
  std::vector<double> a(2 * B, std::ldexp(1.0, -53));
  a[0] = 1.0;
  const std::vector<double> ones(2 * B, 1.0);
  EXPECT_EQ(solve::dot(a, ones), 1.0 + std::ldexp(1.0, -42));

  for (std::size_t n : edge_sizes()) {
    const auto x = random_vec(n, 100 + n);
    const auto y = random_vec(n, 200 + n);
    EXPECT_EQ(bits(solve::dot(x, y)), bits(fixed_block_dot(x, y))) << n;
    EXPECT_EQ(bits(solve::norm2(x)),
              bits(std::sqrt(fixed_block_dot(x, x))))
        << n;
  }
}

TEST(KrylovOps, PooledReductionsMatchSequentialBitwiseAtEveryWidth) {
  for (std::size_t n : edge_sizes()) {
    const auto x = random_vec(n, 300 + n);
    const auto y = random_vec(n, 400 + n);
    const double dot_ref = solve::dot(x, y);
    const double norm_ref = solve::norm2(x);
    for (auto& pool : pools()) {
      const solve::KrylovOps ops(*pool, 0);
      EXPECT_EQ(ops.width(), pool->width());
      EXPECT_EQ(bits(ops.dot(x, y)), bits(dot_ref))
          << "n " << n << " width " << pool->width();
      EXPECT_EQ(bits(ops.norm2(x)), bits(norm_ref))
          << "n " << n << " width " << pool->width();
      // Two sums in one pass: the same lanes as two separate dots.
      const std::array<double, 2> both =
          ops.sum(n, [&](std::size_t lo, std::size_t hi) {
            std::array<double, 2> acc{};
            for (std::size_t i = lo; i < hi; ++i) {
              acc[0] += x[i] * y[i];
              acc[1] += x[i] * x[i];
            }
            return acc;
          });
      EXPECT_EQ(bits(both[0]), bits(dot_ref)) << n;
      EXPECT_EQ(bits(both[1]), bits(solve::dot(x, x))) << n;
    }
  }
}

TEST(KrylovOps, FusedUpdatesMatchSequentialBitwiseAtEveryWidth) {
  // The CG shapes: update-and-reduce (x += a p; r -= a q with r·r) and
  // reduce-then-update (rho' = r·z, then p = z + (rho'/rho) p).
  for (std::size_t n : edge_sizes()) {
    const auto p0 = random_vec(n, 500 + n);
    const auto q = random_vec(n, 600 + n);
    const auto z = random_vec(n, 700 + n);
    const double alpha = 0.375, rho = 1.5;
    auto run = [&](const solve::KrylovOps& ops) {
      std::vector<double> x(n, 0.25), r = random_vec(n, 800 + n), p = p0;
      const double rr = ops.sum(n, [&](std::size_t lo, std::size_t hi) {
        double s = 0.0;
        for (std::size_t i = lo; i < hi; ++i) {
          x[i] += alpha * p[i];
          r[i] += -alpha * q[i];
          s += r[i] * r[i];
        }
        return s;
      });
      const auto [rho_new, unused] = ops.sum_then(
          n,
          [&](std::size_t lo, std::size_t hi) {
            return solve::dot_range(r.data(), z.data(), lo, hi);
          },
          [&](std::size_t lo, std::size_t hi, double s) {
            const double beta = s / rho;
            for (std::size_t i = lo; i < hi; ++i) p[i] = z[i] + beta * p[i];
            return 0.0;
          });
      EXPECT_EQ(unused, 0.0);
      return std::make_tuple(rr, rho_new, x, r, p);
    };
    const auto ref = run(solve::KrylovOps{});
    EXPECT_EQ(bits(std::get<0>(ref)), bits(solve::dot(std::get<3>(ref),
                                                       std::get<3>(ref))));
    for (auto& pool : pools()) {
      const auto got = run(solve::KrylovOps(*pool, 0));
      const unsigned w = pool->width();
      EXPECT_EQ(bits(std::get<0>(got)), bits(std::get<0>(ref))) << n << "/" << w;
      EXPECT_EQ(bits(std::get<1>(got)), bits(std::get<1>(ref))) << n << "/" << w;
      EXPECT_EQ(std::get<2>(got), std::get<2>(ref)) << n << "/" << w;
      EXPECT_EQ(std::get<3>(got), std::get<3>(ref)) << n << "/" << w;
      EXPECT_EQ(std::get<4>(got), std::get<4>(ref)) << n << "/" << w;
    }
  }
}

TEST(KrylovOps, OneRegionPerOperationAboveOneBlock) {
  // A pooled operation over two or more blocks is exactly one fork/join;
  // one block (or a width-1 context) runs inline with none.
  rt::ThreadPool& pool = *pools()[3];  // width 4
  const solve::KrylovOps ops(pool, 0);
  const solve::KrylovOps inline_ops(pool, 1);
  for (std::size_t n : edge_sizes()) {
    const auto x = random_vec(n, 900 + n);
    const rt::DispatchProbe probe(pool);
    (void)ops.dot(x, x);
    EXPECT_EQ(probe.delta(), n > B ? 1u : 0u) << n;
    (void)ops.sum_then(
        n, [&](std::size_t lo, std::size_t hi) {
          return solve::dot_range(x.data(), x.data(), lo, hi);
        },
        [](std::size_t, std::size_t, double) { return 0.0; });
    EXPECT_EQ(probe.delta(), n > B ? 2u : 0u) << n;
    (void)inline_ops.dot(x, x);
    EXPECT_EQ(probe.delta(), n > B ? 2u : 0u) << n;
  }
}
