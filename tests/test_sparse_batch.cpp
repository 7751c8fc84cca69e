// Tests for the batched multi-RHS execution layer: solve_batch is bitwise
// identical to k sequential solve() calls across thread counts, schedules
// and k; a whole batch costs exactly ONE pool dispatch
// (asserted with rt::DispatchProbe); spmv_batch matches per-column spmv;
// and the row-major multi-RHS upper doacross completes the par_trisolve
// API pair.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "gen/rng.hpp"
#include "gen/stencil.hpp"
#include "runtime/thread_pool.hpp"
#include "solve/precond.hpp"
#include "sparse/ilu0.hpp"
#include "sparse/levels.hpp"
#include "sparse/par_trisolve.hpp"
#include "sparse/spmv.hpp"
#include "sparse/trisolve.hpp"
#include "sparse/trisolve_plan.hpp"

namespace sp = pdx::sparse;
namespace gen = pdx::gen;
namespace solve = pdx::solve;
namespace rt = pdx::rt;
namespace core = pdx::core;
using pdx::index_t;

namespace {

rt::ThreadPool& pool() {
  static rt::ThreadPool p(8);
  return p;
}

/// Column-major n-by-k matrix of deterministic pseudo-random values.
std::vector<double> random_columns(index_t n, index_t k, std::uint64_t seed) {
  gen::SplitMix64 rng(seed);
  std::vector<double> m(static_cast<std::size_t>(n * k));
  for (auto& v : m) v = rng.next_double(-1.0, 1.0);
  return m;
}

}  // namespace

TEST(SolveBatch, BitwiseIdentityAcrossModesThreadsSchedulesAndK) {
  const sp::IluFactors f = sp::ilu0(gen::five_point(16, 16));
  const index_t n = f.l.rows;

  for (unsigned nth : {1u, 2u, 4u}) {
    for (const auto& sched :
         {rt::Schedule::static_block(), rt::Schedule::dynamic(8)}) {
      sp::PlanOptions opts;
      opts.nthreads = nth;
      opts.schedule = sched;
      sp::TrisolvePlan plan(pool(), f.l, f.u, opts);
      for (index_t k : {1, 3, 8, 33}) {
        const auto b = random_columns(n, k, 1000 + static_cast<unsigned>(k));
        // Reference: k sequential fused solves through the SAME plan.
        std::vector<double> x_seq(static_cast<std::size_t>(n * k));
        rt::DispatchProbe probe(pool());
        for (index_t c = 0; c < k; ++c) {
          plan.solve(std::span<const double>(b.data() + c * n,
                                             static_cast<std::size_t>(n)),
                     std::span<double>(x_seq.data() + c * n,
                                       static_cast<std::size_t>(n)));
        }
        EXPECT_EQ(probe.delta(), static_cast<std::uint64_t>(k))
            << "sequential path: one dispatch per RHS";

        std::vector<double> x(static_cast<std::size_t>(n * k), 0.0);
        probe.rebase();
        plan.solve_batch(b, x, k);
        EXPECT_EQ(probe.delta(), 1u)
            << "batch of " << k << " must cost exactly one pool dispatch";
        for (index_t i = 0; i < n * k; ++i) {
          ASSERT_EQ(x_seq[static_cast<std::size_t>(i)],
                    x[static_cast<std::size_t>(i)])
              << "nth=" << nth << " " << rt::to_string(sched) << " k=" << k
              << " col " << i / n << " row " << i % n;
        }
      }
    }
  }
}

TEST(SolveBatch, PointerColumnsNeedNotBeContiguous) {
  const sp::IluFactors f = sp::ilu0(gen::seven_point(6, 6, 6));
  const index_t n = f.l.rows;
  const index_t k = 5;
  sp::TrisolvePlan plan(pool(), f.l, f.u, {});

  // Each column is its own caller-owned vector — the BatchDriver shape.
  std::vector<std::vector<double>> b(static_cast<std::size_t>(k)),
      x(static_cast<std::size_t>(k));
  std::vector<const double*> b_ptrs(static_cast<std::size_t>(k));
  std::vector<double*> x_ptrs(static_cast<std::size_t>(k));
  for (index_t c = 0; c < k; ++c) {
    gen::SplitMix64 rng(40 + static_cast<std::uint64_t>(c));
    b[static_cast<std::size_t>(c)].resize(static_cast<std::size_t>(n));
    for (auto& v : b[static_cast<std::size_t>(c)]) {
      v = rng.next_double(-1.0, 1.0);
    }
    x[static_cast<std::size_t>(c)].assign(static_cast<std::size_t>(n), 0.0);
    b_ptrs[static_cast<std::size_t>(c)] = b[static_cast<std::size_t>(c)].data();
    x_ptrs[static_cast<std::size_t>(c)] = x[static_cast<std::size_t>(c)].data();
  }

  rt::DispatchProbe probe(pool());
  plan.solve_batch(b_ptrs.data(), x_ptrs.data(), k);
  EXPECT_EQ(probe.delta(), 1u);
  for (index_t c = 0; c < k; ++c) {
    std::vector<double> t(static_cast<std::size_t>(n)),
        z(static_cast<std::size_t>(n));
    sp::trisolve_lower_seq(f.l, b[static_cast<std::size_t>(c)], t);
    sp::trisolve_upper_seq(f.u, t, z);
    for (index_t i = 0; i < n; ++i) {
      ASSERT_EQ(z[static_cast<std::size_t>(i)],
                x[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)])
          << "col " << c << " row " << i;
    }
  }
}

TEST(SolveBatch, PlanReusableAcrossVaryingBatchSizes) {
  const sp::IluFactors f = sp::ilu0(gen::nine_point(12, 12));
  const index_t n = f.l.rows;
  sp::TrisolvePlan plan(pool(), f.l, f.u, {});
  const std::uint64_t solves0 = plan.solves();

  std::uint64_t columns = 0;
  for (index_t k : {8, 3, 33, 1}) {  // grow, shrink, grow again
    const auto b = random_columns(n, k, 500 + static_cast<unsigned>(k));
    std::vector<double> x(static_cast<std::size_t>(n * k));
    plan.solve_batch(b, x, k);
    columns += static_cast<std::uint64_t>(k);
    for (index_t c = 0; c < k; ++c) {
      std::vector<double> t(static_cast<std::size_t>(n)),
          z(static_cast<std::size_t>(n));
      sp::trisolve_lower_seq(
          f.l,
          std::span<const double>(b.data() + c * n,
                                  static_cast<std::size_t>(n)),
          t);
      sp::trisolve_upper_seq(f.u, t, z);
      for (index_t i = 0; i < n; ++i) {
        ASSERT_EQ(z[static_cast<std::size_t>(i)],
                  x[static_cast<std::size_t>(c * n + i)])
            << "k=" << k << " col " << c << " row " << i;
      }
    }
  }
  EXPECT_EQ(plan.solves() - solves0, 4u) << "one dispatch per batch";
  EXPECT_EQ(plan.batch_columns(), columns);
}

TEST(SolveBatch, ReserveBatchMakesSolvesAllocationFreeAndIdentical) {
  const sp::IluFactors f = sp::ilu0(gen::five_point(10, 10));
  const index_t n = f.l.rows;
  const index_t k = 6;
  sp::TrisolvePlan plan(pool(), f.l, f.u, {});
  plan.reserve_batch(k);

  const auto b = random_columns(n, k, 77);
  std::vector<double> x1(static_cast<std::size_t>(n * k)),
      x2(static_cast<std::size_t>(n * k));
  plan.solve_batch(b, x1, k);
  plan.solve_batch(b, x2, k);  // epoch reuse: second batch through the
                               // same tables must agree exactly
  for (index_t i = 0; i < n * k; ++i) {
    ASSERT_EQ(x1[static_cast<std::size_t>(i)],
              x2[static_cast<std::size_t>(i)]);
  }
}

TEST(SolveBatch, GuardsRejectMisuse) {
  const sp::IluFactors f = sp::ilu0(gen::five_point(6, 6));
  const index_t n = f.l.rows;
  sp::TrisolvePlan lower_only(pool(), f.l, sp::PlanOptions{});
  std::vector<double> b(static_cast<std::size_t>(n)), x = b;
  EXPECT_THROW(lower_only.solve_batch(b, x, 1), std::logic_error);

  sp::TrisolvePlan plan(pool(), f.l, f.u, {});
  EXPECT_THROW(plan.solve_batch(b, x, 0), std::invalid_argument);
  EXPECT_THROW(plan.solve_batch(b, x, -3), std::invalid_argument);
  EXPECT_THROW(plan.solve_batch(b, x, 2), std::invalid_argument)
      << "n-sized spans cannot hold 2 columns";
  EXPECT_THROW(plan.reserve_batch(0), std::invalid_argument);
}

TEST(SolveBatch, PreconditionerApplyBatchMatchesSequentialApplications) {
  const sp::Csr a = gen::five_point(14, 14);
  // Calibration off: the one-dispatch assertion below assumes the plan
  // holds a fixed parallel strategy across every batched application.
  const solve::DoacrossIlu0Preconditioner m(
      pool(), a, sp::PlanOptions{.calibration_epochs = 0},
      sp::FactorPlanOptions{});
  const index_t n = a.rows;
  const index_t k = 7;
  m.reserve_batch(k);

  const auto r = random_columns(n, k, 91);
  std::vector<double> z_seq(static_cast<std::size_t>(n * k));
  for (index_t c = 0; c < k; ++c) {
    m.apply(std::span<const double>(r.data() + c * n,
                                    static_cast<std::size_t>(n)),
            std::span<double>(z_seq.data() + c * n,
                              static_cast<std::size_t>(n)));
  }
  std::vector<double> z(static_cast<std::size_t>(n * k), 0.0);
  rt::DispatchProbe probe(pool());
  m.apply_batch(r, z, k);
  EXPECT_EQ(probe.delta(), 1u);
  for (index_t i = 0; i < n * k; ++i) {
    ASSERT_EQ(z_seq[static_cast<std::size_t>(i)],
              z[static_cast<std::size_t>(i)])
        << i;
  }
}

TEST(SpmvBatch, MatchesPerColumnSpmvSequentialAndParallel) {
  const sp::Csr a = gen::nine_point(11, 13);
  const index_t n = a.rows;
  for (index_t k : {1, 3, 8, 17}) {  // crosses the register-block width
    const auto x = random_columns(n, k, 200 + static_cast<unsigned>(k));
    std::vector<double> y_ref(static_cast<std::size_t>(n * k));
    for (index_t c = 0; c < k; ++c) {
      sp::spmv(a,
               std::span<const double>(x.data() + c * n,
                                       static_cast<std::size_t>(n)),
               std::span<double>(y_ref.data() + c * n,
                                 static_cast<std::size_t>(n)));
    }
    std::vector<double> y(static_cast<std::size_t>(n * k), 0.0);
    sp::spmv_batch(a, x, y, k);
    for (index_t i = 0; i < n * k; ++i) {
      ASSERT_EQ(y_ref[static_cast<std::size_t>(i)],
                y[static_cast<std::size_t>(i)])
          << "sequential k=" << k << " " << i;
    }
    std::fill(y.begin(), y.end(), 0.0);
    rt::DispatchProbe probe(pool());
    sp::spmv_batch_parallel(pool(), a, x, y, k, 4);
    EXPECT_LE(probe.delta(), 1u) << "all k columns in at most one dispatch";
    for (index_t i = 0; i < n * k; ++i) {
      ASSERT_EQ(y_ref[static_cast<std::size_t>(i)],
                y[static_cast<std::size_t>(i)])
          << "parallel k=" << k << " " << i;
    }
  }
}

TEST(UpperDoacrossMulti, RowMajorMultiMatchesPerColumnSequential) {
  const sp::IluFactors f = sp::ilu0(gen::five_point(13, 13));
  const index_t n = f.u.rows;
  const core::Reordering u_ord = sp::upper_solve_reordering(f.u);
  for (unsigned nth : {1u, 2u, 4u}) {
    for (index_t nrhs : {1, 4, 9}) {
      // Row-major multi layout: element (i, r) at i*nrhs + r.
      gen::SplitMix64 rng(300 + nth + static_cast<unsigned>(nrhs));
      std::vector<double> rhs(static_cast<std::size_t>(n * nrhs));
      for (auto& v : rhs) v = rng.next_double(-1.0, 1.0);

      std::vector<double> y(static_cast<std::size_t>(n * nrhs), 0.0);
      core::EpochReadyTable ready(n);
      sp::TrisolveOptions opts;
      opts.nthreads = nth;
      opts.order = u_ord.order.data();
      sp::trisolve_upper_doacross_multi(pool(), f.u, rhs, y, nrhs, ready,
                                        opts);

      for (index_t r = 0; r < nrhs; ++r) {
        std::vector<double> b1(static_cast<std::size_t>(n)),
            y1(static_cast<std::size_t>(n));
        for (index_t i = 0; i < n; ++i) {
          b1[static_cast<std::size_t>(i)] =
              rhs[static_cast<std::size_t>(i * nrhs + r)];
        }
        sp::trisolve_upper_seq(f.u, b1, y1);
        for (index_t i = 0; i < n; ++i) {
          ASSERT_EQ(y1[static_cast<std::size_t>(i)],
                    y[static_cast<std::size_t>(i * nrhs + r)])
              << "nth=" << nth << " nrhs=" << nrhs << " col " << r << " row "
              << i;
        }
      }
    }
  }
}
