// Tests for solve::BatchDriver: a queue of mixed easy / ill-conditioned
// systems drains through the shared DoacrossIlu0Preconditioner plan, every
// solution meets the same residual tolerance as the single-solve path, and
// the results are bitwise identical to running each system alone. Also
// covers the batched admission screen and queue reuse.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "gen/block_operator.hpp"
#include "gen/rng.hpp"
#include "gen/stencil.hpp"
#include "runtime/thread_pool.hpp"
#include "solve/batch_driver.hpp"
#include "solve/bicgstab.hpp"
#include "solve/cg.hpp"
#include "solve/precond.hpp"
#include "solve/vec.hpp"
#include "sparse/csr.hpp"
#include "sparse/spmv.hpp"

namespace sp = pdx::sparse;
namespace gen = pdx::gen;
namespace solve = pdx::solve;
namespace rt = pdx::rt;
using pdx::index_t;

namespace {

rt::ThreadPool& pool() {
  static rt::ThreadPool p(8);
  return p;
}

/// Anisotropic 2-D operator: strong coupling along x, eps-weak along y.
/// SPD (boundary rows strictly dominant) but ill-conditioned for small
/// eps — the hard half of the mixed queue.
sp::Csr anisotropic_five_point(index_t nx, index_t ny, double eps) {
  sp::CsrBuilder b(nx * ny, nx * ny);
  for (index_t iy = 0; iy < ny; ++iy) {
    for (index_t ix = 0; ix < nx; ++ix) {
      const index_t i = iy * nx + ix;
      b.add(i, i, 2.0 + 2.0 * eps);
      if (ix > 0) b.add(i, i - 1, -1.0);
      if (ix < nx - 1) b.add(i, i + 1, -1.0);
      if (iy > 0) b.add(i, i - nx, -eps);
      if (iy < ny - 1) b.add(i, i + nx, -eps);
    }
  }
  return b.build();
}

std::vector<double> random_vec(index_t n, std::uint64_t seed) {
  gen::SplitMix64 rng(seed);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (auto& e : v) e = rng.next_double(-1.0, 1.0);
  return v;
}

double relative_residual(const sp::Csr& a, std::span<const double> b,
                         std::span<const double> x) {
  std::vector<double> r(static_cast<std::size_t>(a.rows));
  sp::spmv(a, x, r);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
  const double bnorm = solve::norm2(b);
  return solve::norm2(r) / (bnorm > 0.0 ? bnorm : 1.0);
}

}  // namespace

TEST(BatchDriver, MixedQueueMeetsToleranceAndMatchesSingleSolvePath) {
  // Ill-conditioned matrix, mixed right-hand sides: a smooth "easy" one, a
  // rough random one, the all-zero system, and a pre-solved guess.
  const sp::Csr a = anisotropic_five_point(16, 16, 1e-3);
  const index_t n = a.rows;
  const double tol = 1e-10;

  std::vector<double> x_true(static_cast<std::size_t>(n), 1.0);
  std::vector<double> b_easy(static_cast<std::size_t>(n));
  sp::spmv(a, x_true, b_easy);                      // smooth solution
  const auto b_hard = random_vec(n, 21);            // rough rhs
  std::vector<double> b_zero(static_cast<std::size_t>(n), 0.0);

  solve::BatchDriverOptions opts;
  opts.max_iterations = 5000;
  opts.rel_tolerance = tol;
  // Calibration off: the dispatch-per-application accounting below
  // assumes one fixed parallel strategy across the whole drain.
  opts.calibration_epochs = 0;
  solve::BatchDriver driver(pool(), a, opts);

  std::vector<double> x0(static_cast<std::size_t>(n), 0.0);
  std::vector<double> x1(static_cast<std::size_t>(n), 0.0);
  std::vector<double> x2(static_cast<std::size_t>(n), 0.0);
  std::vector<double> x3 = x_true;  // exact guess: screened, untouched
  driver.enqueue(b_easy, x0);
  driver.enqueue(b_hard, x1);
  driver.enqueue(b_zero, x2);
  driver.enqueue(b_easy, x3);
  EXPECT_EQ(driver.pending(), 4u);

  const auto rep = driver.drain();
  EXPECT_EQ(rep.jobs, 4u);
  ASSERT_EQ(rep.reports.size(), 4u);
  EXPECT_EQ(rep.converged, 4u);
  EXPECT_EQ(rep.screened, 2u) << "zero system and exact guess";
  EXPECT_EQ(rep.reports[2].iterations, 0);
  EXPECT_EQ(rep.reports[3].iterations, 0);
  EXPECT_GT(rep.total_iterations, 0u);
  EXPECT_GT(rep.precond_solves, 0u);
  EXPECT_GT(rep.pool_dispatches, rep.precond_solves)
      << "screen + one dispatch per preconditioner application";

  // Every solution meets the drain tolerance, re-verified from scratch.
  EXPECT_LE(relative_residual(a, b_easy, x0), tol);
  EXPECT_LE(relative_residual(a, b_hard, x1), tol);
  EXPECT_LE(relative_residual(a, b_easy, x3), tol);
  for (double v : x2) EXPECT_EQ(v, 0.0) << "zero system: x untouched";
  for (std::size_t i = 0; i < x3.size(); ++i) {
    EXPECT_EQ(x3[i], x_true[i]) << "screened job must not touch x";
  }

  // Bitwise identity with the single-solve path: same systems, one at a
  // time, through their own DoacrossIlu0Preconditioner.
  const solve::DoacrossIlu0Preconditioner m(pool(), a);
  solve::CgOptions copts;
  copts.max_iterations = opts.max_iterations;
  copts.rel_tolerance = tol;
  std::vector<double> y0(static_cast<std::size_t>(n), 0.0);
  std::vector<double> y1(static_cast<std::size_t>(n), 0.0);
  const auto rep0 = solve::pcg(a, b_easy, y0, m, copts);
  const auto rep1 = solve::pcg(a, b_hard, y1, m, copts);
  EXPECT_EQ(rep.reports[0].iterations, rep0.iterations);
  EXPECT_EQ(rep.reports[1].iterations, rep1.iterations);
  for (index_t i = 0; i < n; ++i) {
    ASSERT_EQ(x0[static_cast<std::size_t>(i)],
              y0[static_cast<std::size_t>(i)])
        << i;
    ASSERT_EQ(x1[static_cast<std::size_t>(i)],
              y1[static_cast<std::size_t>(i)])
        << i;
  }
}

TEST(BatchDriver, BicgstabDrainOnNonsymmetricMatchesSingleSolves) {
  const sp::Csr a = gen::block_seven_point(
      {.nx = 4, .ny = 3, .nz = 2, .block = 3, .seed = 13});
  const index_t n = a.rows;
  const double tol = 1e-9;

  solve::BatchDriverOptions opts;
  opts.method = solve::KrylovMethod::kBicgstab;
  opts.max_iterations = 2000;
  opts.rel_tolerance = tol;
  solve::BatchDriver driver(pool(), a, opts);

  const int jobs = 5;
  std::vector<std::vector<double>> b(jobs), x(jobs);
  for (int j = 0; j < jobs; ++j) {
    b[static_cast<std::size_t>(j)] =
        random_vec(n, 50 + static_cast<std::uint64_t>(j));
    x[static_cast<std::size_t>(j)].assign(static_cast<std::size_t>(n), 0.0);
    driver.enqueue(b[static_cast<std::size_t>(j)],
                   x[static_cast<std::size_t>(j)]);
  }
  const auto rep = driver.drain();
  EXPECT_EQ(rep.converged, static_cast<std::size_t>(jobs));

  const solve::DoacrossIlu0Preconditioner m(pool(), a);
  solve::BicgstabOptions bopts;
  bopts.max_iterations = opts.max_iterations;
  bopts.rel_tolerance = tol;
  for (int j = 0; j < jobs; ++j) {
    EXPECT_LE(relative_residual(a, b[static_cast<std::size_t>(j)],
                                x[static_cast<std::size_t>(j)]),
              tol)
        << "job " << j;
    std::vector<double> y(static_cast<std::size_t>(n), 0.0);
    const auto single =
        solve::bicgstab(a, b[static_cast<std::size_t>(j)], y, m, bopts);
    EXPECT_EQ(rep.reports[static_cast<std::size_t>(j)].iterations,
              single.iterations)
        << "job " << j;
    for (index_t i = 0; i < n; ++i) {
      ASSERT_EQ(x[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)],
                y[static_cast<std::size_t>(i)])
          << "job " << j << " row " << i;
    }
  }
}

TEST(BatchDriver, SecondDrainScreensAlreadySolvedSystems) {
  const sp::Csr a = gen::five_point(12, 12);
  const index_t n = a.rows;
  solve::BatchDriver driver(pool(), a, {});

  const auto b0 = random_vec(n, 71);
  const auto b1 = random_vec(n, 72);
  std::vector<double> x0(static_cast<std::size_t>(n), 0.0),
      x1(static_cast<std::size_t>(n), 0.0);
  driver.enqueue(b0, x0);
  driver.enqueue(b1, x1);
  const auto first = driver.drain();
  EXPECT_EQ(first.converged, 2u);
  EXPECT_EQ(driver.pending(), 0u);

  // Re-enqueue the solved (b, x) pairs: the batched screen answers both
  // with zero Krylov work — exactly one dispatch (the SpMV pass) total.
  driver.enqueue(b0, x0);
  driver.enqueue(b1, x1);
  const auto second = driver.drain();
  EXPECT_EQ(second.jobs, 2u);
  EXPECT_EQ(second.screened, 2u);
  EXPECT_EQ(second.converged, 2u);
  EXPECT_EQ(second.total_iterations, 0u);
  EXPECT_EQ(second.precond_solves, 0u);
  EXPECT_EQ(second.pool_dispatches, 1u);
}

TEST(BatchDriver, ZeroGuessScreenSkipsTheSpmvDispatch) {
  // Service enqueues x = 0, and for a finite A the screen's residual is b
  // itself: a drain whose guesses are all zero skips the screen's SpMV
  // dispatch and reports exactly what the SpMV path reports. The same
  // jobs plus one exact nonzero guess force the SpMV path for contrast.
  const sp::Csr a = gen::five_point(12, 12);
  const index_t n = a.rows;
  const auto b0 = random_vec(n, 81);
  const std::vector<double> b_zero(static_cast<std::size_t>(n), 0.0);
  const std::vector<double> ones(static_cast<std::size_t>(n), 1.0);
  std::vector<double> b_ones(static_cast<std::size_t>(n));
  sp::spmv(a, ones, b_ones);  // x = 1 is exact: screened at r = 0

  solve::BatchDriverOptions opts;
  // One fixed parallel strategy: every preconditioner application is
  // exactly one dispatch, so the screen's dispatch shows in the count.
  opts.strategy = sp::ExecutionStrategy::kDoacross;
  opts.nthreads = 4;
  opts.calibration_epochs = 0;
  auto drain = [&](bool with_nonzero_guess) {
    solve::BatchDriver driver(pool(), a, opts);
    std::vector<double> x0(static_cast<std::size_t>(n), 0.0),
        xz(static_cast<std::size_t>(n), 0.0), x1 = ones;
    driver.enqueue(b0, x0);
    driver.enqueue(b_zero, xz);
    if (with_nonzero_guess) driver.enqueue(b_ones, x1);
    return driver.drain();
  };
  const solve::BatchReport zero = drain(false);
  const solve::BatchReport mixed = drain(true);

  EXPECT_EQ(zero.pool_dispatches, zero.precond_solves)
      << "no screen dispatch for all-zero guesses";
  EXPECT_EQ(mixed.precond_solves, zero.precond_solves);
  EXPECT_EQ(mixed.pool_dispatches, zero.pool_dispatches + 1);
  EXPECT_EQ(zero.screened, 1u) << "b = 0 is still screened";
  EXPECT_EQ(mixed.screened, 2u);
  EXPECT_TRUE(zero.reports[1].converged);
  EXPECT_EQ(zero.reports[1].iterations, 0);
  for (std::size_t j = 0; j < 2; ++j) {
    const solve::SolveReport& z = zero.reports[j];
    const solve::SolveReport& m = mixed.reports[j];
    EXPECT_EQ(z.converged, m.converged) << "job " << j;
    EXPECT_EQ(z.iterations, m.iterations) << "job " << j;
    EXPECT_EQ(z.final_relative_residual, m.final_relative_residual)
        << "job " << j;
    EXPECT_EQ(z.residual_history, m.residual_history) << "job " << j;
    EXPECT_EQ(z.attempts, m.attempts) << "job " << j;
    EXPECT_EQ(z.breakdown, m.breakdown) << "job " << j;
  }
}

TEST(BatchDriver, PooledKrylovDispatchBudgetIsExact) {
  // Above kPooledKrylovMinNnz the driver runs the Krylov vector work on
  // the pool. With the trisolve strategy pinned (one dispatch per
  // preconditioner application) and all-zero guesses (no screen SpMV),
  // every other fork/join is a Krylov region, and CG's count is fixed:
  // 2 screen norms per job, then per solved job 4 set-up regions
  // (residual SpMV, r = b - Ax with r·r, ||b||, p = z with r·z) plus 4 per
  // iteration (SpMV, p·Ap, the fused x/r update with r·r, and r·z fused
  // with the p update), minus the last iteration's p update.
  const sp::Csr a = gen::seven_point(24, 24, 24);
  ASSERT_GE(a.val.size(), solve::kPooledKrylovMinNnz);
  const index_t n = a.rows;
  const auto b0 = random_vec(n, 91);
  const auto b1 = random_vec(n, 92);

  solve::BatchDriverOptions opts;
  opts.strategy = sp::ExecutionStrategy::kLevelBarrier;
  opts.calibration_epochs = 0;
  opts.nthreads = 4;
  opts.rel_tolerance = 1e-9;
  solve::BatchDriver driver(pool(), a, opts);
  std::vector<double> x0(static_cast<std::size_t>(n), 0.0),
      x1(static_cast<std::size_t>(n), 0.0);
  driver.enqueue(b0, x0);
  driver.enqueue(b1, x1);
  const solve::BatchReport rep = driver.drain();
  ASSERT_EQ(rep.converged, 2u);
  EXPECT_EQ(rep.screened, 0u);
  EXPECT_EQ(rep.precond_solves, rep.total_iterations)
      << "one application before the loop, one per non-final iteration";
  EXPECT_EQ(rep.pool_dispatches,
            rep.precond_solves + 2 * rep.jobs + 3 * rep.jobs +
                4 * rep.total_iterations);

  // The pooled drain gives the sequential answer bit for bit.
  const solve::Ilu0Preconditioner seq(a);
  solve::CgOptions copts;
  copts.rel_tolerance = opts.rel_tolerance;
  copts.record_history = false;
  for (const auto& [b, x] : {std::pair{&b0, &x0}, std::pair{&b1, &x1}}) {
    std::vector<double> y(static_cast<std::size_t>(n), 0.0);
    const solve::SolveReport ref = solve::pcg(a, *b, y, seq, copts);
    EXPECT_EQ(ref.iterations,
              rep.reports[b == &b0 ? 0 : 1].iterations);
    ASSERT_EQ(y, *x);
  }

  // Below the threshold the same drain adds no Krylov region.
  const sp::Csr small = gen::five_point(63, 63);
  ASSERT_LT(small.val.size(), solve::kPooledKrylovMinNnz);
  solve::BatchDriver small_driver(pool(), small, opts);
  const auto bs = random_vec(small.rows, 93);
  std::vector<double> xs(static_cast<std::size_t>(small.rows), 0.0);
  small_driver.enqueue(bs, xs);
  const solve::BatchReport small_rep = small_driver.drain();
  ASSERT_EQ(small_rep.converged, 1u);
  EXPECT_EQ(small_rep.pool_dispatches, small_rep.precond_solves);
}

TEST(BatchDriver, EmptyDrainAndGuards) {
  const sp::Csr a = gen::five_point(6, 6);
  solve::BatchDriver driver(pool(), a, {});
  const rt::DispatchProbe probe(pool());
  const auto rep = driver.drain();
  EXPECT_EQ(rep.jobs, 0u);
  EXPECT_EQ(rep.pool_dispatches, 0u);
  EXPECT_EQ(probe.delta(), 0u);

  std::vector<double> small(3), x(static_cast<std::size_t>(a.rows));
  EXPECT_THROW(driver.enqueue(small, x), std::invalid_argument);
  solve::BatchDriverOptions bad;
  bad.max_iterations = 0;
  EXPECT_THROW(solve::BatchDriver(pool(), a, bad), std::invalid_argument);
}
