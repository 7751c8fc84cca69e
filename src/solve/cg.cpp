#include "solve/cg.hpp"

#include <cmath>
#include <stdexcept>

#include "solve/vec.hpp"

namespace pdx::solve {

SolveReport pcg(const sparse::Csr& a, std::span<const double> b,
                std::span<double> x, const Preconditioner& m,
                const CgOptions& opts, const KrylovOps& ops) {
  if (a.rows != a.cols) throw std::invalid_argument("pcg: matrix not square");
  const std::size_t n = static_cast<std::size_t>(a.rows);
  if (b.size() < n || x.size() < n) {
    throw std::invalid_argument("pcg: vector size mismatch");
  }

  std::vector<double> r(n), z(n), p(n), ap(n);
  const double* const bv = b.data();
  double* const xv = x.data();
  double* const rv = r.data();
  const double* const zv = z.data();
  double* const pv = p.data();
  const double* const apv = ap.data();

  // r = b - A x, and r·r
  ops.spmv(a, x, r);
  double rr = ops.sum(n, [=](std::size_t lo, std::size_t hi) {
    double s = 0.0;
    for (std::size_t i = lo; i < hi; ++i) {
      rv[i] = bv[i] - rv[i];
      s += rv[i] * rv[i];
    }
    return s;
  });

  const double bnorm = ops.norm2(b);
  const double stop = opts.rel_tolerance * (bnorm > 0.0 ? bnorm : 1.0);

  SolveReport rep;
  double rnorm = std::sqrt(rr);
  if (opts.record_history) {
    rep.residual_history.push_back(bnorm > 0 ? rnorm / bnorm : rnorm);
  }
  if (rnorm <= stop) {
    rep.converged = true;
    rep.final_relative_residual = bnorm > 0 ? rnorm / bnorm : rnorm;
    return rep;
  }

  // p = z, and rho = r·z
  m.apply(r, z);
  double rho = ops.sum(n, [=](std::size_t lo, std::size_t hi) {
    double s = 0.0;
    for (std::size_t i = lo; i < hi; ++i) {
      pv[i] = zv[i];
      s += rv[i] * zv[i];
    }
    return s;
  });

  for (int it = 0; it < opts.max_iterations; ++it) {
    ops.spmv(a, p, ap);
    const double denom = ops.dot(p, ap);
    if (denom == 0.0 || !std::isfinite(denom)) {
      rep.breakdown = true;
      rep.breakdown_reason = "p·Ap denominator zero or non-finite";
      break;
    }
    // x += alpha p; r -= alpha Ap, and r·r
    const double alpha = rho / denom;
    rr = ops.sum(n, [=](std::size_t lo, std::size_t hi) {
      double s = 0.0;
      for (std::size_t i = lo; i < hi; ++i) {
        xv[i] += alpha * pv[i];
        rv[i] += -alpha * apv[i];
        s += rv[i] * rv[i];
      }
      return s;
    });

    rnorm = std::sqrt(rr);
    rep.iterations = it + 1;
    if (opts.record_history) {
      rep.residual_history.push_back(bnorm > 0 ? rnorm / bnorm : rnorm);
    }
    if (rnorm <= stop) {
      rep.converged = true;
      break;
    }

    // rho' = r·z, then p = z + (rho' / rho) p in the same region
    m.apply(r, z);
    const double rho_prev = rho;
    rho = ops.sum_then(
                 n,
                 [=](std::size_t lo, std::size_t hi) {
                   return dot_range(rv, zv, lo, hi);
                 },
                 [=](std::size_t lo, std::size_t hi, double rho_new) {
                   const double beta = rho_new / rho_prev;
                   for (std::size_t i = lo; i < hi; ++i) {
                     pv[i] = zv[i] + beta * pv[i];
                   }
                   return 0.0;
                 })
              .first;
  }
  rep.final_relative_residual = bnorm > 0 ? rnorm / bnorm : rnorm;
  return rep;
}

SolveReport pcg(rt::ThreadPool& pool, const sparse::Csr& a,
                std::span<const double> b, std::span<double> x,
                const CgOptions& opts) {
  const DoacrossIlu0Preconditioner m(pool, a, /*reorder=*/true,
                                     /*nthreads=*/0, opts.strategy);
  return pcg(a, b, x, m, opts);
}

}  // namespace pdx::solve
