#include "solve/bicgstab.hpp"

#include <array>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "solve/vec.hpp"

namespace pdx::solve {

namespace {

bool unusable(double v) { return v == 0.0 || !std::isfinite(v); }

}  // namespace

SolveReport bicgstab(const sparse::Csr& a, std::span<const double> b,
                     std::span<double> x, const Preconditioner& m,
                     const BicgstabOptions& opts, const KrylovOps& ops) {
  if (a.rows != a.cols) throw std::invalid_argument("bicgstab: not square");
  const std::size_t n = static_cast<std::size_t>(a.rows);
  if (b.size() < n || x.size() < n) {
    throw std::invalid_argument("bicgstab: vector size mismatch");
  }

  // p and v start at zero; the first iteration overwrites p before use.
  std::vector<double> r(n), r0(n), p(n), v(n), s(n), t(n), phat(n), shat(n);
  const double* const bv = b.data();
  double* const xv = x.data();
  double* const rv = r.data();
  double* const r0v = r0.data();
  double* const pv = p.data();
  const double* const vv = v.data();
  double* const sv = s.data();
  const double* const tv = t.data();
  const double* const phv = phat.data();
  const double* const shv = shat.data();

  // r = b - A x, r0 = r (shadow residual), and r·r
  ops.spmv(a, x, r);
  double rr = ops.sum(n, [=](std::size_t lo, std::size_t hi) {
    double acc = 0.0;
    for (std::size_t i = lo; i < hi; ++i) {
      rv[i] = bv[i] - rv[i];
      r0v[i] = rv[i];
      acc += rv[i] * rv[i];
    }
    return acc;
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

  double rho_prev = 1.0, alpha = 1.0, omega = 1.0;

  for (int it = 0; it < opts.max_iterations; ++it) {
    // rho = (r0, r), then p = r + beta (p - omega v) (p = r at it 0)
    const double rho =
        ops.sum_then(
               n,
               [=](std::size_t lo, std::size_t hi) {
                 return dot_range(r0v, rv, lo, hi);
               },
               [=](std::size_t lo, std::size_t hi, double rho_now) {
                 if (unusable(rho_now)) return 0.0;
                 if (it == 0) {
                   for (std::size_t i = lo; i < hi; ++i) pv[i] = rv[i];
                 } else {
                   const double beta =
                       (rho_now / rho_prev) * (alpha / omega);
                   for (std::size_t i = lo; i < hi; ++i) {
                     pv[i] = rv[i] + beta * (pv[i] - omega * vv[i]);
                   }
                 }
                 return 0.0;
               })
            .first;
    if (unusable(rho)) {
      rep.breakdown = true;
      rep.breakdown_reason = "rho = (r0, r) zero or non-finite";
      break;
    }

    m.apply(p, phat);
    ops.spmv(a, phat, v);
    // denom = (r0, v), then s = r - alpha v, and s·s
    const auto [denom, ss] = ops.sum_then(
        n,
        [=](std::size_t lo, std::size_t hi) {
          return dot_range(r0v, vv, lo, hi);
        },
        [=](std::size_t lo, std::size_t hi, double denom_now) {
          if (unusable(denom_now)) return 0.0;
          const double al = rho / denom_now;
          double acc = 0.0;
          for (std::size_t i = lo; i < hi; ++i) {
            sv[i] = rv[i] - al * vv[i];
            acc += sv[i] * sv[i];
          }
          return acc;
        });
    if (unusable(denom)) {
      rep.breakdown = true;
      rep.breakdown_reason = "(r0, A p^) denominator zero or non-finite";
      break;
    }
    alpha = rho / denom;

    rnorm = std::sqrt(ss);
    if (rnorm <= stop) {
      ops.for_each(n, [=](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) xv[i] += alpha * phv[i];
      });
      rep.iterations = it + 1;
      if (opts.record_history) {
        rep.residual_history.push_back(bnorm > 0 ? rnorm / bnorm : rnorm);
      }
      rep.converged = true;
      break;
    }

    m.apply(s, shat);
    ops.spmv(a, shat, t);
    // (t, t) and (t, s), then omega = (t, s) / (t, t);
    // x += alpha phat + omega shat; r = s - omega t, and r·r
    const auto [tq, rr_new] = ops.sum_then(
        n,
        [=](std::size_t lo, std::size_t hi) {
          std::array<double, 2> acc{};
          for (std::size_t i = lo; i < hi; ++i) {
            acc[0] += tv[i] * tv[i];
            acc[1] += tv[i] * sv[i];
          }
          return acc;
        },
        [=](std::size_t lo, std::size_t hi, const std::array<double, 2>& q) {
          if (q[0] == 0.0) return 0.0;
          const double om = q[1] / q[0];
          if (unusable(om)) return 0.0;
          double acc = 0.0;
          for (std::size_t i = lo; i < hi; ++i) {
            xv[i] += alpha * phv[i] + om * shv[i];
            rv[i] = sv[i] - om * tv[i];
            acc += rv[i] * rv[i];
          }
          return acc;
        });
    if (tq[0] == 0.0) {
      rep.breakdown = true;
      rep.breakdown_reason = "(t, t) is zero";
      break;
    }
    omega = tq[1] / tq[0];
    if (unusable(omega)) {
      rep.breakdown = true;
      rep.breakdown_reason = "omega zero or non-finite";
      break;
    }

    rnorm = std::sqrt(rr_new);
    rep.iterations = it + 1;
    if (opts.record_history) {
      rep.residual_history.push_back(bnorm > 0 ? rnorm / bnorm : rnorm);
    }
    if (rnorm <= stop) {
      rep.converged = true;
      break;
    }
    rho_prev = rho;
  }

  rep.final_relative_residual = bnorm > 0 ? rnorm / bnorm : rnorm;
  return rep;
}

SolveReport bicgstab(rt::ThreadPool& pool, const sparse::Csr& a,
                     std::span<const double> b, std::span<double> x,
                     const BicgstabOptions& opts) {
  const DoacrossIlu0Preconditioner m(pool, a, /*reorder=*/true,
                                     /*nthreads=*/0, opts.strategy);
  return bicgstab(a, b, x, m, opts);
}

}  // namespace pdx::solve
