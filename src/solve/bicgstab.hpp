// bicgstab.hpp — preconditioned BiCGSTAB.
//
// The third standard Krylov method of the substrate (van der Vorst 1992):
// nonsymmetric systems with short recurrences — constant memory where
// GMRES(m) stores m basis vectors. Each iteration applies the
// preconditioner twice, i.e. runs four of the paper's triangular solves
// when M = ILU(0).
#pragma once

#include <span>

#include "solve/cg.hpp"  // SolveReport
#include "solve/precond.hpp"
#include "sparse/csr.hpp"

namespace pdx::solve {

struct BicgstabOptions {
  int max_iterations = 1000;
  double rel_tolerance = 1e-10;
  bool record_history = true;
  /// Trisolve strategy of the ILU(0) preconditioner built by the
  /// pool-taking overload (ignored when a Preconditioner is supplied).
  sparse::ExecutionStrategy strategy = sparse::ExecutionStrategy::kAuto;
};

/// Solve A x = b; x holds the initial guess on entry, the solution on
/// exit. Reports convergence against ||b||. Vector work runs through
/// `ops`, bitwise the same at every width (DESIGN.md §16).
SolveReport bicgstab(const sparse::Csr& a, std::span<const double> b,
                     std::span<double> x, const Preconditioner& m,
                     const BicgstabOptions& opts = {},
                     const KrylovOps& ops = {});

/// Convenience entry point owning its preconditioner: ILU(0) applied
/// through a strategy-polymorphic TrisolvePlan (opts.strategy, default
/// Auto).
SolveReport bicgstab(rt::ThreadPool& pool, const sparse::Csr& a,
                     std::span<const double> b, std::span<double> x,
                     const BicgstabOptions& opts = {});

}  // namespace pdx::solve
