// gmres.hpp — restarted GMRES(m) with right preconditioning.
//
// The nonsymmetric companion to cg.hpp: the SPE-style block operators are
// not symmetric, so their Krylov context is GMRES rather than CG. Each
// preconditioner application again runs the paper's triangular solves.
#pragma once

#include <span>

#include "solve/cg.hpp"  // SolveReport
#include "solve/precond.hpp"
#include "sparse/csr.hpp"

namespace pdx::solve {

struct GmresOptions {
  int restart = 30;
  int max_iterations = 1000;  ///< total inner iterations across restarts
  double rel_tolerance = 1e-10;
  bool record_history = true;
  /// Trisolve strategy of the ILU(0) preconditioner built by the
  /// pool-taking overload (ignored when a Preconditioner is supplied).
  sparse::ExecutionStrategy strategy = sparse::ExecutionStrategy::kAuto;
};

/// Solve A x = b with right-preconditioned restarted GMRES; x holds the
/// initial guess on entry and the solution on exit. Vector work runs
/// through `ops`, bitwise the same at every width (DESIGN.md §16).
SolveReport gmres(const sparse::Csr& a, std::span<const double> b,
                  std::span<double> x, const Preconditioner& m,
                  const GmresOptions& opts = {}, const KrylovOps& ops = {});

/// Convenience entry point owning its preconditioner: ILU(0) applied
/// through a strategy-polymorphic TrisolvePlan (opts.strategy, default
/// Auto).
SolveReport gmres(rt::ThreadPool& pool, const sparse::Csr& a,
                  std::span<const double> b, std::span<double> x,
                  const GmresOptions& opts = {});

}  // namespace pdx::solve
