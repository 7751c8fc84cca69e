// cg.hpp — preconditioned conjugate gradients.
//
// The Krylov context of paper §3.2 / reference [1]: an SPD system solved by
// PCG with an ILU(0) (or Jacobi/identity) preconditioner, where each
// iteration applies the preconditioner — i.e. runs the paper's sparse
// triangular solves.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "solve/krylov_ops.hpp"
#include "solve/precond.hpp"
#include "sparse/csr.hpp"

namespace pdx::solve {

struct SolveReport {
  bool converged = false;
  int iterations = 0;
  double final_relative_residual = 0.0;
  std::vector<double> residual_history;  ///< relative residual per iteration
  /// True when the iteration stopped on a numerical breakdown (a zero or
  /// non-finite scalar in the recurrence) rather than convergence or the
  /// iteration cap. Previously a silent early exit; callers deciding
  /// whether to retry or escalate need the distinction (DESIGN.md §12).
  bool breakdown = false;
  /// Which scalar broke, when breakdown is true (empty otherwise).
  std::string breakdown_reason;
  /// Solve attempts the caller made for this answer (1 unless a retry
  /// ladder such as BatchDriver's re-ran or escalated the method).
  int attempts = 1;
};

struct CgOptions {
  int max_iterations = 1000;
  double rel_tolerance = 1e-10;
  bool record_history = true;
  /// Trisolve strategy of the ILU(0) preconditioner built by the
  /// pool-taking overload (ignored when a Preconditioner is supplied).
  /// Auto lets the plan measure the factor and pick (DESIGN.md §9).
  sparse::ExecutionStrategy strategy = sparse::ExecutionStrategy::kAuto;
};

/// Solve A x = b for SPD A; x holds the initial guess on entry and the
/// solution on exit. SpMVs, reductions and vector updates run through
/// `ops`: inline by default, on a pool when the caller passes a pooled
/// KrylovOps — bitwise the same answer either way (DESIGN.md §16).
SolveReport pcg(const sparse::Csr& a, std::span<const double> b,
                std::span<double> x, const Preconditioner& m,
                const CgOptions& opts = {}, const KrylovOps& ops = {});

/// Convenience entry point owning its preconditioner: factors `a` with
/// ILU(0) and applies it through a strategy-polymorphic TrisolvePlan
/// (opts.strategy, default Auto). Bitwise identical to calling pcg with a
/// DoacrossIlu0Preconditioner built the same way.
SolveReport pcg(rt::ThreadPool& pool, const sparse::Csr& a,
                std::span<const double> b, std::span<double> x,
                const CgOptions& opts = {});

}  // namespace pdx::solve
