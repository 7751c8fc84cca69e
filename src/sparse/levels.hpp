// levels.hpp — wavefront (level-set) analysis of triangular solves.
//
// The dependence DAG of the Fig. 7 loop is given by the matrix structure:
// row i depends on every row column(j) < i it references. The doconsider
// transformation (reference [4]) reorders iterations by dependence level;
// this header derives those levels straight from a triangular CSR matrix
// and packages the result as a core::Reordering.
#pragma once

#include "core/advisor.hpp"
#include "core/doconsider.hpp"
#include "sparse/csr.hpp"

namespace pdx::sparse {

/// Dependence levels of a lower-triangular solve: level(i) = 1 + max over
/// strictly-lower entries' levels, 0 if row i only touches the diagonal.
std::vector<index_t> lower_solve_levels(const Csr& l);

/// Full doconsider reordering for a lower-triangular solve.
core::Reordering lower_solve_reordering(const Csr& l);

/// Dependence levels of an upper-triangular (backward) solve: row i
/// depends on strictly-upper entries' rows, so levels grow from the last
/// row toward the first.
std::vector<index_t> upper_solve_levels(const Csr& u);

/// Doconsider reordering for an upper-triangular solve. The produced
/// `order` lists rows level by level (within a level: descending row
/// index, the backward solve's natural order), and is a valid schedule
/// for trisolve_upper_doacross.
core::Reordering upper_solve_reordering(const Csr& u);

/// Per-workload dependence summary used in EXPERIMENTS.md tables.
struct DagProfile {
  index_t n = 0;
  index_t edges = 0;          ///< strictly-lower stored entries
  index_t critical_path = 0;  ///< number of wavefronts
  double avg_parallelism = 0; ///< n / critical_path
  index_t max_level_size = 0;
};

DagProfile profile_lower_solve(const Csr& l);

/// Inspector-measured structure of a lower-triangular solve — the input
/// of the strategy advisor (core::advise_schedule's TrisolveStructure
/// overload). The reordering variant reuses an already-built doconsider
/// analysis so the plan-build path measures for free.
core::TrisolveStructure measure_lower_solve(const Csr& l);
core::TrisolveStructure measure_lower_solve(const Csr& l,
                                            const core::Reordering& r);

}  // namespace pdx::sparse
