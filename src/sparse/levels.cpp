#include "sparse/levels.hpp"

#include <algorithm>
#include <stdexcept>

namespace pdx::sparse {

namespace {

core::DepFn lower_deps_fn(const Csr& l) {
  return [&l](index_t i, const core::DepVisitor& emit) {
    for (index_t k = l.row_begin(i); k < l.row_end(i); ++k) {
      const index_t c = l.idx[static_cast<std::size_t>(k)];
      if (c < i) emit(c);
    }
  };
}

}  // namespace

std::vector<index_t> lower_solve_levels(const Csr& l) {
  if (l.rows != l.cols) {
    throw std::invalid_argument("lower_solve_levels: matrix not square");
  }
  return core::dependence_levels(l.rows, lower_deps_fn(l));
}

core::Reordering lower_solve_reordering(const Csr& l) {
  if (l.rows != l.cols) {
    throw std::invalid_argument("lower_solve_reordering: matrix not square");
  }
  return core::doconsider_order(l.rows, lower_deps_fn(l));
}

std::vector<index_t> upper_solve_levels(const Csr& u) {
  if (u.rows != u.cols) {
    throw std::invalid_argument("upper_solve_levels: matrix not square");
  }
  const index_t n = u.rows;
  std::vector<index_t> level(static_cast<std::size_t>(n), 0);
  for (index_t i = n - 1; i >= 0; --i) {
    index_t lvl = 0;
    for (index_t k = u.row_begin(i); k < u.row_end(i); ++k) {
      const index_t c = u.idx[static_cast<std::size_t>(k)];
      if (c > i) {
        lvl = std::max(lvl, level[static_cast<std::size_t>(c)] + 1);
      }
    }
    level[static_cast<std::size_t>(i)] = lvl;
  }
  return level;
}

core::Reordering upper_solve_reordering(const Csr& u) {
  core::Reordering r;
  r.level_of = upper_solve_levels(u);
  const index_t n = u.rows;

  index_t max_level = -1;
  for (index_t v : r.level_of) max_level = std::max(max_level, v);
  const index_t nlevels = max_level + 1;

  r.level_ptr.assign(static_cast<std::size_t>(nlevels) + 1, 0);
  for (index_t i = 0; i < n; ++i) {
    ++r.level_ptr[static_cast<std::size_t>(
                      r.level_of[static_cast<std::size_t>(i)]) + 1];
  }
  for (index_t l = 0; l < nlevels; ++l) {
    r.level_ptr[static_cast<std::size_t>(l) + 1] +=
        r.level_ptr[static_cast<std::size_t>(l)];
  }

  r.order.resize(static_cast<std::size_t>(n));
  r.position.resize(static_cast<std::size_t>(n));
  std::vector<index_t> cursor(r.level_ptr.begin(), r.level_ptr.end() - 1);
  // Fill in descending row order so ties within a level execute in the
  // backward solve's natural order.
  for (index_t i = n - 1; i >= 0; --i) {
    const index_t l = r.level_of[static_cast<std::size_t>(i)];
    const index_t k = cursor[static_cast<std::size_t>(l)]++;
    r.order[static_cast<std::size_t>(k)] = i;
    r.position[static_cast<std::size_t>(i)] = k;
  }
  return r;
}

core::TrisolveStructure measure_lower_solve(const Csr& l,
                                            const core::Reordering& r) {
  core::TrisolveStructure s;
  s.n = l.rows;
  s.nnz = l.nnz();
  s.levels = r.num_levels();
  s.avg_level_width = r.average_parallelism();
  s.nnz_per_row =
      l.rows > 0 ? static_cast<double>(l.nnz()) / static_cast<double>(l.rows)
                 : 0.0;
  for (index_t lvl = 0; lvl < r.num_levels(); ++lvl) {
    s.max_level_size = std::max(s.max_level_size, r.level_size(lvl));
  }
  for (index_t i = 0; i < l.rows; ++i) {
    for (index_t c : l.row_cols(i)) {
      if (c < i) s.max_distance = std::max(s.max_distance, i - c);
    }
  }
  return s;
}

core::TrisolveStructure measure_lower_solve(const Csr& l) {
  return measure_lower_solve(l, lower_solve_reordering(l));
}

DagProfile profile_lower_solve(const Csr& l) {
  const core::Reordering r = lower_solve_reordering(l);
  DagProfile p;
  p.n = l.rows;
  for (index_t i = 0; i < l.rows; ++i) {
    for (index_t c : l.row_cols(i)) {
      if (c < i) ++p.edges;
    }
  }
  p.critical_path = r.critical_path();
  p.avg_parallelism = r.average_parallelism();
  for (index_t lvl = 0; lvl < r.num_levels(); ++lvl) {
    p.max_level_size = std::max(p.max_level_size, r.level_size(lvl));
  }
  return p;
}

}  // namespace pdx::sparse
