#include "sparse/trisolve_plan.hpp"

#include <cassert>
#include <chrono>
#include <stdexcept>
#include <string>

#include "sparse/levels.hpp"
#include "sparse/trisolve.hpp"

namespace pdx::sparse {

namespace {

void check_factor(const Csr& m, const char* what) {
  if (m.rows != m.cols) {
    throw std::invalid_argument(std::string("TrisolvePlan: ") + what +
                                " factor is not square");
  }
}

// --- row sources -----------------------------------------------------
//
// The row bodies read rows only through src.at(position);
// these adapters supply the two layouts. The CSR views reproduce the
// historical access path exactly (position -> row via the order array,
// row -> entries via row_ptr); the packed sources walk the plan-owned
// execution-ordered record streams of DESIGN.md §10.

/// kCsrView, lower factor: diagonal last in the sorted row. A null
/// order means position == row (source order).
struct CsrLowerSrc {
  const Csr* m;
  const index_t* order;
  PackedRow at(index_t k) const noexcept {
    const index_t i = order ? order[k] : k;
    const index_t b = m->row_begin(i);
    const index_t e = m->row_end(i) - 1;  // diagonal last
    return {i, e - b, m->val[static_cast<std::size_t>(e)],
            m->idx.data() + b, m->val.data() + b};
  }
};

/// kCsrView, upper factor: diagonal first. A null order means the
/// backward solve's natural order, position k == row n-1-k.
struct CsrUpperSrc {
  const Csr* m;
  const index_t* order;
  index_t n;
  PackedRow at(index_t k) const noexcept {
    const index_t i = order ? order[k] : n - 1 - k;
    const index_t b = m->row_begin(i);  // diagonal first
    return {i, m->row_end(i) - b - 1, m->val[static_cast<std::size_t>(b)],
            m->idx.data() + b + 1, m->val.data() + b + 1};
  }
};

/// kPacked, statically owned slab: positions arrive consecutively, so
/// the position argument is implicit in the cursor — the pure linear
/// walk (serial, level-barrier, blocked-hybrid).
struct PackedWalkSrc {
  PackedFactorStream::Cursor c;
  PackedRow at(index_t) noexcept { return c.next(); }
};

/// kPacked, dynamically claimed positions (the doacross schedules): one
/// predictable pointer load into the position index, then the record is
/// a single contiguous read. Consecutive positions of a claimed chunk
/// are adjacent records, so the walk stays linear per chunk.
struct PackedSeekSrc {
  const PackedFactorStream* s;
  PackedRow at(index_t k) const noexcept { return s->at(k); }
};

// --- multi-RHS lane arithmetic ----------------------------------------
//
// The k columns of the interleaved strip are the SIMD lanes: one vector
// op retires k right-hand sides per nonzero, and because column c's
// element never mixes with column c''s, the vector forms are bitwise
// identical to the scalar per-column arithmetic (DESIGN.md §14). Narrow
// batches (k < kLaneMin) and machine-emulation runs keep the inline
// scalar loops — same bits, no indirect-call overhead.

inline void lane_update(const kernels::LaneOps* lanes, double* ti,
                        const double* tc, double a, index_t k,
                        int work_reps) noexcept {
  if (work_reps > 0) {
    for (index_t c = 0; c < k; ++c) {
      ti[c] -= a * tc[c];
      ti[c] = machine_emulation_work(ti[c], work_reps);
    }
  } else if (k >= kernels::kLaneMin) {
    lanes->axpy(ti, tc, a, k);
  } else {
    for (index_t c = 0; c < k; ++c) ti[c] -= a * tc[c];
  }
}

inline void lane_div(const kernels::LaneOps* lanes, double* ti, double d,
                     index_t k) noexcept {
  if (k >= kernels::kLaneMin) {
    lanes->div_inplace(ti, d, k);
  } else {
    for (index_t c = 0; c < k; ++c) ti[c] /= d;
  }
}

/// Prefetch the strip row of the NEXT dependence while the lane kernel
/// computes on the current one: the gathered x-entries of the packed
/// dot, one dependence ahead (DESIGN.md §14 discusses the distance).
inline void prefetch_next_dep(const PackedRow& r, index_t j,
                              const double* tp, index_t k) noexcept {
  if (j + 1 < r.cnt) {
    kernels::prefetch_read(tp + r.cols[j + 1] * k);
  }
}

/// Every cache line of one k-wide strip row (k=16 spans two), gated on
/// the vector table: the scalar table is the pre-kernel-layer reference
/// and the kernel race times it as exactly that — SIMD and the prefetch
/// schedule win or lose together (DESIGN.md §14).
inline void prefetch_strip_row(const kernels::LaneOps* lanes,
                               const double* tp, index_t col,
                               index_t k) noexcept {
  if (lanes->isa == kernels::KernelIsa::kScalar) return;
  const double* p = tp + col * k;
  for (index_t o = 0; o < k; o += 8) kernels::prefetch_read(p + o);
}

/// The NEXT record's gathered strip rows, issued while the lane kernels
/// chew the current record — one full record of distance, enough to
/// cover a last-level-cache hit on the spilled factors the packed
/// layout targets. Only the walk-order strategies (serial, level) use
/// this (core::DagSchedule's lookahead): their lookahead row's
/// dependences are all final, so the prefetch never tugs a line another
/// thread is writing.
inline void prefetch_row_deps(const PackedRow& r, const double* tp,
                              index_t k) noexcept {
  for (index_t j = 0; j < r.cnt; ++j) {
    const double* p = tp + r.cols[j] * k;
    for (index_t o = 0; o < k; o += 8) kernels::prefetch_read(p + o);
  }
}

/// The lookahead pipeline (parse the next record, prefetch its strip
/// rows, then compute the current one) only pays when the lane kernels
/// are actually in play: wide batches on a vector table. Narrow batches,
/// machine-emulation runs, and the scalar table keep the plain walk —
/// the scalar candidate the kernel race times IS the pre-kernel-layer
/// executor, prefetch-free.
inline bool want_lookahead(const kernels::LaneOps* lanes, index_t k,
                           int work_reps) noexcept {
  return lanes->isa != kernels::KernelIsa::kScalar &&
         k >= kernels::kLaneMin && work_reps == 0;
}

/// One record's WHOLE dependence list against the strip. Wide un-emulated
/// batches take the fused row kernel — one indirect call per row,
/// accumulators register-resident across the dependence list; everything
/// else keeps the per-dependence loops. All callers retire their waits
/// BEFORE this runs (the fused kernel reads every dependence's strip
/// row). Bitwise equal either way: per column the j-ordered mul+sub
/// sequence is identical.
inline void lane_row_update(const kernels::LaneOps* lanes, double* ti,
                            const double* tp, const PackedRow& r, index_t k,
                            int work_reps) noexcept {
  if (work_reps == 0 && k >= kernels::kLaneMin) {
    lanes->row_axpy(ti, r.vals, r.cols, r.cnt, tp, k);
    return;
  }
  for (index_t j = 0; j < r.cnt; ++j) {
    prefetch_next_dep(r, j, tp, k);
    lane_update(lanes, ti, tp + r.cols[j] * k, r.vals[j], k, work_reps);
  }
}

}  // namespace


// --- row bodies ------------------------------------------------------

template <class Src, bool kLower>
struct TrisolvePlan::SolveRow {
  Src src;
  const double* rhs;
  double* y;
  const kernels::LaneOps* lanes;
  bool ulp;
  int work_reps;  // machine emulation instruments the lower solve only
  rt::FaultInjector* injector;
  const rt::FailureLatch* latch;
  unsigned tid;

  SolveRow(TrisolvePlan& p, Src s, unsigned t, const double* r, double* out)
      : src(s),
        rhs(r),
        y(out),
        lanes(p.lanes_),
        ulp(p.ulp_dot_),
        work_reps(kLower ? p.opts_.work_reps : 0),
        injector(p.injector_),
        latch(p.exec_.latch()),
        tid(t) {}

  PackedRow fetch(index_t pos) { return src.at(pos); }

  // Identical arithmetic (term order, division) to trisolve_lower_seq /
  // trisolve_upper_seq — results are bitwise equal; the waits only
  // sequence the reads. The opt-in ulp path retires every wait first,
  // then runs the reassociated vector dot over the whole row.
  template <class Wait>
  index_t exec(const PackedRow& r, Wait& wait) {
    if (injector) injector->on_row(tid, r.row, latch);
    double acc = rhs[r.row];
    if (ulp) {
      if constexpr (!Wait::kFree) {
        for (index_t j = 0; j < r.cnt; ++j) wait(r.cols[j], r.row);
      }
      acc -= lanes->dot(r.vals, r.cols, y, r.cnt);
    } else {
      for (index_t j = 0; j < r.cnt; ++j) {
        const index_t c = r.cols[j];
        wait(c, r.row);
        acc -= r.vals[j] * y[c];
        if constexpr (kLower) {
          if (work_reps > 0) acc = machine_emulation_work(acc, work_reps);
        }
      }
    }
    y[r.row] = acc / r.diag;
    return r.row;
  }
};

template <class Src, bool kLower>
struct TrisolvePlan::StripRow {
  Src src;
  index_t k;
  const double* const* b_cols;
  double* const* x_cols;
  double* tp;
  const kernels::LaneOps* lanes;
  int work_reps;
  rt::FaultInjector* injector;
  const rt::FailureLatch* latch;
  unsigned tid;

  StripRow(TrisolvePlan& p, Src s, unsigned t)
      : src(s),
        k(p.batch_k_),
        b_cols(p.batch_b_.data()),
        x_cols(p.batch_x_.data()),
        tp(p.batch_tmp_.data()),
        lanes(p.lanes_),
        work_reps(kLower ? p.opts_.work_reps : 0),
        injector(p.injector_),
        latch(p.exec_.latch()),
        tid(t) {}

  PackedRow fetch(index_t pos) { return src.at(pos); }
  bool lookahead() const noexcept {
    return want_lookahead(lanes, k, work_reps);
  }
  void prefetch(const PackedRow& next) const noexcept {
    prefetch_row_deps(next, tp, k);
  }

  // Column c runs the exact arithmetic of SolveRow on column c (term
  // order, division) — bitwise equal per column. One wait per dependence
  // covers all k columns, and the row's record is read once for the
  // whole batch. Row i's k values accumulate in place in the row-major
  // strip, where consumers read them contiguously: the lower pass loads
  // the right-hand sides into it, the upper pass finds the forward
  // results there and mirrors its solution into the caller's columns
  // before the row is published.
  template <class Wait>
  index_t exec(const PackedRow& r, Wait& wait) {
    if (injector) injector->on_row(tid, r.row, latch);
    double* ti = tp + r.row * k;
    if constexpr (kLower) {
      for (index_t c = 0; c < k; ++c) ti[c] = b_cols[c][r.row];
    }
    // Waits retire first (pulling each ready dependence's strip row
    // toward L1 as it lands), then the whole dependence list runs
    // through one fused lane-kernel call.
    if constexpr (!Wait::kFree) {
      for (index_t j = 0; j < r.cnt; ++j) {
        wait(r.cols[j], r.row);
        prefetch_strip_row(lanes, tp, r.cols[j], k);
      }
    }
    lane_row_update(lanes, ti, tp, r, k, work_reps);
    lane_div(lanes, ti, r.diag, k);
    if constexpr (!kLower) {
      for (index_t c = 0; c < k; ++c) x_cols[c][r.row] = ti[c];
    }
    return r.row;
  }
};

template <bool kLower, class F>
void TrisolvePlan::with_src(unsigned tid, F&& f) {
  // Once per walk, not per row.
  const PackedFactorStream& ps = kLower ? packed_l_ : packed_u_;
  if (!ps.packed()) {
    if constexpr (kLower) {
      f(CsrLowerSrc{l_, sl_.exec_order()});
    } else {
      f(CsrUpperSrc{u_, su_.exec_order(), n_});
    }
  } else if (exec_.strategy() == ExecutionStrategy::kDoacross) {
    f(PackedSeekSrc{&ps});
  } else {
    f(PackedWalkSrc{ps.cursor(tid)});
  }
}

template <template <class, bool> class Row, bool kLower, class... Args>
void TrisolvePlan::run_rows(unsigned tid, unsigned nthreads, Args... args) {
  with_src<kLower>(tid, [&](auto src) {
    (kLower ? sl_ : su_)
        .run(tid, nthreads, Row<decltype(src), kLower>(*this, src, tid,
                                                       args...));
  });
}

// --- plan --------------------------------------------------------------

void TrisolvePlan::sync_orders() {
  // Both factors build (or drop) their doconsider analyses by the same
  // rule: level-barrier executes the levels; doacross uses the order when
  // asked to; a calibration race keeps both alive for its candidates.
  if (!exec_.needs_order(calib_.calibrating())) {
    sl_.set_order(nullptr);  // kSerial / kBlockedHybrid run in source order
    su_.set_order(nullptr);
    return;
  }
  if (!sl_.order()) {
    sl_.set_order(
        std::make_unique<core::Reordering>(lower_solve_reordering(*l_)));
  }
  if (u_ && !su_.order()) {
    su_.set_order(
        std::make_unique<core::Reordering>(upper_solve_reordering(*u_)));
  }
}

void TrisolvePlan::set_lanes(const kernels::LaneOps* ops) noexcept {
  lanes_ = ops;
  // The ulp dot is a horizontal reduction only the vector tables
  // implement differently; forced-scalar plans stay bitwise even when
  // the caller set a tolerance, and the machine-emulation knob pins the
  // scalar per-term loop it instruments.
  ulp_dot_ = opts_.ulp_tolerance > 0.0 && opts_.work_reps == 0 &&
             ops->isa != kernels::KernelIsa::kScalar;
}

void TrisolvePlan::resolve_kernel() {
  // The strategy race stays a pure 4-strategy race (DESIGN.md §13); the
  // kernel dimension races separately on the dispatches that actually
  // run lane kernels, which only begin once strategy exploration is
  // done. Same epoch budget per choice as the strategy race.
  telemetry_.isa = kernels::dispatched_isa();
  telemetry_.kernel =
      kernel_race_.open(opts_.kernel, n_ > 0 ? opts_.calibration_epochs : 0);
  set_lanes(&kernels::ops_for(telemetry_.kernel));
}

void TrisolvePlan::note_kernel_epoch(double seconds, index_t k) noexcept {
  // Normalize per column so epochs of different batch widths compare.
  const double us = seconds * 1e6 / static_cast<double>(k);
  if (kernel_race_.note_epoch(us)) {
    telemetry_.kernel = kernel_race_.winner();
    set_lanes(&kernels::ops_for(telemetry_.kernel));
  }
  telemetry_.kernel_race = kernel_race_.state();
}

void TrisolvePlan::resolve_strategy() {
  telemetry_.requested = opts_.strategy;
  telemetry_.procs = nthreads();
  if (opts_.strategy != ExecutionStrategy::kAuto) {
    telemetry_.strategy = opts_.strategy;
    telemetry_.rationale = "strategy fixed by caller";
  } else {
    // The inspector pass of the strategy decision: the doconsider
    // analysis (levels, widths) plus an O(nnz) distance scan. The
    // reordering is kept — if the plan lands on doacross or
    // level-barrier it is the execution order.
    auto order =
        std::make_unique<core::Reordering>(lower_solve_reordering(*l_));
    telemetry_.structure = measure_lower_solve(*l_, *order);
    sl_.set_order(std::move(order));
    calib_.open(telemetry_,
                core::advise_schedule(telemetry_.structure, nthreads()), n_,
                opts_.calibration_epochs, opts_.use_tuning_cache);
  }
  exec_.set_strategy(telemetry_.strategy,
                     opts_.strategy == ExecutionStrategy::kAuto);
}

void TrisolvePlan::build_packed() {
  // Packed slab sequences are strategy-specific, so a calibrating plan
  // defers packing to lock-in and explores through CSR-view sources.
  if (calib_.calibrating() || n_ == 0) return;
  PlanLayout want = opts_.layout;
  if (want == PlanLayout::kAuto) {
    // A serial plan walks each factor once per solve with no cross-thread
    // sharing to localize; the packed duplication measurably loses there
    // (layout_speedup 0.66–0.96 in BENCH_strategy), so only a caller
    // pinning kPacked pays for it.
    want = telemetry_.strategy == ExecutionStrategy::kSerial
               ? PlanLayout::kCsrView
               : PlanLayout::kPacked;
  }
  if (want != PlanLayout::kPacked) return;
  const unsigned width = nthreads() == 0 ? 1 : nthreads();
  const unsigned slabs =
      telemetry_.strategy == ExecutionStrategy::kSerial ? 1 : width;
  // Each slab holds the exact row sequence its thread walks. Any schedule
  // may claim any doacross position at run time, so that stream also
  // carries a position index.
  const bool position_index =
      telemetry_.strategy == ExecutionStrategy::kDoacross;
  packed_l_.prepare(*l_, /*diag_first=*/false, sl_.slab_rows(slabs),
                    position_index);
  if (u_) {
    packed_u_.prepare(*u_, /*diag_first=*/true, su_.slab_rows(slabs),
                      position_index);
  }
  // First-touch packing: every slab is written — page-placed — by the
  // thread that will execute it, in ONE pool dispatch covering both
  // factors. Serial plans pack inline: the calling thread IS the
  // executor, and waking the pool would first-touch nothing useful.
  if (slabs <= 1) {
    packed_l_.pack(0);
    if (u_) packed_u_.pack(0);
  } else {
    exec_.pool().parallel_region(nthreads(), [this](unsigned tid, unsigned) {
      packed_l_.pack(tid);
      if (u_) packed_u_.pack(tid);
    });
  }
  packed_l_.finish_build();
  if (u_) packed_u_.finish_build();
  telemetry_.layout = PlanLayout::kPacked;
  telemetry_.packed_bytes = packed_l_.bytes() + packed_u_.bytes();
  // The value-refresh region (refresh_values) is bound once, like the
  // solve regions: each thread re-streams the values of its own slabs,
  // on the pages it first-touched at build.
  if (slabs > 1) {
    refresh_region_ = [this](unsigned tid, unsigned) {
      packed_l_.repack_values(*l_, tid);
      if (u_) packed_u_.repack_values(*u_, tid);
    };
  }
}

void TrisolvePlan::bind_regions() {
  // Region functors are bound once, here; per-call inputs travel through
  // the lo_/up_/batch_ members. This is what makes solve_* allocation
  // free: a fresh capturing lambda would not fit std::function's small
  // buffer and would heap-allocate on every call. The walker picks the
  // strategy per run, so a calibration race never rebinds them.
  lower_region_ = exec_.contain([this](unsigned tid, unsigned nthreads) {
    run_rows<SolveRow, true>(tid, nthreads, lo_rhs_, lo_y_);
  });
  if (!u_) return;
  upper_region_ = exec_.contain([this](unsigned tid, unsigned nthreads) {
    run_rows<SolveRow, false>(tid, nthreads, up_rhs_, up_y_);
  });
  fused_region_ = exec_.contain([this](unsigned tid, unsigned nthreads) {
    run_rows<SolveRow, true>(tid, nthreads, lo_rhs_, lo_y_);
    // The one synchronization point of a fused preconditioner
    // application: every tmp_ element is published before any thread
    // starts consuming it in the backward solve.
    sl_.handoff();
    run_rows<SolveRow, false>(tid, nthreads, up_rhs_, up_y_);
  });
  batch_region_ = exec_.contain([this](unsigned tid, unsigned nthreads) {
    run_rows<StripRow, true>(tid, nthreads);
    sl_.handoff();
    run_rows<StripRow, false>(tid, nthreads);
  });
}

TrisolvePlan::TrisolvePlan(rt::ThreadPool& pool, const Csr& l, const Csr* u,
                           const PlanOptions& opts)
    : l_(&l),
      u_(u),
      opts_(opts),
      n_(l.rows),
      exec_(pool, opts.nthreads, opts.stall_budget, opts.schedule,
            opts.reorder),
      sl_(exec_, l.rows, /*reversed=*/false),
      su_(exec_, u ? l.rows : 0, /*reversed=*/true) {
  check_factor(l, "lower");
  if (u) {
    check_factor(*u, "upper");
    if (u->rows != l.rows) {
      throw std::invalid_argument("TrisolvePlan: L/U dimension mismatch");
    }
    tmp_.resize(static_cast<std::size_t>(n_));
  }
  resolve_kernel();
  resolve_strategy();
  sync_orders();
  build_packed();
  bind_regions();
}

TrisolvePlan::TrisolvePlan(rt::ThreadPool& pool, const Csr& l,
                           const PlanOptions& opts)
    : TrisolvePlan(pool, l, nullptr, opts) {}

TrisolvePlan::TrisolvePlan(rt::ThreadPool& pool, const Csr& l, const Csr& u,
                           const PlanOptions& opts)
    : TrisolvePlan(pool, l, &u, opts) {}

void TrisolvePlan::refresh_values(const IluFactors& f) {
  if (exec_.poisoned()) {
    throw rt::PlanPoisonedError(
        "TrisolvePlan::refresh_values: plan poisoned by an earlier "
        "in-region fault; rebuild the plan");
  }
  if (!u_) {
    throw std::logic_error("TrisolvePlan::refresh_values: lower-only plan");
  }
  using clock = std::chrono::steady_clock;
  const clock::time_point t0 = clock::now();
  // Same-object refreshes (the factorization re-filled the values of the
  // very factors the plan reads) skip the pattern comparison; a foreign
  // pair must prove pattern equality before the plan rebinds to it.
  auto same_pattern = [](const Csr& x, const Csr& y) noexcept {
    return x.rows == y.rows && x.cols == y.cols && x.ptr == y.ptr &&
           x.idx == y.idx;
  };
  if ((&f.l != l_ && !same_pattern(f.l, *l_)) ||
      (&f.u != u_ && !same_pattern(f.u, *u_))) {
    throw std::invalid_argument(
        "TrisolvePlan::refresh_values: pattern mismatch — a value-only "
        "refresh requires the plan's sparsity pattern; rebuild the plan");
  }
  l_ = &f.l;  // kCsrView's whole refresh: the row sources read these
  u_ = &f.u;
  if (telemetry_.layout == PlanLayout::kPacked) {
    if (packed_l_.slab_count() <= 1) {
      // Serial plans repack inline — the calling thread is the executor.
      packed_l_.repack_values(*l_, 0);
      packed_u_.repack_values(*u_, 0);
    } else {
      exec_.pool().parallel_region(nthreads(), refresh_region_);
    }
  }
  const clock::time_point t1 = clock::now();
  telemetry_.refresh_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  ++refreshes_;
}

core::DoacrossStats TrisolvePlan::dispatch(
    const rt::ThreadPool::RegionFn& region, bool lower, bool upper) {
  if (exec_.poisoned()) {
    throw rt::PlanPoisonedError(
        "TrisolvePlan: plan poisoned by an earlier in-region fault; "
        "rebuild the plan before solving again");
  }
  // The whole per-call reset: O(1) epoch bumps and cursor stores. Compare
  // trisolve_doacross's per-call Barrier + two vector allocations +
  // O(n/p) flag sweep + extra barrier.
  if (lower) sl_.begin_epoch();
  if (upper) su_.begin_epoch();
  // Preprocessing was amortized at plan build and the postprocessing
  // sweep no longer exists, so the whole call is executor time (pool
  // wake-up included — the number a repeated caller actually pays).
  core::DoacrossStats stats;
  stats.execute_seconds = exec_.dispatch(region);
  if (lower) sl_.add_waits(stats);
  if (upper) su_.add_waits(stats);
  ++solves_;
  // Race bookkeeping only after a SUCCESSFUL epoch: a fault above
  // poisons the plan without corrupting the race or feeding the cache.
  if (calib_.calibrating() && calib_.note(telemetry_, stats.execute_seconds)) {
    exec_.set_strategy(telemetry_.strategy, /*advised=*/true);
    if (!calib_.calibrating()) {
      // Lock-in: drop the orders the winner does not read and resolve
      // the deferred layout (pack the winner's execution order).
      sync_orders();
      build_packed();
    }
  }
  return stats;
}

core::DoacrossStats TrisolvePlan::solve_lower(std::span<const double> rhs,
                                              std::span<double> y) {
  if (static_cast<index_t>(rhs.size()) < n_ ||
      static_cast<index_t>(y.size()) < n_) {
    throw std::invalid_argument("TrisolvePlan::solve_lower: size mismatch");
  }
  if (n_ == 0) return {};
  lo_rhs_ = rhs.data();
  lo_y_ = y.data();
  return dispatch(lower_region_, /*lower=*/true, /*upper=*/false);
}

core::DoacrossStats TrisolvePlan::solve_upper(std::span<const double> rhs,
                                              std::span<double> z) {
  if (!u_) {
    throw std::logic_error("TrisolvePlan::solve_upper: lower-only plan");
  }
  if (static_cast<index_t>(rhs.size()) < n_ ||
      static_cast<index_t>(z.size()) < n_) {
    throw std::invalid_argument("TrisolvePlan::solve_upper: size mismatch");
  }
  if (n_ == 0) return {};
  up_rhs_ = rhs.data();
  up_y_ = z.data();
  return dispatch(upper_region_, /*lower=*/false, /*upper=*/true);
}

core::DoacrossStats TrisolvePlan::solve(std::span<const double> rhs,
                                        std::span<double> z) {
  if (!u_) {
    throw std::logic_error("TrisolvePlan::solve: lower-only plan");
  }
  if (static_cast<index_t>(rhs.size()) < n_ ||
      static_cast<index_t>(z.size()) < n_) {
    throw std::invalid_argument("TrisolvePlan::solve: size mismatch");
  }
  if (n_ == 0) return {};
  lo_rhs_ = rhs.data();
  lo_y_ = tmp_.data();
  up_rhs_ = tmp_.data();
  up_y_ = z.data();
  return dispatch(fused_region_, /*lower=*/true, /*upper=*/true);
}

void TrisolvePlan::reserve_batch(index_t max_k) {
  if (max_k < 1) {
    throw std::invalid_argument("TrisolvePlan::reserve_batch: max_k < 1");
  }
  const std::size_t k = static_cast<std::size_t>(max_k);
  if (batch_b_.size() < k) {
    batch_b_.resize(k);
    batch_x_.resize(k);
  }
  const std::size_t strip = static_cast<std::size_t>(n_) * k;
  if (batch_tmp_.size() < strip) batch_tmp_.resize(strip);
}

core::DoacrossStats TrisolvePlan::run_batch(index_t k) {
  if (n_ == 0) return {};
  // One column is a plain fused solve: the strip walk's per-column
  // arithmetic is SolveRow's, so the bits and the one-dispatch budget are
  // the same without the strip round trip. The opt-in ulp dot would
  // change the bits, so such plans keep the strip.
  const bool single = k == 1 && !ulp_dot_;
  if (single) {
    lo_rhs_ = batch_b_[0];
    lo_y_ = tmp_.data();
    up_rhs_ = tmp_.data();
    up_y_ = batch_x_[0];
  }
  batch_k_ = k;
  // Scalar-vs-vector kernel race (DESIGN.md §14): fed only by dispatches
  // that actually execute lane kernels — batches at least one vector
  // wide, after the strategy race locked in (so the timing compares
  // kernels, not strategies) and never under machine emulation (which
  // pins the instrumented scalar loop). Both candidates are bitwise
  // identical per column, so exploring is invisible to callers.
  const bool kernel_epoch = kernel_race_.active() && !calibrating() &&
                            k >= kernels::kLaneMin && opts_.work_reps == 0;
  if (kernel_epoch) {
    telemetry_.kernel = kernel_race_.candidate();
    set_lanes(&kernels::ops_for(telemetry_.kernel));
  }
#ifndef NDEBUG
  // A calibration epoch may advance the race inside dispatch() —
  // switching the strategy the budget is defined by, and a lock-in can
  // spend an extra dispatch packing the winner — so the budget assert
  // only covers locked-in plans.
  const bool was_calibrating = calibrating();
  const rt::DispatchProbe probe(exec_.pool());
#endif
  const core::DoacrossStats stats = dispatch(
      single ? fused_region_ : batch_region_, /*lower=*/true, /*upper=*/true);
#ifndef NDEBUG
  assert((was_calibrating ||
          probe.delta() ==
              (telemetry_.strategy == ExecutionStrategy::kSerial ? 0u
                                                                 : 1u)) &&
         "solve_batch must cost exactly one pool dispatch (zero serial)");
#endif
  // Only a SUCCESSFUL epoch feeds the race — a fault above threw out of
  // dispatch() after poisoning the plan.
  if (kernel_epoch) note_kernel_epoch(stats.execute_seconds, k);
  batch_columns_ += static_cast<std::uint64_t>(k);
  return stats;
}

core::DoacrossStats TrisolvePlan::solve_batch(std::span<const double> b,
                                              std::span<double> x,
                                              index_t k) {
  if (!u_) {
    throw std::logic_error("TrisolvePlan::solve_batch: lower-only plan");
  }
  if (k < 1) {
    throw std::invalid_argument("TrisolvePlan::solve_batch: k must be >= 1");
  }
  if (static_cast<index_t>(b.size()) < n_ * k ||
      static_cast<index_t>(x.size()) < n_ * k) {
    throw std::invalid_argument(
        "TrisolvePlan::solve_batch: size mismatch — b has " +
        std::to_string(b.size()) + " and x has " + std::to_string(x.size()) +
        " entries but n*k = " + std::to_string(n_) + "*" + std::to_string(k) +
        " = " + std::to_string(n_ * k) + " are required");
  }
  reserve_batch(k);
  for (index_t c = 0; c < k; ++c) {
    batch_b_[static_cast<std::size_t>(c)] = b.data() + c * n_;
    batch_x_[static_cast<std::size_t>(c)] = x.data() + c * n_;
  }
  return run_batch(k);
}

core::DoacrossStats TrisolvePlan::solve_batch(const double* const* b_cols,
                                              double* const* x_cols,
                                              index_t k) {
  if (!u_) {
    throw std::logic_error("TrisolvePlan::solve_batch: lower-only plan");
  }
  if (k < 1) {
    throw std::invalid_argument("TrisolvePlan::solve_batch: k must be >= 1");
  }
  reserve_batch(k);
  for (index_t c = 0; c < k; ++c) {
    batch_b_[static_cast<std::size_t>(c)] = b_cols[c];
    batch_x_[static_cast<std::size_t>(c)] = x_cols[c];
  }
  return run_batch(k);
}

}  // namespace pdx::sparse
