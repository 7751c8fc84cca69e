// dag_schedule.hpp — the one executor core of the preprocessed loops.
//
// The paper's mechanism is a single one: preprocess a loop's dependence
// DAG once, then execute it many times. The triangular solves (L and U of
// TrisolvePlan) and the ILU(0) row elimination (FactorPlan) are three
// DAGs over the same machinery, so the machinery lives here once:
//
//   DagExecutor  — what one plan shares across its DAGs: the strategy
//                  configuration, the region barrier, the fault latch and
//                  wait guard (DESIGN.md §12), plan poisoning, and the
//                  dispatch that runs a bound region inline (serial) or
//                  through the pool.
//   DagSchedule  — one per DAG: the position order and levels, the epoch
//                  ready flags, the claim cursor, the per-thread wait
//                  counters, and run(), which walks this thread's
//                  positions under the executor's strategy and hands a
//                  plan's row body the matching wait hook.
//
// A row body supplies the arithmetic of one position:
//
//   Rec fetch(index_t pos)           parse position pos (each thread
//                                    fetches its positions in increasing
//                                    order — packed slab cursors rely on
//                                    it)
//   index_t exec(const Rec&, W& w)   compute the row, calling w(dep, row)
//                                    before reading dependence dep;
//                                    returns the row to publish
//
// and optionally `bool lookahead()` + `void prefetch(const Rec&)`: the
// walk-order strategies (serial, level-barrier) then fetch one position
// ahead and prefetch for it while the current row computes — safe there
// because every dependence of the lookahead row is already final.
//
// The four walks (DESIGN.md §9):
//
//   kDoacross      positions claimed through rt::schedule_run; every
//                  dependence waits on its ready flag; every row is
//                  published.
//   kBlockedHybrid static contiguous blocks of positions; only
//                  dependences outside the thread's own block wait (the
//                  block's rows retire in program order); every row is
//                  published.
//   kLevelBarrier  each level's positions split in static blocks, a
//                  barrier after each level; no flags at all.
//   kSerial        every position in order on the calling thread; no
//                  flags, no barrier, no dispatch.
//
// Row arithmetic is the body's alone, so every walk is bitwise identical
// to the sequential loop the body transcribes.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "core/advisor.hpp"
#include "core/doconsider.hpp"
#include "core/ready_table.hpp"
#include "runtime/aligned.hpp"
#include "runtime/barrier.hpp"
#include "runtime/failure.hpp"
#include "runtime/schedule.hpp"
#include "runtime/thread_pool.hpp"

namespace pdx::core {

/// Spin statistics of one thread's walk.
struct WaitCount {
  std::uint64_t episodes = 0;  ///< waits that had to spin
  std::uint64_t rounds = 0;    ///< spin rounds across them
};

/// The walk-order strategies' hook: every dependence is already final.
/// Bodies test kFree to compile their wait loops away.
struct NoWait {
  static constexpr bool kFree = true;
  void operator()(index_t, index_t) const noexcept {}
};

/// The doacross hook: a latch-aware wait on the dependence's flag.
struct FlagWait {
  static constexpr bool kFree = false;
  const EpochReadyTable& ready;
  const rt::WaitGuard& guard;
  WaitCount count{};

  void operator()(index_t dep, index_t row) {
    const std::uint64_t w = wait_done_guarded(ready, dep, row, guard);
    if (w != 0) {
      ++count.episodes;
      count.rounds += w;
    }
  }
};

/// The blocked-hybrid hook: only a dependence outside the thread's own
/// block of rows [lo, lo + size) consults its flag — one unsigned
/// compare, in either direction of the position space.
struct BlockWait : FlagWait {
  index_t lo = 0;
  index_t size = 0;

  void operator()(index_t dep, index_t row) {
    using U = std::make_unsigned_t<index_t>;
    if (static_cast<U>(dep - lo) >= static_cast<U>(size)) {
      FlagWait::operator()(dep, row);
    }
  }
};

/// What one plan shares across its DAGs (see the file comment).
class DagExecutor {
 public:
  /// A region of `nthreads` (clamped to the pool; 0 = full width) whose
  /// flag and barrier waits give up after `stall_budget` spin rounds (0 =
  /// never). Doacross walks claim positions under `schedule`, in the
  /// DAG's doconsider order when `ordered`.
  DagExecutor(rt::ThreadPool& pool, unsigned nthreads,
              std::uint64_t stall_budget, const rt::Schedule& schedule,
              bool ordered);
  DagExecutor(const DagExecutor&) = delete;
  DagExecutor& operator=(const DagExecutor&) = delete;

  unsigned nthreads() const noexcept { return nth_; }
  rt::ThreadPool& pool() const noexcept { return *pool_; }
  ExecStrategy strategy() const noexcept { return strategy_; }
  const rt::Schedule& schedule() const noexcept { return schedule_; }
  bool ordered() const noexcept { return ordered_; }

  /// Point every DAG of the plan at strategy `s`. `advised` (a kAuto
  /// plan) pins the advisor's canonical flag configuration — dynamic
  /// single-iteration issue in doconsider order — so raced doacross
  /// epochs and cache-hit plans run identically.
  void set_strategy(ExecStrategy s, bool advised) noexcept;

  /// Whether the DAGs must keep their doconsider orders: the level walk
  /// executes the levels, an ordered doacross the order, and a running
  /// race keeps both alive for its candidates.
  bool needs_order(bool calibrating) const noexcept {
    return calibrating || strategy_ == ExecStrategy::kLevelBarrier ||
           (strategy_ == ExecStrategy::kDoacross && ordered_);
  }

  rt::Barrier& barrier() noexcept { return barrier_; }
  const rt::WaitGuard& guard() const noexcept { return guard_; }
  const rt::FailureLatch* latch() const noexcept { return &latch_; }
  /// True once a fault escaped a worker of a dispatched region: the
  /// flags, cursors and barrier may be mid-episode, so the plan must be
  /// rebuilt.
  bool poisoned() const noexcept { return poisoned_; }

  /// Wrap a region in the abort protocol: a fault records its exception
  /// in the latch (raising it); WorkerAbort — a peer draining after it
  /// saw the latch — is discarded. Bind once per region, so the per-call
  /// cost is one extra call, not an allocation.
  rt::ThreadPool::RegionFn contain(rt::ThreadPool::RegionFn raw);

  /// Run a contained region and return its wall seconds (pool wake-up
  /// included). The serial strategy runs it inline on the caller as
  /// (0, 1) — zero dispatches — every other strategy through one pool
  /// fork/join. A fault inside poisons the executor and is rethrown.
  double dispatch(const rt::ThreadPool::RegionFn& region);

 private:
  rt::ThreadPool* pool_;
  unsigned nth_;
  ExecStrategy strategy_ = ExecStrategy::kSerial;
  rt::Schedule schedule_;
  bool ordered_;
  rt::Barrier barrier_;
  rt::FailureLatch latch_;
  rt::WaitGuard guard_;
  bool poisoned_ = false;
};

/// One dependence DAG under a DagExecutor (see the file comment).
class DagSchedule {
 public:
  /// `n` positions. Without an order, position k is row k, or row n-1-k
  /// when `reversed` (the backward solve's natural order).
  DagSchedule(DagExecutor& ex, index_t n, bool reversed);

  /// Install (or, with nullptr, drop) the doconsider analysis.
  void set_order(std::unique_ptr<Reordering> order) noexcept {
    order_ = std::move(order);
  }
  const Reordering* order() const noexcept { return order_.get(); }
  /// The row order positions run in under the current strategy; nullptr
  /// means the natural order (serial and blocked walks never reorder).
  const index_t* exec_order() const noexcept {
    const ExecStrategy s = ex_->strategy();
    const bool use = s == ExecStrategy::kLevelBarrier ||
                     (s == ExecStrategy::kDoacross && ex_->ordered());
    return use && order_ ? order_->order.data() : nullptr;
  }
  index_t row_at(index_t pos) const noexcept {
    const index_t* o = exec_order();
    return o ? o[pos] : (reversed_ ? n_ - 1 - pos : pos);
  }
  /// The rows each of `slabs` threads executes, in its walk order — what
  /// a packed layout streams per thread. Doacross claims positions at run
  /// time; its split mirrors the static-block assignment, which is also
  /// where dynamic chunks of a steady-state run tend to land.
  std::vector<std::vector<index_t>> slab_rows(unsigned slabs) const;

  /// O(1) reset before a run: a fresh flag epoch, a rewound cursor.
  void begin_epoch() noexcept {
    ready_.begin_epoch();
    cursor_->store(0, std::memory_order_relaxed);
  }
  std::uint32_t epoch() const noexcept { return ready_.epoch(); }
  /// Add the last run's spin counters to `s` (a DoacrossStats or any
  /// stats with wait_episodes/wait_rounds); serial runs never wait.
  template <class Stats>
  void add_waits(Stats& s) const noexcept {
    if (ex_->strategy() == ExecStrategy::kSerial) return;
    for (unsigned t = 0; t < ex_->nthreads(); ++t) {
      s.wait_episodes += waits_[t].value.episodes;
      s.wait_rounds += waits_[t].value.rounds;
    }
  }

  /// Walk thread `tid`'s positions under the executor's strategy.
  template <class Body>
  void run(unsigned tid, unsigned nthreads, Body&& body);

  /// Order every row this DAG's run published before any thread reads it
  /// in a following run: one barrier for the flag walks. The level walk's
  /// trailing barrier already did, and a serial walk has one thread.
  void handoff() {
    const ExecStrategy s = ex_->strategy();
    if (s == ExecStrategy::kDoacross || s == ExecStrategy::kBlockedHybrid) {
      ex_->barrier().arrive_and_wait();
    }
  }

 private:
  template <class Body>
  void walk(Body& body, index_t lo, index_t hi);

  DagExecutor* ex_;
  index_t n_;
  bool reversed_;
  std::unique_ptr<Reordering> order_;
  EpochReadyTable ready_;
  // Its own cache line: every doacross claim writes it, while every flag
  // wait reads the table fields above.
  rt::Padded<std::atomic<index_t>> cursor_;
  std::vector<rt::Padded<WaitCount>> waits_;
};

template <class Body>
void DagSchedule::walk(Body& body, index_t lo, index_t hi) {
  NoWait none;
  if constexpr (requires { body.lookahead(); }) {
    if (body.lookahead() && lo < hi) {
      auto rec = body.fetch(lo);
      for (index_t pos = lo; pos < hi; ++pos) {
        const auto nxt = pos + 1 < hi ? body.fetch(pos + 1) : decltype(rec){};
        body.prefetch(nxt);
        body.exec(rec, none);
        rec = nxt;
      }
      return;
    }
  }
  for (index_t pos = lo; pos < hi; ++pos) body.exec(body.fetch(pos), none);
}

template <class Body>
void DagSchedule::run(unsigned tid, unsigned nthreads, Body&& body) {
  WaitCount waited;
  switch (ex_->strategy()) {
    case ExecStrategy::kDoacross: {
      FlagWait wait{ready_, ex_->guard()};
      rt::schedule_run(ex_->schedule(), n_, tid, nthreads, &cursor_.value,
                       [&](index_t pos) {
                         // The release store publishes the row's results.
                         ready_.mark_done(body.exec(body.fetch(pos), wait));
                       });
      waited = wait.count;
      break;
    }
    case ExecStrategy::kBlockedHybrid: {
      // Every row is published — marking is one release store, and
      // whether a consumer exists in another block is not worth a
      // build-time scan to know.
      const rt::IterRange r = rt::static_block_range(n_, tid, nthreads);
      BlockWait wait{{ready_, ex_->guard()},
                     reversed_ ? n_ - r.end : r.begin,
                     r.size()};
      for (index_t pos = r.begin; pos < r.end; ++pos) {
        ready_.mark_done(body.exec(body.fetch(pos), wait));
      }
      waited = wait.count;
      break;
    }
    case ExecStrategy::kLevelBarrier: {
      // Every producer of level l finished before the barrier that opens
      // level l+1, so no flag is consulted or published. The trailing
      // barrier doubles as the handoff to a following run.
      const Reordering& ord = *order_;
      for (index_t lvl = 0; lvl < ord.num_levels(); ++lvl) {
        const index_t lo = ord.level_ptr[static_cast<std::size_t>(lvl)];
        const index_t hi = ord.level_ptr[static_cast<std::size_t>(lvl) + 1];
        const rt::IterRange r = rt::static_block_range(hi - lo, tid, nthreads);
        walk(body, lo + r.begin, lo + r.end);
        ex_->barrier().arrive_and_wait();
      }
      break;
    }
    case ExecStrategy::kSerial:
      walk(body, 0, n_);
      break;
    case ExecStrategy::kAuto:
      break;  // unreachable: plans resolve kAuto before they run
  }
  waits_[tid].value = waited;
}

}  // namespace pdx::core
