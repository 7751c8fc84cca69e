#include "core/dag_schedule.hpp"

#include <chrono>

namespace pdx::core {

DagExecutor::DagExecutor(rt::ThreadPool& pool, unsigned nthreads,
                         std::uint64_t stall_budget,
                         const rt::Schedule& schedule, bool ordered)
    : pool_(&pool),
      nth_(pool.clamp_threads(nthreads)),
      schedule_(schedule),
      ordered_(ordered),
      barrier_(nth_ == 0 ? 1 : nth_),
      guard_{&latch_, stall_budget, ""} {
  // Fault containment: every flag wait and barrier wait of the plan polls
  // the latch (and the optional stall budget); see DESIGN.md §12.
  barrier_.watch(&latch_, stall_budget);
}

void DagExecutor::set_strategy(ExecStrategy s, bool advised) noexcept {
  strategy_ = s;
  if (advised && s == ExecStrategy::kDoacross) {
    schedule_ = rt::Schedule::dynamic(1);
    ordered_ = true;
  }
  guard_.site = to_string(s);
}

rt::ThreadPool::RegionFn DagExecutor::contain(rt::ThreadPool::RegionFn raw) {
  return [this, raw = std::move(raw)](unsigned tid, unsigned nthreads) {
    try {
      raw(tid, nthreads);
    } catch (rt::WorkerAbort&) {
      // A peer faulted first; this thread drained its waits and joins.
    } catch (...) {
      latch_.raise(std::current_exception());
    }
  };
}

double DagExecutor::dispatch(const rt::ThreadPool::RegionFn& region) {
  using clock = std::chrono::steady_clock;
  const clock::time_point t0 = clock::now();
  if (strategy_ == ExecStrategy::kSerial) {
    // The serial strategy's entire value is paying zero parallel
    // overhead: the pool is never woken.
    region(0, 1);
  } else {
    pool_->parallel_region(nth_, region);
  }
  const clock::time_point t1 = clock::now();
  if (latch_.raised()) {
    // A worker faulted inside the region; its peers drained their waits
    // via the latch and joined. Partial results are garbage — poison so
    // every later run fails fast instead of reading them.
    poisoned_ = true;
    latch_.rethrow_and_reset();
  }
  return std::chrono::duration<double>(t1 - t0).count();
}

DagSchedule::DagSchedule(DagExecutor& ex, index_t n, bool reversed)
    : ex_(&ex), n_(n), reversed_(reversed), waits_(ex.nthreads()) {
  ready_.ensure_size(n);
}

std::vector<std::vector<index_t>> DagSchedule::slab_rows(
    unsigned slabs) const {
  std::vector<std::vector<index_t>> seq(slabs);
  auto take = [&](unsigned t, index_t lo, index_t hi) {
    for (index_t pos = lo; pos < hi; ++pos) seq[t].push_back(row_at(pos));
  };
  if (ex_->strategy() == ExecStrategy::kLevelBarrier) {
    const Reordering& ord = *order_;
    for (index_t lvl = 0; lvl < ord.num_levels(); ++lvl) {
      const index_t lo = ord.level_ptr[static_cast<std::size_t>(lvl)];
      const index_t hi = ord.level_ptr[static_cast<std::size_t>(lvl) + 1];
      for (unsigned t = 0; t < slabs; ++t) {
        const rt::IterRange r = rt::static_block_range(hi - lo, t, slabs);
        take(t, lo + r.begin, lo + r.end);
      }
    }
  } else {
    for (unsigned t = 0; t < slabs; ++t) {
      const rt::IterRange r = rt::static_block_range(n_, t, slabs);
      seq[t].reserve(static_cast<std::size_t>(r.size()));
      take(t, r.begin, r.end);
    }
  }
  return seq;
}

}  // namespace pdx::core
