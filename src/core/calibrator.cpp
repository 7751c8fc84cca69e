#include "core/calibrator.hpp"

#include <string>

namespace pdx::core {

void StrategyCalibrator::open(StrategyDecision& d,
                              const ScheduleAdvice& advice, index_t n,
                              int epochs, bool use_cache) {
  // The heuristic pick is the opening bid; with a viable race it only
  // decides which strategy explores first.
  d.strategy = advice.strategy;
  d.rationale = advice.rationale;
  // A race is viable whenever more than one strategy is plausible — with
  // parallel width and a budget — because all executors are bitwise
  // identical: the first epochs time each candidate invisibly.
  if (epochs <= 0 || d.procs <= 1 || n <= 0) return;
  if (use_cache) {
    key_ = make_tuning_key(d.structure, d.procs, factor_);
    have_key_ = true;
    ExecStrategy cached;
    if (tuning_cache().lookup(key_, cached)) {
      d.strategy = cached;
      d.rationale = std::string("tuning cache hit: ") + to_string(cached) +
                    " measured fastest earlier for this (pattern, threads)";
      d.race.calibrated = true;
      d.race.cache_hit = true;
      return;
    }
  }
  ExecStrategy order[5] = {d.strategy};
  std::size_t count = 1;
  for (const ExecStrategy s :
       {ExecStrategy::kSerial, ExecStrategy::kDoacross,
        ExecStrategy::kBlockedHybrid, ExecStrategy::kLevelBarrier}) {
    if (s != order[0]) order[count++] = s;
  }
  race_.arm(std::span<const ExecStrategy>(order, count), epochs);
  d.race = race_.state();
  d.rationale += factor_ ? " — calibrating: racing every strategy on the "
                           "first factorizations"
                         : " — calibrating: racing every strategy on the "
                           "first live solves";
}

bool StrategyCalibrator::note(StrategyDecision& d, double seconds) {
  const bool locked = race_.note_epoch(seconds * 1e6);
  d.race = race_.state();
  const ExecStrategy next = race_.candidate();
  if (!locked) {
    if (next == d.strategy) return false;
    d.strategy = next;
    return true;
  }
  d.strategy = next;
  const char* unit = factor_ ? "factorization" : "solve";
  d.rationale = std::string("calibrated: ") + to_string(next) +
                " measured fastest (" +
                std::to_string(race_.winner_timing().best_us) + " us/" +
                unit + " over " + std::to_string(d.race.exploration_epochs) +
                " exploration " + unit + "s)";
  if (have_key_) tuning_cache().store(key_, next);
  return true;
}

}  // namespace pdx::core
