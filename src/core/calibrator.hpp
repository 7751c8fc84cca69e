// calibrator.hpp — the empirical races the plans run (DESIGN.md §13/§14).
//
// One state machine serves every race in the library: candidates are
// timed front to back, `budget` successful epochs each; a candidate's
// score is its best epoch; once the last candidate spent its budget the
// argmin locks in, the earlier candidate winning a tie. Two races use it:
// the strategy race below (StrategyCalibrator, shared by TrisolvePlan and
// FactorPlan) and the scalar-vs-vector kernel race (sparse::kernels::Race).
// Every candidate of either race is bitwise identical to the others, so
// exploring costs callers time, never bits.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <type_traits>
#include <utility>

#include "core/advisor.hpp"

namespace pdx::core {

/// The race state machine. `Record` is the telemetry it fills — a
/// struct with `bool calibrated`, `int exploration_epochs` and a
/// `std::vector<Timing> timings` — and `kChoice` names the Timing member
/// holding the candidate (Timing also carries `best_us` and `epochs`).
template <class Record, auto kChoice>
class Race {
 public:
  using Timing = typename decltype(Record::timings)::value_type;
  using Choice =
      std::remove_cvref_t<decltype(std::declval<Timing&>().*kChoice)>;

  /// `fallback` is what candidate() and winner() report while no race
  /// is running and none has locked in.
  explicit Race(Choice fallback = Choice{}) noexcept : winner_(fallback) {}

  /// Explore `order` front to back, `budget` epochs per candidate. A
  /// non-positive budget or an empty order leaves the race disarmed.
  void arm(std::span<const Choice> order, int budget) {
    if (budget <= 0 || order.empty()) return;
    budget_ = budget;
    epoch_ = 0;
    idx_ = 0;
    active_ = true;
    state_ = Record{};
    for (const Choice c : order) {
      Timing t{};
      t.*kChoice = c;
      state_.timings.push_back(t);
    }
  }

  bool active() const noexcept { return active_; }

  /// The choice the next raced epoch runs (the winner once locked in).
  Choice candidate() const noexcept {
    return active_ ? state_.timings[idx_].*kChoice : winner_;
  }

  /// Book one successful epoch of `us` microseconds: advance to the next
  /// candidate after the budget, lock in the argmin after the last one.
  /// Returns true exactly once, at lock-in.
  bool note_epoch(double us) noexcept {
    if (!active_) return false;
    Timing& t = state_.timings[idx_];
    if (t.epochs == 0 || us < t.best_us) t.best_us = us;
    ++t.epochs;
    ++state_.exploration_epochs;
    if (++epoch_ < budget_) return false;
    epoch_ = 0;
    if (++idx_ < state_.timings.size()) return false;
    best_ = 0;
    for (std::size_t i = 1; i < state_.timings.size(); ++i) {
      if (state_.timings[i].best_us < state_.timings[best_].best_us) {
        best_ = i;
      }
    }
    winner_ = state_.timings[best_].*kChoice;
    active_ = false;
    state_.calibrated = true;
    return true;
  }

  Choice winner() const noexcept { return winner_; }
  /// The locked-in winner's timing (valid once note_epoch returned true).
  const Timing& winner_timing() const noexcept {
    return state_.timings[best_];
  }
  const Record& state() const noexcept { return state_; }

 private:
  bool active_ = false;
  int budget_ = 0;
  int epoch_ = 0;
  std::size_t idx_ = 0;
  std::size_t best_ = 0;
  Choice winner_;
  Record state_;
};

/// What a plan decided about its execution strategy and why — the part of
/// PlanTelemetry and FactorTelemetry the calibrator writes.
struct StrategyDecision {
  ExecStrategy requested = ExecStrategy::kAuto;
  /// The resolved strategy (never kAuto). Under a calibration race this
  /// is the strategy the NEXT epoch runs — the current candidate while
  /// exploring, the measured winner once locked in.
  ExecStrategy strategy = ExecStrategy::kSerial;
  /// The advisor's reason under kAuto; "strategy fixed by caller"
  /// otherwise. Never empty after construction. Rewritten when a
  /// calibration race locks in its measured winner.
  std::string rationale;
  /// The empirical calibration record (DESIGN.md §13): whether a measured
  /// winner is locked in, whether it came from the TuningCache, and the
  /// per-strategy race timings.
  StrategyRace race;
  /// Inspector-measured structure of the lower pattern (populated under
  /// kAuto).
  TrisolveStructure structure;
  /// Processor count the decision assumed (the plan's region width).
  unsigned procs = 0;
};

/// The strategy calibration protocol of a kAuto plan (DESIGN.md §13).
/// The heuristic ladder sees DAG shape, never synchronization cost on
/// the actual machine, so its pick only opens the race; the first real
/// epochs time every strategy and the measured winner locks in. The
/// process-wide TuningCache short-circuits repeat patterns.
class StrategyCalibrator {
 public:
  /// `factor` keys the tuning cache for factorization races and names
  /// the epochs "factorizations" in rationales ("solves" otherwise).
  explicit StrategyCalibrator(bool factor) noexcept : factor_(factor) {}

  /// Resolve a kAuto request from the advisor's pick over d.structure
  /// and d.procs (both filled by the caller). A tuning-cache hit locks
  /// in at once. Otherwise a viable race — parallel width, a non-empty
  /// system, `epochs` > 0 — opens with the pick, then serial, doacross,
  /// blocked-hybrid and level-barrier; without one the pick stands.
  /// Writes d.strategy, d.rationale and d.race.
  void open(StrategyDecision& d, const ScheduleAdvice& advice, index_t n,
            int epochs, bool use_cache);

  bool calibrating() const noexcept { return race_.active(); }

  /// Book one successful epoch. Returns true when d.strategy changed:
  /// the race moved on to its next candidate, or locked in its winner
  /// (calibrating() is false then, d.rationale names the winner and the
  /// tuning cache stores it).
  bool note(StrategyDecision& d, double seconds);

 private:
  Race<StrategyRace, &StrategyTiming::strategy> race_;
  TuningKey key_{};
  bool have_key_ = false;
  bool factor_;
};

}  // namespace pdx::core
