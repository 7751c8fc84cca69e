// kernels.hpp — runtime-dispatched vector kernels for the packed-stream
// executors (DESIGN.md §14).
//
// The inspector fixed the schedule (TrisolvePlan) and the layout
// (PackedFactorStream); what remains between the executor and hardware
// speed is the innermost arithmetic. This module supplies it as a small
// table of function pointers — LaneOps — selected ONCE per process from
// CPUID (overridable via the PDX_KERNEL env var for testing), so the
// plans never branch on ISA inside a row loop and never recompile per
// target: the AVX2 bodies carry per-function target attributes and the
// translation unit builds with the portable baseline flags.
//
// The bitwise contract (DESIGN.md §4) splits the kernels in two classes:
//
//   bitwise   axpy / div_inplace / gather_axpy — element-independent:
//             each output element is produced by exactly the sequential
//             operation sequence (one mul rounding + one sub rounding,
//             or one correctly-rounded division). SIMD only changes how
//             many independent elements retire per instruction, so the
//             vector forms are bitwise identical to the scalar forms.
//             These back the multi-RHS lane executors (the k columns of
//             the wavefront-interleaved strip are the SIMD lanes) and
//             FactorPlan's scatter updates. They deliberately avoid FMA:
//             the scalar reference is compiled without FMA contraction,
//             and a fused multiply-add rounds once where the reference
//             rounds twice.
//
//   ulp       dot / gather_axpy_fma — horizontal reductions and fused
//             forms reassociate or re-round, so they are NOT bitwise
//             against the sequential solves; plans use them only when
//             the caller opted in through ulp_tolerance (> 0), and the
//             forced-scalar table keeps even opted-in plans bitwise.
//
// Every function tolerates unaligned pointers (the CSR-view sources are
// not 32B-aligned; the packed streams are, by the record padding).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/calibrator.hpp"
#include "runtime/types.hpp"

namespace pdx::sparse::kernels {

/// Instruction set a LaneOps table was compiled for.
enum class KernelIsa : std::uint8_t { kScalar, kAvx2, kNeon };

inline const char* to_string(KernelIsa isa) noexcept {
  switch (isa) {
    case KernelIsa::kScalar: return "scalar";
    case KernelIsa::kAvx2: return "avx2";
    case KernelIsa::kNeon: return "neon";
  }
  return "?";
}

/// Per-plan kernel selection (PlanOptions/FactorPlanOptions::kernel).
///   kAuto   — vector table when the dispatched ISA has one; when the
///             plan also runs a calibration race, scalar-vs-vector is
///             raced on the first lane-kernel dispatches and the
///             measured winner locks in (DESIGN.md §14).
///   kScalar — pin the scalar table (the reference everything is
///             bitwise-tested against).
///   kVector — pin the dispatched vector table (falls back to scalar
///             when the machine has none).
enum class KernelChoice : std::uint8_t { kAuto, kScalar, kVector };

inline const char* to_string(KernelChoice c) noexcept {
  switch (c) {
    case KernelChoice::kAuto: return "auto";
    case KernelChoice::kScalar: return "scalar";
    case KernelChoice::kVector: return "vector";
  }
  return "?";
}

/// Resolve an override string (the PDX_KERNEL env var) against what the
/// hardware supports: "scalar" pins the fallback, "avx2"/"neon" request
/// an ISA (clamped to scalar when absent), "auto"/empty/nullptr/unknown
/// defer to CPUID. Pure function — unit-testable without setenv.
KernelIsa resolve_isa(const char* override_value) noexcept;

/// The process-wide dispatched ISA: CPUID probed once, PDX_KERNEL
/// consulted once, then cached (plans built after a setenv in the same
/// process intentionally keep the first answer).
KernelIsa dispatched_isa() noexcept;

/// The innermost arithmetic of the packed executors as a dispatch table.
/// `k`/`cnt` are element counts; all pointers may be unaligned.
struct LaneOps {
  KernelIsa isa = KernelIsa::kScalar;
  /// BITWISE: t[c] -= a * x[c] for c in [0, k) — one mul rounding, one
  /// sub rounding per element, no FMA. The multi-RHS lane update.
  void (*axpy)(double* t, const double* x, double a, index_t k);
  /// BITWISE: one packed row's WHOLE dependence list against the
  /// row-major strip — t[c] -= vals[j] * xs[cols[j]*k + c] for j in
  /// [0, cnt) stored order. Per column the update sequence (and so every
  /// rounding) is exactly the scalar loop's; the vector forms only keep
  /// the accumulators in registers across the j loop instead of storing
  /// t back per dependence. One indirect call per row, not per
  /// dependence — the executors' hot path.
  void (*row_axpy)(double* t, const double* vals, const index_t* cols,
                   index_t cnt, const double* xs, index_t k);
  /// BITWISE: t[c] /= d for c in [0, k) — correctly rounded per lane.
  void (*div_inplace)(double* t, double d, index_t k);
  /// ULP: sum_j vals[j] * y[cols[j]] over cnt gathered entries, with
  /// vector-width accumulators (reassociated) and FMA where available.
  /// Only consulted by plans whose caller set ulp_tolerance > 0.
  double (*dot)(const double* vals, const index_t* cols, const double* y,
                index_t cnt);
  /// BITWISE: w[tgt[t]] -= a * w[src[t]] for t in [0, cnt). Requires the
  /// tgt and src position sets to be disjoint and the tgt positions
  /// distinct (FactorPlan's scatter steps satisfy both: targets lie in
  /// the row being factored, sources in the already-retired pivot row).
  void (*gather_axpy)(double* w, const index_t* tgt, const index_t* src,
                      index_t cnt, double a);
  /// ULP: the same scatter update with a single fused rounding per
  /// element. Same disjointness requirements.
  void (*gather_axpy_fma)(double* w, const index_t* tgt, const index_t* src,
                          index_t cnt, double a);
};

/// The scalar reference table (always available).
const LaneOps& scalar_ops() noexcept;

/// The table compiled for `isa` (scalar when the build lacks bodies for
/// it — e.g. requesting kNeon on x86).
const LaneOps& ops_for(KernelIsa isa) noexcept;

/// ops_for(dispatched_isa()) — what a kAuto/kVector plan starts from.
const LaneOps& dispatched_ops() noexcept;

/// Below this column count the lane kernels cannot fill one vector and
/// the indirect call costs more than the loop it replaces; the executors
/// inline the scalar arithmetic instead (bitwise-identical either way).
inline constexpr index_t kLaneMin = 4;

/// Software prefetch of the line holding `p` into all cache levels.
/// Prefetches never fault, so callers may pass one-past-the-end
/// addresses (the tail prefetch of a linear record walk).
inline void prefetch_read(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

/// One vector-vs-scalar exploration timing (mirrors core::StrategyTiming
/// for the strategy race; DESIGN.md §14).
struct KernelTiming {
  KernelChoice kernel = KernelChoice::kScalar;
  double best_us = 0.0;  ///< best normalized epoch time
  int epochs = 0;        ///< epochs this choice was timed
};

/// The empirical kernel-race record a plan reports in its telemetry.
struct KernelRaceState {
  bool calibrated = false;     ///< a measured winner is locked in
  int exploration_epochs = 0;  ///< timed dispatches spent exploring
  std::vector<KernelTiming> timings;
};

/// What a plan resolved about its lane kernels (part of PlanTelemetry and
/// FactorTelemetry).
struct KernelDecision {
  /// The process-wide dispatched ISA (CPUID + PDX_KERNEL).
  KernelIsa isa = KernelIsa::kScalar;
  /// The resolved kernel choice (never kAuto after construction; the
  /// current race candidate while a kernel race is exploring, the
  /// measured winner once locked in).
  KernelChoice kernel = KernelChoice::kScalar;
  /// The scalar-vs-vector race record (armed only for kAuto kernels on
  /// machines with a vector ISA; fed by the lane-kernel dispatches that
  /// run after the strategy race locked in).
  KernelRaceState kernel_race;
};

/// The table a resolved kernel choice runs (kVector is the dispatched
/// table, which is the scalar one on machines without a vector ISA).
inline const LaneOps& ops_for(KernelChoice c) noexcept {
  return c == KernelChoice::kScalar ? scalar_ops() : dispatched_ops();
}

/// The scalar-vs-vector race of TrisolvePlan and FactorPlan: the shared
/// race state machine over {vector, scalar}. The strategy race (DESIGN.md
/// §13) stays a pure 4-strategy race — its budget and winner assertions
/// are contractual — so the kernel dimension races separately, on the
/// dispatches that actually execute lane kernels, after the strategy race
/// has locked in. Both candidates are bitwise identical on those
/// dispatches, so exploration is invisible to callers.
class Race : public core::Race<KernelRaceState, &KernelTiming::kernel> {
 public:
  /// The vector table is the default when nothing ever feeds the race.
  Race() noexcept : core::Race<KernelRaceState, &KernelTiming::kernel>(
                        KernelChoice::kVector) {}

  using core::Race<KernelRaceState, &KernelTiming::kernel>::arm;
  /// Arm with a per-choice epoch budget, vector first. Non-positive
  /// budgets leave the race disarmed.
  void arm(int epochs_per_choice) {
    static constexpr KernelChoice kOrder[] = {KernelChoice::kVector,
                                              KernelChoice::kScalar};
    arm(kOrder, epochs_per_choice);
  }

  /// Resolve a plan's kernel option against the dispatched ISA: returns
  /// the choice to run first (never kAuto) and arms the race for kAuto
  /// on a vector machine with `epochs` > 0.
  KernelChoice open(KernelChoice want, int epochs) {
    const bool vector = dispatched_isa() != KernelIsa::kScalar;
    if (want == KernelChoice::kAuto && vector) arm(epochs);
    return want != KernelChoice::kScalar && vector ? KernelChoice::kVector
                                                  : KernelChoice::kScalar;
  }
};

}  // namespace pdx::sparse::kernels
