// pdx_perfbench — end-to-end benchmark of pdx through solve::Service.
//
// One client thread drives a closed loop of solve jobs through the public
// solve::Service API over a pool of width nproc - 1 (the service's
// scheduler thread is the pool's member 0), checks every answer, and
// prints the end-to-end metrics. With --trace 1 the same run is followed
// by a replay of the workload's inputs through the layers' public
// functions (BatchDriver, pcg/bicgstab over a timing preconditioner,
// sparse::spmv, refactor, ThreadPool::parallel_region), each call wrapped
// in a span; the spans are written as Chrome trace-event JSON and the
// per-layer metrics are printed instead of the end-to-end ones.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Any failed check prints correct=false and exits with status 1.
//
// See README.md in this directory for the workloads, metrics and checks.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/advisor.hpp"
#include "gen/block_operator.hpp"
#include "gen/rng.hpp"
#include "gen/stencil.hpp"
#include "runtime/thread_pool.hpp"
#include "solve/batch_driver.hpp"
#include "solve/bicgstab.hpp"
#include "solve/cg.hpp"
#include "solve/precond.hpp"
#include "solve/service.hpp"
#include "sparse/spmv.hpp"

namespace gen = pdx::gen;
namespace rt = pdx::rt;
namespace solve = pdx::solve;
namespace sp = pdx::sparse;
using pdx::index_t;
using Clock = std::chrono::steady_clock;

namespace {

// ------------------------------------------------------------- utilities

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile (p in (0, 1]); the median for p = 0.5.
double percentile(std::vector<double> v, double p) {
  if (p == 0.5 || v.empty()) return median(std::move(v));
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Peak resident set of this process (the kernel's VmHWM), MiB.
double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // reported in KiB
}

unsigned online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  return gen::SplitMix64(a * 0x9E3779B97F4A7C15ull ^ (b + 0x632BE59BD9B4E019ull))
      .next();
}

/// Seeded right-hand side, entries uniform in [-1, 1).
void fill_rhs(std::uint64_t key, std::vector<double>& b, index_t n) {
  gen::SplitMix64 rng(key);
  b.resize(static_cast<std::size_t>(n));
  for (double& v : b) v = rng.next_double(-1.0, 1.0);
}

/// ||b - A x|| / ||b||, computed here rather than through sparse::spmv so
/// the check does not share code with the solver it checks.
double true_relative_residual(const sp::Csr& a, std::span<const double> b,
                              std::span<const double> x) {
  double rr = 0.0, bb = 0.0;
  for (index_t i = 0; i < a.rows; ++i) {
    double ax = 0.0;
    for (index_t k = a.ptr[static_cast<std::size_t>(i)];
         k < a.ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      ax += a.val[static_cast<std::size_t>(k)] *
            x[static_cast<std::size_t>(a.idx[static_cast<std::size_t>(k)])];
    }
    const double r = b[static_cast<std::size_t>(i)] - ax;
    rr += r * r;
    bb += b[static_cast<std::size_t>(i)] * b[static_cast<std::size_t>(i)];
  }
  return bb > 0.0 ? std::sqrt(rr / bb) : std::sqrt(rr);
}

bool bitwise_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::optional<sp::ExecutionStrategy> parse_strategy(const std::string& s) {
  for (auto c : {sp::ExecutionStrategy::kAuto, sp::ExecutionStrategy::kSerial,
                 sp::ExecutionStrategy::kDoacross,
                 sp::ExecutionStrategy::kLevelBarrier,
                 sp::ExecutionStrategy::kBlockedHybrid}) {
    if (s == pdx::core::to_string(c)) return c;
  }
  return std::nullopt;
}

// ------------------------------------------------------------- workloads

/// The true residual of every solved job must be within this factor of
/// the requested tolerance (Krylov methods stop on the recurrence
/// residual, which drifts from the true one by rounding).
constexpr double kResidualSlack = 10.0;
/// The serve window's width: outstanding jobs in serve_small, and the
/// batch width of the traced solve_batch probe.
constexpr int kServeWindow = 16;
/// Factor-race budget of a FactorPlan under kAuto: 4 candidates times
/// BatchDriverOptions::calibration_epochs (2). timestep's set-up runs
/// this many value refreshes so the race is paid in set-up, not in the
/// timed phase.
constexpr int kFactorRaceRefreshes = 8;

struct Tenant {
  std::string name;
  sp::Csr a;
};

struct Workload {
  std::string name;
  std::vector<Tenant> tenants;
  solve::KrylovMethod method = solve::KrylovMethod::kCg;
  double tol = 1e-8;
  int window = 1;          // outstanding jobs of the closed loop
  bool timestep = false;   // value refresh before every job
  double tail_p = 0.5;     // percentile reported as latency_tail_ms
  int setup_min_reps = 3;  // set-ups per run: at least this many ...
  double setup_min_s = 1.0;  // ... and until this much set-up time
  int sample_period = 1;   // a job enters the bitwise sample with 1/period
  int sample_cap = 1;      // at most this many sampled jobs
};

Workload make_workload(const std::string& name, bool quick) {
  Workload w;
  w.name = name;
  if (name == "serve_small") {
    // Small SPD stencils, roughly 1k-4k rows (the 63x63 five-point is
    // the paper's 5-PT instance); distinct sizes, so no two tenants share
    // a tuning-cache entry.
    const index_t q = quick ? 4 : 1;
    for (index_t g : {32, 40, 63}) {
      g /= q;
      w.tenants.push_back({"5pt-" + std::to_string(g) + "^2", gen::five_point(g, g)});
    }
    for (index_t g : {36, 48}) {
      g /= q;
      w.tenants.push_back({"9pt-" + std::to_string(g) + "^2", gen::nine_point(g, g)});
    }
    for (index_t g : {11, 13}) {
      g = quick ? g / 3 : g;
      w.tenants.push_back({"7pt-" + std::to_string(g) + "^3", gen::seven_point(g, g, g)});
    }
    w.method = solve::KrylovMethod::kCg;
    w.window = kServeWindow;
    w.tail_p = 0.99;
    w.setup_min_reps = 5;
    w.setup_min_s = 2.0;
    w.sample_period = 97;
    w.sample_cap = 8;
  } else if (name == "solve_large") {
    const index_t g = quick ? 16 : 64;
    w.tenants.push_back({"7pt-" + std::to_string(g) + "^3",
                         gen::seven_point(g, g, g)});
    w.method = solve::KrylovMethod::kCg;
    w.window = 1;
    w.tail_p = 0.5;
    w.setup_min_reps = 3;
    w.setup_min_s = 1.0;
    w.sample_period = 4;
    w.sample_cap = 2;
  } else if (name == "timestep") {
    // Independent time-stepping chains, one step outstanding each: block
    // seven-point operators with 3x3 blocks on SPE5's 16x23x3 grid and
    // three neighbours of it (distinct patterns, so no two chains share a
    // plan-cache entry); values fixed here, modulated per step from the
    // seed.
    const gen::BlockOperatorParams grids[] = {
        {.nx = 16, .ny = 23, .nz = 3, .block = 3, .seed = 1990},
        {.nx = 17, .ny = 23, .nz = 3, .block = 3, .seed = 1991},
        {.nx = 16, .ny = 24, .nz = 3, .block = 3, .seed = 1992},
        {.nx = 17, .ny = 24, .nz = 3, .block = 3, .seed = 1993}};
    for (gen::BlockOperatorParams p : grids) {
      if (quick) {  // 6-7 x 7-8 x 3, still four distinct patterns
        p.nx -= 10;
        p.ny -= 16;
      }
      w.tenants.push_back({"block7pt-3x3-" + std::to_string(p.nx) + "x" +
                               std::to_string(p.ny) + "x" + std::to_string(p.nz),
                           gen::block_seven_point(p)});
    }
    w.method = solve::KrylovMethod::kBicgstab;
    w.window = static_cast<int>(w.tenants.size());
    w.timestep = true;
    w.tail_p = 0.9;
    w.setup_min_reps = 5;
    w.setup_min_s = 2.0;
    w.sample_period = 13;
    w.sample_cap = 3;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  if (quick) {
    w.setup_min_reps = 2;
    w.setup_min_s = 0.0;
    w.sample_period = std::min(w.sample_period, 3);
  }
  return w;
}

/// Tenant of serve job j: a seeded uniform draw over the tenants.
std::size_t job_tenant(const Workload& w, std::uint64_t seed, std::uint64_t j) {
  return static_cast<std::size_t>(mix(seed, j) % w.tenants.size());
}

/// timestep job j belongs to chain j mod K (K chains, one per tenant)
/// and is that chain's step j div K; jobs are submitted round robin.
std::size_t step_chain(const Workload& w, std::uint64_t j) {
  return static_cast<std::size_t>(j % w.tenants.size());
}

/// A(step) of timestep job j: its chain's base operator with every
/// off-diagonal entry of row i scaled by o_i in [0.85, 1] and its diagonal
/// by d_i in [1, 1.15], drawn per (chain, step). Scaling off-diagonals down
/// and the diagonal up keeps the base operator's strict diagonal
/// dominance, so ILU(0) and BiCGSTAB stay well behaved; rows are scaled
/// independently, so A(step) is nonsymmetric like the base.
void assemble_step(const Workload& w, std::uint64_t seed, std::uint64_t j,
                   sp::Csr& out) {
  const std::size_t chain = step_chain(w, j);
  const sp::Csr& base = w.tenants[chain].a;
  if (out.rows != base.rows || out.nnz() != base.nnz()) out = base;
  gen::SplitMix64 rng(mix(mix(seed ^ 0x5715ull, chain), j / w.tenants.size()));
  for (index_t i = 0; i < base.rows; ++i) {
    const double off = 0.85 + 0.15 * rng.next_double();
    const double diag = 1.0 + 0.15 * rng.next_double();
    for (index_t k = base.ptr[static_cast<std::size_t>(i)];
         k < base.ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      const auto kk = static_cast<std::size_t>(k);
      out.val[kk] = base.val[kk] * (base.idx[kk] == i ? diag : off);
    }
  }
}

/// Right-hand side of step s+1: the solution of step s, scaled to unit
/// RMS so the chain neither decays nor grows over thousands of steps.
void next_step_rhs(std::span<const double> x, std::vector<double>& b) {
  double ss = 0.0;
  for (double v : x) ss += v * v;
  const double scale =
      ss > 0.0 ? std::sqrt(static_cast<double>(x.size()) / ss) : 1.0;
  b.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) b[i] = x[i] * scale;
}

/// Source of each job's inputs, in submission order; the same seed gives
/// the same sequence. Serve jobs draw a tenant and a random b; timestep
/// jobs walk each chain's value-modulated operators, each b the chain's
/// previous (scaled) solution.
class JobSource {
 public:
  JobSource(const Workload& w, std::uint64_t seed) : w_(&w), seed_(seed) {
    if (w.timestep) {
      op_.resize(w.tenants.size());
      b_.resize(w.tenants.size());
      for (std::size_t c = 0; c < w.tenants.size(); ++c) {
        fill_rhs(mix(seed_, 0xB0ull + c), b_[c], w.tenants[c].a.rows);
      }
    }
  }

  struct Job {
    std::uint64_t index = 0;
    std::size_t tenant = 0;
    std::vector<double> b;
    const sp::Csr* a = nullptr;  // the operator this job is solved against
  };

  /// The next job. For timestep, the caller must feed a chain's solution
  /// back with solved() before asking for that chain's next step; the
  /// operator a job points to stays valid until then.
  Job next() {
    if (!w_->timestep) return serve_job(next_++);
    Job j;
    j.index = next_++;
    j.tenant = step_chain(*w_, j.index);
    assemble_step(*w_, seed_, j.index, op_[j.tenant]);
    j.b = b_[j.tenant];
    j.a = &op_[j.tenant];
    return j;
  }

  /// Serve job `index` (serve_small, solve_large): random access.
  Job serve_job(std::uint64_t index) const {
    Job j;
    j.index = index;
    j.tenant = job_tenant(*w_, seed_, index);
    j.a = &w_->tenants[j.tenant].a;
    fill_rhs(mix(seed_ ^ 0xB1ull, index), j.b, j.a->rows);
    return j;
  }

  void solved(const Job& job, std::span<const double> x) {
    if (w_->timestep) next_step_rhs(x, b_[job.tenant]);
  }

 private:
  const Workload* w_;
  std::uint64_t seed_;
  std::uint64_t next_ = 0;
  std::vector<sp::Csr> op_;              // timestep: each chain's last A(step)
  std::vector<std::vector<double>> b_;   // timestep: each chain's next b
};

// ---------------------------------------------------------------- spans

/// In-memory span recorder; written as Chrome trace-event JSON at exit.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    std::uint64_t job;
  };

  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int begin(const char* name, std::uint64_t job) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, now_ns(), 0, parent, job});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void end(int id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  /// Self time (span minus its children) summed per span name, ns.
  std::map<std::string, double> self_ns_by_name() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] +=
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) - child[i];
    }
    return out;
  }

  bool write_chrome_json(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    f << "{\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[320];
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,"
                    "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"job\":%llu,"
                    "\"span\":%zu,\"parent\":%d}}%s\n",
                    s.name, static_cast<int>(std::strcspn(s.name, ".")), s.name,
                    static_cast<double>(s.start_ns) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                    static_cast<unsigned long long>(s.job), i, s.parent,
                    i + 1 < spans_.size() ? "," : "");
      f << buf;
    }
    f << "],\"displayTimeUnit\":\"ms\"}\n";
    return static_cast<bool>(f);
  }

  std::size_t size() const { return spans_.size(); }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Forwards to a DoacrossIlu0Preconditioner; with a tracer attached,
/// every apply() becomes a span and its time is summed.
class TimedPreconditioner final : public solve::Preconditioner {
 public:
  explicit TimedPreconditioner(const solve::DoacrossIlu0Preconditioner& m)
      : m_(&m) {}

  void apply(std::span<const double> r, std::span<double> z) const override {
    if (!tracer_) {
      m_->apply(r, z);
      return;
    }
    const auto t0 = Clock::now();
    const int id = tracer_->begin("sparse.trisolve_apply", job_);
    m_->apply(r, z);
    tracer_->end(id);
    apply_ms_ += ms_between(t0, Clock::now());
    ++applies_;
  }
  const char* name() const override { return "timed-ilu0-doacross"; }

  void attach(Tracer* t, std::uint64_t job) {
    tracer_ = t;
    job_ = job;
  }

  mutable std::uint64_t applies_ = 0;
  mutable double apply_ms_ = 0.0;

 private:
  const solve::DoacrossIlu0Preconditioner* m_;
  Tracer* tracer_ = nullptr;
  std::uint64_t job_ = 0;
};

solve::SolveReport krylov(const Workload& w, const sp::Csr& a,
                          std::span<const double> b, std::span<double> x,
                          const solve::Preconditioner& m) {
  if (w.method == solve::KrylovMethod::kBicgstab) {
    solve::BicgstabOptions o;
    o.rel_tolerance = w.tol;
    o.record_history = false;
    return solve::bicgstab(a, b, x, m, o);
  }
  solve::CgOptions o;
  o.rel_tolerance = w.tol;
  o.record_history = false;
  return solve::pcg(a, b, x, m, o);
}

// ------------------------------------------------------- the service run

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  unsigned width = 0;  // 0: nproc - 1
  sp::ExecutionStrategy strategy = sp::ExecutionStrategy::kAuto;
  std::string trace_dir = ".";
};

struct JobRecord {
  std::uint64_t index = 0;
  std::size_t tenant = 0;
  double t_submit_ms = 0.0;  // client clock, relative to the phase start
  double latency_ms = 0.0;
  double update_ms = 0.0;  // timestep: the update_values call
  double queue_ms = 0.0;
  double solve_ms = 0.0;
  int iterations = 0;
};

struct Sample {
  std::uint64_t index = 0;
  std::size_t tenant = 0;
  std::vector<double> b;
  std::vector<double> x;
};

struct ServiceRun {
  std::vector<double> setup_s;
  std::vector<JobRecord> jobs;       // timed phase, completion order
  std::vector<double> update_probe_ms;  // traced, non-timestep runs
  double wall_s = 0.0;
  double rss_mib = 0.0;
  solve::ServiceReport report;
  std::vector<solve::MatrixInfo> infos;
  std::uint64_t attempted = 0;
  std::uint64_t solved = 0;
  double worst_residual_ratio = 0.0;  // true residual / tolerance
  std::string first_error;
  std::vector<Sample> samples;
  std::uint64_t value_refreshes_timed = 0;
  std::uint64_t setup_jobs = 0;
};

solve::ServiceOptions service_options(const Workload& w, const Options& o) {
  solve::ServiceOptions so;
  so.solver.method = w.method;
  so.solver.rel_tolerance = w.tol;
  so.solver.strategy = o.strategy;
  return so;
}

bool sampled(const Workload& w, std::uint64_t seed, std::uint64_t j) {
  return mix(seed ^ 0x5A3Dull, j) % static_cast<std::uint64_t>(w.sample_period) == 0;
}

/// Submit `job` (after its value refresh, for timestep) and return the
/// handle; `rec` gets the submit time and the update_values time.
solve::JobHandle submit_job(solve::Service& svc,
                            const std::vector<solve::MatrixId>& ids,
                            const Workload& w, const JobSource::Job& job,
                            Clock::time_point t0, JobRecord& rec) {
  rec.index = job.index;
  rec.tenant = job.tenant;
  const auto ts = Clock::now();
  rec.t_submit_ms = ms_between(t0, ts);
  if (w.timestep) {
    svc.update_values(ids[job.tenant], *job.a);
    rec.update_ms = ms_between(ts, Clock::now());
  }
  return svc.submit(ids[job.tenant], job.b, 0.0);
}

/// Runs the whole workload through one Service: repeated set-ups (each
/// from a fresh Service and an empty tuning cache), then the timed closed
/// loop on the last set-up's service, checking every answer as it lands.
ServiceRun run_service(rt::ThreadPool& pool, const Workload& w,
                       const Options& o, int setup_reps_min,
                       double setup_min_s) {
  ServiceRun run;
  const solve::ServiceOptions so = service_options(w, o);
  std::unique_ptr<solve::Service> svc;
  std::vector<solve::MatrixId> ids;
  JobSource src(w, o.seed);

  const auto fail = [&](const std::string& what) {
    if (run.first_error.empty()) run.first_error = what;
  };

  // One set-up: Service construction until every tenant's first job is
  // solved (timestep: plus the warm-up refreshes that run the factor
  // race), from a fresh Service and an empty tuning cache. Inputs are the
  // same in every repetition; svc is left holding the new service.
  const auto set_up = [&]() -> bool {
    svc.reset();
    ids.clear();
    pdx::core::tuning_cache().clear();
    src = JobSource(w, o.seed);
    const auto t0 = Clock::now();
    svc = std::make_unique<solve::Service>(pool, so);
    for (const Tenant& t : w.tenants) ids.push_back(svc->register_matrix(t.a));
    if (w.timestep) {
      const std::size_t steps = (kFactorRaceRefreshes + 1) * w.tenants.size();
      for (std::size_t s = 0; s < steps; ++s) {
        JobSource::Job job = src.next();
        JobRecord rec;
        solve::JobHandle h = submit_job(*svc, ids, w, job, t0, rec);
        if (h->wait().outcome != solve::JobOutcome::kSolved) {
          fail("set-up step " + std::to_string(s) + " not solved");
          return false;
        }
        src.solved(job, h->solution());
      }
    } else {
      std::vector<solve::JobHandle> hs;
      std::vector<double> b;
      for (std::size_t t = 0; t < w.tenants.size(); ++t) {
        fill_rhs(mix(o.seed ^ 0x5E7ull, t), b, w.tenants[t].a.rows);
        hs.push_back(svc->submit(ids[t], b, 0.0));
      }
      for (auto& h : hs) {
        if (h->wait().outcome != solve::JobOutcome::kSolved) {
          fail("set-up job not solved");
          return false;
        }
      }
    }
    run.setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
    return true;
  };
  // Set-ups run in blocks of at least setup_reps_min repetitions and
  // setup_min_s seconds. An untraced run adds a second block after the
  // timed phase, so the median spans the run: host slow spells of a few
  // seconds would otherwise set a run's whole set-up figure.
  const auto set_up_block = [&]() -> bool {
    double total = 0.0;
    for (int rep = 0; rep < setup_reps_min || total < setup_min_s; ++rep) {
      if (!set_up()) return false;
      total += run.setup_s.back();
    }
    return true;
  };
  if (!set_up_block()) return run;
  run.setup_jobs = svc->report().submitted;
  const std::uint64_t refreshes0 = svc->report().value_refreshes;

  // Timed phase: a closed loop with w.window jobs outstanding; the oldest
  // is waited for first and replaced as soon as it returns.
  struct InFlight {
    solve::JobHandle h;
    JobRecord rec;
    JobSource::Job job;
  };
  std::deque<InFlight> inflight;
  const auto t0 = Clock::now();
  const auto stop_at = t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(o.seconds));
  bool submitting = true;
  int sampled_n = 0;
  while (true) {
    while (submitting && static_cast<int>(inflight.size()) < w.window) {
      InFlight f;
      f.job = src.next();
      f.h = submit_job(*svc, ids, w, f.job, t0, f.rec);
      ++run.attempted;
      inflight.push_back(std::move(f));
    }
    if (inflight.empty()) break;
    InFlight f = std::move(inflight.front());
    inflight.pop_front();
    const solve::JobResult res = f.h->wait();
    const auto tdone = Clock::now();
    f.rec.latency_ms = ms_between(t0, tdone) - f.rec.t_submit_ms;
    f.rec.queue_ms = res.queue_ms;
    f.rec.solve_ms = res.solve_ms;
    f.rec.iterations = res.report.iterations;
    if (tdone >= stop_at) submitting = false;
    if (res.outcome != solve::JobOutcome::kSolved) {
      fail("job " + std::to_string(f.rec.index) + " " +
           solve::to_string(res.outcome) + ": " + res.error);
      if (w.timestep) submitting = false;
      continue;
    }
    ++run.solved;
    const std::span<const double> x = f.h->solution();
    const double ratio = true_relative_residual(*f.job.a, f.job.b, x) / w.tol;
    run.worst_residual_ratio = std::max(run.worst_residual_ratio, ratio);
    // The first timed job always enters the sample, so even a short run
    // is checked against the reference.
    if (sampled_n < w.sample_cap &&
        (sampled_n == 0 || sampled(w, o.seed, f.job.index))) {
      run.samples.push_back(
          {f.job.index, f.job.tenant, f.job.b, {x.begin(), x.end()}});
      ++sampled_n;
    }
    src.solved(f.job, x);
    run.jobs.push_back(f.rec);
  }
  run.wall_s = ms_between(t0, Clock::now()) / 1e3;
  run.rss_mib = peak_rss_mib();
  run.value_refreshes_timed = svc->report().value_refreshes - refreshes0;
  for (solve::MatrixId id : ids) run.infos.push_back(svc->matrix_info(id));

  if (o.trace && !w.timestep) {
    // update_values probe for workloads whose timed phase never refreshes:
    // three same-pattern refreshes of tenant 0, each applied by a job.
    for (int k = 0; k < 3; ++k) {
      const auto ts = Clock::now();
      svc->update_values(ids[0], w.tenants[0].a);
      run.update_probe_ms.push_back(ms_between(ts, Clock::now()));
      std::vector<double> b;
      fill_rhs(mix(o.seed ^ 0xD0ull, static_cast<std::uint64_t>(k)), b,
               w.tenants[0].a.rows);
      ++run.attempted;
      if (svc->submit(ids[0], b, 0.0)->wait().outcome ==
          solve::JobOutcome::kSolved) {
        ++run.solved;
      }
    }
  }
  svc->shutdown(60000.0);
  run.report = svc->report();
  if (!o.trace) set_up_block();
  run.attempted += run.setup_jobs;
  run.solved += run.setup_jobs;
  return run;
}

// ---------------------------------------------------------------- checks

struct CheckResult {
  bool ok = true;
  std::vector<std::string> failures;
  std::vector<double> reference_job_ms;
  void fail(std::string s) {
    ok = false;
    failures.push_back(std::move(s));
  }
};

/// Sequential reference of one sampled job: pcg/bicgstab with the
/// sequential Ilu0Preconditioner from x = 0, on the calling thread. For
/// timestep the factorization is fresh ILU(0) of A(step) (DESIGN.md §11:
/// a value-refreshed plan equals a fresh factorization).
std::vector<double> reference_solution(const Workload& w, std::uint64_t seed,
                                       const Sample& s, double& job_ms,
                                       std::map<std::size_t,
                                                std::unique_ptr<solve::Ilu0Preconditioner>>&
                                           cache) {
  sp::Csr a_step;
  const sp::Csr* a = &w.tenants[s.tenant].a;
  if (w.timestep) {
    assemble_step(w, seed, s.index, a_step);
    a = &a_step;
  }
  std::vector<double> x(static_cast<std::size_t>(a->rows), 0.0);
  const auto t0 = Clock::now();
  std::unique_ptr<solve::Ilu0Preconditioner> fresh;
  const solve::Ilu0Preconditioner* m = nullptr;
  if (w.timestep) {
    fresh = std::make_unique<solve::Ilu0Preconditioner>(*a);
    m = fresh.get();
  } else {
    auto& slot = cache[s.tenant];
    if (!slot) slot = std::make_unique<solve::Ilu0Preconditioner>(*a);
    m = slot.get();
  }
  const auto t1 = Clock::now();
  krylov(w, *a, s.b, x, *m);
  // timestep jobs include their factorization (the step's refresh);
  // serve jobs reuse the tenant's factors.
  job_ms = ms_between(w.timestep ? t0 : t1, Clock::now());
  return x;
}

CheckResult check_run(const Workload& w, const Options& o, const ServiceRun& run) {
  CheckResult c;
  if (!run.first_error.empty()) c.fail(run.first_error);
  // 1. True residual of every solved job (computed as each job landed).
  if (run.worst_residual_ratio > kResidualSlack) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "true relative residual %.3g x tolerance exceeds %.0f x",
                  run.worst_residual_ratio, kResidualSlack);
    c.fail(buf);
  }
  // 2. Bitwise equality of the sampled jobs with the sequential reference.
  std::map<std::size_t, std::unique_ptr<solve::Ilu0Preconditioner>> cache;
  for (const Sample& s : run.samples) {
    double ms = 0.0;
    const std::vector<double> ref = reference_solution(w, o.seed, s, ms, cache);
    c.reference_job_ms.push_back(ms);
    if (!bitwise_equal(ref, s.x)) {
      c.fail("job " + std::to_string(s.index) +
             " differs bitwise from the sequential reference");
    }
  }
  // 3. Exact accounting: every submitted job ended in exactly one state.
  const solve::ServiceReport& r = run.report;
  if (r.solved + r.expired + r.rejected + r.failed != r.submitted ||
      r.submitted != run.attempted) {
    c.fail("accounting: solved " + std::to_string(r.solved) + " + expired " +
           std::to_string(r.expired) + " + rejected " +
           std::to_string(r.rejected) + " + failed " +
           std::to_string(r.failed) + " != submitted " +
           std::to_string(r.submitted) + " / attempted " +
           std::to_string(run.attempted));
  }
  // 4. Self-test: the checks above must reject a corrupted answer.
  if (!run.samples.empty()) {
    const Sample& s = run.samples.front();
    sp::Csr a_step;
    const sp::Csr* a = &w.tenants[s.tenant].a;
    if (w.timestep) {
      assemble_step(w, o.seed, s.index, a_step);
      a = &a_step;
    }
    std::vector<double> bad = s.x;
    const std::size_t i = mix(o.seed, 0x7E57ull) % bad.size();
    bad[i] += 1e-3 * std::max(1.0, std::fabs(bad[i]));
    if (true_relative_residual(*a, s.b, bad) / w.tol <= kResidualSlack) {
      c.fail("self-test: residual check accepted a perturbed solution");
    }
    bad = s.x;
    bad[i] = std::nextafter(bad[i], INFINITY);
    if (bitwise_equal(bad, s.x)) {
      c.fail("self-test: bitwise check accepted a one-ulp perturbation");
    }
  }
  return c;
}

// ------------------------------------------------------ the traced replay

struct Strip {
  std::size_t tenant = 0;
  std::vector<std::size_t> jobs;  // indices into ServiceRun::jobs
  double exec_ms = 0.0;           // the service's dequeue -> finalize
};

/// Recover the service's strips from client-side timestamps: jobs of one
/// strip share a dequeue instant (submit time + queue_ms), and two strips
/// of one tenant are at least one drain apart.
std::vector<Strip> recover_strips(const ServiceRun& run) {
  struct Key {
    double dequeue_ms;
    std::size_t job;
  };
  std::vector<Key> keys;
  for (std::size_t i = 0; i < run.jobs.size(); ++i) {
    keys.push_back({run.jobs[i].t_submit_ms + run.jobs[i].queue_ms, i});
  }
  std::sort(keys.begin(), keys.end(),
            [](const Key& a, const Key& b) { return a.dequeue_ms < b.dequeue_ms; });
  std::vector<Strip> strips;
  std::map<std::size_t, std::pair<double, std::size_t>> open;  // tenant -> (t, strip)
  constexpr double kSameStripMs = 0.05;
  for (const Key& k : keys) {
    const JobRecord& r = run.jobs[k.job];
    auto it = open.find(r.tenant);
    if (it != open.end() && k.dequeue_ms - it->second.first < kSameStripMs) {
      Strip& s = strips[it->second.second];
      s.jobs.push_back(k.job);
      s.exec_ms = std::max(s.exec_ms, r.solve_ms);
    } else {
      strips.push_back({r.tenant, {k.job}, r.solve_ms});
      open[r.tenant] = {k.dequeue_ms, strips.size() - 1};
    }
  }
  // Replay in job order.
  std::sort(strips.begin(), strips.end(), [&](const Strip& a, const Strip& b) {
    return run.jobs[a.jobs.front()].index < run.jobs[b.jobs.front()].index;
  });
  return strips;
}

using Metrics = std::vector<std::tuple<std::string, double, std::string>>;

Metrics traced_replay(rt::ThreadPool& pool, const Workload& w, const Options& o,
                      const ServiceRun& run, const CheckResult& check) {
  Metrics m;
  const auto put = [&](const std::string& n, double v, const char* unit) {
    m.emplace_back(n, v, unit);
  };
  const unsigned width = pool.width();
  const double budget_s = std::clamp(o.seconds / 2.0, 0.5, 10.0);
  Tracer tr(Clock::now());
  {
    std::vector<double> q, e, upd = run.update_probe_ms;
    double iters = 0.0;
    for (const JobRecord& r : run.jobs) {
      q.push_back(r.queue_ms);
      e.push_back(r.solve_ms);
      if (w.timestep) upd.push_back(r.update_ms);
      iters += r.iterations;
    }
    put("solve.service.queue_wait_ms_p50", median(q), "ms");
    put("solve.service.exec_ms_p50", median(e), "ms");
    put("solve.service.update_values_ms", median(upd), "ms");
    put("solve.service.plan_builds",
        static_cast<double>(run.report.cache_misses), "count");
    put("solve.service.value_refreshes",
        static_cast<double>(run.value_refreshes_timed), "count");
    put("solve.krylov.iterations_per_job",
        iters / static_cast<double>(std::max<std::size_t>(1, run.jobs.size())), "count");
    int parallel = 0;
    for (const auto& info : run.infos) {
      if (info.strategy != sp::ExecutionStrategy::kSerial) ++parallel;
    }
    put("sparse.parallel_plans", parallel, "count");
  }

  // Set-up through the layers: a kAuto preconditioner per tenant from an
  // empty tuning cache (ILU(0) + plan build), then its first solve, which
  // runs the calibration race.
  pdx::core::tuning_cache().clear();
  double build_ms = 0.0;
  int exploration = 0;
  for (std::size_t t = 0; t < w.tenants.size(); ++t) {
    const sp::Csr& a = w.tenants[t].a;
    const auto t0 = Clock::now();
    int id = tr.begin("sparse.plan_build", t);
    solve::DoacrossIlu0Preconditioner pre(pool, a, sp::PlanOptions{.strategy = o.strategy},
                                          sp::FactorPlanOptions{});
    tr.end(id);
    build_ms += ms_between(t0, Clock::now());
    std::vector<double> b, x(static_cast<std::size_t>(a.rows), 0.0);
    fill_rhs(mix(o.seed ^ 0x5E7ull, t), b, a.rows);
    id = tr.begin("core.calibration_race", t);
    krylov(w, a, b, x, pre);
    tr.end(id);
    exploration += pre.plan().telemetry().race.exploration_epochs;
  }
  put("sparse.plan_build_ms", build_ms, "ms");
  put("sparse.race_exploration_solves", exploration, "count");

  // Replay drivers pinned to the trisolve strategy and layout each
  // service tenant locked in. The factorization strategy is not reported
  // by MatrixInfo, so it races as in the service (on the untimed warm-up
  // refactors below).
  std::vector<std::unique_ptr<solve::BatchDriver>> drivers;
  std::vector<sp::Csr> ops;  // timestep: the driver's operator (refactored)
  ops.reserve(w.tenants.size());
  double packed_bytes = 0.0;
  for (std::size_t t = 0; t < w.tenants.size(); ++t) {
    solve::BatchDriverOptions bo;
    bo.method = w.method;
    bo.rel_tolerance = w.tol;
    bo.strategy = run.infos[t].strategy;
    bo.layout = run.infos[t].layout;
    bo.use_tuning_cache = false;
    ops.push_back(w.tenants[t].a);
    drivers.push_back(std::make_unique<solve::BatchDriver>(pool, ops.back(), bo));
    drivers.back()->preconditioner().reserve_batch(kServeWindow);
    packed_bytes += static_cast<double>(drivers.back()->preconditioner().plan().packed_bytes());
  }
  put("sparse.packed_mib", packed_bytes / (1024.0 * 1024.0), "MiB");

  // Refactor probe: for timestep the replay refactors every step below;
  // elsewhere, same-value refactors of tenant 0 (the first ones build the
  // FactorPlan and run its race, so only the last five are kept).
  std::vector<double> refactor_ms, refresh_ms;
  const auto timed_refactor = [&](std::size_t t, const sp::Csr& a, std::uint64_t job) {
    const auto t0 = Clock::now();
    const int id = tr.begin("sparse.refactor", job);
    drivers[t]->refactor(a);
    tr.end(id);
    refactor_ms.push_back(ms_between(t0, Clock::now()));
    refresh_ms.push_back(drivers[t]->preconditioner().plan().telemetry().refresh_ms);
    return refactor_ms.back();
  };
  if (!w.timestep) {
    for (int k = 0; k <= kFactorRaceRefreshes; ++k) drivers[0]->refactor(ops[0]);
    for (int k = 0; k < 5; ++k) timed_refactor(0, ops[0], UINT64_MAX);
  }

  // Strip replay: the same jobs, strip by strip, through BatchDriver::drain.
  const std::vector<Strip> strips = recover_strips(run);
  JobSource src(w, o.seed);
  std::vector<std::vector<double>> strip_x;
  // replay_ms: what the service's exec_ms covers, replayed (the drain,
  // plus the value refresh for timestep).
  double drain_ms = 0.0, replay_ms = 0.0, service_ms = 0.0;
  std::size_t drained_jobs = 0;
  std::uint64_t dispatches = 0, retried = 0;
  const auto replay_t0 = Clock::now();
  // timestep's chains start at step 0: replay the set-up steps first.
  if (w.timestep) {
    const std::size_t steps = (kFactorRaceRefreshes + 1) * w.tenants.size();
    for (std::size_t s = 0; s < steps; ++s) {
      JobSource::Job job = src.next();
      solve::BatchDriver& d = *drivers[job.tenant];
      d.refactor(*job.a);
      std::vector<double> x(job.b.size(), 0.0);
      d.enqueue(job.b, x);
      d.drain();
      src.solved(job, x);
    }
  }
  // Krylov replay: for the first jobs, a traced and an untraced
  // pcg/bicgstab of the same system through the pinned preconditioner.
  double krylov_traced_ms = 0.0, krylov_plain_ms = 0.0, apply_ms = 0.0;
  std::uint64_t applies = 0, krylov_iters = 0, spmv_calls = 0, krylov_jobs = 0;
  for (const Strip& s : strips) {
    if (ms_between(replay_t0, Clock::now()) / 1e3 > budget_s && drained_jobs > 0) break;
    // Regenerate the strip's jobs (timestep strips hold one job each, the
    // next step of its chain).
    std::vector<JobSource::Job> jobs;
    for (std::size_t ji : s.jobs) {
      jobs.push_back(w.timestep ? src.next() : src.serve_job(run.jobs[ji].index));
      if (jobs.back().index != run.jobs[ji].index) {
        throw std::logic_error("replay lost the timestep chain");
      }
    }
    strip_x.assign(jobs.size(), {});
    solve::BatchDriver& d = *drivers[s.tenant];
    double exec = 0.0;
    if (w.timestep) exec += timed_refactor(s.tenant, *jobs[0].a, jobs[0].index);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      strip_x[j].assign(jobs[j].b.size(), 0.0);
      d.enqueue(jobs[j].b, strip_x[j]);
    }
    const auto t0 = Clock::now();
    const int id = tr.begin("solve.batch_driver.drain", jobs[0].index);
    const solve::BatchReport rep = d.drain();
    tr.end(id);
    exec += ms_between(t0, Clock::now());
    drain_ms += ms_between(t0, Clock::now());
    replay_ms += exec;
    service_ms += s.exec_ms;
    drained_jobs += jobs.size();
    dispatches += rep.pool_dispatches;
    retried += rep.retried;

    {
      TimedPreconditioner tp(d.preconditioner());
      for (auto& job : jobs) {
        std::vector<double> x(job.b.size(), 0.0);
        tp.attach(&tr, job.index);
        const auto k0 = Clock::now();
        const int kid = tr.begin(w.method == solve::KrylovMethod::kCg
                                     ? "solve.krylov.pcg"
                                     : "solve.krylov.bicgstab",
                                 job.index);
        const solve::SolveReport sr = krylov(w, *job.a, job.b, x, tp);
        tr.end(kid);
        krylov_traced_ms += ms_between(k0, Clock::now());
        std::fill(x.begin(), x.end(), 0.0);
        tp.attach(nullptr, 0);
        const auto k1 = Clock::now();
        krylov(w, *job.a, job.b, x, tp);
        krylov_plain_ms += ms_between(k1, Clock::now());
        krylov_iters += static_cast<std::uint64_t>(sr.iterations);
        spmv_calls += 1 + static_cast<std::uint64_t>(sr.iterations) *
                              (w.method == solve::KrylovMethod::kCg ? 1 : 2);
        ++krylov_jobs;
      }
      apply_ms += tp.apply_ms_;
      applies += tp.applies_;
    }
    if (w.timestep) src.solved(jobs[0], strip_x[0]);
  }
  put("solve.batch_driver.drain_ms_per_job",
      drained_jobs ? drain_ms / static_cast<double>(drained_jobs) : 0.0, "ms");
  put("solve.batch_driver.retried_jobs", static_cast<double>(retried), "count");
  put("runtime.dispatches_per_job",
      drained_jobs ? static_cast<double>(dispatches) / static_cast<double>(drained_jobs) : 0.0,
      "count");
  put("sparse.refactor_ms", median(refactor_ms), "ms");
  put("sparse.refresh_ms", median(refresh_ms), "ms");

  // SpMV probe on each tenant's operator, weighted by its share of jobs.
  std::vector<double> share(w.tenants.size(), 0.0);
  for (const JobRecord& r : run.jobs) share[r.tenant] += 1.0;
  double spmv_us = 0.0, share_sum = 0.0;
  for (std::size_t t = 0; t < w.tenants.size(); ++t) {
    const sp::Csr& a = w.tenants[t].a;
    std::vector<double> x, y(static_cast<std::size_t>(a.rows));
    fill_rhs(mix(o.seed, t), x, a.rows);
    const int reps = std::max(5, static_cast<int>(2e6 / std::max<index_t>(1, a.nnz())));
    std::vector<double> per;
    for (int k = 0; k < reps; ++k) {
      const auto t0 = Clock::now();
      const int id = tr.begin("sparse.spmv", t);
      sp::spmv(a, x, y);
      tr.end(id);
      per.push_back(ms_between(t0, Clock::now()) * 1e3);
    }
    spmv_us += median(per) * std::max(share[t], 1e-9);
    share_sum += std::max(share[t], 1e-9);
  }
  spmv_us /= share_sum;
  put("sparse.spmv_us", spmv_us, "us");
  put("sparse.trisolve_apply_us", applies ? apply_ms * 1e3 / static_cast<double>(applies) : 0.0,
      "us");
  put("solve.krylov.vector_us_per_iteration",
      krylov_iters ? (krylov_traced_ms * 1e3 - apply_ms * 1e3 -
                      static_cast<double>(spmv_calls) * spmv_us) /
                         static_cast<double>(krylov_iters)
                   : 0.0,
      "us");

  // solve_batch at the serve window's width, per column, on each tenant.
  {
    double us = 0.0, wsum = 0.0;
    for (std::size_t t = 0; t < w.tenants.size(); ++t) {
      const auto& pre = drivers[t]->preconditioner();
      const index_t n = w.tenants[t].a.rows;
      std::vector<double> r(static_cast<std::size_t>(n) * kServeWindow),
          z(r.size());
      fill_rhs(mix(o.seed, 0xBA7ull + t), r, n * kServeWindow);
      std::vector<double> per;
      for (int k = 0; k < 5; ++k) {
        const auto t0 = Clock::now();
        const int id = tr.begin("sparse.trisolve_batch", t);
        pre.apply_batch(r, z, kServeWindow);
        tr.end(id);
        per.push_back(ms_between(t0, Clock::now()) * 1e3 / kServeWindow);
      }
      us += median(per) * std::max(share[t], 1e-9);
      wsum += std::max(share[t], 1e-9);
    }
    put("sparse.trisolve_batch_us_per_col", us / wsum, "us");
  }

  // Empty fork/join at the pool's width.
  {
    std::vector<double> per;
    for (int k = 0; k < 2000; ++k) {
      const auto t0 = Clock::now();
      const int id = tr.begin("runtime.parallel_region", k);
      pool.parallel_region(width, [](unsigned, unsigned) {});
      tr.end(id);
      per.push_back(ms_between(t0, Clock::now()) * 1e3);
    }
    put("runtime.forkjoin_us", median(per), "us");
  }

  put("reference.sequential_job_ms", mean(check.reference_job_ms), "ms");

  const double overhead_us =
      drained_jobs ? (service_ms - replay_ms) * 1e3 / static_cast<double>(drained_jobs) : 0.0;
  put("solve.service.overhead_us_per_job", overhead_us, "us");
  put("trace.closure_pct", service_ms > 0 ? 100.0 * replay_ms / service_ms : 0.0, "%");
  put("trace.overhead_us_per_job",
      krylov_jobs ? (krylov_traced_ms - krylov_plain_ms) * 1e3 / static_cast<double>(krylov_jobs)
                  : 0.0,
      "us");
  const auto self = tr.self_ns_by_name();
  const auto self_per_job = [&](const char* name, std::size_t jobs) {
    auto it = self.find(name);
    const double ns = it == self.end() ? 0.0 : it->second;
    return jobs ? ns / 1e3 / static_cast<double>(jobs) : 0.0;
  };
  put("trace.self_us_per_job.krylov",
      self_per_job(w.method == solve::KrylovMethod::kCg ? "solve.krylov.pcg"
                                                         : "solve.krylov.bicgstab",
                   krylov_jobs),
      "us");
  put("trace.self_us_per_job.trisolve_apply",
      self_per_job("sparse.trisolve_apply", krylov_jobs), "us");
  put("trace.spans", static_cast<double>(tr.size()), "count");

  const std::string path = o.trace_dir + "/trace_" + w.name + "_seed" +
                           std::to_string(o.seed) + ".json";
  if (!tr.write_chrome_json(path)) {
    throw std::runtime_error("cannot write trace file " + path);
  }
  std::printf("trace: %zu spans -> %s\n", tr.size(), path.c_str());
  std::printf("trace: replayed %zu jobs in %zu strips (%zu in the Krylov replay)\n",
              drained_jobs, strips.size(), static_cast<std::size_t>(krylov_jobs));
  return m;
}

// ------------------------------------------------------------------ main

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const Metrics& m) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < m.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", std::get<0>(m[i]).c_str(), std::get<1>(m[i]),
                  std::get<2>(m[i]).c_str());
    s += buf;
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

void usage() {
  std::fprintf(stderr,
               "usage: pdx_perfbench --workload serve_small|solve_large|timestep\n"
               "         --seed N --seconds S --trace 0|1 [--quick] [--width W]\n"
               "         [--strategy auto|serial|doacross|level-barrier|blocked-hybrid]\n"
               "         [--trace-dir DIR]\n");
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = val();
    else if (a == "--seed") o.seed = std::stoull(val());
    else if (a == "--seconds") o.seconds = std::stod(val());
    else if (a == "--trace") o.trace = std::stoi(val()) != 0;
    else if (a == "--quick") o.quick = true;
    else if (a == "--width") o.width = static_cast<unsigned>(std::stoul(val()));
    else if (a == "--trace-dir") o.trace_dir = val();
    else if (a == "--strategy") {
      const std::string s = val();
      auto st = parse_strategy(s);
      if (!st) throw std::invalid_argument("unknown strategy '" + s + "'");
      o.strategy = *st;
    } else {
      throw std::invalid_argument("unknown argument '" + a + "'");
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

int run_main(const Options& o) {
  const Workload w = make_workload(o.workload, o.quick);
  const unsigned width = o.width ? o.width : std::max(1u, online_cpus() - 1);
  rt::ThreadPool pool(width);

  std::printf("workload %s seed %llu seconds %g trace %d%s: pool width %u, "
              "window %d, %s tol %g\n",
              w.name.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? 1 : 0, o.quick ? " (quick)" : "", width, w.window,
              w.method == solve::KrylovMethod::kCg ? "CG" : "BiCGSTAB", w.tol);

  const ServiceRun run =
      run_service(pool, w, o, o.trace ? 1 : w.setup_min_reps, o.trace ? 0.0 : w.setup_min_s);
  const CheckResult check = check_run(w, o, run);

  std::string tenants = "{";
  for (std::size_t t = 0; t < w.tenants.size(); ++t) {
    const solve::MatrixInfo info =
        t < run.infos.size() ? run.infos[t] : solve::MatrixInfo{};
    std::printf("tenant %zu %s rows %lld nnz %lld: strategy %s layout %s\n", t,
                w.tenants[t].name.c_str(), static_cast<long long>(w.tenants[t].a.rows),
                static_cast<long long>(w.tenants[t].a.nnz()),
                pdx::core::to_string(info.strategy), sp::to_string(info.layout));
    tenants += (t ? ", \"" : "\"") + w.tenants[t].name + "\": \"" +
               pdx::core::to_string(info.strategy) + "/" + sp::to_string(info.layout) + "\"";
  }
  tenants += "}";
  std::printf("TENANTS %s\n", tenants.c_str());
  std::printf("checks: worst true residual %.3g x tol (limit %.0f x), %zu bitwise "
              "samples, accounting submitted %llu solved %llu\n",
              run.worst_residual_ratio, kResidualSlack, run.samples.size(),
              static_cast<unsigned long long>(run.report.submitted),
              static_cast<unsigned long long>(run.report.solved));
  for (const std::string& f : check.failures) std::printf("CHECK FAILED: %s\n", f.c_str());

  std::vector<double> lat;
  for (const JobRecord& r : run.jobs) lat.push_back(r.latency_ms);
  const std::uint64_t failed = run.attempted - std::min(run.attempted, run.solved);
  Metrics m;
  if (!o.trace) {
    std::printf("set-up: %zu repetitions, median %.4f s\n", run.setup_s.size(),
                median(run.setup_s));
    std::printf("timed: %zu jobs in %.3f s; latency p50 %.3f ms, tail (p%g) %.3f ms\n",
                lat.size(), run.wall_s, median(lat), w.tail_p * 100.0,
                percentile(lat, w.tail_p));
    m.emplace_back("jobs_per_s", static_cast<double>(lat.size()) / run.wall_s, "1/s");
    m.emplace_back("latency_p50_ms", median(lat), "ms");
    m.emplace_back("latency_tail_ms", percentile(lat, w.tail_p), "ms");
    m.emplace_back("peak_rss_mib", run.rss_mib, "MiB");
    m.emplace_back("setup_s", median(run.setup_s), "s");
  } else if (check.ok) {
    m = traced_replay(pool, w, o, run, check);
  }
  print_json(check.ok, run.attempted, failed, m);
  return check.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pdx_perfbench: %s\n", e.what());
    usage();
    return 2;
  }
  try {
    return run_main(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pdx_perfbench: %s\n", e.what());
    return 1;
  }
}
