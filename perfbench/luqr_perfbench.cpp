// luqr_perfbench — the repository benchmark (see README.md).
//
//   luqr_perfbench --workload <lu_dense|hybrid_dense|lu_fine|serve_mixed>
//                  --seed <n> --seconds <s> --trace <0|1>
//
// Drives the library only through its public entry points (Solver::factor,
// Factorization::solve, serve::SolveService) and, in the traced mode, through
// the public functions of each layer those entry points compose. Prints a
// report stamped with nproc, compiler, build flags and git SHA, and as its
// last line one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer split with --trace 1.
// Exit code 0 means the run completed (check "correct" for the outputs);
// 2 means bad arguments or an internal error.
#include <sched.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "derive.hpp"
#include "runtime/parallel_hybrid.hpp"
#include "serve/service.hpp"

using namespace luqr;
namespace pb = luqr::perfbench;

namespace {

// Worker threads of every workload: the machine the benchmark was defined on
// has 4 cores. Set explicitly so a change to hardware_concurrency() handling
// does not change the workload.
constexpr int kThreads = 4;
// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 10;
// Minimum timed jobs per dense run and traced repetitions per traced run,
// however long each takes.
constexpr int kMinDenseJobs = 5;
constexpr int kMinTracedReps = 3;
// Accuracy bar for every solve (HPL3, scaled residual).
constexpr double kMaxHpl3 = 16.0;
// serve_mixed keeps going past --seconds until the single-solve latency
// sample supports a p99 (>= 10 samples beyond it), up to this many times
// --seconds.
constexpr std::size_t kTailSamples = 1000;
constexpr double kServeOvertime = 3.0;
// Hit solves the per-layer serve probe of a dense workload submits after its
// cold request.
constexpr int kProbeHits = 8;
// End-to-end metrics use the samples the host disturbed least
// (pb::least_stolen), never fewer than this many.
constexpr std::size_t kMinQuiet = 5;
// serve_mixed samples host steal over windows of this length.
constexpr auto kStealWindow = std::chrono::milliseconds(250);

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

// Metric names (and their order) of each mode; must match BENCHMARK.json
// (run.py checks the emitted names against it).
const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> names = {
      "factor_s",       "gflops",         "solve_s", "jobs_per_s",
      "latency_us.p50", "latency_us.p99", "setup_s", "peak_rss_mb"};
  return names;
}

// kprof classes reported as exact call / flop counts.
const std::vector<std::pair<const char*, obs::KernelClass>>& counted_classes() {
  using K = obs::KernelClass;
  static const std::vector<std::pair<const char*, K>> classes = {
      {"gemm", K::Gemm},   {"trsm", K::Trsm},   {"getrf", K::Getrf},
      {"geqrt", K::Geqrt}, {"unmqr", K::Unmqr}, {"tsqrt", K::Tsqrt},
      {"tsmqr", K::Tsmqr}, {"ttqrt", K::Ttqrt}, {"ttmqr", K::Ttmqr}};
  return classes;
}

// Engine task classes (obs::task_class_name) of the hybrid driver's graph.
const std::vector<std::string>& task_classes() {
  static const std::vector<std::string> classes = {"panel", "trsm", "gemm",
                                                   "qr-factor", "qr-apply"};
  return classes;
}

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v = {
        "tile.from_dense_s",
        "runtime.driver_s", "runtime.span_s", "runtime.engine_startup_s",
        "runtime.busy_s", "runtime.busy_frac", "runtime.idle_s", "runtime.tasks",
        "runtime.critical_path", "runtime.steals", "runtime.task_us.mean",
        "runtime.serial_factor_s", "runtime.scaling_eff",
        "runtime.trace_overhead_frac",
        "api.factor_s", "api.adopt_s", "api.unattributed_s"};
    for (const auto& c : task_classes()) v.push_back("kernels." + c + ".busy_frac");
    for (const auto& c : counted_classes()) {
      v.push_back(std::string("kernels.") + c.first + ".calls");
      v.push_back(std::string("kernels.") + c.first + ".gflop");
    }
    for (const char* m : {"kernels.gemm.gflops", "kernels.qr_apply.gflops",
                          "kernels.gemm_peak_gflops", "kernels.gemm_frac_of_peak",
                          "core.lu_steps", "core.qr_steps",
                          "core.qr_lu_step_cost_ratio"})
      v.push_back(m);
    for (const auto& c : counted_classes())
      v.push_back(std::string("solve.") + c.first + ".calls");
    for (const char* m : {"serve.submit_us.p50", "serve.queue_us.p50",
                          "serve.queue_us.p99", "serve.factor_us.p50",
                          "serve.solve_us.p50", "serve.cache_hit_rate",
                          "serve.batch_fill_mean", "serve.failed",
                          "serve.rejected", "serve.shed", "serve.retries",
                          "verify.hpl3"})
      v.push_back(m);
    return v;
  }();
  return names;
}

// Steal and total CPU ticks of the whole machine (first line of /proc/stat),
// so a report can say how much CPU the host took away while it ran.
struct CpuTicks {
  double steal = 0.0, total = 0.0;
};

CpuTicks cpu_ticks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  char cpu[8];
  double v[8] = {};
  if (std::fscanf(f, "%7s %lf %lf %lf %lf %lf %lf %lf %lf", cpu, &v[0], &v[1], &v[2],
                  &v[3], &v[4], &v[5], &v[6], &v[7]) == 9) {
    for (double x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

// Share of all CPU time the host stole between two readings.
double steal_share(const CpuTicks& from, const CpuTicks& to) {
  const double total = to.total - from.total;
  return total > 0.0 ? (to.steal - from.steal) / total : 0.0;
}

class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{value, unit};
  }

  /// One attempted operation; `ok` false counts it as failed.
  void record(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    if (++failed_ <= 10) std::printf("FAILED: %s\n", what.c_str());
  }

  /// `n` attempted operations that all passed.
  void record_ok(long n) { attempted_ += n; }

  /// Print every metric of `names` (all must have been set) as a table and
  /// then the JSON result line.
  void emit(const std::vector<std::string>& names) const {
    std::printf("\n%-30s %20s  %s\n", "metric", "value", "unit");
    for (const auto& n : names) {
      const Metric& m = metrics_.at(n);
      std::printf("%-30s %20.6f  %s\n", n.c_str(), m.value, m.unit.c_str());
    }
    std::printf("failed/attempted: %ld/%ld\n", failed_, attempted_);
    const CpuTicks now = cpu_ticks();
    if (now.total > start_.total)
      std::printf("host CPU steal during the run: %.1f%%\n",
                  100.0 * (now.steal - start_.steal) / (now.total - start_.total));
    std::string json = "{\"correct\": ";
    json += failed_ == 0 && attempted_ > 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
    for (std::size_t i = 0; i < names.size(); ++i) {
      const Metric& m = metrics_.at(names[i]);
      char num[40];
      std::snprintf(num, sizeof(num), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
      json += (i ? ", \"" : "\"") + names[i] + "\": {\"value\": " + num +
              ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
  }

 private:
  std::map<std::string, Metric> metrics_;
  long attempted_ = 0, failed_ = 0;
  CpuTicks start_ = cpu_ticks();
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

double us(std::uint64_t v) { return static_cast<double>(v); }

// ---------------------------------------------------------------------------
// Dense workloads
// ---------------------------------------------------------------------------

struct DenseWorkload {
  const char* name;
  int n;
  int nb;
  CriterionSpec criterion;
  int lu_steps;  // expected step counts of every factorization
  int qr_steps;
};

// The Random criterion's seed is a workload constant, so every matrix seed
// runs the same LU/QR step sequence (and the same flops).
const DenseWorkload kDenseWorkloads[] = {
    {"lu_dense", 2048, 128, CriterionSpec::always_lu(), 16, 0},
    {"hybrid_dense", 2048, 128, CriterionSpec::random(0.5, 7), 11, 5},
    {"lu_fine", 1536, 32, CriterionSpec::always_lu(), 48, 0},
};

SolverConfig dense_config(const DenseWorkload& w) {
  return SolverConfig().criterion(w.criterion).tile_size(w.nb).threads(kThreads);
}

std::vector<core::StepKind> step_kinds(const core::FactorizationStats& st) {
  std::vector<core::StepKind> kinds;
  for (const auto& s : st.steps) kinds.push_back(s.kind);
  return kinds;
}

// Every factorization of a workload runs the expected step counts (when
// given), and the same sequence as the first one.
class StepCheck {
 public:
  StepCheck() = default;
  StepCheck(int lu, int qr) : lu_(lu), qr_(qr) {}
  bool ok(const core::FactorizationStats& st) {
    const auto kinds = step_kinds(st);
    if (first_.empty()) first_ = kinds;
    const bool counts = lu_ < 0 || (st.lu_steps == lu_ && st.qr_steps == qr_);
    return counts && kinds == first_;
  }

 private:
  int lu_ = -1, qr_ = -1;
  std::vector<core::StepKind> first_;
};

std::string fmt_steps(const core::FactorizationStats& st) {
  return std::to_string(st.lu_steps) + " LU / " + std::to_string(st.qr_steps) + " QR";
}

void run_dense(const DenseWorkload& w, const Matrix<double>& a,
               const Matrix<double>& b, double seconds, Report& rep) {
  const SolverConfig cfg = dense_config(w);
  StepCheck steps(w.lu_steps, w.qr_steps);

  std::vector<double> setup, setup_steal;
  for (int i = 0; i < kSetupReps; ++i) {
    const CpuTicks c0 = cpu_ticks();
    Timer t;
    const Solver solver(cfg);
    const core::Factorization fac = solver.factor(a);
    setup.push_back(t.seconds());
    setup_steal.push_back(steal_share(c0, cpu_ticks()));
    rep.record(steps.ok(fac.stats()), "set-up factorization ran " + fmt_steps(fac.stats()));
  }

  const Solver solver(cfg);
  std::printf("backend: %s, %d threads\n",
              solver.resolve_backend((w.n + w.nb - 1) / w.nb) == Backend::Parallel
                  ? "parallel" : "serial",
              solver.resolve_threads());
  std::vector<double> factor_s, solve_s, job_s, job_steal;
  double worst_hpl3 = 0.0;
  std::optional<core::Factorization> fac;
  Timer clock;
  while (clock.seconds() < seconds || static_cast<int>(job_s.size()) < kMinDenseJobs) {
    fac.reset();
    const CpuTicks c0 = cpu_ticks();
    Timer t;
    fac.emplace(solver.factor(a));
    const double tf = t.seconds();
    t.reset();
    const Matrix<double> x = fac->solve(b);
    const double ts = t.seconds();
    job_steal.push_back(steal_share(c0, cpu_ticks()));
    factor_s.push_back(tf);
    solve_s.push_back(ts);
    job_s.push_back(tf + ts);
    const double h = verify::hpl3(a, x, b);
    worst_hpl3 = std::max(worst_hpl3, h);
    rep.record(h <= kMaxHpl3 && steps.ok(fac->stats()),
               "factor+solve: hpl3 " + std::to_string(h) + ", " + fmt_steps(fac->stats()));
  }

  const auto quiet = pb::least_stolen(job_steal, kMinQuiet);
  const std::vector<double> jobs = pb::pick(job_s, quiet);
  double busy = 0.0;
  for (double j : jobs) busy += j;
  const double f = pb::median(pb::pick(factor_s, quiet));
  rep.set("factor_s", f, "s");
  rep.set("gflops", pb::lu_gflops(w.n, f), "GF/s");
  rep.set("solve_s", pb::median(pb::pick(solve_s, quiet)), "s");
  rep.set("jobs_per_s", static_cast<double>(jobs.size()) / busy, "1/s");
  rep.set("latency_us.p50", 1e6 * pb::median(jobs), "us");
  rep.set("latency_us.p99", 1e6 * pb::tail_value(jobs), "us");
  rep.set("setup_s", pb::median(pb::pick(setup, pb::least_stolen(setup_steal, kMinQuiet))), "s");
  std::printf("jobs (factor + one solve): %zu, worst hpl3 %.3g, steps %s\n", job_s.size(),
              worst_hpl3, fac ? fmt_steps(fac->stats()).c_str() : "-");
  std::printf("quiet jobs (least host steal): %zu, steal <= %.1f%%; latency tail is "
              "their p%.1f\n",
              jobs.size(), 100.0 * pb::percentile(pb::pick(job_steal, quiet), 100.0),
              pb::tail_percentile(jobs.size()));
  std::printf("factor_s over all jobs, min / p25 / p50 / p75 / max: %.4f %.4f %.4f %.4f %.4f\n",
              pb::percentile(factor_s, 0.0), pb::percentile(factor_s, 25.0),
              pb::median(factor_s), pb::percentile(factor_s, 75.0),
              pb::percentile(factor_s, 100.0));
}

// ---------------------------------------------------------------------------
// Traced per-layer split of one factorization problem
// ---------------------------------------------------------------------------

struct KprofDiff {
  std::map<std::string, std::uint64_t> calls, flops;
};

KprofDiff kprof_diff(const obs::KernelProfile& before, const obs::KernelProfile& after) {
  KprofDiff d;
  for (const auto& c : counted_classes()) {
    const auto i = static_cast<std::size_t>(c.second);
    d.calls[c.first] = after[i].calls - before[i].calls;
    d.flops[c.first] = after[i].flops - before[i].flops;
  }
  return d;
}

// Single-threaded kern::gemm rate on nb x nb tiles (GF/s, best of 7 samples
// of about 0.1 GF each).
double gemm_peak_gflops(int nb) {
  Matrix<double> x(nb, nb), y(nb, nb), z(nb, nb);
  Rng rng(1);
  for (int j = 0; j < nb; ++j)
    for (int i = 0; i < nb; ++i) {
      x(i, j) = rng.gaussian();
      y(i, j) = rng.gaussian();
      z(i, j) = rng.gaussian();
    }
  const double flops = 2.0 * nb * nb * static_cast<double>(nb);
  const long reps = std::max(1L, static_cast<long>(1e8 / flops));
  const double per_call = bench::best_of(7, reps, [&] {
    kern::gemm(kern::Trans::No, kern::Trans::No, -1.0, x.cview(), y.cview(), 1.0,
               z.view());
  });
  return flops / per_call * 1e-9;
}

// Split factor time over tile / runtime / api (and the runtime's busy time
// over kernel classes and steps) for one problem, by timing Solver::factor
// untraced and traced, then the three calls it composes one by one:
// TileMatrix::from_dense, rt::parallel_hybrid_factor and
// core::Factorization::adopt. Sets every tile/runtime/api/kernels/core/
// solve/verify metric and prints the per-layer table.
void trace_factor_layers(const Matrix<double>& a, const Matrix<double>& b,
                         const SolverConfig& cfg, double seconds,
                         StepCheck& steps, Report& rep) {
  const int nb = cfg.tile_size();
  const int mt = (a.rows() + nb - 1) / nb;
  rt::SchedulerOptions traced;
  traced.trace = true;
  rt::SchedulerStats solver_stats;
  const Solver solver(cfg);
  const Solver traced_solver(SolverConfig(cfg).scheduler(traced).scheduler_stats(&solver_stats));
  const core::HybridOptions options = cfg.hybrid_options();
  (void)solver.factor(a);  // warm-up

  std::vector<double> untraced_s, traced_s, from_dense_s, driver_s, adopt_s;
  std::vector<double> span_s, busy_s, idle_s, busy_frac, task_us, tasks, critical_path,
      steals_v;
  std::map<std::string, std::vector<double>> class_busy;
  std::vector<std::vector<double>> step_busy;
  KprofDiff kp;
  std::vector<bool> is_qr;
  std::optional<core::Factorization> fac;
  Timer clock;
  while (clock.seconds() < seconds || static_cast<int>(driver_s.size()) < kMinTracedReps) {
    Timer t;
    (void)solver.factor(a);
    untraced_s.push_back(t.seconds());
    t.reset();
    const core::Factorization tf = traced_solver.factor(a);
    traced_s.push_back(t.seconds());
    rep.record(steps.ok(tf.stats()), "traced factorization ran " + fmt_steps(tf.stats()));

    fac.reset();
    t.reset();
    TileMatrix<double> tiles = TileMatrix<double>::from_dense(a, nb);
    from_dense_s.push_back(t.seconds());
    const auto criterion = make_criterion(cfg.criterion());
    core::TransformLog log;
    rt::SchedulerStats st;
    const obs::KernelProfile k0 = obs::kernel_profile();
    t.reset();
    core::FactorizationStats stats = rt::parallel_hybrid_factor(
        tiles, *criterion, options, kThreads, &log, traced, &st);
    driver_s.push_back(t.seconds());
    kp = kprof_diff(k0, obs::kernel_profile());
    is_qr.clear();
    for (const auto& s : stats.steps) is_qr.push_back(s.kind == core::StepKind::QR);
    rep.record(steps.ok(stats), "driver factorization ran " + fmt_steps(stats));
    t.reset();
    fac.emplace(core::Factorization::adopt(a, std::move(tiles), std::move(stats),
                                           std::move(log), options));
    adopt_s.push_back(t.seconds());

    const pb::TraceBreakdown tb = pb::analyze_trace(st.trace, kThreads);
    span_s.push_back(tb.span_s);
    idle_s.push_back(tb.idle_s);
    busy_frac.push_back(tb.busy_frac);
    busy_s.push_back(tb.busy_s);
    task_us.push_back(tb.task_us_mean);
    tasks.push_back(static_cast<double>(st.tasks_executed));
    critical_path.push_back(static_cast<double>(st.critical_path));
    steals_v.push_back(static_cast<double>(st.steals));
    for (const auto& c : task_classes()) {
      const auto it = tb.class_busy_s.find(c);
      class_busy[c].push_back(it == tb.class_busy_s.end() ? 0.0 : it->second);
    }
    step_busy.resize(std::max(step_busy.size(), tb.step_busy_s.size()));
    for (std::size_t k = 0; k < tb.step_busy_s.size(); ++k)
      step_busy[k].push_back(tb.step_busy_s[k]);
  }

  std::vector<double> serial_s;
  {
    const Solver serial(SolverConfig(cfg).backend(Backend::Serial));
    for (int i = 0; i < 2; ++i) {
      Timer t;
      (void)serial.factor(a);
      serial_s.push_back(t.seconds());
    }
  }

  const obs::KernelProfile s0 = obs::kernel_profile();
  const Matrix<double> x = fac->solve(b);
  KprofDiff solve_kp = kprof_diff(s0, obs::kernel_profile());
  const double hpl3 = verify::hpl3(a, x, b);
  rep.record(hpl3 <= kMaxHpl3, "traced solve: hpl3 " + std::to_string(hpl3));

  const double untraced = pb::median(untraced_s);
  const double factor = pb::median(traced_s);
  const double from_dense = pb::median(from_dense_s);
  const double driver = pb::median(driver_s);
  const double adopt = pb::median(adopt_s);
  const double span = pb::median(span_s);
  const double unattributed = pb::unattributed_s(factor, from_dense, driver, adopt);
  const double serial = pb::median(serial_s);
  rep.set("tile.from_dense_s", from_dense, "s");
  rep.set("runtime.driver_s", driver, "s");
  rep.set("runtime.span_s", span, "s");
  rep.set("runtime.engine_startup_s", driver - span, "s");
  rep.set("runtime.busy_frac", pb::median(busy_frac), "ratio");
  rep.set("runtime.idle_s", pb::median(idle_s), "s");
  rep.set("runtime.tasks", pb::median(tasks), "count");
  rep.set("runtime.critical_path", pb::median(critical_path), "count");
  rep.set("runtime.steals", pb::median(steals_v), "count");
  rep.set("runtime.task_us.mean", pb::median(task_us), "us");
  rep.set("runtime.serial_factor_s", serial, "s");
  rep.set("runtime.scaling_eff", serial / (kThreads * untraced), "ratio");
  rep.set("runtime.trace_overhead_frac", factor / untraced - 1.0, "ratio");
  rep.set("api.factor_s", factor, "s");
  rep.set("api.adopt_s", adopt, "s");
  rep.set("api.unattributed_s", unattributed, "s");

  // Class busy time is reported as a share of all busy worker time: a class
  // a workload never runs (QR on the LU workloads) is then a zero share, not
  // a zero time.
  const double busy_total = pb::median(busy_s);
  rep.set("runtime.busy_s", busy_total, "s");
  std::map<std::string, double> busy;
  for (const auto& c : task_classes()) {
    busy[c] = pb::median(class_busy[c]);
    rep.set("kernels." + c + ".busy_frac", busy_total > 0.0 ? busy[c] / busy_total : 0.0,
            "ratio");
  }
  for (const auto& c : counted_classes()) {
    rep.set(std::string("kernels.") + c.first + ".calls",
            static_cast<double>(kp.calls[c.first]), "count");
    rep.set(std::string("kernels.") + c.first + ".gflop",
            1e-9 * static_cast<double>(kp.flops[c.first]), "GF");
    rep.set(std::string("solve.") + c.first + ".calls",
            static_cast<double>(solve_kp.calls[c.first]), "count");
  }
  const auto rate = [](double gflop, double s) { return s > 0.0 ? gflop / s : 0.0; };
  const double gemm_gflops = rate(1e-9 * static_cast<double>(kp.flops["gemm"]), busy["gemm"]);
  const double qr_apply_gflop =
      1e-9 * static_cast<double>(kp.flops["unmqr"] + kp.flops["tsmqr"] + kp.flops["ttmqr"]);
  const double peak = gemm_peak_gflops(nb);
  rep.set("kernels.gemm.gflops", gemm_gflops, "GF/s");
  rep.set("kernels.qr_apply.gflops", rate(qr_apply_gflop, busy["qr-apply"]), "GF/s");
  rep.set("kernels.gemm_peak_gflops", peak, "GF/s");
  rep.set("kernels.gemm_frac_of_peak", gemm_gflops / peak, "ratio");

  std::vector<double> step_median;
  for (const auto& s : step_busy) step_median.push_back(pb::median(s));
  const int qr = static_cast<int>(std::count(is_qr.begin(), is_qr.end(), true));
  rep.set("core.lu_steps", static_cast<double>(is_qr.size()) - qr, "count");
  rep.set("core.qr_steps", qr, "count");
  rep.set("core.qr_lu_step_cost_ratio", pb::qr_lu_step_cost_ratio(step_median, is_qr, mt, nb),
          "ratio");
  rep.set("verify.hpl3", hpl3, "ratio");

  const auto row = [factor](const char* layer, const char* what, double s) {
    std::printf("  %-8s %-28s %10.4f s  %6.1f%%\n", layer, what, s, 100.0 * s / factor);
  };
  std::printf("\nper-layer split of factor_s (medians of %zu traced repetitions, n=%d nb=%d):\n",
              driver_s.size(), a.rows(), nb);
  row("tile", "from_dense", from_dense);
  row("runtime", "parallel_hybrid_factor", driver);
  row("", "  engine start-up/drain", driver - span);
  row("", "  task span", span);
  for (const auto& c : task_classes())
    row("", ("    busy/4 " + c).c_str(), busy[c] / kThreads);
  row("", "    idle/4", pb::median(idle_s) / kThreads);
  row("api", "Factorization::adopt", adopt);
  row("api", "unattributed", unattributed);
  row("=", "factor_s (traced)", factor);
  std::printf("tracing overhead: traced factor_s %.4f s vs untraced %.4f s (%+.1f%%)\n",
              factor, untraced, 100.0 * (factor / untraced - 1.0));
}

// ---------------------------------------------------------------------------
// Serve
// ---------------------------------------------------------------------------

/// One single-solve request as the client saw it.
struct ServeSample {
  double done_s = 0.0;      ///< wait() return, on the run's clock
  double submit_us = 0.0;   ///< client thread time inside submit_solve
  double latency_us = 0.0;  ///< submit to wait() return
  double queue_us = 0.0, factor_us = 0.0, solve_us = 0.0;
  bool hit = false;
};

serve::ServiceConfig serve_config(SolverConfig solver) {
  serve::ServiceConfig cfg;
  cfg.solver = std::move(solver);
  cfg.threads = kThreads;
  return cfg;
}

// serve_mixed: default config apart from the thread count and tile 64.
serve::ServiceConfig mixed_config() { return serve_config(SolverConfig().tile_size(64)); }

// Submit one single solve, wait, and check the reply: residual, and a cache
// hit exactly when `expect_hit`. `failure` is left empty when all is well.
std::optional<ServeSample> serve_one(serve::SolveService& svc, const Matrix<double>& a,
                                     const Matrix<double>& b, bool expect_hit,
                                     std::string& failure, const Timer* clock = nullptr) {
  Matrix<double> a_in = a, b_in = b;
  Timer t;
  serve::JobHandle h = svc.submit_solve(std::move(a_in), std::move(b_in));
  ServeSample s;
  s.submit_us = 1e6 * t.seconds();
  h.wait();
  s.latency_us = 1e6 * t.seconds();
  if (clock) s.done_s = clock->seconds();
  try {
    const serve::SolveReply r = h.get();
    s.queue_us = us(r.queue_us);
    s.factor_us = us(r.factor_us);
    s.solve_us = us(r.solve_us);
    s.hit = r.cache_hit;
    const double hpl3 = verify::hpl3(a, r.x, b);
    if (!(hpl3 <= kMaxHpl3)) failure = "hpl3 " + std::to_string(hpl3);
    if (s.hit != expect_hit)
      failure += std::string(failure.empty() ? "" : ", ") +
                 (s.hit ? "unexpected hit" : "unexpected miss");
    return s;
  } catch (const std::exception& e) {
    failure = std::string("threw: ") + e.what();
    return std::nullopt;
  }
}

void set_serve_layer_metrics(const std::vector<ServeSample>& samples,
                             const serve::ServiceStats& st, Report& rep) {
  std::vector<double> submit, queue, factor, solve;
  for (const auto& s : samples) {
    submit.push_back(s.submit_us);
    queue.push_back(s.queue_us);
    (s.hit ? solve : factor).push_back(s.hit ? s.solve_us : s.factor_us);
  }
  rep.set("serve.submit_us.p50", pb::median(submit), "us");
  rep.set("serve.queue_us.p50", pb::median(queue), "us");
  rep.set("serve.queue_us.p99", pb::percentile(queue, 99.0), "us");
  rep.set("serve.factor_us.p50", pb::median(factor), "us");
  rep.set("serve.solve_us.p50", pb::median(solve), "us");
  rep.set("serve.cache_hit_rate", st.cache.hit_rate(), "ratio");
  rep.set("serve.batch_fill_mean", st.batch_fill_mean, "count");
  rep.set("serve.failed", static_cast<double>(st.failed), "count");
  rep.set("serve.rejected", static_cast<double>(st.rejected), "count");
  rep.set("serve.shed", static_cast<double>(st.shed), "count");
  rep.set("serve.retries", static_cast<double>(st.retries), "count");
  std::printf("serve: %zu single solves (%zu cold)\n", samples.size(), factor.size());
}

// The dense workloads' serve layer: their own system through a SolveService
// with the workload's solver config, once cold and kProbeHits times hot.
void probe_serve_layer(const Matrix<double>& a, const Matrix<double>& b,
                       const SolverConfig& cfg, Report& rep) {
  serve::SolveService svc(serve_config(cfg));
  std::vector<ServeSample> samples;
  for (int i = 0; i <= kProbeHits; ++i) {
    const Matrix<double> bi = i == 0 ? b : bench::rhs_for(a.rows(), 7000 + static_cast<std::uint64_t>(i));
    std::string failure;
    const auto s = serve_one(svc, a, bi, /*expect_hit=*/i > 0, failure);
    rep.record(failure.empty(), "serve probe solve: " + failure);
    if (s) samples.push_back(*s);
  }
  set_serve_layer_metrics(samples, svc.stats(), rep);
}

/// One job completed correctly (a single solve or a batch member).
struct Completion {
  double done_s = 0.0;  ///< on the run's clock
  double flops = 0.0;   ///< (2/3) n^3 when the job factored, else 0
};

struct ClientLog {
  std::vector<ServeSample> singles;
  std::vector<Completion> completions;
  std::uint64_t designed_hits = 0, measured_hits = 0;
  long attempted = 0;
  std::vector<std::string> failures;
};

// One closed-loop client: issue the next request of its stream only after
// the previous one returned.
// `bases` holds one generated matrix per order the mix sends; fresh systems
// are derived from them (pb::fresh_matrix).
void client_loop_body(serve::SolveService& svc, pb::ServeStream& stream,
                      const std::map<int, Matrix<double>>& bases, const Timer& clock,
                      double seconds, std::atomic<std::size_t>& singles_done, ClientLog& log) {
  using Kind = pb::ServeRequest::Kind;
  std::vector<Matrix<double>> recent(pb::ServeStream::kRecent);
  const auto fail = [&log](std::string what) { log.failures.push_back(std::move(what)); };
  const auto factor_flops = [](int n) { return (2.0 / 3.0) * n * n * static_cast<double>(n); };
  for (;;) {
    const double now = clock.seconds();
    if (now >= kServeOvertime * seconds) break;
    if (now >= seconds && singles_done.load() >= kTailSamples) break;
    const pb::ServeRequest r = stream.next();
    if (r.kind == Kind::Batch) {
      std::vector<Matrix<double>> as, bs;
      for (const std::uint64_t s : r.batch_seeds) {
        as.push_back(pb::fresh_matrix(bases.at(r.n), s));
        bs.push_back(bench::rhs_for(r.n, s + 1));
      }
      std::vector<serve::JobHandle> handles = svc.submit_many(as, bs);
      for (const auto& h : handles) h.wait();
      const double done = clock.seconds();
      for (std::size_t i = 0; i < handles.size(); ++i) {
        ++log.attempted;
        try {
          const serve::SolveReply reply = handles[i].get();
          const double hpl3 = verify::hpl3(as[i], reply.x, bs[i]);
          if (!(hpl3 <= kMaxHpl3)) {
            fail("batch member hpl3 " + std::to_string(hpl3));
            continue;
          }
          log.completions.push_back({done, reply.cache_hit ? 0.0 : factor_flops(r.n)});
        } catch (const std::exception& e) {
          fail(std::string("batch member threw: ") + e.what());
        }
      }
      continue;
    }
    const std::size_t slot = static_cast<std::size_t>(r.slot);
    if (r.kind == Kind::Fresh) recent[slot] = pb::fresh_matrix(bases.at(r.n), r.seed);
    const bool repeat = r.kind == Kind::Repeat;
    log.designed_hits += repeat ? 1 : 0;
    ++log.attempted;
    std::string failure;
    const auto s = serve_one(svc, recent[slot], bench::rhs_for(r.n, r.rhs_seed), repeat,
                             failure, &clock);
    singles_done.fetch_add(1);
    if (!s || !failure.empty()) {
      fail("single solve n=" + std::to_string(r.n) + ": " + failure);
      continue;
    }
    log.singles.push_back(*s);
    log.completions.push_back({s->done_s, s->hit ? 0.0 : factor_flops(r.n)});
    log.measured_hits += s->hit ? 1 : 0;
  }
}

// Thread entry of a client: an exception ends this client's loop and is
// recorded as a failure.
void client_loop(serve::SolveService& svc, pb::ServeStream stream,
                 const std::map<int, Matrix<double>>& bases, const Timer& clock,
                 double seconds, std::atomic<std::size_t>& singles_done, ClientLog& log) {
  try {
    client_loop_body(svc, stream, bases, clock, seconds, singles_done, log);
  } catch (const std::exception& e) {
    ++log.attempted;
    log.failures.push_back(std::string("client stopped: ") + e.what());
  }
}

struct ServeRun {
  std::vector<ServeSample> singles;
  std::vector<Completion> completions;
  std::vector<pb::StealWindow> steal;  ///< consecutive windows covering the loop
  std::uint64_t designed_hits = 0, measured_hits = 0;
  double wall_s = 0.0;
  serve::ServiceStats stats;
};

ServeRun run_serve_loop(std::uint64_t seed, double seconds, Report& rep) {
  ServeRun run;
  serve::SolveService svc(mixed_config());
  std::map<int, Matrix<double>> bases;
  for (const int n : pb::ServeStream::kFreshOrders)
    bases[n] = gen::generate(gen::MatrixKind::Random, n, seed + static_cast<std::uint64_t>(n));
  const int nb = pb::ServeStream::kBatchOrder;
  bases[nb] = gen::generate(gen::MatrixKind::Random, nb, seed + static_cast<std::uint64_t>(nb));
  std::vector<ClientLog> logs(kThreads);
  std::atomic<std::size_t> singles_done{0};
  std::atomic<bool> stop_monitor{false};
  Timer clock;
  {
    // Samples host steal over consecutive windows until the clients are done.
    std::thread monitor([&run, &clock, &stop_monitor] {
      CpuTicks prev = cpu_ticks();
      double t_prev = clock.seconds();
      while (!stop_monitor.load()) {
        std::this_thread::sleep_for(kStealWindow);
        const CpuTicks now = cpu_ticks();
        const double t = clock.seconds();
        run.steal.push_back({t_prev, t, steal_share(prev, now)});
        prev = now;
        t_prev = t;
      }
    });
    std::vector<std::thread> clients;
    for (int c = 0; c < kThreads; ++c)
      clients.emplace_back(client_loop, std::ref(svc), pb::ServeStream(seed, c),
                           std::cref(bases), std::cref(clock), seconds, std::ref(singles_done),
                           std::ref(logs[static_cast<std::size_t>(c)]));
    for (auto& t : clients) t.join();
    run.wall_s = clock.seconds();
    stop_monitor.store(true);
    monitor.join();
  }
  run.stats = svc.stats();
  for (auto& log : logs) {
    run.singles.insert(run.singles.end(), log.singles.begin(), log.singles.end());
    run.completions.insert(run.completions.end(), log.completions.begin(),
                           log.completions.end());
    run.designed_hits += log.designed_hits;
    run.measured_hits += log.measured_hits;
    rep.record_ok(log.attempted - static_cast<long>(log.failures.size()));
    for (const auto& f : log.failures) rep.record(false, f);
  }
  rep.record(run.singles.size() >= kTailSamples,
             "only " + std::to_string(run.singles.size()) +
                 " single solves; a p99 needs " + std::to_string(kTailSamples));
  rep.record(run.designed_hits == run.measured_hits,
             "single-solve hits " + std::to_string(run.measured_hits) + " != designed " +
                 std::to_string(run.designed_hits));
  std::printf("closed loop: %d clients, %.2f s, %zu jobs ok, %zu single solves, "
              "hit rate %.4f (designed %.4f)\n",
              kThreads, run.wall_s, run.completions.size(), run.singles.size(),
              static_cast<double>(run.measured_hits) / static_cast<double>(run.singles.size()),
              static_cast<double>(run.designed_hits) / static_cast<double>(run.singles.size()));
  return run;
}

void run_serve_mixed(std::uint64_t seed, double seconds, Report& rep) {
  // Set-up: build the service and serve one cold request.
  const Matrix<double> a0 = gen::generate(gen::MatrixKind::Random, 384, seed + 0x5e);
  const Matrix<double> b0 = bench::rhs_for(384, seed + 0x5f);
  std::vector<double> setup, setup_steal;
  for (int i = 0; i < kSetupReps; ++i) {
    const CpuTicks c0 = cpu_ticks();
    Timer t;
    serve::SolveService svc(mixed_config());
    Matrix<double> a_in = a0, b_in = b0;
    serve::JobHandle h = svc.submit_solve(std::move(a_in), std::move(b_in));
    h.wait();
    setup.push_back(t.seconds());
    setup_steal.push_back(steal_share(c0, cpu_ticks()));
    try {
      const double hpl3 = verify::hpl3(a0, h.get().x, b0);
      rep.record(hpl3 <= kMaxHpl3, "set-up solve hpl3 " + std::to_string(hpl3));
    } catch (const std::exception& e) {
      rep.record(false, std::string("set-up solve threw: ") + e.what());
    }
  }

  const ServeRun run = run_serve_loop(seed, seconds, rep);
  // Only what completed in the windows with the least host steal counts.
  const pb::QuietWindows quiet(run.steal, kMinQuiet);
  std::vector<double> latency, factor, solve;
  for (const auto& s : run.singles) {
    if (!quiet.contains(s.done_s)) continue;
    latency.push_back(s.latency_us);
    (s.hit ? solve : factor).push_back(s.hit ? s.solve_us : s.factor_us);
  }
  double jobs = 0.0, flops = 0.0;
  for (const auto& c : run.completions) {
    if (!quiet.contains(c.done_s)) continue;
    jobs += 1.0;
    flops += c.flops;
  }
  rep.set("factor_s", 1e-6 * pb::median(factor), "s");
  rep.set("gflops", 1e-9 * flops / quiet.seconds(), "GF/s");
  rep.set("solve_s", 1e-6 * pb::median(solve), "s");
  rep.set("jobs_per_s", jobs / quiet.seconds(), "1/s");
  rep.set("latency_us.p50", pb::median(latency), "us");
  rep.set("latency_us.p99", pb::tail_value(latency), "us");
  rep.set("setup_s", pb::median(pb::pick(setup, pb::least_stolen(setup_steal, kMinQuiet))), "s");
  std::printf("quiet windows (least host steal): %zu of %zu, %.2f s, steal <= %.1f%%; "
              "%zu single solves in them, latency tail is their p%.1f\n",
              quiet.kept(), quiet.windows(), quiet.seconds(), 100.0 * quiet.max_steal(),
              latency.size(), pb::tail_percentile(latency.size()));
}

// ---------------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      args.trace = val == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty();
}

int run(const Args& args) {
  std::printf("# luqr_perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("# nproc=%d threads=%d compiler=%s build_flags=%s git_sha=%s\n", nproc(),
              kThreads, bench::compiler_id().c_str(), bench::build_flags().c_str(),
              bench::git_sha().c_str());
  Report rep;

  if (args.workload == "serve_mixed") {
    if (!args.trace) {
      run_serve_mixed(args.seed, args.seconds, rep);
      rep.set("peak_rss_mb", peak_rss_mb(), "MiB");
      rep.emit(end_to_end_names());
      return 0;
    }
    const ServeRun run = run_serve_loop(args.seed, args.seconds, rep);
    set_serve_layer_metrics(run.singles, run.stats, rep);
    // Factor layers of the largest request the mix sends, with the
    // service's solver config.
    const int n = pb::ServeStream::kFreshOrders.back();
    const Matrix<double> a = gen::generate(gen::MatrixKind::Random, n, args.seed);
    const Matrix<double> b = bench::rhs_for(n, args.seed + 1);
    SolverConfig cfg = mixed_config().solver;
    cfg.threads(kThreads);
    StepCheck steps;
    trace_factor_layers(a, b, cfg, 0.2 * args.seconds, steps, rep);
    rep.emit(per_layer_names());
    return 0;
  }

  for (const DenseWorkload& w : kDenseWorkloads) {
    if (args.workload != w.name) continue;
    std::printf("# n=%d nb=%d criterion=%s\n", w.n, w.nb, w.criterion.name().c_str());
    // Inputs are generated outside every timed region.
    const Matrix<double> a = gen::generate(gen::MatrixKind::Random, w.n, args.seed);
    const Matrix<double> b = bench::rhs_for(w.n, args.seed + 1);
    if (!args.trace) {
      run_dense(w, a, b, args.seconds, rep);
      rep.set("peak_rss_mb", peak_rss_mb(), "MiB");
      rep.emit(end_to_end_names());
      return 0;
    }
    StepCheck steps(w.lu_steps, w.qr_steps);
    trace_factor_layers(a, b, dense_config(w), args.seconds, steps, rep);
    probe_serve_layer(a, b, dense_config(w), rep);
    rep.emit(per_layer_names());
    return 0;
  }
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <lu_dense|hybrid_dense|lu_fine|serve_mixed> "
                 "[--seed N] [--seconds S] [--trace 0|1]\n",
                 argv[0]);
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "luqr_perfbench: %s\n", e.what());
    return 2;
  }
}
