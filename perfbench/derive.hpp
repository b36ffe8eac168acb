// Derivations the benchmark reports, kept apart from the timing code so the
// unit tests in tests/test_derive.cpp can check them on synthetic input:
//   - percentiles and the tail-percentile rule
//   - the paper's GF/s normalization and the LU-model flops of one step
//   - busy / idle / span / per-class / per-step time from an engine trace
//   - the serve_mixed request generator (closed loop, designed hit fraction)
//   - the selection of samples the host disturbed least (CPU steal)
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "kernels/dense.hpp"
#include "obs/kprof.hpp"
#include "runtime/engine.hpp"

namespace luqr::perfbench {

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/// 1-based nearest rank of the p-th percentile of n samples (0 for p = 0).
/// The tolerance keeps p * n / 100 from rounding up past an exact integer.
inline std::size_t nearest_rank(std::size_t n, double p) {
  const double rank = std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
  return rank <= 0.0 ? 0 : std::min(n, static_cast<std::size_t>(rank));
}

/// Nearest-rank percentile (p in [0, 100]) of `v`; 0 for an empty sample.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[std::max<std::size_t>(nearest_rank(v.size(), p), 1) - 1];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

/// The percentile rule for a tail latency: the highest percentile that has
/// at least ten samples beyond it, up to p99. Returns its 1-based rank among
/// n sorted samples: the nearest-rank p99 once n >= 1000, otherwise the
/// 11th-largest sample, and never below the median (n < 20 leaves no
/// percentile above the median with ten samples beyond it). Moves smoothly
/// with n, so runs with slightly different sample counts stay comparable.
inline std::size_t tail_rank(std::size_t n) {
  if (n == 0) return 0;
  const std::size_t rank = n > 10 ? std::min(nearest_rank(n, 99.0), n - 10) : 0;
  return std::max({rank, nearest_rank(n, 50.0), std::size_t{1}});
}

/// The percentile level tail_rank(n) stands for.
inline double tail_percentile(std::size_t n) {
  return n == 0 ? 0.0 : 100.0 * static_cast<double>(tail_rank(n)) / static_cast<double>(n);
}

/// The sample value at tail_rank; 0 for an empty sample.
inline double tail_value(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[tail_rank(v.size()) - 1];
}

// ---------------------------------------------------------------------------
// Flop models
// ---------------------------------------------------------------------------

/// The paper's normalization: (2/3) n^3 flops per factorization, whatever
/// mix of LU and QR steps actually ran, in GF/s.
inline double lu_gflops(int n, double seconds) {
  const double dn = n;
  return seconds > 0.0 ? (2.0 / 3.0) * dn * dn * dn / seconds * 1e-9 : 0.0;
}

/// LU-model flops of step k of an mt x mt tile factorization with tile size
/// nb: GETRF of the (mt-k) x 1 tile panel, TRSM of the mt-k-1 tiles to its
/// right, and the (mt-k-1)^2 trailing GEMM updates. The common yardstick
/// for the cost of an LU step and a QR step at the same k.
inline double lu_step_model_flops(int mt, int k, int nb) {
  const double r = mt - k, t = r - 1, b = nb;
  return b * b * (r * b - b / 3.0) + t * b * b * b + 2.0 * t * t * b * b * b;
}

// ---------------------------------------------------------------------------
// Engine trace breakdown
// ---------------------------------------------------------------------------

struct TraceBreakdown {
  std::size_t tasks = 0;
  double span_s = 0.0;       ///< first task start to last task end
  double busy_s = 0.0;       ///< summed task durations over all workers
  double idle_s = 0.0;       ///< workers * span - busy
  double busy_frac = 0.0;    ///< busy / (workers * span)
  /// Mean task duration. (The trace has whole-microsecond resolution, so
  /// the median of few-microsecond tasks is quantized; the mean is not.)
  double task_us_mean = 0.0;
  /// Busy seconds per obs::task_class_name bucket ("panel", "gemm", ...).
  std::map<std::string, double> class_busy_s;
  /// Busy seconds per step, indexed by the task tag (the step index k);
  /// untagged tasks are not counted here.
  std::vector<double> step_busy_s;
};

inline TraceBreakdown analyze_trace(const std::vector<rt::TraceEvent>& events,
                                    int workers) {
  TraceBreakdown out;
  out.tasks = events.size();
  if (events.empty()) return out;
  std::uint64_t first = events.front().start_us, last = events.front().end_us;
  for (const auto& e : events) {
    first = std::min(first, e.start_us);
    last = std::max(last, e.end_us);
    const double d = 1e-6 * static_cast<double>(e.end_us - e.start_us);
    out.busy_s += d;
    out.class_busy_s[obs::task_class_name(e.name.c_str())] += d;
    if (e.tag >= 0) {
      if (out.step_busy_s.size() <= static_cast<std::size_t>(e.tag))
        out.step_busy_s.resize(static_cast<std::size_t>(e.tag) + 1, 0.0);
      out.step_busy_s[static_cast<std::size_t>(e.tag)] += d;
    }
  }
  out.span_s = 1e-6 * static_cast<double>(last - first);
  const double capacity = workers * out.span_s;
  out.idle_s = capacity - out.busy_s;
  out.busy_frac = capacity > 0.0 ? out.busy_s / capacity : 0.0;
  out.task_us_mean = 1e6 * out.busy_s / static_cast<double>(out.tasks);
  return out;
}

/// Factor wall time the timed layers do not cover.
inline double unattributed_s(double factor_s, double from_dense_s,
                             double driver_s, double adopt_s) {
  return factor_s - from_dense_s - driver_s - adopt_s;
}

/// QR-step busy time per LU-model flop over LU-step busy time per LU-model
/// flop (paper Table I predicts 2). `is_qr[k]` is the kind of step k. 0 when
/// either kind did not run.
inline double qr_lu_step_cost_ratio(const std::vector<double>& step_busy_s,
                                    const std::vector<bool>& is_qr, int mt,
                                    int nb) {
  double busy[2] = {0.0, 0.0}, flops[2] = {0.0, 0.0};
  const std::size_t steps = std::min(step_busy_s.size(), is_qr.size());
  for (std::size_t k = 0; k < steps; ++k) {
    const int kind = is_qr[k] ? 1 : 0;
    busy[kind] += step_busy_s[k];
    flops[kind] += lu_step_model_flops(mt, static_cast<int>(k), nb);
  }
  if (busy[0] <= 0.0 || busy[1] <= 0.0) return 0.0;
  return (busy[1] / flops[1]) / (busy[0] / flops[0]);
}

// ---------------------------------------------------------------------------
// serve_mixed request generator
// ---------------------------------------------------------------------------

/// One client request of the serve_mixed closed loop.
struct ServeRequest {
  enum class Kind { Fresh, Repeat, Batch };
  Kind kind = Kind::Fresh;
  int n = 0;                  ///< order (Fresh/Repeat); batch members are kBatchOrder
  std::uint64_t seed = 0;     ///< matrix seed (Fresh)
  std::uint64_t rhs_seed = 0; ///< right-hand-side seed (Fresh/Repeat)
  int slot = 0;               ///< ring slot of the matrix (Fresh: written, Repeat: read)
  std::vector<std::uint64_t> batch_seeds;  ///< one matrix seed per member
};

/// A fresh system for the serve_mixed mix: `base` with one column, chosen
/// and refilled from `seed`, replaced. Distinct seeds give distinct matrices
/// (so every fresh request is a cache miss) at O(n) generation cost, which
/// keeps the clients' own CPU use small next to the service's.
inline Matrix<double> fresh_matrix(const Matrix<double>& base, std::uint64_t seed) {
  Matrix<double> a = base;
  Rng rng(seed);
  const int j = static_cast<int>(rng.below(static_cast<std::uint64_t>(a.cols())));
  for (int i = 0; i < a.rows(); ++i) a(i, j) = rng.gaussian();
  return a;
}

/// Deterministic request stream of one serve_mixed client.
///
/// Every kBatchEvery-th request is a submit_many group of kBatchSize distinct
/// kBatchOrder systems. The other requests are single solves, dealt in
/// blocks of kHitBlock: exactly one per block is a fresh matrix (order drawn
/// from kFreshOrders), the rest repeat one of the client's last kRecent
/// fresh matrices, so the designed single-solve hit fraction is exactly
/// (kHitBlock - 1) / kHitBlock over every whole block. The first request of
/// a stream is always fresh (there is nothing to repeat yet).
class ServeStream {
 public:
  static constexpr int kBatchEvery = 8;
  static constexpr int kBatchSize = 8;
  static constexpr int kBatchOrder = 64;
  static constexpr int kHitBlock = 4;
  static constexpr int kRecent = 4;
  static constexpr std::array<int, 3> kFreshOrders = {128, 256, 384};

  ServeStream(std::uint64_t seed, int client)
      : rng_(Rng(seed).fork(0x5E57E000u + static_cast<std::uint64_t>(client))) {}

  ServeRequest next() {
    ServeRequest r;
    ++requests_;
    if (requests_ % kBatchEvery == 0) {
      r.kind = ServeRequest::Kind::Batch;
      r.n = kBatchOrder;
      for (int i = 0; i < kBatchSize; ++i) r.batch_seeds.push_back(rng_.next_u64());
      return r;
    }
    const int pos = static_cast<int>(singles_ % kHitBlock);
    if (pos == 0)
      fresh_pos_ = singles_ == 0 ? 0 : static_cast<int>(rng_.below(kHitBlock));
    ++singles_;
    r.rhs_seed = rng_.next_u64();
    if (pos == fresh_pos_) {
      r.kind = ServeRequest::Kind::Fresh;
      r.n = kFreshOrders[rng_.below(kFreshOrders.size())];
      r.seed = rng_.next_u64();
      r.slot = static_cast<int>(fresh_ % kRecent);
      orders_[static_cast<std::size_t>(r.slot)] = r.n;
      ++fresh_;
    } else {
      r.kind = ServeRequest::Kind::Repeat;
      const std::uint64_t window = std::min<std::uint64_t>(fresh_, kRecent);
      const std::uint64_t idx = fresh_ - 1 - rng_.below(window);
      r.slot = static_cast<int>(idx % kRecent);
      r.n = orders_[static_cast<std::size_t>(r.slot)];
      ++repeats_;
    }
    return r;
  }

  std::uint64_t singles() const { return singles_; }
  /// Single solves designed as cache hits (repeats) so far.
  std::uint64_t designed_hits() const { return repeats_; }

 private:
  Rng rng_;
  std::uint64_t requests_ = 0, singles_ = 0, fresh_ = 0, repeats_ = 0;
  int fresh_pos_ = 0;
  std::array<int, kRecent> orders_{};
};

// ---------------------------------------------------------------------------
// Host interference
// ---------------------------------------------------------------------------
//
// On a shared virtual machine the hypervisor steals CPU time from the guest
// when other guests want it (the "steal" column of /proc/stat). A parallel
// factorization stalls whenever one of its workers' CPUs is stolen, so its
// time grows two to three times faster than the steal share; across runs on
// the machine the benchmark was defined on, steal between 2% and 20% moved
// the median factor time by more than 40%. The end-to-end metrics are
// therefore taken over the samples the host disturbed least.

/// Indices (in sample order) of the samples with the least steal: every
/// sample with no steal when those are at least a quarter of all samples,
/// otherwise the quarter with the least steal; never fewer than
/// min(min_count, n).
inline std::vector<std::size_t> least_stolen(const std::vector<double>& steal,
                                             std::size_t min_count) {
  const std::size_t n = steal.size();
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::stable_sort(idx.begin(), idx.end(),
                   [&steal](std::size_t a, std::size_t b) { return steal[a] < steal[b]; });
  const auto quiet = static_cast<std::size_t>(
      std::count_if(steal.begin(), steal.end(), [](double s) { return s <= 0.0; }));
  idx.resize(std::min(n, std::max({quiet, n / 4, min_count})));
  std::sort(idx.begin(), idx.end());
  return idx;
}

/// The elements of `v` at `idx`.
inline std::vector<double> pick(const std::vector<double>& v,
                                const std::vector<std::size_t>& idx) {
  std::vector<double> out;
  for (const std::size_t i : idx) out.push_back(v[i]);
  return out;
}

/// CPU steal share of one interval of a run (seconds since the run began).
struct StealWindow {
  double t0 = 0.0, t1 = 0.0, steal = 0.0;
};

/// The quiet part of a run split into consecutive windows: the windows
/// least_stolen() keeps.
class QuietWindows {
 public:
  QuietWindows(std::vector<StealWindow> windows, std::size_t min_count)
      : w_(std::move(windows)), keep_(w_.size(), false) {
    std::vector<double> steal;
    for (const auto& w : w_) steal.push_back(w.steal);
    for (const std::size_t i : least_stolen(steal, min_count)) {
      keep_[i] = true;
      seconds_ += w_[i].t1 - w_[i].t0;
      max_steal_ = std::max(max_steal_, w_[i].steal);
      ++kept_;
    }
  }

  /// Whether time t falls in a kept window.
  bool contains(double t) const {
    const auto it = std::upper_bound(w_.begin(), w_.end(), t,
                                     [](double v, const StealWindow& w) { return v < w.t1; });
    return it != w_.end() && it->t0 <= t &&
           keep_[static_cast<std::size_t>(it - w_.begin())];
  }
  double seconds() const { return seconds_; }
  /// The largest steal share among the kept windows.
  double max_steal() const { return max_steal_; }
  std::size_t kept() const { return kept_; }
  std::size_t windows() const { return w_.size(); }

 private:
  std::vector<StealWindow> w_;
  std::vector<bool> keep_;
  double seconds_ = 0.0, max_steal_ = 0.0;
  std::size_t kept_ = 0;
};

}  // namespace luqr::perfbench
