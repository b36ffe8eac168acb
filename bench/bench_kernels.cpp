// Microbenchmarks for every tile kernel — the calibration aid for the
// simulator's efficiency table, the regression guard on kernel throughput,
// and (with --json) the machine-readable perf record the CI perf-smoke job
// archives.
//
// The headline rows compare the packed cache-blocked GEMM against the
// seed's axpy/dot loops (gemm_unblocked) for all four transpose variants:
// the `speedup` metric at nb >= 128 is the number the kernel-layer
// acceptance criterion tracks. Scale knobs:
//   LUQR_SAMPLES   best-of-N samples per row              (default 3)
//   LUQR_FLOPS     target flops per timing sample         (default 2e8)
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "kernels/pack.hpp"

namespace {

using namespace luqr;
using namespace luqr::kern;

int g_samples = 3;
double g_target_flops = 2e8;

Matrix<double> rnd(int m, int n, std::uint64_t seed) {
  Matrix<double> a(m, n);
  Rng rng(seed);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) a(i, j) = rng.gaussian();
  return a;
}

Matrix<double> rnd_upper(int n, std::uint64_t seed) {
  Matrix<double> a(n, n);
  Rng rng(seed);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i <= j; ++i) a(i, j) = rng.gaussian();
    a(j, j) += 4.0;
  }
  return a;
}

long reps_for(double flops) {
  return std::max(1L, static_cast<long>(g_target_flops / flops));
}

TextTable& table() {
  static TextTable t = [] {
    TextTable t0;
    t0.header({"kernel", "nb", "GFLOP/s", "best s", "reps"});
    return t0;
  }();
  return t;
}

/// Time one kernel invocation, print a table row, record a JSON row.
/// Returns the measured GFLOP/s.
template <typename F>
double run_case(bench::JsonReport& report, const std::string& name, int nb,
                double flops, F&& fn) {
  const long reps = reps_for(flops);
  const double secs = bench::best_of(g_samples, reps, fn);
  const double gflops = flops / secs / 1e9;
  table().row({name, std::to_string(nb), fmt_fixed(gflops, 2),
               fmt_sci(secs, 3), std::to_string(reps)});
  report.row(name)
      .metric("nb", nb)
      .metric("gflops", gflops)
      .metric("best_seconds", secs)
      .metric("reps", reps)
      .metric("samples", g_samples);
  return gflops;
}

const char* trans_name(Trans t) { return t == Trans::No ? "n" : "t"; }

// One GEMM variant at one size, blocked and unblocked, plus the speedup row.
template <typename T>
void bench_gemm_variant(bench::JsonReport& report, const char* type_tag,
                        Trans ta, Trans tb, int nb) {
  const double flops = 2.0 * nb * nb * nb;
  Matrix<T> a(nb, nb), b(nb, nb), c(nb, nb);
  {
    Rng rng(1);
    for (int j = 0; j < nb; ++j)
      for (int i = 0; i < nb; ++i) {
        a(i, j) = static_cast<T>(rng.gaussian());
        b(i, j) = static_cast<T>(rng.gaussian());
        c(i, j) = static_cast<T>(rng.gaussian());
      }
  }
  const std::string variant =
      std::string("gemm_") + trans_name(ta) + trans_name(tb) + "_" + type_tag;
  const double blocked =
      run_case(report, variant + "_blocked", nb, flops, [&] {
        gemm_blocked(ta, tb, T(-1), a.cview(), b.cview(), T(1), c.view());
      });
  const double simple =
      run_case(report, variant + "_simple", nb, flops, [&] {
        gemm_unblocked(ta, tb, T(-1), a.cview(), b.cview(), T(1), c.view());
      });
  const double speedup = blocked / simple;
  table().row({variant + "_speedup", std::to_string(nb),
               fmt_fixed(speedup, 2) + "x", "", ""});
  report.row(variant + "_speedup").metric("nb", nb).metric("speedup", speedup);
}

void bench_factor_kernels(bench::JsonReport& report, int nb) {
  // GETRF.
  {
    const auto a0 = rnd(nb, nb, 11);
    std::vector<int> piv;
    run_case(report, "getrf", nb, (2.0 / 3.0) * nb * nb * nb, [&] {
      auto a = a0;
      getrf(a.view(), piv);
    });
  }
  // TRSM (right, upper).
  {
    const auto u = rnd_upper(nb, 12);
    auto b = rnd(nb, nb, 13);
    run_case(report, "trsm", nb, 1.0 * nb * nb * nb, [&] {
      trsm(Side::Right, Uplo::Upper, Trans::No, Diag::NonUnit, 1.0, u.cview(),
           b.view());
    });
  }
  // GEQRT.
  {
    const auto a0 = rnd(nb, nb, 14);
    Matrix<double> t(nb, nb);
    run_case(report, "geqrt", nb, (4.0 / 3.0) * nb * nb * nb, [&] {
      auto a = a0;
      geqrt(a.view(), t.view());
    });
  }
  // UNMQR apply (the W = V^T C / C -= V W shape).
  {
    auto v = rnd(nb, nb, 15);
    Matrix<double> t(nb, nb);
    geqrt(v.view(), t.view());
    auto c = rnd(nb, nb, 16);
    run_case(report, "unmqr", nb, 4.0 * nb * nb * nb, [&] {
      unmqr(Trans::Yes, v.cview(), t.cview(), c.view());
    });
  }
  // TSQRT + TSMQR.
  {
    const auto r0 = rnd_upper(nb, 17);
    const auto v0 = rnd(nb, nb, 18);
    Matrix<double> t(nb, nb);
    run_case(report, "tsqrt", nb, 2.0 * nb * nb * nb, [&] {
      auto r = r0;
      auto v = v0;
      tsqrt(r.view(), v.view(), t.view());
    });
    auto r = r0;
    auto v = v0;
    tsqrt(r.view(), v.view(), t.view());
    auto c1 = rnd(nb, nb, 19), c2 = rnd(nb, nb, 20);
    run_case(report, "tsmqr", nb, 4.0 * nb * nb * nb, [&] {
      tsmqr(Trans::Yes, v.cview(), t.cview(), c1.view(), c2.view());
    });
  }
  // TTQRT + TTMQR.
  {
    const auto r1_0 = rnd_upper(nb, 21);
    const auto r2_0 = rnd_upper(nb, 22);
    Matrix<double> t(nb, nb);
    run_case(report, "ttqrt", nb, 1.0 * nb * nb * nb, [&] {
      auto r1 = r1_0;
      auto r2 = r2_0;
      ttqrt(r1.view(), r2.view(), t.view());
    });
    auto r1 = r1_0;
    auto r2 = r2_0;
    ttqrt(r1.view(), r2.view(), t.view());
    auto c1 = rnd(nb, nb, 23), c2 = rnd(nb, nb, 24);
    run_case(report, "ttmqr", nb, 2.0 * nb * nb * nb, [&] {
      ttmqr(Trans::Yes, r2.cview(), t.cview(), c1.view(), c2.view());
    });
  }
  // TSTRF (incremental pivoting).
  {
    const auto u0 = rnd_upper(nb, 25);
    const auto a0 = rnd(nb, nb, 26);
    Matrix<double> l1(nb, nb);
    std::vector<int> piv;
    run_case(report, "tstrf", nb, 1.0 * nb * nb * nb, [&] {
      auto u = u0;
      auto a = a0;
      tstrf(u.view(), a.view(), l1.view(), piv);
    });
  }
}

}  // namespace

int main(int argc, char** argv) {
  g_samples = static_cast<int>(env_long("LUQR_SAMPLES", 3));
  g_target_flops = env_double("LUQR_FLOPS", 2e8);

  bench::JsonReport report("bench_kernels", argc, argv);
  const GemmBlocking& bl = gemm_blocking();
  report.config("gemm_mc", bl.mc);
  report.config("gemm_kc", bl.kc);
  report.config("gemm_nc", bl.nc);
  report.config("gemm_small_mnk", bl.small_mnk);
  report.config("samples", g_samples);
  report.config("target_flops", g_target_flops);

  // Headline: blocked vs simple GEMM, all four transpose variants (double)
  // plus the nn float variant, across tile sizes.
  for (int nb : {32, 64, 128, 240}) {
    bench_gemm_variant<double>(report, "f64", Trans::No, Trans::No, nb);
  }
  for (int nb : {128, 240}) {
    bench_gemm_variant<double>(report, "f64", Trans::Yes, Trans::No, nb);
    bench_gemm_variant<double>(report, "f64", Trans::No, Trans::Yes, nb);
    bench_gemm_variant<double>(report, "f64", Trans::Yes, Trans::Yes, nb);
    bench_gemm_variant<float>(report, "f32", Trans::No, Trans::No, nb);
  }

  // The full tile-kernel roster at the paper's working sizes (nb = 128 is
  // perfbench's tile; CI floors the QR applies against the GEMM there).
  for (int nb : {64, 128, 240}) bench_factor_kernels(report, nb);

  std::printf("%s", table().str().c_str());
  report.write();
  return 0;
}
