// Tests for the blocked critical-path kernels (PR 5): blocked GETRF /
// GEQRT / TRSM parity against the seed's unblocked loops, bitwise dispatch
// agreement, getrf_restricted edge cases, the TRSM unit-diagonal regression
// (the implicit diagonal must never be read), Left-TRSM width invariance
// (what the wide-RHS solve path relies on), serial-vs-parallel bitwise
// parity at blocked panel sizes, and the engine's DAG-depth / priority-lane
// telemetry.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "api/solver.hpp"
#include "kernels/blas.hpp"
#include "kernels/lapack.hpp"
#include "kernels/pack.hpp"
#include "kernels/reference.hpp"
#include "runtime/engine.hpp"
#include "test_helpers.hpp"

namespace luqr::kern {
namespace {

using luqr::testing::expect_near;
using luqr::testing::random_matrix;

// ---------------------------------------------------------------------------
// Blocked GETRF
// ---------------------------------------------------------------------------

// Split a factored (m x n, m >= n) LU into explicit L (m x n unit lower
// trapezoid) and U (n x n upper).
void split_lu(const Matrix<double>& lu, Matrix<double>& l, Matrix<double>& u) {
  const int m = lu.rows(), n = lu.cols();
  l = Matrix<double>(m, n);
  u = Matrix<double>(n, n);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      if (i > j) {
        l(i, j) = lu(i, j);
      } else if (i == j) {
        l(i, j) = 1.0;
        u(i, j) = lu(i, j);
      } else if (i < n) {
        u(i, j) = lu(i, j);
      }
    }
  }
}

Matrix<double> permuted(const Matrix<double>& a, const std::vector<int>& piv) {
  Matrix<double> pa = a;
  laswp(pa.view(), piv, true);
  return pa;
}

TEST(GetrfBlocked, ReconstructsAboveThreshold) {
  // Sizes straddling block boundaries (jb = 32 by default), square and tall.
  const int shapes[][2] = {{96, 96}, {130, 96}, {200, 128}, {96, 65}};
  for (const auto& sh : shapes) {
    const int m = sh[0], n = sh[1];
    ASSERT_TRUE(panel_wants_blocked(m, n));
    const auto a = random_matrix(m, n, 500 + m + n);
    Matrix<double> lu = a;
    std::vector<int> piv;
    ASSERT_EQ(getrf_blocked(lu.view(), piv), 0);
    Matrix<double> l, u;
    split_lu(lu, l, u);
    Matrix<double> recon(m, n);
    ref_gemm(Trans::No, Trans::No, 1.0, l.cview(), u.cview(), 0.0, recon.view());
    expect_near(recon, permuted(a, piv), 1e-11 * n, "blocked P A = L U");
    // Partial pivoting still bounds the multipliers.
    for (int j = 0; j < n; ++j)
      for (int i = j + 1; i < m; ++i)
        EXPECT_LE(std::abs(lu(i, j)), 1.0 + 1e-12);
  }
}

TEST(GetrfBlocked, AgreesWithUnblockedWithinTolerance) {
  // Same pivots in practice on generic matrices, same factors up to GEMM
  // reassociation.
  const auto a = random_matrix(150, 100, 42);
  Matrix<double> lu_b = a, lu_u = a;
  std::vector<int> piv_b, piv_u;
  ASSERT_EQ(getrf_blocked(lu_b.view(), piv_b), 0);
  ASSERT_EQ(getrf_unblocked(lu_u.view(), piv_u), 0);
  EXPECT_EQ(piv_b, piv_u);
  expect_near(lu_b, lu_u, 1e-11, "blocked vs unblocked factors");
}

TEST(GetrfDispatch, MatchesChosenPathBitwise) {
  for (int size : {40, 128}) {
    const auto a = random_matrix(size, size, 7);
    Matrix<double> lu_dispatch = a, lu_direct = a;
    std::vector<int> piv_dispatch, piv_direct;
    getrf(lu_dispatch.view(), piv_dispatch);
    if (panel_wants_blocked(size, size)) {
      getrf_blocked(lu_direct.view(), piv_direct);
    } else {
      getrf_unblocked(lu_direct.view(), piv_direct);
    }
    EXPECT_EQ(piv_dispatch, piv_direct);
    for (int j = 0; j < size; ++j)
      for (int i = 0; i < size; ++i)
        EXPECT_EQ(lu_dispatch(i, j), lu_direct(i, j));
  }
  EXPECT_TRUE(panel_wants_blocked(128, 128));
  EXPECT_FALSE(panel_wants_blocked(40, 40));
}

// ---------------------------------------------------------------------------
// getrf_restricted edge cases
// ---------------------------------------------------------------------------

TEST(GetrfRestrictedBlocked, LoZeroBitwiseEqualsFull) {
  // lo == 0 is exactly full partial pivoting — on the blocked path too.
  const auto a = random_matrix(160, 96, 8);
  Matrix<double> lu1 = a, lu2 = a;
  std::vector<int> p1, p2;
  getrf(lu1.view(), p1);
  getrf_restricted(lu2.view(), /*lo=*/0, p2);
  EXPECT_EQ(p1, p2);
  for (int j = 0; j < 96; ++j)
    for (int i = 0; i < 160; ++i) EXPECT_EQ(lu1(i, j), lu2(i, j));
}

TEST(GetrfRestricted, LoEqualsMTurnsSearchOff) {
  // lo == m: the candidate set is {j} alone — identical elimination to the
  // unpivoted factorization (compared bitwise at an unblocked size).
  const int m = 24, n = 24;
  const auto a = random_matrix(m, n, 9);
  Matrix<double> lu1 = a, lu2 = a;
  std::vector<int> piv;
  const int info1 = getrf_restricted(lu1.view(), /*lo=*/m, piv);
  const int info2 = getrf_nopiv(lu2.view());
  EXPECT_EQ(info1, info2);
  for (int j = 0; j < n; ++j) EXPECT_EQ(piv[static_cast<std::size_t>(j)], j);
  expect_near(lu1, lu2, 0.0, "restricted(lo=m) == nopiv");
}

TEST(GetrfRestrictedBlocked, LoEqualsMNeverSwaps) {
  const int m = 160, n = 96;  // blocked path
  const auto a = random_matrix(m, n, 10);
  Matrix<double> lu = a;
  std::vector<int> piv;
  ASSERT_EQ(getrf_restricted(lu.view(), /*lo=*/m, piv), 0);
  for (int j = 0; j < n; ++j) EXPECT_EQ(piv[static_cast<std::size_t>(j)], j);
  Matrix<double> l, u;
  split_lu(lu, l, u);
  Matrix<double> recon(m, n);
  ref_gemm(Trans::No, Trans::No, 1.0, l.cview(), u.cview(), 0.0, recon.view());
  expect_near(recon, a, 1e-9 * n, "restricted(lo=m) reconstructs A");
}

TEST(GetrfRestrictedBlocked, SingularColumnInsideWindowReportsInfo) {
  // Column 5 is exactly zero, so at step 5 every candidate pivot (row 5 and
  // the restricted window) is zero: info must name column 6 (1-based) and
  // the factorization must keep going.
  const int m = 160, n = 96, lo = 100;
  auto a = random_matrix(m, n, 11);
  for (int i = 0; i < m; ++i) a(i, 5) = 0.0;
  Matrix<double> lu = a;
  std::vector<int> piv;
  EXPECT_EQ(getrf_restricted(lu.view(), lo, piv), 6);
  // Pivots never land in the forbidden band (j, lo).
  for (int j = 0; j < n; ++j) {
    const int p = piv[static_cast<std::size_t>(j)];
    EXPECT_TRUE(p == j || p >= lo) << "pivot " << p << " at column " << j;
  }
  // The factorization still reconstructs P A = L U (the zero column simply
  // has no multipliers).
  Matrix<double> l, u;
  split_lu(lu, l, u);
  Matrix<double> recon(m, n);
  ref_gemm(Trans::No, Trans::No, 1.0, l.cview(), u.cview(), 0.0, recon.view());
  expect_near(recon, permuted(a, piv), 1e-9 * n, "singular-window P A = L U");
}

// ---------------------------------------------------------------------------
// Blocked GEQRT
// ---------------------------------------------------------------------------

TEST(GeqrtBlocked, ReconstructsAndStaysOrthogonal) {
  const int shapes[][2] = {{96, 96}, {160, 96}, {130, 65}};
  for (const auto& sh : shapes) {
    const int m = sh[0], n = sh[1];
    ASSERT_TRUE(panel_wants_blocked(m, n));
    const auto a = random_matrix(m, n, 600 + m + n);
    Matrix<double> vr = a;
    Matrix<double> t(n, n);
    geqrt_blocked(vr.view(), t.view());
    // T upper triangular.
    for (int j = 0; j < n; ++j)
      for (int i = j + 1; i < n; ++i) EXPECT_DOUBLE_EQ(t(i, j), 0.0);
    // Q from the elementary reflectors reconstructs A.
    Matrix<double> q = q_from_geqrt(vr.cview(), t.cview());
    Matrix<double> r(m, n);
    for (int j = 0; j < n; ++j)
      for (int i = 0; i <= std::min(j, m - 1); ++i) r(i, j) = vr(i, j);
    Matrix<double> recon(m, n);
    ref_gemm(Trans::No, Trans::No, 1.0, q.cview(), r.cview(), 0.0,
             recon.view());
    expect_near(recon, a, 1e-11 * (m + n), "blocked A = Q R");
  }
}

TEST(GeqrtBlocked, AccumulatedTMatchesReflectorProduct) {
  // The block-coupled T must satisfy I - V T V^T = H_0 H_1 ... H_{n-1}:
  // apply both to the identity. This is what validates the T12 coupling —
  // a wrong coupling still reconstructs A but breaks the compact-WY apply.
  const int m = 130, n = 96;
  const auto a = random_matrix(m, n, 12);
  Matrix<double> vr = a;
  Matrix<double> t(n, n);
  geqrt_blocked(vr.view(), t.view());
  Matrix<double> qt_wy = Matrix<double>::identity(m);
  unmqr(Trans::Yes, vr.cview(), t.cview(), qt_wy.view());
  Matrix<double> q = q_from_geqrt(vr.cview(), t.cview());
  Matrix<double> qt_ref(m, m);
  for (int j = 0; j < m; ++j)
    for (int i = 0; i < m; ++i) qt_ref(i, j) = q(j, i);
  expect_near(qt_wy, qt_ref, 1e-12, "blocked compact WY vs reflectors");
}

TEST(GeqrtBlocked, UnmqrRoundTripIsIdentity) {
  const int m = 160, n = 96;
  const auto a = random_matrix(m, n, 13);
  Matrix<double> vr = a;
  Matrix<double> t(n, n);
  geqrt_blocked(vr.view(), t.view());
  const auto c0 = random_matrix(m, 33, 14);
  Matrix<double> c = c0;
  unmqr(Trans::Yes, vr.cview(), t.cview(), c.view());
  unmqr(Trans::No, vr.cview(), t.cview(), c.view());
  expect_near(c, c0, 1e-12, "Q Q^T C = C with blocked T");
}

TEST(GeqrtDispatch, MatchesChosenPathBitwise) {
  for (int size : {32, 96}) {
    const auto a = random_matrix(size, size, 15);
    Matrix<double> a_dispatch = a, a_direct = a;
    Matrix<double> t_dispatch(size, size), t_direct(size, size);
    geqrt(a_dispatch.view(), t_dispatch.view());
    if (panel_wants_blocked(size, size)) {
      geqrt_blocked(a_direct.view(), t_direct.view());
    } else {
      geqrt_unblocked(a_direct.view(), t_direct.view());
    }
    for (int j = 0; j < size; ++j)
      for (int i = 0; i < size; ++i) {
        EXPECT_EQ(a_dispatch(i, j), a_direct(i, j));
        EXPECT_EQ(t_dispatch(i, j), t_direct(i, j));
      }
  }
}

// ---------------------------------------------------------------------------
// Blocked TRSM
// ---------------------------------------------------------------------------

Matrix<double> random_triangle(Uplo uplo, int n, std::uint64_t seed) {
  auto a = random_matrix(n, n, seed);
  for (int j = 0; j < n; ++j) a(j, j) += 4.0;  // well conditioned
  // The opposite triangle is left populated on purpose: a correct TRSM never
  // reads it.
  (void)uplo;
  return a;
}

TEST(TrsmBlocked, ParityAllVariantsAgainstUnblocked) {
  const Side sides[] = {Side::Left, Side::Right};
  const Uplo uplos[] = {Uplo::Lower, Uplo::Upper};
  const Trans transes[] = {Trans::No, Trans::Yes};
  const Diag diags[] = {Diag::NonUnit, Diag::Unit};
  int iter = 0;
  for (Side side : sides)
    for (Uplo uplo : uplos)
      for (Trans trans : transes)
        for (Diag diag : diags) {
          for (int width : {1, 7, 64}) {
            const int dim = 130 + 10 * (iter % 3);  // above the threshold
            ASSERT_TRUE(trsm_wants_blocked(dim));
            const int m = side == Side::Left ? dim : width;
            const int n = side == Side::Left ? width : dim;
            const auto a = random_triangle(uplo, dim, 900 + iter);
            const auto b0 = random_matrix(m, n, 950 + iter);
            Matrix<double> b_blk = b0, b_ref = b0;
            const double alpha = iter % 4 == 0 ? -0.5 : 1.0;
            trsm_blocked(side, uplo, trans, diag, alpha, a.cview(),
                         b_blk.view());
            trsm_unblocked(side, uplo, trans, diag, alpha, a.cview(),
                           b_ref.view());
            // Tolerance relative to the solution magnitude: unit-diagonal
            // random triangles are exponentially ill conditioned (their
            // solutions reach ~1e4 here), which amplifies the legitimate
            // blocked-vs-unblocked reassociation difference.
            double scale = 1.0;
            for (int j = 0; j < n; ++j)
              for (int i = 0; i < m; ++i)
                scale = std::max(scale, std::abs(b_ref(i, j)));
            expect_near(b_blk, b_ref, 1e-11 * dim * scale,
                        "blocked trsm parity");
            ++iter;
          }
        }
}

TEST(TrsmDispatch, MatchesChosenPathBitwiseAndIgnoresWidth) {
  for (int dim : {64, 160}) {
    const auto a = random_triangle(Uplo::Lower, dim, 16);
    const auto b0 = random_matrix(dim, 48, 17);
    Matrix<double> b_dispatch = b0, b_direct = b0;
    trsm(Side::Left, Uplo::Lower, Trans::No, Diag::NonUnit, 1.0, a.cview(),
         b_dispatch.view());
    if (trsm_wants_blocked(dim)) {
      trsm_blocked(Side::Left, Uplo::Lower, Trans::No, Diag::NonUnit, 1.0,
                   a.cview(), b_direct.view());
    } else {
      trsm_unblocked(Side::Left, Uplo::Lower, Trans::No, Diag::NonUnit, 1.0,
                     a.cview(), b_direct.view());
    }
    for (int j = 0; j < 48; ++j)
      for (int i = 0; i < dim; ++i) EXPECT_EQ(b_dispatch(i, j), b_direct(i, j));
  }
  // The dispatch depends on the triangle dimension only — never the width.
  EXPECT_EQ(trsm_wants_blocked(160), true);
  EXPECT_EQ(trsm_wants_blocked(64), false);
}

TEST(TrsmUnitDiag, NeverReadsTheDiagonal) {
  // Diag::Unit means the diagonal entries are not part of the operator: a
  // NaN parked there must change nothing (and in particular there must be
  // no redundant divide by the stored diagonal). Checked bitwise against a
  // run with a benign diagonal, for every side/uplo/trans, both paths.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Side sides[] = {Side::Left, Side::Right};
  const Uplo uplos[] = {Uplo::Lower, Uplo::Upper};
  const Trans transes[] = {Trans::No, Trans::Yes};
  int iter = 0;
  for (Side side : sides)
    for (Uplo uplo : uplos)
      for (Trans trans : transes) {
        for (int dim : {48, 160}) {  // unblocked- and blocked-dispatch sizes
          auto a_nan = random_matrix(dim, dim, 700 + iter);
          auto a_num = a_nan;
          for (int j = 0; j < dim; ++j) {
            a_nan(j, j) = nan;
            a_num(j, j) = 7.5;  // any value: must be equally ignored
          }
          const auto b0 = random_matrix(side == Side::Left ? dim : 9,
                                        side == Side::Left ? 9 : dim,
                                        750 + iter);
          Matrix<double> b1 = b0, b2 = b0;
          trsm(side, uplo, trans, Diag::Unit, 1.0, a_nan.cview(), b1.view());
          trsm(side, uplo, trans, Diag::Unit, 1.0, a_num.cview(), b2.view());
          for (int j = 0; j < b0.cols(); ++j)
            for (int i = 0; i < b0.rows(); ++i) {
              EXPECT_TRUE(std::isfinite(b1(i, j)));
              EXPECT_EQ(b1(i, j), b2(i, j));
            }
          ++iter;
        }
      }
}

TEST(TrsmLeft, WidthInvariantPerColumn) {
  // A Left solve is exactly a per-column operation at any width — including
  // on the blocked path. This is the invariance the wide-RHS solve path
  // (core/factorization.cpp) builds its bitwise guarantee on.
  const int dim = 160, width = 24;
  const Uplo uplos[] = {Uplo::Lower, Uplo::Upper};
  const Trans transes[] = {Trans::No, Trans::Yes};
  const Diag diags[] = {Diag::NonUnit, Diag::Unit};
  int iter = 0;
  for (Uplo uplo : uplos)
    for (Trans trans : transes)
      for (Diag diag : diags) {
        const auto a = random_triangle(uplo, dim, 800 + iter);
        const auto b0 = random_matrix(dim, width, 850 + iter);
        Matrix<double> wide = b0;
        trsm(Side::Left, uplo, trans, diag, 1.0, a.cview(), wide.view());
        for (int j = 0; j < width; ++j) {
          Matrix<double> col(dim, 1);
          for (int i = 0; i < dim; ++i) col(i, 0) = b0(i, j);
          trsm(Side::Left, uplo, trans, diag, 1.0, a.cview(), col.view());
          for (int i = 0; i < dim; ++i) EXPECT_EQ(col(i, 0), wide(i, j));
        }
        ++iter;
      }
}

// ---------------------------------------------------------------------------
// Serial vs parallel bitwise parity with the blocked panel kernels engaged
// ---------------------------------------------------------------------------

TEST(BlockedPanelParity, SerialAndParallelBitwiseIdentical) {
  // nb = 96 puts every panel factorization (and the stacked domain panels)
  // on the blocked getrf/geqrt paths, and the diagonal tiles on the blocked
  // TRSM path during the solve replay.
  const int nb = 96, tiles = 3, n = nb * tiles;
  const auto a = random_matrix(n, n, 18);
  const auto b = random_matrix(n, 3, 19);
  auto solve_with = [&](Backend backend) {
    const Solver solver(SolverConfig()
                            .criterion(CriterionSpec::max(4.0))
                            .tile_size(nb)
                            .grid(2, 2)
                            .backend(backend)
                            .threads(backend == Backend::Parallel ? 3 : 0));
    const auto fac = solver.factor(a);
    return std::make_pair(fac.solve(b), fac.stats().qr_steps);
  };
  const auto [x_serial, qr_serial] = solve_with(Backend::Serial);
  const auto [x_parallel, qr_parallel] = solve_with(Backend::Parallel);
  EXPECT_EQ(qr_serial, qr_parallel);
  for (int j = 0; j < 3; ++j)
    for (int i = 0; i < n; ++i) EXPECT_EQ(x_serial(i, j), x_parallel(i, j));
}

}  // namespace
}  // namespace luqr::kern

// ---------------------------------------------------------------------------
// Engine: DAG depth, widened lanes, per-lane telemetry
// ---------------------------------------------------------------------------

namespace luqr::rt {
namespace {

// Depths are measured over the *live* graph (a datum whose whole history
// retired starts a fresh chain — that is what keeps engine memory bounded),
// so these tests gate the chain head until everything is submitted.

TEST(EngineDepth, ChainDepthEqualsCriticalPath) {
  Engine engine(2);
  int datum = 0;
  std::atomic<bool> gate{false};
  engine.submit([&gate] {
    while (!gate.load()) std::this_thread::yield();
  }, {{&datum, Access::Write}});
  for (int i = 0; i < 16; ++i)
    engine.submit([] {}, {{&datum, Access::ReadWrite}});
  gate.store(true);
  engine.wait_all();
  EXPECT_EQ(engine.critical_path_length(), 17u);
}

TEST(EngineDepth, IndependentTasksStayAtDepthOne) {
  Engine engine(2);
  int data[8] = {};
  for (int i = 0; i < 8; ++i)
    engine.submit([] {}, {{&data[i], Access::Write}});
  engine.wait_all();
  EXPECT_EQ(engine.critical_path_length(), 1u);
}

TEST(EngineDepth, ReadersShareWriterDepthAndJoinDeepens) {
  Engine engine(2);
  int x = 0, y = 0;
  std::atomic<bool> gate{false};
  engine.submit([&gate] {
    while (!gate.load()) std::this_thread::yield();
  }, {{&x, Access::Write}});                                          // depth 1
  engine.submit([] {}, {{&x, Access::Read}});                         // depth 2
  engine.submit([] {}, {{&x, Access::Read}});                         // depth 2
  engine.submit([] {}, {{&y, Access::Write}});                        // depth 1
  engine.submit([] {}, {{&x, Access::Write}, {&y, Access::Read}});    // depth 3
  gate.store(true);
  engine.wait_all();
  EXPECT_EQ(engine.critical_path_length(), 3u);
}

TEST(EngineLanes, WidenedLanesDrainHighestFirst) {
  Engine engine(1);
  std::atomic<bool> started{false}, gate{false};
  std::vector<int> order;
  engine.submit([&started, &gate] {
    started.store(true);
    while (!gate.load()) std::this_thread::yield();
  }, {});
  // The lone worker must be inside the gate task before the lane tasks
  // arrive; otherwise it may pick one of them first.
  while (!started.load()) std::this_thread::yield();
  const int top = kPriorityLanes - 1;
  for (int p = 1; p <= top; ++p)
    engine.submit([&order, p] { order.push_back(p); }, {}, {"p", p});
  engine.submit([&order] { order.push_back(0); }, {});
  gate.store(true);
  engine.wait_all();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kPriorityLanes));
  for (int i = 0; i < top; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], top - i);
  EXPECT_EQ(order.back(), 0);
}

TEST(EngineLanes, PerLaneExecutedCountsAndClamping) {
  Engine engine(2);
  engine.submit([] {}, {});
  engine.submit([] {}, {}, {"p3", 3});
  engine.submit([] {}, {}, {"p3b", 3});
  engine.submit([] {}, {}, {"overflow", 99});  // clamps to the top lane
  engine.wait_all();
  const auto lanes = engine.lane_executed();
  ASSERT_EQ(lanes.size(), static_cast<std::size_t>(kPriorityLanes));
  EXPECT_EQ(lanes[0], 1u);
  EXPECT_EQ(lanes[3], 2u);
  EXPECT_EQ(lanes[kPriorityLanes - 1], 1u);
}

TEST(EngineTrace, RecordsTaskDepth) {
  Engine engine(1, EngineOptions{/*trace=*/true});
  int datum = 0;
  std::atomic<bool> gate{false};
  engine.submit([&gate] {
    while (!gate.load()) std::this_thread::yield();
  }, {{&datum, Access::Write}}, {"first"});
  engine.submit([] {}, {{&datum, Access::ReadWrite}}, {"second"});
  gate.store(true);
  engine.wait_all();
  const auto events = engine.trace();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_EQ(events[1].depth, 2);
}

}  // namespace
}  // namespace luqr::rt
