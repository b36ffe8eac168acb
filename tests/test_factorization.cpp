// Tests for the retained Factorization API (§II-D-1 second pass): replayed
// transformations must reproduce the fused-RHS solve exactly, across
// criteria, variants, grids and trees; iterative refinement must improve
// LU-heavy solves; repeated solves must be independent.
#include <gtest/gtest.h>

#include <cmath>

#include "api/solver.hpp"
#include "core/factorization.hpp"
#include "core/solve.hpp"
#include "fault/fault.hpp"
#include "gen/generators.hpp"
#include "obs/kprof.hpp"
#include "test_helpers.hpp"
#include "verify/verify.hpp"

namespace luqr::core {
namespace {

using luqr::testing::random_matrix;

TEST(Factorization, SecondPassMatchesFusedSolveBitwise) {
  // The fused driver transforms b alongside A; the retained factorization
  // replays the same kernels in the same order on b afterwards. The
  // arithmetic is identical, so the solutions must agree bitwise.
  const auto a = gen::generate(gen::MatrixKind::Random, 96, 1);
  const auto b = random_matrix(96, 1, 2);
  HybridOptions opt;
  opt.grid_p = 2;
  opt.grid_q = 2;
  MaxCriterion c1(30.0), c2(30.0);
  const auto fused = hybrid_solve(a, b, c1, 16, opt);
  const auto fac = Factorization::compute(a, c2, 16, opt);
  const auto x = fac.solve(b);
  ASSERT_EQ(fac.stats().lu_steps, fused.stats.lu_steps);
  for (int i = 0; i < 96; ++i) EXPECT_DOUBLE_EQ(x(i, 0), fused.x(i, 0)) << i;
}

TEST(Factorization, AllQrStepsReplayCorrectly) {
  const auto a = gen::generate(gen::MatrixKind::Random, 64, 3);
  const auto b = random_matrix(64, 1, 4);
  AlwaysQR c1, c2;
  HybridOptions opt;
  opt.grid_p = 2;
  const auto fused = hybrid_solve(a, b, c1, 16, opt);
  const auto fac = Factorization::compute(a, c2, 16, opt);
  const auto x = fac.solve(b);
  for (int i = 0; i < 64; ++i) EXPECT_DOUBLE_EQ(x(i, 0), fused.x(i, 0));
}

TEST(Factorization, TreeVariationsReplay) {
  const auto a = gen::generate(gen::MatrixKind::Random, 64, 5);
  const auto b = random_matrix(64, 1, 6);
  for (hqr::LocalTree local : {hqr::LocalTree::FlatTS, hqr::LocalTree::Greedy,
                               hqr::LocalTree::Fibonacci}) {
    AlwaysQR crit;
    HybridOptions opt;
    opt.grid_p = 2;
    opt.tree.local = local;
    const auto fac = Factorization::compute(a, crit, 16, opt);
    const auto x = fac.solve(b);
    EXPECT_LT(verify::relative_residual(a, x, b), 1e-13)
        << hqr::to_string(local);
  }
}

TEST(Factorization, EveryLuVariantReplays) {
  const auto a = gen::generate(gen::MatrixKind::Random, 80, 7);
  const auto b = random_matrix(80, 2, 8);
  for (auto variant : {LuVariant::A1, LuVariant::A2, LuVariant::B1, LuVariant::B2}) {
    AlwaysLU crit;
    HybridOptions opt;
    opt.variant = variant;
    const auto fac = Factorization::compute(a, crit, 16, opt);
    const auto x = fac.solve(b);
    EXPECT_LT(verify::relative_residual(a, x, b), 1e-10)
        << static_cast<int>(variant);
  }
}

TEST(Factorization, ManySolvesFromOneFactorization) {
  const auto a = gen::generate(gen::MatrixKind::Random, 64, 9);
  MaxCriterion crit(40.0);
  const auto fac = Factorization::compute(a, crit, 16, {});
  for (int s = 0; s < 5; ++s) {
    const auto b = random_matrix(64, 1, 100 + s);
    const auto x = fac.solve(b);
    EXPECT_LT(verify::relative_residual(a, x, b), 1e-12) << "rhs " << s;
  }
}

TEST(Factorization, SolvesAreIndependent) {
  // Solving with one b must not perturb a later solve with another.
  const auto a = gen::generate(gen::MatrixKind::Random, 48, 10);
  MaxCriterion crit(40.0);
  const auto fac = Factorization::compute(a, crit, 16, {});
  const auto b1 = random_matrix(48, 1, 11);
  const auto b2 = random_matrix(48, 1, 12);
  const auto x2_first = fac.solve(b2);
  (void)fac.solve(b1);
  const auto x2_second = fac.solve(b2);
  for (int i = 0; i < 48; ++i) EXPECT_DOUBLE_EQ(x2_first(i, 0), x2_second(i, 0));
}

TEST(Factorization, PaddedSizes) {
  const auto a = gen::generate(gen::MatrixKind::Random, 53, 13);
  const auto b = random_matrix(53, 1, 14);
  MaxCriterion crit(40.0);
  const auto fac = Factorization::compute(a, crit, 16, {});
  EXPECT_EQ(fac.order(), 53);
  const auto x = fac.solve(b);
  EXPECT_LT(verify::relative_residual(a, x, b), 1e-12);
}

TEST(Factorization, RefinementImprovesUnstableSolve) {
  // An all-LU factorization of the growth-example matrix loses digits;
  // iterative refinement with the retained original must win them back.
  const int n = 64;
  const auto a = gen::generate(gen::MatrixKind::GrowthExample, n, 0, 1.0);
  const auto b = random_matrix(n, 1, 15);
  AlwaysLU crit;
  const auto fac = Factorization::compute(a, crit, 8, {});
  const auto x0 = fac.solve(b, /*refinement_sweeps=*/0);
  const auto x2 = fac.solve(b, /*refinement_sweeps=*/2);
  const double h0 = verify::hpl3(a, x0, b);
  const double h2 = verify::hpl3(a, x2, b);
  EXPECT_LT(h2, h0 * 0.1);  // at least an order of magnitude better
  EXPECT_LT(h2, 1.0);
}

TEST(Factorization, RefinementIsNoOpOnAccurateSolve) {
  const auto a = gen::generate(gen::MatrixKind::DiagDominant, 48, 16);
  const auto b = random_matrix(48, 1, 17);
  SumCriterion crit(1.0);
  const auto fac = Factorization::compute(a, crit, 16, {});
  const auto x0 = fac.solve(b, 0);
  const auto x1 = fac.solve(b, 1);
  EXPECT_LT(verify::max_abs_error(x0, x1), 1e-12);
}

TEST(Factorization, WidePathMatchesPerColumnBitwise) {
  // The wide multi-RHS path runs every replay/back-substitution kernel once
  // at the full RHS width through the same kernel the per-tile-column
  // dispatch picks, so per-element arithmetic is bit-identical to the
  // per-tile-column layout at every width.
  const auto a = gen::generate(gen::MatrixKind::Random, 96, 21);
  MaxCriterion crit(30.0);
  const auto fac = Factorization::compute(a, crit, 32, {});
  for (int cols : {1, 2, 3, 8, 32, 37, 64}) {
    const auto b = random_matrix(96, cols, 400 + cols);
    const auto x_col = fac.solve(b, 0, RhsPath::PerTileColumn);
    const auto x_auto = fac.solve(b);
    ASSERT_EQ(x_auto.rows(), x_col.rows());
    for (int j = 0; j < cols; ++j)
      for (int i = 0; i < 96; ++i)
        EXPECT_EQ(x_auto(i, j), x_col(i, j)) << i << "," << j;
  }
}

TEST(Factorization, WidePathQrStepsAndVariants) {
  // QR steps, A2's diagonal UNMQR and B2's block-diagonal UNMQR all replay
  // at the exact RHS width on the wide panel; B1 exercises the block-
  // diagonal LU solve. The applies pick their kernel from the tile shape,
  // never the RHS width, so a single column runs the same arithmetic as
  // inside an nb-wide tile — also at nb = 24 and 32, where one column's
  // products fall below the GEMM threshold and a tile's do not.
  for (int nb : {24, 32}) {
    for (auto variant :
         {LuVariant::A1, LuVariant::A2, LuVariant::B1, LuVariant::B2}) {
      const auto a = gen::generate(gen::MatrixKind::Random, 120, 23);
      HybridOptions opt;
      opt.variant = variant;
      RandomCriterion crit(0.5, 5);
      const auto fac = Factorization::compute(a, crit, nb, opt);
      ASSERT_GT(fac.stats().lu_steps, 0) << nb;
      ASSERT_GT(fac.stats().qr_steps, 0) << nb;
      for (int cols : {1, 2, 5}) {
        const auto b = random_matrix(120, cols, 24 + cols);
        const auto x_col = fac.solve(b, 0, RhsPath::PerTileColumn);
        const auto x_auto = fac.solve(b);
        for (int j = 0; j < cols; ++j)
          for (int i = 0; i < 120; ++i)
            ASSERT_EQ(x_auto(i, j), x_col(i, j))
                << "nb=" << nb << " variant=" << static_cast<int>(variant)
                << " cols=" << cols << " @ " << i << "," << j;
        EXPECT_LT(verify::relative_residual(a, x_auto, b), 1e-10);
      }
    }
  }
}

TEST(Factorization, WidePathF32MatchesPerColumnBitwise) {
  // The reduced-precision handle forwards the path to its float engine;
  // the width-independent applies hold in f32 as well.
  const auto a = gen::generate(gen::MatrixKind::Random, 96, 31);
  const Factorization fac =
      Solver(SolverConfig()
                 .criterion(CriterionSpec::random(0.5, 5))
                 .tile_size(24)
                 .precision(Precision::F32)
                 .backend(Backend::Serial))
          .factor(a);
  ASSERT_GT(fac.stats().qr_steps, 0);
  for (int cols : {1, 3}) {
    const auto b = random_matrix(96, cols, 32 + cols);
    const auto x_col = fac.solve(b, 0, RhsPath::PerTileColumn);
    const auto x_auto = fac.solve(b);
    for (int j = 0; j < cols; ++j)
      for (int i = 0; i < 96; ++i)
        ASSERT_EQ(x_auto(i, j), x_col(i, j)) << i << "," << j;
  }
}

TEST(Factorization, WidePathRefinementAndPadding) {
  // Refinement sweeps and non-tile-multiple orders go through the same
  // wide machinery.
  const auto a = gen::generate(gen::MatrixKind::Random, 75, 25);
  const auto b = random_matrix(75, 6, 26);
  MaxCriterion crit(40.0);
  const auto fac = Factorization::compute(a, crit, 32, {});
  const auto x_col = fac.solve(b, 2, RhsPath::PerTileColumn);
  const auto x_auto = fac.solve(b, 2);
  for (int j = 0; j < 6; ++j)
    for (int i = 0; i < 75; ++i) EXPECT_EQ(x_auto(i, j), x_col(i, j));
  EXPECT_LT(verify::relative_residual(a, x_auto, b), 1e-12);
}

TEST(Factorization, ExactWidthPanelOnAllLuFactorizations) {
  // Diagonally dominant input + Max criterion: every step is LU/A1, the
  // serving-critical all-LU regime. Still bitwise vs per-column.
  const auto a = gen::generate(gen::MatrixKind::DiagDominant, 96, 33);
  MaxCriterion crit(100.0);
  const auto fac = Factorization::compute(a, crit, 32, {});
  ASSERT_EQ(fac.stats().qr_steps, 0);
  for (int cols : {1, 3, 17}) {
    const auto b = random_matrix(96, cols, 700 + cols);
    const auto x_col = fac.solve(b, 0, RhsPath::PerTileColumn);
    const auto x_auto = fac.solve(b);
    for (int j = 0; j < cols; ++j)
      for (int i = 0; i < 96; ++i) EXPECT_EQ(x_auto(i, j), x_col(i, j));
  }
  // Padded order: the identity tail is factored as LU/A1 steps as well.
  const auto ap = gen::generate(gen::MatrixKind::DiagDominant, 75, 34);
  MaxCriterion crit2(100.0);
  const auto facp = Factorization::compute(ap, crit2, 32, {});
  ASSERT_EQ(facp.stats().qr_steps, 0);
  const auto bp = random_matrix(75, 1, 750);
  const auto xp_col = facp.solve(bp, 0, RhsPath::PerTileColumn);
  const auto xp_auto = facp.solve(bp);
  for (int i = 0; i < 75; ++i) EXPECT_EQ(xp_auto(i, 0), xp_col(i, 0));
}

TEST(Factorization, WidePathSmallTilesUnblockedMirror) {
  // nb = 8 keeps the nb^3 product under the packed-GEMM threshold: the
  // per-column path runs the simple loops, and the wide path must mirror
  // that choice (not re-dispatch on its larger width) to stay bitwise.
  const auto a = gen::generate(gen::MatrixKind::Random, 48, 29);
  MaxCriterion crit(30.0);
  const auto fac = Factorization::compute(a, crit, 8, {});
  for (int cols : {1, 5, 48}) {
    const auto b = random_matrix(48, cols, 500 + cols);
    const auto x_col = fac.solve(b, 0, RhsPath::PerTileColumn);
    const auto x_auto = fac.solve(b);
    for (int j = 0; j < cols; ++j)
      for (int i = 0; i < 48; ++i) EXPECT_EQ(x_auto(i, j), x_col(i, j));
  }
}

TEST(Factorization, SolveGemmsAreProfiled) {
  // The exact-width solve's tile GEMMs go through the instrumented gemm
  // entry point: a single-RHS solve of an all-LU factorization with mt
  // tile rows runs mt(mt-1)/2 elimination GEMMs and as many back-
  // substitution GEMMs.
  const int mt = 4, nb = 16;
  const auto a = gen::generate(gen::MatrixKind::DiagDominant, mt * nb, 41);
  AlwaysLU crit;
  const auto fac = Factorization::compute(a, crit, nb, {});
  const auto b = random_matrix(mt * nb, 1, 42);
  const auto gemm_calls = [] {
    return obs::kernel_profile()[static_cast<int>(obs::KernelClass::Gemm)].calls;
  };
  const std::uint64_t before = gemm_calls();
  (void)fac.solve(b);
  EXPECT_EQ(gemm_calls() - before, static_cast<std::uint64_t>(mt * (mt - 1)));
}

TEST(Factorization, SolveGemmsReachTheFaultSite) {
  // A poisoned solve GEMM must surface as a non-finite solution, the signal
  // the serve layer's output screening keys on.
  const auto a = gen::generate(gen::MatrixKind::DiagDominant, 64, 43);
  AlwaysLU crit;
  const auto fac = Factorization::compute(a, crit, 16, {});
  const auto b = random_matrix(64, 1, 44);
  fault::FaultPlan plan(3);
  plan.arm({fault::site::kGemmNan, 1.0, /*max_fires=*/1});
  Matrix<double> x;
  {
    fault::ScopedPlan guard(plan);
    x = fac.solve(b);
  }
  EXPECT_EQ(plan.fires(fault::site::kGemmNan), 1u);
  bool finite = true;
  for (int i = 0; i < 64; ++i) finite = finite && std::isfinite(x(i, 0));
  EXPECT_FALSE(finite);
}

TEST(Factorization, MemoryBytesAccountsForTilesAndLog) {
  const auto a = gen::generate(gen::MatrixKind::Random, 64, 27);
  MaxCriterion crit(2.0);
  const auto fac = Factorization::compute(a, crit, 16, {});
  // At minimum the factored tiles and the retained original.
  EXPECT_GE(fac.memory_bytes(), 2u * 64u * 64u * sizeof(double));
  EXPECT_EQ(fac.matrix().rows(), 64);
  EXPECT_EQ(fac.matrix().cols(), 64);
}

TEST(Factorization, RejectsWrongShapes) {
  const auto a = random_matrix(32, 24, 18);
  MaxCriterion crit(1.0);
  EXPECT_THROW(Factorization::compute(a, crit, 8, {}), Error);
  const auto sq = random_matrix(32, 32, 19);
  const auto fac = Factorization::compute(sq, crit, 8, {});
  const auto bad_b = random_matrix(16, 1, 20);
  EXPECT_THROW(fac.solve(bad_b), Error);
}

}  // namespace
}  // namespace luqr::core
