// Unit tests of the benchmark's own derivations (perfbench/derive.hpp).
#include <gtest/gtest.h>

#include <set>

#include "derive.hpp"

namespace pb = luqr::perfbench;
using luqr::rt::TraceEvent;

namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT_EQ(pb::percentile(v, 50.0), 50.0);
  EXPECT_EQ(pb::percentile(v, 99.0), 99.0);
  EXPECT_EQ(pb::percentile(v, 100.0), 100.0);
  EXPECT_EQ(pb::percentile(v, 0.0), 1.0);
  EXPECT_EQ(pb::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(pb::percentile({}, 50.0), 0.0);
}

TEST(Percentile, TailRuleKeepsTenSamplesBeyond) {
  EXPECT_EQ(pb::tail_rank(5000), 4950u);  // p99, 50 beyond
  EXPECT_EQ(pb::tail_rank(1000), 990u);   // p99, exactly 10 beyond
  EXPECT_EQ(pb::tail_rank(999), 989u);    // p99 (rank 990) would leave 9
  EXPECT_EQ(pb::tail_rank(90), 80u);
  EXPECT_EQ(pb::tail_rank(20), 10u);      // the median, 10 beyond
  EXPECT_EQ(pb::tail_rank(15), 8u);       // too few: the median
  EXPECT_EQ(pb::tail_rank(1), 1u);
  EXPECT_EQ(pb::tail_rank(0), 0u);
  EXPECT_DOUBLE_EQ(pb::tail_percentile(1000), 99.0);
  EXPECT_NEAR(pb::tail_percentile(90), 800.0 / 9.0, 1e-12);
  for (std::size_t n : {20u, 34u, 57u, 333u, 999u, 1000u, 4321u}) {
    EXPECT_GE(n - pb::tail_rank(n), 10u) << n;
    EXPECT_GE(pb::tail_rank(n), pb::nearest_rank(n, 50.0)) << n;
    EXPECT_LE(pb::tail_rank(n), pb::nearest_rank(n, 99.0)) << n;
  }
}

TEST(Percentile, TailValue) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back((i * 37) % 101);  // 1..100 permuted
  EXPECT_EQ(pb::tail_value(v), 90.0);
  EXPECT_EQ(pb::tail_value({}), 0.0);
}

TEST(Flops, PaperNormalization) {
  // (2/3) * 2048^3 flops in one second.
  EXPECT_NEAR(pb::lu_gflops(2048, 1.0), 5.726623061, 1e-9);
  EXPECT_NEAR(pb::lu_gflops(2048, 0.5), 2.0 * pb::lu_gflops(2048, 1.0), 1e-12);
  EXPECT_EQ(pb::lu_gflops(2048, 0.0), 0.0);
}

TEST(Flops, LuStepModelSumsToTheLuCount) {
  // Summed over all steps, the per-step LU model is (2/3) n^3 + O(n^2 nb).
  const int mt = 64, nb = 32;
  const double n = mt * nb;
  double total = 0.0;
  for (int k = 0; k < mt; ++k) total += pb::lu_step_model_flops(mt, k, nb);
  EXPECT_NEAR(total / ((2.0 / 3.0) * n * n * n), 1.0, 0.03);
  // Last step: a single GETRF of one tile.
  EXPECT_NEAR(pb::lu_step_model_flops(mt, mt - 1, nb), (2.0 / 3.0) * nb * nb * nb, 1e-6);
}

TraceEvent ev(const char* name, int tag, int worker, std::uint64_t start,
              std::uint64_t end) {
  TraceEvent e;
  e.name = name;
  e.tag = tag;
  e.worker = worker;
  e.start_us = start;
  e.end_us = end;
  return e;
}

TEST(Trace, BusyIdleSpanAndClasses) {
  // Two workers over a 100 us span: 60 + 70 us busy.
  const std::vector<TraceEvent> events = {
      ev("panel", 0, 0, 1000, 1020),   // 20
      ev("gemm", 0, 0, 1020, 1060),    // 40
      ev("trsm", 0, 1, 1010, 1040),    // 30
      ev("unmqr", 1, 1, 1060, 1100),   // 40
  };
  const pb::TraceBreakdown tb = pb::analyze_trace(events, 2);
  EXPECT_EQ(tb.tasks, 4u);
  EXPECT_NEAR(tb.span_s, 100e-6, 1e-12);
  EXPECT_NEAR(tb.busy_s, 130e-6, 1e-12);
  EXPECT_NEAR(tb.idle_s, 70e-6, 1e-12);
  EXPECT_NEAR(tb.busy_frac, 0.65, 1e-12);
  EXPECT_NEAR(tb.task_us_mean, 32.5, 1e-9);
  EXPECT_NEAR(tb.class_busy_s.at("panel"), 20e-6, 1e-12);
  EXPECT_NEAR(tb.class_busy_s.at("gemm"), 40e-6, 1e-12);
  EXPECT_NEAR(tb.class_busy_s.at("trsm"), 30e-6, 1e-12);
  EXPECT_NEAR(tb.class_busy_s.at("qr-apply"), 40e-6, 1e-12);
  ASSERT_EQ(tb.step_busy_s.size(), 2u);
  EXPECT_NEAR(tb.step_busy_s[0], 90e-6, 1e-12);
  EXPECT_NEAR(tb.step_busy_s[1], 40e-6, 1e-12);
}

TEST(Trace, EmptyTrace) {
  const pb::TraceBreakdown tb = pb::analyze_trace({}, 4);
  EXPECT_EQ(tb.tasks, 0u);
  EXPECT_EQ(tb.busy_frac, 0.0);
}

TEST(Trace, UnattributedClosesTheSum) {
  const double factor = 0.5, from_dense = 0.04, driver = 0.4, adopt = 0.03;
  const double u = pb::unattributed_s(factor, from_dense, driver, adopt);
  EXPECT_NEAR(u, 0.03, 1e-15);
  EXPECT_DOUBLE_EQ(from_dense + driver + adopt + u, factor);
}

TEST(Trace, QrLuStepCostRatio) {
  const int mt = 4, nb = 8;
  // Steps 0 and 2 LU, 1 and 3 QR; QR steps take 2x the LU time per model
  // flop.
  const std::vector<bool> is_qr = {false, true, false, true};
  std::vector<double> busy;
  for (int k = 0; k < mt; ++k)
    busy.push_back((is_qr[k] ? 2e-9 : 1e-9) * pb::lu_step_model_flops(mt, k, nb));
  EXPECT_NEAR(pb::qr_lu_step_cost_ratio(busy, is_qr, mt, nb), 2.0, 1e-12);
  EXPECT_EQ(pb::qr_lu_step_cost_ratio(busy, {false, false, false, false}, mt, nb), 0.0);
}

std::vector<pb::ServeRequest> draw(std::uint64_t seed, int client, int count) {
  pb::ServeStream s(seed, client);
  std::vector<pb::ServeRequest> out;
  for (int i = 0; i < count; ++i) out.push_back(s.next());
  return out;
}

bool same(const pb::ServeRequest& a, const pb::ServeRequest& b) {
  return a.kind == b.kind && a.n == b.n && a.seed == b.seed &&
         a.rhs_seed == b.rhs_seed && a.slot == b.slot && a.batch_seeds == b.batch_seeds;
}

TEST(ServeStream, DeterministicBySeedAndClient) {
  const auto a = draw(42, 0, 500), b = draw(42, 0, 500);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_TRUE(same(a[i], b[i])) << i;
  const auto other_seed = draw(43, 0, 500), other_client = draw(42, 1, 500);
  int differ_seed = 0, differ_client = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    differ_seed += same(a[i], other_seed[i]) ? 0 : 1;
    differ_client += same(a[i], other_client[i]) ? 0 : 1;
  }
  EXPECT_GT(differ_seed, 400);
  EXPECT_GT(differ_client, 400);
}

TEST(ServeStream, ExactHitFractionAndMix) {
  using Kind = pb::ServeRequest::Kind;
  pb::ServeStream s(7, 3);
  int batches = 0, fresh = 0, repeats = 0;
  std::set<int> orders;
  std::vector<int> slot_order(pb::ServeStream::kRecent, 0);
  for (int i = 1; i <= 8000; ++i) {
    const pb::ServeRequest r = s.next();
    if (i == 1) {
      EXPECT_EQ(r.kind, Kind::Fresh);
    }
    if (i % pb::ServeStream::kBatchEvery == 0) {
      ASSERT_EQ(r.kind, Kind::Batch) << i;
      EXPECT_EQ(r.batch_seeds.size(), std::size_t(pb::ServeStream::kBatchSize));
      EXPECT_EQ(r.n, pb::ServeStream::kBatchOrder);
      ++batches;
      continue;
    }
    ASSERT_NE(r.kind, Kind::Batch);
    if (r.kind == Kind::Fresh) {
      ++fresh;
      orders.insert(r.n);
      slot_order[r.slot] = r.n;
    } else {
      ++repeats;
      EXPECT_EQ(r.n, slot_order[r.slot]) << "a repeat names a matrix the client holds";
    }
  }
  EXPECT_EQ(batches, 1000);
  EXPECT_EQ(fresh + repeats, 7000);
  EXPECT_EQ(repeats * 4, 7000 * 3);  // 7000 singles are 1750 whole blocks of 4
  EXPECT_EQ(s.designed_hits(), static_cast<std::uint64_t>(repeats));
  EXPECT_EQ(s.singles(), 7000u);
  EXPECT_EQ(orders, (std::set<int>{128, 256, 384}));
}

TEST(ServeStream, RepeatsStayWithinTheLastFourFresh) {
  using Kind = pb::ServeRequest::Kind;
  pb::ServeStream s(11, 0);
  std::vector<std::uint64_t> fresh_seeds;  // in draw order
  std::vector<std::uint64_t> slot_seed(pb::ServeStream::kRecent, 0);
  for (int i = 0; i < 4000; ++i) {
    const pb::ServeRequest r = s.next();
    if (r.kind == Kind::Fresh) {
      fresh_seeds.push_back(r.seed);
      slot_seed[r.slot] = r.seed;
    } else if (r.kind == Kind::Repeat) {
      const std::size_t window = std::min<std::size_t>(fresh_seeds.size(), 4);
      const auto first = fresh_seeds.end() - static_cast<std::ptrdiff_t>(window);
      EXPECT_NE(std::find(first, fresh_seeds.end(), slot_seed[r.slot]), fresh_seeds.end());
    }
  }
}

TEST(ServeStream, FreshMatricesAreDistinctAndReproducible) {
  luqr::Matrix<double> base(16, 16, 1.0);
  const auto a = pb::fresh_matrix(base, 1), again = pb::fresh_matrix(base, 1);
  const auto b = pb::fresh_matrix(base, 2);
  int differ_a = 0, differ_ab = 0, differ_again = 0;
  for (int j = 0; j < 16; ++j)
    for (int i = 0; i < 16; ++i) {
      differ_a += a(i, j) != base(i, j);
      differ_ab += a(i, j) != b(i, j);
      differ_again += a(i, j) != again(i, j);
    }
  EXPECT_EQ(differ_a, 16);  // exactly one column replaced
  EXPECT_GT(differ_ab, 0);
  EXPECT_EQ(differ_again, 0);
}

TEST(Steal, LeastStolenKeepsQuietSamplesOrTheQuietestQuarter) {
  // No steal anywhere: everything.
  EXPECT_EQ(pb::least_stolen(std::vector<double>(8, 0.0), 5).size(), 8u);
  // 30 of 100 samples unstolen: exactly those.
  std::vector<double> steal(100, 0.05);
  for (int i = 0; i < 100; i += 3) steal[i] = i < 90 ? 0.0 : 0.05;
  const auto quiet = pb::least_stolen(steal, 5);
  ASSERT_EQ(quiet.size(), 30u);
  for (std::size_t i : quiet) EXPECT_EQ(steal[i], 0.0);
  EXPECT_TRUE(std::is_sorted(quiet.begin(), quiet.end()));
  // Every sample stolen: the quarter with the least steal.
  std::vector<double> ramp;
  for (int i = 0; i < 100; ++i) ramp.push_back(0.01 * ((i * 37) % 100 + 1));
  const auto q = pb::least_stolen(ramp, 5);
  ASSERT_EQ(q.size(), 25u);
  for (std::size_t i : q) EXPECT_LE(ramp[i], 0.25);
  // Small samples keep at least min_count, and never more than n.
  EXPECT_EQ(pb::least_stolen({0.3, 0.1, 0.2, 0.5, 0.4, 0.6, 0.7}, 5),
            (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(pb::least_stolen({0.3, 0.1}, 5).size(), 2u);
  EXPECT_EQ(pb::pick({10.0, 20.0, 30.0}, {0, 2}), (std::vector<double>{10.0, 30.0}));
}

TEST(Steal, QuietWindows) {
  std::vector<pb::StealWindow> w;
  for (int i = 0; i < 8; ++i) w.push_back({0.25 * i, 0.25 * (i + 1), i % 2 ? 0.1 : 0.0});
  const pb::QuietWindows quiet(w, 2);
  EXPECT_EQ(quiet.kept(), 4u);
  EXPECT_DOUBLE_EQ(quiet.seconds(), 1.0);
  EXPECT_EQ(quiet.max_steal(), 0.0);
  EXPECT_TRUE(quiet.contains(0.1));    // window 0, unstolen
  EXPECT_FALSE(quiet.contains(0.3));   // window 1, stolen
  EXPECT_TRUE(quiet.contains(0.5));    // window 2 starts here
  EXPECT_FALSE(quiet.contains(2.0));   // past the last window
  EXPECT_FALSE(quiet.contains(-0.1));
}

}  // namespace
