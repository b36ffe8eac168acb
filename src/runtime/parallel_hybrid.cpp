#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <utility>

#include "core/hybrid.hpp"
#include "core/panel.hpp"
#include "hqr/trees.hpp"
#include "kernels/lapack.hpp"
#include "kernels/norms.hpp"
#include "runtime/audit.hpp"
#include "runtime/engine.hpp"
#include "runtime/parallel_hybrid.hpp"
#include "tile/process_grid.hpp"

namespace luqr::rt {

using core::HybridOptions;
using core::StepKind;
using kern::ConstMatrixView;
using kern::Diag;
using kern::Side;
using kern::Trans;
using kern::Uplo;

namespace {

// Everything one step's tasks reference after control has moved on: the
// panel factorization, the backup, the decision, the QR block-reflector
// factors, and (track_growth) the running max over the final value of each
// trailing tile. Kept alive until the engine drains.
template <typename T>
struct StepContext {
  core::PanelFactorizationT<T> pf;
  std::vector<std::vector<T>> backup;
  bool lu = false;
  // One T factor per QR factor kernel (geqrt per row, then one per
  // elimination), allocated up front so pointers are stable task keys.
  // Shared with the TransformLog when one is kept: the tasks fill these in,
  // the log's QrOps reference the same storage.
  std::vector<std::shared_ptr<Matrix<T>>> t_factors;
  // track_growth: max tile 1-norm over the trailing submatrix (rows/cols
  // >= k+1) *after* this step, reduced task-by-task: every update task that
  // performs the final write of a trailing tile contributes that tile's
  // norm. The contributions are (widened to double, exactly as the
  // sequential driver widens them) bitwise the values the sequential
  // driver's full sweep reads, and max is order-insensitive, so the reduced
  // growth factor matches the sequential one exactly at every precision.
  std::atomic<double> step_max{0.0};
};

EngineOptions engine_options(const SchedulerOptions& sched) {
  EngineOptions o;
  o.trace = sched.trace;
  o.audit = sched.audit;
  o.chaos_seed = sched.chaos_seed;
  return o;
}

void atomic_max(std::atomic<double>& m, double v) {
  double cur = m.load(std::memory_order_relaxed);
  while (v > cur &&
         !m.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

// The fixed priority-lane map (table in parallel_hybrid.hpp): update tasks
// on trailing column k+1+d run in lane max(0, 2 - d), so the columns feeding
// the next two panel decisions overtake bulk trailing work. A critical/bulk
// fold of it measured slower. Pure scheduling hints — execution order within
// the dependences never changes results (the parity tests pin that).
constexpr int kLanePanel = 4;
constexpr int kLaneGate = 3;
int lane_update(int k, int j) { return std::max(0, 2 - (j - k - 1)); }
// A swap+apply gates every update GEMM of its column, so it runs one lane
// above them.
int lane_swptrsm(int k, int j) { return std::max(0, 3 - (j - k - 1)); }
static_assert(kLanePanel < kPriorityLanes, "the lane map must fit the engine");

// Shared state of one factorization run. Tasks capture a pointer to this;
// it outlives them (the drive loop waits for the run's last task before
// returning). The engine is either owned (historical mode: one pool per
// factorization, destroyed first — it is constructed last) or external (a
// caller-provided shared pool that outlives the driver; the serve
// subsystem's mode). On an external engine the driver must not use the
// engine-global error/quiescence machinery: every task is guarded into a
// per-driver error slot, and completion is a sentinel task that reads every
// tile — it runs strictly after all of this run's tasks, and only them.
template <typename T>
struct Driver {
  TileMatrix<T>& a;
  Criterion& criterion;
  const HybridOptions& options;
  ProcessGrid grid;
  int n;                      // tile rows of the square part
  bool growth;                // options.track_growth
  // Growth baseline: max tile norm of A (reduced by the staging tasks when
  // the run stages its input).
  std::atomic<double> initial_max{0.0};
  core::FactorizationStatsT<T> stats;  // appended by the decision chain, in k order
  core::TransformLogT<T>* log = nullptr;
  std::vector<std::unique_ptr<StepContext<T>>> steps;
  const bool external;  // running on a caller-provided engine
  std::mutex error_mu;
  std::exception_ptr error;            // first failure of this run
  std::atomic<bool> completion_sent{false};
  std::promise<void> done;             // fulfilled by the completion sentinel
  std::unique_ptr<Engine> owned;
  Engine& engine;

  Driver(TileMatrix<T>& a_, Criterion& criterion_,
         const HybridOptions& options_, const SchedulerOptions& sched_,
         int num_threads)
      : a(a_),
        criterion(criterion_),
        options(options_),
        grid(options_.grid_p, options_.grid_q),
        n(a_.mt()),
        growth(options_.track_growth),
        steps(static_cast<std::size_t>(a_.mt())),
        external(false),
        owned(std::make_unique<Engine>(num_threads, engine_options(sched_))),
        engine(*owned) {}

  Driver(Engine& engine_, TileMatrix<T>& a_, Criterion& criterion_,
         const HybridOptions& options_)
      : a(a_),
        criterion(criterion_),
        options(options_),
        grid(options_.grid_p, options_.grid_q),
        n(a_.mt()),
        growth(options_.track_growth),
        steps(static_cast<std::size_t>(a_.mt())),
        external(true),
        engine(engine_) {}

  void record_error(std::exception_ptr e) {
    std::lock_guard<std::mutex> lk(error_mu);
    if (!error) error = std::move(e);
  }

  void rethrow_if_failed() {
    std::lock_guard<std::mutex> lk(error_mu);
    if (error) {
      std::exception_ptr e = error;
      error = nullptr;
      std::rethrow_exception(e);
    }
  }

  // Submit one task of this run. External engines get a guard: the task's
  // exception lands in this driver's error slot instead of the engine's
  // global first_error_, so one job's failure never poisons another job
  // sharing the pool (and never leaks out of a worker).
  TaskId submit(std::function<void()> fn, const std::vector<Dep>& deps,
                TaskAttrs attrs) {
    if (!external) return engine.submit(std::move(fn), deps, std::move(attrs));
    Driver* d = this;
    return engine.submit(
        [d, fn = std::move(fn)] {
          try {
            fn();
          } catch (...) {
            d->record_error(std::current_exception());
          }
        },
        deps, std::move(attrs));
  }

  // External mode: the run's last task. Reading every tile orders it after
  // every task of this factorization (each of them declares at least one
  // tile access) and after nothing else on the shared engine. Idempotent —
  // failure paths and the regular chain end may race to send it.
  void submit_completion() {
    if (completion_sent.exchange(true)) return;
    std::vector<Dep> deps;
    deps.reserve(static_cast<std::size_t>(a.mt()) * a.nt());
    for (int j = 0; j < a.nt(); ++j)
      for (int i = 0; i < a.mt(); ++i)
        deps.push_back({a.tile_key(i, j), Access::Read});
    Driver* d = this;
    engine.submit([d] { d->done.set_value(); }, deps, {"job-done", 0, -1});
  }
};

// Stage the input: one task per chunk of tile columns fills its tiles from
// the dense source and copies the same columns into the retained copy, so
// each page is first touched by the worker that writes it. Declaring Write
// on every tile of the chunk orders each step's tasks after the staging of
// the columns they touch (and puts the staging under the audit). With growth
// tracking, each chunk folds the norms of the square-part tiles it wrote
// into the baseline; max is order-insensitive, so the baseline is bitwise
// the sequential driver's.
template <typename T>
void submit_staging(Driver<T>& d, const Staging<T>& stage) {
  TileMatrix<T>& a = d.a;
  const Matrix<T>& src = *stage.source;
  Matrix<T>* copy = stage.copy;
  const int nb = a.nb();
  const int nt = a.nt();
  const int n = d.n;
  const bool growth = d.growth;
  Driver<T>* dp = &d;
  // A few chunks per worker: enough to spread the page faults, few enough
  // that each task moves whole tile columns.
  const int chunk = std::max(1, nt / (4 * d.engine.num_threads()));
  for (int j0 = 0; j0 < nt; j0 += chunk) {
    const int j1 = std::min(j0 + chunk, nt);
    std::vector<Dep> deps;
    deps.reserve(static_cast<std::size_t>(j1 - j0) * a.mt());
    for (int j = j0; j < j1; ++j)
      for (int i = 0; i < a.mt(); ++i) deps.push_back({a.tile_key(i, j), Access::Write});
    d.submit(
        [&a, &src, copy, dp, j0, j1, nb, n, growth] {
          a.fill_columns(src.cview(), j0, j1);
          if (copy) {
            const std::size_t rows = static_cast<std::size_t>(src.rows());
            const std::size_t c0 = static_cast<std::size_t>(std::min(j0 * nb, src.cols()));
            const std::size_t c1 = static_cast<std::size_t>(std::min(j1 * nb, src.cols()));
            std::copy(src.data() + c0 * rows, src.data() + c1 * rows,
                      copy->data() + c0 * rows);
          }
          if (growth) {
            double best = 0.0;
            for (int j = j0; j < std::min(j1, n); ++j)
              for (int i = 0; i < n; ++i)
                best = std::max(best, static_cast<double>(kern::lange(
                                          kern::Norm::One, std::as_const(a).tile(i, j))));
            atomic_max(dp->initial_max, best);
          }
        },
        deps, {"stage", lane_update(-1, j0), -1});
  }
}

// Swap the trailing tiles of column j according to the stacked pivots.
template <typename T>
void swap_column(TileMatrix<T>& a, const core::PanelFactorizationT<T>& pf,
                 int j) {
  const int nb = a.nb();
  for (int s = 0; s < static_cast<int>(pf.piv.size()); ++s) {
    const int p = pf.piv[static_cast<std::size_t>(s)];
    const int t1 = pf.domain_rows[static_cast<std::size_t>(s / nb)];
    const int t2 = pf.domain_rows[static_cast<std::size_t>(p / nb)];
    const int r1 = s % nb, r2 = p % nb;
    if (t1 == t2 && r1 == r2) continue;
    auto tile1 = a.tile(t1, j);
    auto tile2 = a.tile(t2, j);
    for (int c = 0; c < nb; ++c) std::swap(tile1(r1, c), tile2(r2, c));
  }
}

template <typename T>
void submit_lu_step(Driver<T>& d, StepContext<T>& ctx) {
  TileMatrix<T>& a = d.a;
  const int k = ctx.pf.k;
  const int n = d.n;
  const int nt = a.nt();
  const bool growth = d.growth;
  StepContext<T>* c = &ctx;
  std::vector<bool> in_domain(static_cast<std::size_t>(n), false);
  for (int r : ctx.pf.domain_rows) in_domain[static_cast<std::size_t>(r)] = true;

  // Per-column swap + apply (SWPTRSM on the diagonal row). Column k+1 is
  // on the critical path to the next panel.
  for (int j = k + 1; j < nt; ++j) {
    std::vector<Dep> deps;
    for (int r : ctx.pf.domain_rows) deps.push_back({a.tile_key(r, j), Access::ReadWrite});
    deps.push_back({a.tile_key(k, k), Access::Read});
    d.submit(
        [&a, c, j, k] {
          swap_column(a, c->pf, j);
          auto akj = a.tile(k, j);
          kern::trsm(Side::Left, Uplo::Lower, Trans::No, Diag::Unit, T(1),
                     std::as_const(a).tile(k, k), akj);
        },
        deps, {"swptrsm", lane_swptrsm(k, j), k});
  }
  // Eliminate non-domain rows (every next-column GEMM needs its row's
  // eliminate, so these are critical-path too).
  for (int i = k + 1; i < n; ++i) {
    if (in_domain[static_cast<std::size_t>(i)]) continue;
    d.submit(
        [&a, i, k] {
          auto aik = a.tile(i, k);
          kern::trsm(Side::Right, Uplo::Upper, Trans::No, Diag::NonUnit, T(1),
                     std::as_const(a).tile(k, k), aik);
        },
        {{a.tile_key(i, k), Access::ReadWrite}, {a.tile_key(k, k), Access::Read}},
        {"trsm", kLaneGate, k});
  }
  // Embarrassingly parallel trailing update. The GEMM is the final writer
  // of trailing tile (i, j) in this step, so it contributes the growth term.
  for (int i = k + 1; i < n; ++i) {
    for (int j = k + 1; j < nt; ++j) {
      d.submit(
          [&a, c, i, j, k, n, growth] {
            // The executing worker's arena: packing scratch allocated once
            // per worker, reused by every task that lands on it.
            kern::Workspace& ws = kern::tls_workspace();
            auto aij = a.tile(i, j);
            kern::gemm(Trans::No, Trans::No, T(-1), std::as_const(a).tile(i, k),
                       std::as_const(a).tile(k, j), T(1), aij, &ws);
            if (growth && j < n)
              atomic_max(c->step_max,
                         static_cast<double>(kern::lange(
                             kern::Norm::One, ConstMatrixView<T>(aij))));
          },
          {{a.tile_key(i, j), Access::ReadWrite},
           {a.tile_key(i, k), Access::Read},
           {a.tile_key(k, j), Access::Read}},
          {"gemm", lane_update(k, j), k});
    }
  }
}

template <typename T>
void submit_qr_step(Driver<T>& d, StepContext<T>& ctx,
                    core::StepLogT<T>* step_log) {
  TileMatrix<T>& a = d.a;
  const int k = ctx.pf.k;
  const int n = d.n;
  const int nb = a.nb();
  const int nt = a.nt();
  const bool growth = d.growth;
  StepContext<T>* c = &ctx;

  // Restore the panel (Propagate's QR branch).
  {
    std::vector<Dep> deps;
    for (int r : ctx.pf.domain_rows) deps.push_back({a.tile_key(r, k), Access::ReadWrite});
    d.submit(
        [&a, c, k, nb] {
          for (std::size_t t = 0; t < c->pf.domain_rows.size(); ++t) {
            auto tile = a.tile(c->pf.domain_rows[t], k);
            const auto& buf = c->backup[t];
            for (int j = 0; j < nb; ++j)
              for (int i = 0; i < nb; ++i)
                tile(i, j) = buf[static_cast<std::size_t>(j) * nb + i];
          }
        },
        deps, {"restore", kLaneGate, k});
  }

  const auto list = hqr::elimination_list(d.grid.panel_domains(k, n), d.options.tree);

  // Allocate the block-reflector factors up front, walking the elimination
  // list in the sequential driver's order (lazy GEQRT of killers/TT
  // participants, then the elimination itself). That walk is what defines a
  // replay-valid order, so when a log is kept its QrOps are recorded here —
  // referencing T storage the tasks below will fill in.
  std::vector<bool> needs_geqrt(static_cast<std::size_t>(n), false);
  std::vector<Matrix<T>*> row_t(static_cast<std::size_t>(n), nullptr);
  std::vector<Matrix<T>*> elim_t;
  elim_t.reserve(list.size());
  auto new_t = [&](core::QrKind kind, int killer, int killed) {
    auto t = std::make_shared<Matrix<T>>(nb, nb);
    ctx.t_factors.push_back(t);
    if (step_log) step_log->qr_ops.push_back({kind, killer, killed, t});
    return t.get();
  };
  auto plan_geqrt = [&](int row) {
    if (needs_geqrt[static_cast<std::size_t>(row)]) return;
    needs_geqrt[static_cast<std::size_t>(row)] = true;
    row_t[static_cast<std::size_t>(row)] = new_t(core::QrKind::Geqrt, row, row);
  };
  for (const auto& e : list) {
    plan_geqrt(e.killer);
    if (e.kernel == hqr::ElimKernel::TT) plan_geqrt(e.killed);
    elim_t.push_back(new_t(e.kernel == hqr::ElimKernel::TS ? core::QrKind::Ts
                                                           : core::QrKind::Tt,
                           e.killer, e.killed));
  }
  if (list.empty()) plan_geqrt(k);

  for (int row = k; row < n; ++row) {
    if (!needs_geqrt[static_cast<std::size_t>(row)]) continue;
    Matrix<T>* t = row_t[static_cast<std::size_t>(row)];
    d.submit(
        [&a, row, k, t] { kern::geqrt(a.tile(row, k), t->view()); },
        {{a.tile_key(row, k), Access::ReadWrite}, {t->data(), Access::Write}},
        {"geqrt", kLaneGate, k});
    for (int j = k + 1; j < nt; ++j) {
      d.submit(
          [&a, row, j, k, t] {
            kern::unmqr(Trans::Yes, std::as_const(a).tile(row, k), t->cview(),
                        a.tile(row, j), &kern::tls_workspace());
          },
          {{a.tile_key(row, j), Access::ReadWrite},
           {a.tile_key(row, k), Access::Read},
           {t->data(), Access::Read}},
          {"unmqr", lane_update(k, j), k});
    }
  }

  for (std::size_t ei = 0; ei < list.size(); ++ei) {
    const auto& e = list[ei];
    Matrix<T>* t = elim_t[ei];
    const bool ts = e.kernel == hqr::ElimKernel::TS;
    d.submit(
        [&a, e, k, t, ts] {
          if (ts) {
            kern::tsqrt(a.tile(e.killer, k), a.tile(e.killed, k), t->view());
          } else {
            kern::ttqrt(a.tile(e.killer, k), a.tile(e.killed, k), t->view());
          }
        },
        {{a.tile_key(e.killer, k), Access::ReadWrite},
         {a.tile_key(e.killed, k), Access::ReadWrite},
         {t->data(), Access::Write}},
        {ts ? "tsqrt" : "ttqrt", kLaneGate, k});
    for (int j = k + 1; j < nt; ++j) {
      // A row is killed exactly once and never reappears in the list, so
      // this update performs the final write of tile (killed, j) this step
      // — the growth contribution. (Killer rows > k get their final write
      // where they are later killed; row k is outside the trailing block.)
      d.submit(
          [&a, c, e, j, k, n, t, ts, growth] {
            kern::Workspace& ws = kern::tls_workspace();
            if (ts) {
              kern::tsmqr(Trans::Yes, std::as_const(a).tile(e.killed, k),
                          t->cview(), a.tile(e.killer, j), a.tile(e.killed, j),
                          &ws);
            } else {
              kern::ttmqr(Trans::Yes, std::as_const(a).tile(e.killed, k),
                          t->cview(), a.tile(e.killer, j), a.tile(e.killed, j),
                          &ws);
            }
            if (growth && j < n)
              atomic_max(c->step_max,
                         static_cast<double>(kern::lange(
                             kern::Norm::One,
                             ConstMatrixView<T>(a.tile(e.killed, j)))));
          },
          {{a.tile_key(e.killer, j), Access::ReadWrite},
           {a.tile_key(e.killed, j), Access::ReadWrite},
           {a.tile_key(e.killed, k), Access::Read},
           {t->data(), Access::Read}},
          {ts ? "tsmqr" : "ttmqr", lane_update(k, j), k});
    }
  }
}

template <typename T>
void submit_step(Driver<T>& d, int k);

// The post-decision half of the paper's Propagate task, run inside the
// panel task: record the step, fan out the LU or QR update graph, and submit
// the next step's panel (or, at the chain's end on an external engine, the
// run's completion sentinel).
template <typename T>
void record_and_submit(Driver<T>& d, int k) {
  StepContext<T>* c = d.steps[static_cast<std::size_t>(k)].get();

  core::StepRecordT<T> rec;
  rec.k = k;
  rec.kind = c->lu ? StepKind::LU : StepKind::QR;
  rec.variant = d.options.variant;
  rec.inv_norm_akk = c->pf.stats.inv_norm_akk;
  for (double nrm : c->pf.stats.below_tile_norms)
    rec.max_below = std::max(rec.max_below, nrm);
  d.stats.steps.push_back(rec);

  core::StepLogT<T>* step_log = nullptr;
  if (d.log) {
    d.log->emplace_back();
    step_log = &d.log->back();
    step_log->lu = c->lu;
    if (c->lu) {
      // A1 replay data only: this driver rejects A2/B1/B2, so the panel
      // factorization never carries a diag_t.
      step_log->domain_rows = c->pf.domain_rows;
      step_log->piv = c->pf.piv;
    }
  }

  if (c->lu) {
    ++d.stats.lu_steps;
    submit_lu_step(d, *c);
  } else {
    ++d.stats.qr_steps;
    submit_qr_step(d, *c, step_log);
  }

  if (k + 1 < d.n)
    submit_step(d, k + 1);
  else if (d.external)
    d.submit_completion();  // chain end: this run's sentinel
}

// Submit the panel/decision task for step k. Its dependences on the column-k
// tiles order it after every update of step k-1 that feeds it, and order the
// panels themselves sequentially — which is what lets the decision chain
// append to stats/log without extra synchronization.
template <typename T>
void submit_step(Driver<T>& d, int k) {
  d.steps[static_cast<std::size_t>(k)] = std::make_unique<StepContext<T>>();
  StepContext<T>* c = d.steps[static_cast<std::size_t>(k)].get();

  std::vector<int> domain_rows;
  switch (d.options.scope) {
    case core::PivotScope::Tile: domain_rows = {k}; break;
    case core::PivotScope::Domain: domain_rows = d.grid.diagonal_domain(k, d.n); break;
    case core::PivotScope::Panel:
      for (int i = k; i < d.n; ++i) domain_rows.push_back(i);
      break;
  }

  // Panel task: backup + stacked factorization + criterion. Depends on all
  // panel tiles (stats are gathered from the whole panel).
  std::vector<Dep> deps;
  for (int r : domain_rows) deps.push_back({d.a.tile_key(r, k), Access::ReadWrite});
  std::vector<bool> in_domain(static_cast<std::size_t>(d.n), false);
  for (int r : domain_rows) in_domain[static_cast<std::size_t>(r)] = true;
  for (int i = k; i < d.n; ++i)
    if (!in_domain[static_cast<std::size_t>(i)])
      deps.push_back({d.a.tile_key(i, k), Access::Read});

  const bool exact = d.options.exact_inv_norm;
  Driver<T>* dp = &d;
  // Submitted raw (not via Driver::submit): on an external engine a panel
  // failure must not just be recorded — it cuts the decision chain, so the
  // panel itself routes the error and sends the completion sentinel in the
  // chain's stead (otherwise the waiting driver thread would never wake).
  d.engine.submit(
      [dp, c, k, domain_rows, exact] {
        try {
          c->pf = core::factor_panel(dp->a, k, domain_rows, exact, c->backup);
          c->lu = dp->criterion.accept_lu(c->pf.stats);
          record_and_submit(*dp, k);
        } catch (...) {
          if (!dp->external) throw;  // owned engine: captured globally, as before
          dp->record_error(std::current_exception());
          dp->submit_completion();
        }
      },
      deps, {"panel", kLanePanel, k});
}

// Submission/wait phase plus the post-drain bookkeeping, shared by the
// owned-engine and external-engine entry points.
template <typename T>
core::FactorizationStatsT<T> drive(Driver<T>& d, core::TransformLogT<T>* log,
                                   const SchedulerOptions& sched,
                                   SchedulerStats* sched_stats,
                                   const Staging<T>& stage) {
  if (log) log->clear();
  d.log = log;

  // Audit mode: register every tile of the working matrix so each task's
  // actual accesses resolve back to tile coordinates. Scratch the tasks own
  // privately (panel backups, T factors) stays unregistered and unaudited.
  // The registration must outlive the task graph; drive() drains the engine
  // before returning, so function scope is exactly right.
  std::unique_ptr<ScopedTileRegistration> audit_tiles;
  if (d.engine.auditing())
    audit_tiles = std::make_unique<ScopedTileRegistration>(d.a);

  if (d.growth) d.stats.growth_factor = 1.0;

  try {
    if (stage.source) {
      submit_staging(d, stage);
    } else if (d.growth) {
      d.initial_max = core::max_trailing_tile_norm(d.a, 0);
    }
    // Seed step 0; the decision chain submits the rest.
    if (d.n > 0) submit_step(d, 0);
  } catch (...) {
    // Owned engine: propagate as before (the engine member drains in the
    // Driver's destruction). External engine: the driver must stay alive
    // until its in-flight tasks finish, so record, sentinel, and fall
    // through to the wait below.
    if (!d.external) throw;
    d.record_error(std::current_exception());
    d.submit_completion();
  }

  if (d.external) {
    // The decision chain sends the sentinel; with no steps (an empty
    // matrix) this thread does. submit_completion is idempotent.
    if (d.n == 0) d.submit_completion();
    d.done.get_future().wait();
    d.rethrow_if_failed();
  } else {
    d.engine.wait_all();
  }

  const double initial_max = d.initial_max.load(std::memory_order_relaxed);
  if (d.growth && initial_max > 0.0) {
    for (const auto& step : d.steps) {
      if (!step) continue;  // a failed step cut the decision chain short
      d.stats.growth_factor =
          std::max(d.stats.growth_factor,
                   step->step_max.load(std::memory_order_relaxed) / initial_max);
    }
  }

  if (sched_stats) {
    sched_stats->tasks_executed = d.engine.tasks_executed();
    sched_stats->steals = d.engine.steals();
    sched_stats->critical_path = d.engine.critical_path_length();
    sched_stats->lane_tasks = d.engine.lane_executed();
    if (sched.trace) sched_stats->trace = d.engine.trace();
    if (d.engine.auditing()) {
      sched_stats->audited_tasks = d.engine.audited_tasks();
      sched_stats->audit_access_violations = d.engine.access_violations().size();
    }
  }
  if (sched.trace && !sched.trace_path.empty())
    d.engine.write_chrome_trace(sched.trace_path);

  // Happens-before certification: with the graph drained, prove every
  // conflicting access pair was ordered by a declared-dependency path. Owned
  // engines only — a shared engine's recorded history interleaves other
  // jobs' tasks, so certification there is the engine owner's call (the
  // per-task access audit above still ran either way).
  if (!d.external && d.engine.auditing()) {
    const auto hb = d.engine.certify_happens_before();
    if (sched_stats) sched_stats->audit_hb_violations = hb.size();
    if (!hb.empty()) throw Error(hb.front().message());
  }
  return std::move(d.stats);
}

template <typename T>
void validate_factor_args(const TileMatrix<T>& a, const HybridOptions& options,
                          const Staging<T>& stage) {
  LUQR_REQUIRE(options.variant == core::LuVariant::A1,
               "the parallel driver implements variant A1 (the paper's "
               "evaluated variant); use the sequential driver for A2/B1/B2");
  LUQR_REQUIRE(a.nt() >= a.mt(), "matrix must contain its square part");
  if (stage.source) {
    LUQR_REQUIRE(stage.source->rows() <= a.rows() && stage.source->cols() <= a.cols(),
                 "staging source does not fit the tile grid");
    LUQR_REQUIRE(!stage.copy || (stage.copy->rows() == stage.source->rows() &&
                                 stage.copy->cols() == stage.source->cols()),
                 "staging copy must have the source's shape");
  } else {
    LUQR_REQUIRE(!stage.copy, "a staging copy needs a staging source");
  }
}

}  // namespace

template <typename T>
core::FactorizationStatsT<T> parallel_hybrid_factor(
    TileMatrix<T>& a, Criterion& criterion, const HybridOptions& options,
    int num_threads, detail::non_deduced<core::TransformLogT<T>*> log,
    const SchedulerOptions& sched, SchedulerStats* sched_stats,
    detail::non_deduced<Staging<T>> stage) {
  validate_factor_args(a, options, stage);
  Driver<T> d(a, criterion, options, sched, num_threads);
  return drive(d, log, sched, sched_stats, stage);
}

template <typename T>
core::FactorizationStatsT<T> parallel_hybrid_factor_on(
    Engine& engine, TileMatrix<T>& a, Criterion& criterion,
    const HybridOptions& options,
    detail::non_deduced<core::TransformLogT<T>*> log,
    const SchedulerOptions& sched, SchedulerStats* sched_stats,
    detail::non_deduced<Staging<T>> stage) {
  validate_factor_args(a, options, stage);
  LUQR_REQUIRE(!sched.trace,
               "per-task tracing needs a quiescent engine of its own; it is "
               "unavailable on a shared engine");
  Driver<T> d(engine, a, criterion, options);
  return drive(d, log, sched, sched_stats, stage);
}

template core::FactorizationStatsT<double> parallel_hybrid_factor(
    TileMatrix<double>&, Criterion&, const HybridOptions&, int,
    core::TransformLogT<double>*, const SchedulerOptions&, SchedulerStats*,
    Staging<double>);
template core::FactorizationStatsT<float> parallel_hybrid_factor(
    TileMatrix<float>&, Criterion&, const HybridOptions&, int,
    core::TransformLogT<float>*, const SchedulerOptions&, SchedulerStats*,
    Staging<float>);
template core::FactorizationStatsT<double> parallel_hybrid_factor_on(
    Engine&, TileMatrix<double>&, Criterion&, const HybridOptions&,
    core::TransformLogT<double>*, const SchedulerOptions&, SchedulerStats*,
    Staging<double>);
template core::FactorizationStatsT<float> parallel_hybrid_factor_on(
    Engine&, TileMatrix<float>&, Criterion&, const HybridOptions&,
    core::TransformLogT<float>*, const SchedulerOptions&, SchedulerStats*,
    Staging<float>);

// parallel_hybrid_solve is a thin wrapper over the luqr::Solver facade; its
// definition lives in api/solver.cpp so this layer never includes upward.

}  // namespace luqr::rt
