// Task-parallel hybrid LU-QR factorization on the dataflow engine.
//
// Mirrors core::hybrid_factor exactly (same kernels, same per-tile operation
// order, hence bitwise-identical results — a property the tests assert), but
// expressed as a dynamic task graph:
//
//   panel task (Backup + LU-On-Panel + criterion)  <- the decision
//   LU path:  per-column swap+apply tasks, per-row eliminate tasks,
//             per-tile GEMM update tasks (embarrassingly parallel)
//   QR path:  restore task, then GEQRT/TSQRT/TTQRT factor tasks each
//             fanning out per-column UNMQR/TSMQR/TTMQR update tasks
//
// The panel task is the paper's Propagate selection task: it decides
// LU-vs-QR *inside the dataflow* and submits the step's updates plus the
// next step's panel itself, so the submitting thread never joins and the
// workers keep lookahead across as many steps as the dependences allow.
//
// Tasks of step k run in a fixed engine priority lane, graded by how
// directly they gate the next panel decisions (a column's distance from the
// panel is d = j - k - 1):
//   panel chain                                   lane 4
//   gates: eliminate trsm, geqrt/tsqrt/ttqrt,
//          restore                                lane 3
//   swptrsm on column k+1+d                       lane max(0, 3 - d)
//   updates (gemm, unmqr, tsmqr, ttmqr) on
//          column k+1+d, and staging chunks       lane max(0, 2 - d)
// (staging is step -1; a chunk is graded by its first column). The lanes are
// pure scheduling hints: results are bitwise the same under any order the
// dependences allow. SchedulerOptions only adds observation: the per-task
// trace, the audit and chaos scheduling (see runtime/scheduler.hpp).
#pragma once

#include "core/solve.hpp"
#include "criteria/criteria.hpp"
#include "runtime/engine.hpp"
#include "runtime/scheduler.hpp"
#include "tile/tile_matrix.hpp"

namespace luqr::rt {

namespace detail {
/// Keeps a parameter out of template-argument deduction (so callers may
/// pass nullptr for the optional TransformLog without naming T).
template <typename U>
struct NonDeduced {
  using type = U;
};
template <typename U>
using non_deduced = typename NonDeduced<U>::type;
}  // namespace detail

/// Engine-level telemetry of one parallel factorization (optional out-param
/// of parallel_hybrid_factor; filled after the graph drains). On an owned
/// engine (parallel_hybrid_factor) every field describes exactly this run;
/// on a caller-provided shared engine (parallel_hybrid_factor_on) all of
/// them — including critical_path and lane_tasks — are engine-lifetime
/// totals across every job the pool has executed, not per-run deltas (a
/// running max cannot be rewound, and concurrent jobs interleave).
struct SchedulerStats {
  std::uint64_t tasks_executed = 0;
  std::uint64_t steals = 0;
  /// Longest dependence chain of the submitted task graph (in tasks) — the
  /// DAG critical path the priority lanes are racing.
  std::uint64_t critical_path = 0;
  /// Tasks executed per engine priority lane (index = priority).
  std::vector<std::uint64_t> lane_tasks;
  /// Per-task timing (only when SchedulerOptions::trace was set). Tasks are
  /// tagged with their step index k.
  std::vector<TraceEvent> trace;
  /// Audit mode only (SchedulerOptions::audit): tasks that ran under the
  /// access auditor, and the violation counts of the two analyses. A clean
  /// audited run reports audited_tasks > 0 and both counts zero (nonzero
  /// counts also make the factorization throw).
  std::uint64_t audited_tasks = 0;
  std::uint64_t audit_access_violations = 0;
  std::uint64_t audit_hb_violations = 0;
};

/// Optional input staging for the parallel drivers. With `source` set, the
/// run's first tasks, one per chunk of tile columns on the pool that
/// factors, write every element of the tiles from it
/// (TileMatrix::fill_columns: padding and stride slack included, so the
/// tiles may come straight from TileMatrix::uninitialized), each declaring
/// Write on the tiles it fills. With `copy` also set (shaped like the
/// source, typically Matrix::uninitialized), the same tasks copy their
/// columns of the source into it: the retained original. Every page is then
/// first touched by the worker that writes it, and the calling thread
/// converts and copies nothing.
template <typename T>
struct Staging {
  const Matrix<T>* source = nullptr;
  Matrix<T>* copy = nullptr;
};

/// Parallel equivalent of core::hybrid_factor, including
/// HybridOptions::track_growth (reduced via per-step atomic maxima over the
/// final value of each trailing tile, so the reported growth factor is
/// bitwise identical to the sequential driver's).
///
/// When `log` is non-null, every transformation is recorded exactly as the
/// sequential driver records it (same replay order, bitwise-identical
/// factors), so the result can seed a retained core::Factorization that
/// serves fresh right-hand sides later.
/// `stage` (see Staging) fills `a` on the workers before the steps read it.
/// Instantiated for double and float; the float instantiation backs the
/// Precision::F32/F32_IR paths (criterion statistics are gathered in double
/// regardless of T, so the LU-vs-QR decisions match the f64 run shape-wise).
template <typename T>
core::FactorizationStatsT<T> parallel_hybrid_factor(
    TileMatrix<T>& a, Criterion& criterion, const core::HybridOptions& options,
    int num_threads, detail::non_deduced<core::TransformLogT<T>*> log = nullptr,
    const SchedulerOptions& sched = {}, SchedulerStats* sched_stats = nullptr,
    detail::non_deduced<Staging<T>> stage = {});

/// Same factorization, but on a caller-provided long-lived engine instead of
/// a per-call worker pool — the serve subsystem's mode: many factorizations
/// multiplex onto one shared pool, concurrently if the caller wishes (their
/// task graphs touch disjoint tiles, so the engine keeps them independent).
/// Returns once this run's tasks have all completed; errors are captured per
/// run and rethrown here, never parked in the shared engine's global error
/// slot. SchedulerOptions::trace is unsupported (it needs a quiescent
/// engine); SchedulerStats, when requested, reports engine-wide lifetime
/// totals (see the struct comment), not this run's share. Staging tasks run
/// under this run's error guard, like every other task of the run.
template <typename T>
core::FactorizationStatsT<T> parallel_hybrid_factor_on(
    Engine& engine, TileMatrix<T>& a, Criterion& criterion,
    const core::HybridOptions& options,
    detail::non_deduced<core::TransformLogT<T>*> log = nullptr,
    const SchedulerOptions& sched = {}, SchedulerStats* sched_stats = nullptr,
    detail::non_deduced<Staging<T>> stage = {});

/// Parallel equivalent of core::hybrid_solve.
core::SolveResult parallel_hybrid_solve(const Matrix<double>& a,
                                        const Matrix<double>& b,
                                        Criterion& criterion, int nb,
                                        const core::HybridOptions& options,
                                        int num_threads);

}  // namespace luqr::rt
