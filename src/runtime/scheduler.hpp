// Options of the task-parallel driver (shared with the api layer).
//
// The paper expresses the run-time LU/QR fork as selection (Propagate) tasks
// *inside* the dataflow so workers keep deep lookahead across steps; the
// driver runs exactly that policy, with a fixed priority-lane map (see
// runtime/parallel_hybrid.hpp). What remains configurable is observation:
// the per-task timing trace, the dataflow audit, and the engine's
// adversarial schedule exploration.
#pragma once

#include <cstdint>
#include <string>

namespace luqr::rt {

/// Observation options for parallel_hybrid_factor.
struct SchedulerOptions {
  /// Record per-task timing in the engine (needed for trace_path and for
  /// SchedulerStats::trace).
  bool trace = false;
  /// When tracing, write a Chrome-tracing JSON file here after the
  /// factorization drains (open via chrome://tracing or Perfetto).
  std::string trace_path;
  /// Run the factorization under the dataflow correctness auditor: every
  /// tile is registered with the audit registry, every task's actual
  /// accesses are validated against its declared set, and after the drain
  /// the happens-before certifier proves all conflicting access pairs are
  /// ordered by declared dependencies. Violations throw luqr::Error.
  /// Costs time and O(total tasks) memory — keep out of benchmarks.
  bool audit = false;
  /// Nonzero: seed the engine's adversarial schedule exploration (randomized
  /// queue draining + per-task delays; see rt::EngineOptions::chaos_seed).
  /// Results must stay bitwise identical — the audit harness asserts it.
  std::uint64_t chaos_seed = 0;
};

}  // namespace luqr::rt
