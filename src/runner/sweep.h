// Parallel, deterministic experiment-sweep runner.
//
// Every figure/ablation bench and the edm_run CLI replay a grid of
// independent (config, seed) simulations.  This module is the one code
// path that executes such a grid:
//
//  * Parallelism across runs, never inside one.  Each run is a complete
//    single-threaded DES on its own pool worker with its own trace
//    generator, cluster, and telemetry Recorder -- zero shared mutable
//    state between runs.
//  * Deterministic ordered aggregation.  Worker i writes its result into
//    slot i of a pre-sized vector; every consumer (tables, JSON, CSV,
//    per-run telemetry files) walks the vector in declared grid order.
//    Parallel output is therefore byte-identical to serial output at any
//    --jobs value (tests/runner/sweep_determinism_test.cpp pins this).
//  * Per-run seed derivation.  Optionally assigns each run
//    trace_seed_offset = derive_seed(base_seed, grid_index) (see seed.h)
//    -- pure arithmetic, computable by any worker in any order.
//  * First-error semantics.  If any run throws, the sweep finishes the
//    remaining runs, then rethrows the exception of the lowest-index
//    failed run (deterministic regardless of completion order).
//  * Progress/ETA line on a caller-supplied stream (normally stderr);
//    presentation only, results never depend on it.
//
// Thread-safety: run_sweep/parallel_map are blocking calls; each call
// owns its pool.  The callable passed to parallel_map is invoked
// concurrently and must not share mutable state across indices.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/experiment.h"

namespace edm::runner {

/// Where a sweep writes per-run telemetry streams.  Paths are templates:
/// with more than one run, "out.json" becomes "out-<grid index>.json" so
/// every run lands in its own file ("" = that stream off).
struct TelemetrySinks {
  std::string trace_out;       // Chrome trace-event JSON per run
  std::string timeseries_out;  // DES-clock time-series CSV per run
  double sample_interval_s = 1.0;  // simulated seconds between samples

  bool any() const { return !trace_out.empty() || !timeseries_out.empty(); }
};

struct SweepOptions {
  /// Worker threads: 0 = one per hardware thread, 1 = serial in the
  /// calling thread (today's single-thread behaviour), N = exactly N.
  std::size_t jobs = 0;

  /// When true, run i gets trace_seed_offset = derive_seed(base_seed, i).
  bool derive_seeds = false;
  std::uint64_t base_seed = 0;

  /// Progress line prefix and stream (null = no progress output).
  std::string label = "sweep";
  std::ostream* progress = nullptr;

  TelemetrySinks sinks;
};

/// "out.json" -> "out-3.json"; single-run sweeps keep the path verbatim.
std::string indexed_path(const std::string& path, std::size_t index,
                         std::size_t total);

/// Maps the sink settings onto one cell's TelemetryConfig (enables the
/// tracer/metrics/sampler that the requested output files need).
void apply_telemetry(sim::ExperimentConfig& cfg, const TelemetrySinks& sinks);

/// Assigns derived per-run seeds: cells[i].trace_seed_offset =
/// derive_seed(base_seed, i).  Exposed separately so callers with a
/// non-flat seed plan (e.g. seeds varying on one grid axis only) can
/// derive their own offsets from derive_seed directly.
void apply_seed_derivation(std::vector<sim::ExperimentConfig>& cells,
                           std::uint64_t base_seed);

/// Writes run `index`'s telemetry streams (if any were recorded) to the
/// sink paths, suffixed with the grid index when the sweep has > 1 run.
void write_run_outputs(const sim::RunResult& result,
                       const TelemetrySinks& sinks, std::size_t index,
                       std::size_t total);

/// write_run_outputs over a whole sweep, in grid order.
void write_sweep_outputs(const std::vector<sim::RunResult>& results,
                         const TelemetrySinks& sinks);

namespace detail {
/// Runs fn(i) for i in [0, n) on `jobs` workers with ordered completion
/// accounting and first-by-index exception propagation.  Non-template
/// core so the pool/progress machinery compiles once.
void run_indexed(std::size_t n, std::size_t jobs, const std::string& label,
                 std::ostream* progress,
                 const std::function<void(std::size_t)>& fn);
}  // namespace detail

/// Deterministic parallel map: out[i] = fn(i), aggregated in index order
/// regardless of completion order.  R must be default-constructible and
/// assignable; fn is called concurrently (one index per worker at a time).
template <typename R, typename Fn>
std::vector<R> parallel_map(std::size_t n, Fn&& fn,
                            const SweepOptions& opt = {}) {
  std::vector<R> out(n);
  detail::run_indexed(n, opt.jobs, opt.label, opt.progress,
                      [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

/// Deterministic parallel for: runs fn(i) for i in [0, n) on opt.jobs
/// workers with the sweep's progress/exception semantics.  fn must write
/// its outputs to per-index slots; cross-index side effects would
/// reintroduce scheduling dependence.
inline void parallel_for_each(std::size_t n,
                              const std::function<void(std::size_t)>& fn,
                              const SweepOptions& opt = {}) {
  detail::run_indexed(n, opt.jobs, opt.label, opt.progress, fn);
}

/// Runs a grid of experiment cells: applies telemetry sinks and (optional)
/// seed derivation, executes on `jobs` workers, writes per-run telemetry
/// files in grid order, returns results in declared grid order.
std::vector<sim::RunResult> run_sweep(std::vector<sim::ExperimentConfig> cells,
                                      const SweepOptions& opt = {});

}  // namespace edm::runner
