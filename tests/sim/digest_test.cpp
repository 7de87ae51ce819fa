// Behaviour-preservation digests for the performance work on the hot path.
//
// Each cell below runs a full experiment and renders its report JSON (and,
// for the telemetry cell, the Chrome trace stream and time-series CSV);
// the bytes must match reference fixtures captured from the tree *before*
// the PR-4 optimisations (calendar event queue, batched flash range ops,
// flat temperature maps, locate/dispatch fast paths).  Any behavioural
// drift an optimisation introduces -- a reordered event, a different GC
// decision, a missing counter increment -- shows up here as a byte diff.
//
// Regenerating fixtures (only legitimate when a PR *intentionally* changes
// simulation behaviour and says so):
//
//   EDM_DIGEST_REGEN=1 ./build/tests/sim_tests --gtest_filter='Digest*'
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/experiment.h"
#include "sim/report.h"
#include "telemetry/telemetry.h"

namespace edm::sim {
namespace {

#ifndef EDM_TEST_DATA_DIR
#error "EDM_TEST_DATA_DIR must point at tests/data"
#endif

std::string fixture_path(const std::string& name) {
  return std::string(EDM_TEST_DATA_DIR) + "/digest/" + name;
}

bool regen() { return std::getenv("EDM_DIGEST_REGEN") != nullptr; }

/// Compares `actual` against the named fixture, or rewrites the fixture in
/// regen mode.  Byte comparison: even a float-formatting change counts.
void check_digest(const std::string& name, const std::string& actual) {
  const std::string path = fixture_path(name);
  if (regen()) {
    std::ofstream os(path, std::ios::binary);
    ASSERT_TRUE(os.is_open()) << "cannot write fixture " << path;
    os << actual;
    return;
  }
  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is.is_open()) << "missing fixture " << path
                            << " (run with EDM_DIGEST_REGEN=1 to create)";
  std::ostringstream expected;
  expected << is.rdbuf();
  ASSERT_EQ(expected.str(), actual)
      << "simulation output drifted from the pre-optimisation reference ("
      << name << ")";
}

std::string report_json(const RunResult& result) {
  std::ostringstream os;
  write_json(result, os);
  return os.str();
}

std::string trace_json(const RunResult& result) {
  std::ostringstream os;
  result.telemetry->tracer()->write_chrome_json(os);
  return os.str();
}

std::string timeseries_csv(const RunResult& result) {
  std::ostringstream os;
  result.telemetry->sampler()->write_csv(os);
  return os.str();
}

/// Byte length + FNV-1a-64 of `bytes`: a small stand-in fixture for
/// streams too large to commit whole (a composed-scenario Chrome trace
/// is megabytes at scale 0.01).
std::string length_and_fnv1a64(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  char line[64];
  std::snprintf(line, sizeof line, "%zu %016llx\n", bytes.size(),
                static_cast<unsigned long long>(hash));
  return line;
}

ExperimentConfig base_cell(const std::string& trace, core::PolicyKind policy) {
  ExperimentConfig cfg;
  cfg.trace_name = trace;
  cfg.policy = policy;
  cfg.scale = 0.01;
  cfg.num_osds = 8;
  cfg.num_groups = 4;
  return cfg;
}

TEST(Digest, BaselineHome02) {
  check_digest("home02_baseline.json",
               report_json(run_experiment(
                   base_cell("home02", core::PolicyKind::kNone))));
}

TEST(Digest, CmtHome02) {
  check_digest("home02_cmt.json",
               report_json(run_experiment(
                   base_cell("home02", core::PolicyKind::kCmt))));
}

TEST(Digest, HdfHome02) {
  check_digest("home02_hdf.json",
               report_json(run_experiment(
                   base_cell("home02", core::PolicyKind::kHdf))));
}

TEST(Digest, CdfHome02) {
  check_digest("home02_cdf.json",
               report_json(run_experiment(
                   base_cell("home02", core::PolicyKind::kCdf))));
}

TEST(Digest, HdfLair62MultiChannelGcStream) {
  // Write-skewed trace with channel parallelism and the separated GC
  // stream: exercises channel_adjusted() and the GC-stream append path
  // that the batched write_range fast path must reproduce exactly.
  ExperimentConfig cfg = base_cell("lair62", core::PolicyKind::kHdf);
  cfg.flash.num_channels = 4;
  cfg.flash.separate_gc_stream = true;
  check_digest("lair62_hdf_channels.json", report_json(run_experiment(cfg)));
}

TEST(Digest, CdfLair62MonitorAdaptive) {
  // Monitor trigger + adaptive sigma: epoch-tick heavy, so the calendar
  // queue's far-tier (60 s epoch events) ordering is pinned too.
  ExperimentConfig cfg = base_cell("lair62", core::PolicyKind::kCdf);
  cfg.sim.trigger = MigrationTrigger::kMonitor;
  cfg.sim.adaptive_sigma = true;
  check_digest("lair62_cdf_monitor.json", report_json(run_experiment(cfg)));
}

// --- Streaming-path digests -----------------------------------------
//
// The same cells replayed through run_experiment_streaming (TraceCursor
// lanes instead of a materialised trace) must produce the byte-identical
// report: streaming changes memory shape, never behaviour.  These always
// compare -- fixtures are only ever (re)generated by the materialised
// tests above, so a divergence between the two paths cannot be hidden by
// a regen run.

TEST(Digest, StreamingBaselineHome02) {
  if (regen()) GTEST_SKIP() << "fixtures regenerate via the materialised path";
  check_digest("home02_baseline.json",
               report_json(run_experiment_streaming(
                   base_cell("home02", core::PolicyKind::kNone))));
}

TEST(Digest, StreamingHdfHome02) {
  if (regen()) GTEST_SKIP() << "fixtures regenerate via the materialised path";
  check_digest("home02_hdf.json",
               report_json(run_experiment_streaming(
                   base_cell("home02", core::PolicyKind::kHdf))));
}

TEST(Digest, StreamingCdfLair62MonitorAdaptive) {
  if (regen()) GTEST_SKIP() << "fixtures regenerate via the materialised path";
  ExperimentConfig cfg = base_cell("lair62", core::PolicyKind::kCdf);
  cfg.sim.trigger = MigrationTrigger::kMonitor;
  cfg.sim.adaptive_sigma = true;
  check_digest("lair62_cdf_monitor.json",
               report_json(run_experiment_streaming(cfg)));
}

TEST(Digest, StreamingHdfDeasnaFaultsAndTelemetry) {
  if (regen()) GTEST_SKIP() << "fixtures regenerate via the materialised path";
  ExperimentConfig cfg = base_cell("deasna", core::PolicyKind::kHdf);
  cfg.sim.faults.fail(2, 30ull * 1000 * 1000)
      .rebuild(2, 120ull * 1000 * 1000);
  cfg.sim.faults.transient_error_rate = 0.002;
  cfg.telemetry.trace_enabled = true;
  cfg.telemetry.metrics_enabled = true;
  cfg.telemetry.sample_interval_us = 1000 * 1000;

  const RunResult result = run_experiment_streaming(cfg);
  check_digest("deasna_hdf_faults.json", report_json(result));

  ASSERT_NE(result.telemetry, nullptr);
  std::ostringstream trace_os;
  result.telemetry->tracer()->write_chrome_json(trace_os);
  check_digest("deasna_hdf_faults_trace.json", trace_os.str());
  std::ostringstream ts_os;
  result.telemetry->sampler()->write_csv(ts_os);
  check_digest("deasna_hdf_faults_timeseries.csv", ts_os.str());
}

TEST(Digest, HdfDeasnaFaultsAndTelemetry) {
  // Faults (scheduled fail + online rebuild + transient errors) with the
  // full telemetry stack on.  The report JSON pins the metric counters;
  // the Chrome trace stream and time-series CSV pin every span timestamp
  // and sampled queue depth -- the strictest byte-identity check we have.
  ExperimentConfig cfg = base_cell("deasna", core::PolicyKind::kHdf);
  cfg.sim.faults.fail(2, 30ull * 1000 * 1000)
      .rebuild(2, 120ull * 1000 * 1000);
  cfg.sim.faults.transient_error_rate = 0.002;
  cfg.telemetry.trace_enabled = true;
  cfg.telemetry.metrics_enabled = true;
  cfg.telemetry.sample_interval_us = 1000 * 1000;

  const RunResult result = run_experiment(cfg);
  check_digest("deasna_hdf_faults.json", report_json(result));

  ASSERT_NE(result.telemetry, nullptr);
  std::ostringstream trace_os;
  result.telemetry->tracer()->write_chrome_json(trace_os);
  check_digest("deasna_hdf_faults_trace.json", trace_os.str());
  std::ostringstream ts_os;
  result.telemetry->sampler()->write_csv(ts_os);
  check_digest("deasna_hdf_faults_timeseries.csv", ts_os.str());
}

// --- Composed-scenario digests ---------------------------------------
//
// Features in combination: each cell below switches on several optional
// mechanisms at once and pins the report, the time-series CSV and (as
// length + FNV-1a-64) the Chrome trace.

/// The EDM paper's endurance-aware hot path: CDF policy on the wear
/// monitor with adaptive sigma, online health monitoring with mitigation,
/// and full telemetry (trace + counters + time-series rows).
ExperimentConfig monitor_cell(const std::string& trace) {
  ExperimentConfig cfg = base_cell(trace, core::PolicyKind::kCdf);
  cfg.policy_config.lambda = 0.01;  // eager trigger: mover activity early
  cfg.sim.trigger = MigrationTrigger::kMonitor;
  cfg.sim.monitor_cooldown_epochs = 1;
  // A reduced replay spans few default (60 s) epochs; shorten them so the
  // monitor gets real trigger opportunities (same move tools/edm_run makes
  // for --trigger=monitor runs).
  cfg.sim.epoch_length_us = 500'000;
  cfg.sim.adaptive_sigma = true;
  cfg.sim.health.enabled = true;
  cfg.sim.health.mitigate = true;
  cfg.telemetry.trace_enabled = true;
  cfg.telemetry.metrics_enabled = true;
  cfg.telemetry.sample_interval_us = 500'000;
  return cfg;
}

/// Checks all three output streams of a telemetry-on run against the
/// fixtures `<stem>.json`, `<stem>_timeseries.csv` and `<stem>_trace.fnv`.
void check_streams(const std::string& stem, const RunResult& result) {
  check_digest(stem + ".json", report_json(result));
  ASSERT_NE(result.telemetry, nullptr);
  check_digest(stem + "_timeseries.csv", timeseries_csv(result));
  check_digest(stem + "_trace.fnv", length_and_fnv1a64(trace_json(result)));
}

TEST(Digest, CdfHome02MonitorHealthTelemetry) {
  const RunResult result = run_experiment(monitor_cell("home02"));
  check_streams("home02_cdf_monitor_health", result);
  // Non-vacuity: flash GC runs under this load and its spans reach the
  // trace, so the hash above covers GC emission too.
  EXPECT_NE(trace_json(result).find("\"gc\""), std::string::npos)
      << "no GC spans in the trace";
}

TEST(Digest, CdfLair62MonitorHealthTelemetryMigrates) {
  const RunResult result = run_experiment(monitor_cell("lair62"));
  check_streams("lair62_cdf_monitor_health", result);
  // Non-vacuity: the monitor really triggers and the mover really moves.
  EXPECT_GT(result.migration.triggers, 0u);
  EXPECT_GT(result.migration.moved_objects, 0u);
}

TEST(Digest, HdfOpenLoopTwoTenantsTelemetry) {
  ExperimentConfig cfg;
  cfg.scale = 0.01;
  cfg.policy = core::PolicyKind::kHdf;
  cfg.telemetry.trace_enabled = true;
  cfg.telemetry.metrics_enabled = true;
  cfg.telemetry.sample_interval_us = 500'000;
  workload::TenantSpec home;
  home.profile = "home02";
  home.rate_ops_per_sec = 3000.0;
  home.slo_ms = 25.0;
  workload::TenantSpec lair;
  lair.profile = "lair62";
  lair.rate_ops_per_sec = 1500.0;
  lair.slo_ms = 50.0;
  cfg.open_loop.tenants = {home, lair};
  check_streams("openloop_hdf_two_tenants", run_experiment(cfg));
}

TEST(Digest, HdfHome02NvmeGeometry) {
  // HDF migration, trims and wear monitoring over 8x4x2 die-queue devices.
  ExperimentConfig cfg = base_cell("home02", core::PolicyKind::kHdf);
  cfg.flash.geometry = flash::FlashGeometry{8, 4, 2};
  cfg.flash.bus_ctrl_us = 2;
  cfg.flash.bus_data_us = 10;
  check_digest("home02_hdf_nvme.json", report_json(run_experiment(cfg)));
}

}  // namespace
}  // namespace edm::sim
