// Simulator-level contract for the parallel flash dispatch path
// (docs/internals/flash.md "Parallel timing model"):
//
//  * an explicit 1x1x1 geometry with zero bus delays is the flat model --
//    report bytes identical to the default config, at any osd_queue_depth
//    (a flat OSD is definitionally serial, the depth knob is inert);
//  * a multi-die geometry converts queue depth into throughput.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "sim/experiment.h"
#include "sim/report.h"

namespace edm::sim {
namespace {

std::string report_json(const RunResult& result) {
  std::ostringstream os;
  write_json(result, os);
  return os.str();
}

ExperimentConfig base_cell() {
  ExperimentConfig cfg;
  cfg.trace_name = "home02";
  cfg.policy = core::PolicyKind::kNone;
  cfg.scale = 0.01;
  cfg.num_osds = 8;
  cfg.num_groups = 4;
  return cfg;
}

ExperimentConfig nvme_cell() {
  ExperimentConfig cfg = base_cell();
  cfg.flash.geometry = flash::FlashGeometry{8, 4, 2};
  cfg.flash.bus_ctrl_us = 2;
  cfg.flash.bus_data_us = 10;
  return cfg;
}

TEST(ParallelSim, ExplicitFlatGeometryIsByteIdenticalToDefault) {
  const std::string expected = report_json(run_experiment(base_cell()));

  ExperimentConfig cfg = base_cell();
  cfg.flash.geometry = flash::FlashGeometry{1, 1, 1};
  cfg.flash.bus_ctrl_us = 0;
  cfg.flash.bus_data_us = 0;
  EXPECT_EQ(expected, report_json(run_experiment(cfg)));

  // The depth knob is inert on flat devices: they clamp to serial
  // service, so even osd_queue_depth = 8 replays the same bytes.
  cfg.sim.osd_queue_depth = 8;
  EXPECT_EQ(expected, report_json(run_experiment(cfg)));
}

TEST(ParallelSim, QueueDepthBuysThroughputOnParallelGeometry) {
  // Zero software overhead so the device pipeline is the bottleneck (the
  // per-request overhead would otherwise overlap across sub-requests and
  // mask the geometry).
  ExperimentConfig cfg = nvme_cell();
  cfg.sim.trigger = MigrationTrigger::kNone;
  cfg.sim.request_overhead_us = 0;
  cfg.sim.osd_queue_depth = 1;
  const RunResult serial = run_experiment(cfg);
  cfg.sim.osd_queue_depth = 8;
  const RunResult deep = run_experiment(cfg);
  ASSERT_EQ(serial.completed_ops, deep.completed_ops);
  EXPECT_LT(deep.makespan_us, serial.makespan_us)
      << "8 deep dispatch should overlap die work the serial replay cannot";
}

TEST(ParallelSim, DepthChangesReplayOnlyThroughDeviceTiming) {
  // Determinism: the same config replays to the same bytes, and depth is
  // a real model knob -- two depths give *different* (but individually
  // stable) reports on parallel devices.
  ExperimentConfig cfg = nvme_cell();
  cfg.sim.osd_queue_depth = 4;
  const std::string first = report_json(run_experiment(cfg));
  EXPECT_EQ(first, report_json(run_experiment(cfg)));
  cfg.sim.osd_queue_depth = 1;
  EXPECT_NE(first, report_json(run_experiment(cfg)));
}

TEST(ParallelSim, ZeroQueueDepthRejected) {
  ExperimentConfig cfg = base_cell();
  cfg.sim.osd_queue_depth = 0;
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace edm::sim
