// The benchmark's workloads: one ExperimentConfig per name and trace of a
// run seed.  README.md in this directory says why each exists and which
// layers it stresses or bypasses.
//
// The seed is the only input that varies between runs.  Each of its traces
// maps to the trace generator's trace_seed_offset and, in open loop, to the
// arrival process salt; everything else is frozen here so two commits
// measure the same replays.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/policy.h"
#include "sim/experiment.h"
#include "workload/arrival.h"
#include "workload/tenant.h"

namespace perfbench {

/// Run seed the workloads are defined at (its first trace is the profile's
/// own calibrated seed); run.py --self-check also runs kHeldOutSeed.
inline constexpr std::uint64_t kDefaultSeed = 0;
inline constexpr std::uint64_t kHeldOutSeed = 104729;

/// A run seed stands for several traces: single traces differ too much in
/// modelled tails and wear spread for one of them to represent a workload
/// (README.md "Seeds"), so run.py replays all of a seed's traces and
/// reports their interquartile mean.  Trace i of seed n has
/// trace_seed_offset n * kTraceStride + i.
inline constexpr std::uint64_t kTraceStride = 32;

struct WorkloadSpec {
  const char* name;
  std::uint32_t traces_per_seed;  // <= kTraceStride
};

inline constexpr std::array<WorkloadSpec, 3> kWorkloads = {{
    {"closed-home02-hdf", 32},
    {"closed-lair62-cdf", 32},
    {"open-mix-nvme", 24},
}};

/// Offered load of open-mix-nvme in ops/s: 0.7x the saturated completion
/// rate this cluster reached when the same mix was offered far beyond
/// capacity (see README.md "open-mix-nvme").  Frozen, not re-measured.
inline constexpr double kOpenMixRate = 105000.0;

namespace detail {

/// Monitor-mode epoch scaled with the trace, as tools/edm_run does, so a
/// reduced replay still sees regular wear-monitor evaluations.
inline void use_monitor_trigger(edm::sim::ExperimentConfig& cfg) {
  cfg.sim.trigger = edm::sim::MigrationTrigger::kMonitor;
  cfg.sim.epoch_length_us = static_cast<edm::SimDuration>(
      std::max(0.5e6, 20e6 * cfg.scale));
}

inline edm::workload::TenantSpec tenant(const char* profile, double scale,
                                        double rate) {
  edm::workload::TenantSpec t;
  t.profile = profile;
  t.scale = scale;
  t.rate_ops_per_sec = rate;
  t.arrival = edm::workload::ArrivalKind::kPoisson;
  return t;
}

}  // namespace detail

/// Trace `index` of run seed `seed`.  Throws std::invalid_argument for an
/// unknown workload name or trace index.
inline edm::sim::ExperimentConfig workload_config(const std::string& name,
                                                  std::uint64_t seed,
                                                  std::uint32_t index) {
  const auto spec =
      std::find_if(kWorkloads.begin(), kWorkloads.end(),
                   [&](const WorkloadSpec& w) { return name == w.name; });
  if (spec == kWorkloads.end()) {
    throw std::invalid_argument("unknown workload: " + name);
  }
  if (index >= spec->traces_per_seed) {
    throw std::invalid_argument("trace index out of range for " + name);
  }
  edm::sim::ExperimentConfig cfg;
  cfg.num_osds = 16;
  cfg.trace_seed_offset = seed * kTraceStride + index;
  if (name == "closed-home02-hdf") {
    cfg.trace_name = "home02";
    cfg.scale = 0.25;
    cfg.policy = edm::core::PolicyKind::kHdf;
    detail::use_monitor_trigger(cfg);
  } else if (name == "closed-lair62-cdf") {
    cfg.trace_name = "lair62";
    cfg.scale = 0.5;
    cfg.policy = edm::core::PolicyKind::kCdf;
    detail::use_monitor_trigger(cfg);
    cfg.sim.adaptive_sigma = true;
  } else if (name == "open-mix-nvme") {
    // Tenant scales keep the record counts near the 0.6/0.4 rate split,
    // so both tenants stay active for the whole replay.
    cfg.scale = 0.3;
    cfg.policy = edm::core::PolicyKind::kHdf;
    detail::use_monitor_trigger(cfg);
    cfg.open_loop.tenants = {detail::tenant("home02", 0.15, 0.6 * kOpenMixRate),
                             detail::tenant("lair62", 0.26, 0.4 * kOpenMixRate)};
    cfg.open_loop.arrival_seed = cfg.trace_seed_offset;
    cfg.flash.geometry = edm::flash::FlashGeometry{8, 4, 2};
    cfg.flash.bus_ctrl_us = 2;
    cfg.flash.bus_data_us = 10;
    cfg.sim.osd_queue_depth = 8;
    cfg.sim.health.enabled = true;
    cfg.telemetry.trace_enabled = true;
    cfg.telemetry.metrics_enabled = true;
    cfg.telemetry.sample_interval_us = 1'000'000;
  }
  return cfg;
}

}  // namespace perfbench
