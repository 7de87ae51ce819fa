// edm_perfbench -- measuring program of the repository benchmark.
//
// One workload and one trace of a run seed per process (workloads.h);
// perfbench/run.py runs the processes, aggregates them and prints the
// benchmark's result line.
//
//   edm_perfbench replay --workload=<name> --seed=<n> --trace=<i>
//                        [--telemetry-off]
//       One replay through the public entry point users call
//       (run_experiment_streaming; run_experiment for open loop), with no
//       benchmark tracing.  Reports host times, peak RSS, the modelled
//       metrics and a digest of the deterministic run report.
//
//   edm_perfbench workloads
//       Prints the workload names, traces per seed and the default and
//       held-out seeds.
//
//   edm_perfbench traced --workload=<name> --seed=<n> --trace=<i>
//                        --run-id=<id> --spans-out=<path>
//       The same replay, driven call by call from this file with a span
//       around each layer entry point, followed by standalone passes that
//       time each layer's public functions alone on the same inputs.
//       Spans are written to --spans-out when the process ends.
//
// Both modes check that every record of the workload completed and print
// one JSON object as the last line of stdout; a failed check exits 1.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/policy.h"
#include "core/temperature.h"
#include "core/view.h"
#include "sim/experiment.h"
#include "sim/report.h"
#include "sim/simulator.h"
#include "trace/cursor.h"
#include "util/flags.h"
#include "util/provenance.h"
#include "util/rss.h"
#include "workload/tenant.h"

#include "spans.h"
#include "workloads.h"

namespace {

using edm::sim::ExperimentConfig;
using edm::sim::RunResult;

struct Args {
  std::string mode;
  std::string workload;
  std::string seed = "0";
  std::uint32_t trace = 0;
  std::string run_id = "run";
  std::string spans_out;
  bool telemetry_off = false;
};

/// Flat JSON object writer: numbers, strings and pre-rendered values.
class JsonObject {
 public:
  void num(const std::string& key, double v) {
    std::ostringstream os;
    os.precision(17);
    os << v;
    raw(key, os.str());
  }
  void count(const std::string& key, std::uint64_t v) {
    raw(key, std::to_string(v));
  }
  void str(const std::string& key, const std::string& v) {
    raw(key, "\"" + edm::util::provenance_json_escape(v) + "\"");
  }
  void flag(const std::string& key, bool v) { raw(key, v ? "true" : "false"); }
  void raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ", \"") + key + "\": " + json;
  }
  std::string render() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// --- mirrors of sim/experiment.cpp's internal helpers -------------------

edm::cluster::ClusterConfig cluster_config_for(const ExperimentConfig& cfg) {
  edm::cluster::ClusterConfig ccfg;
  ccfg.num_osds = cfg.num_osds;
  ccfg.num_groups = cfg.num_groups;
  ccfg.group_sizes = cfg.group_sizes;
  ccfg.objects_per_file = cfg.objects_per_file;
  ccfg.target_max_utilization = cfg.target_max_utilization;
  ccfg.flash = cfg.flash;
  return ccfg;
}

edm::trace::WorkloadProfile profile_for(const ExperimentConfig& cfg) {
  edm::trace::WorkloadProfile profile =
      edm::trace::profile_by_name(cfg.trace_name).scaled(cfg.scale);
  profile.seed ^= cfg.trace_seed_offset;
  return profile;
}

/// Records the workload emits, from an independent counting pass.
std::uint64_t expected_records(const ExperimentConfig& cfg) {
  if (cfg.open_loop.enabled()) {
    return edm::workload::OpenLoopSource(cfg.open_loop, cfg.num_clients,
                                         cfg.trace_seed_offset)
        .total_records();
  }
  return edm::trace::TraceCursor(profile_for(cfg), cfg.num_clients)
      .total_records();
}

// --- shared result rendering ---------------------------------------------

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string report_digest(const RunResult& r) {
  std::ostringstream json;
  edm::sim::write_json(r, json);
  std::ostringstream hex;
  hex << std::hex << std::setw(16) << std::setfill('0') << fnv1a(json.str());
  return hex.str();
}

std::uint64_t failed_ops(const RunResult& r) {
  return r.faults.abandoned_requests + r.degraded.unavailable +
         r.degraded.lost_writes;
}

/// The modelled (simulated-time) metrics: deterministic for a seed.
std::string model_json(const RunResult& r) {
  JsonObject m;
  m.num("model_throughput_ops_s", r.throughput_ops_per_sec());
  m.num("model_p50_response_ms", r.response_histogram.quantile(0.5) / 1e3);
  m.num("model_p99_response_ms", r.response_histogram.quantile(0.99) / 1e3);
  m.num("model_p999_response_ms", r.response_histogram.quantile(0.999) / 1e3);
  m.num("model_erase_rsd", r.erase_rsd());
  m.count("model_erases", r.aggregate_erases());
  return m.render();
}

/// Appends the fields both modes report and the record-count check.
/// Returns false when a check failed.
bool add_common(JsonObject& out, const ExperimentConfig& cfg,
                const RunResult& r) {
  const std::uint64_t expected = expected_records(cfg);
  std::vector<std::string> errors;
  if (r.completed_ops != expected) {
    errors.push_back("completed " + std::to_string(r.completed_ops) +
                     " != records " + std::to_string(expected));
  }
  if (cfg.open_loop.enabled() && r.workload.arrivals != expected) {
    errors.push_back("arrivals " + std::to_string(r.workload.arrivals) +
                     " != records " + std::to_string(expected));
  }
  out.count("completed_ops", r.completed_ops);
  out.count("expected_ops", expected);
  out.count("ops_failed", failed_ops(r));
  out.count("events", r.perf.events_processed);
  out.str("digest", report_digest(r));
  out.raw("model", model_json(r));
  std::string list = "[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    list += (i ? ", \"" : "\"") +
            edm::util::provenance_json_escape(errors[i]) + "\"";
  }
  out.raw("check_errors", list + "]");
  return errors.empty();
}

std::string provenance_json() {
  const edm::util::Provenance p = edm::util::collect_provenance();
  JsonObject o;
  o.str("compiler", p.compiler);
  o.str("build_type", p.build_type);
  o.str("cxx_flags", p.cxx_flags);
  o.str("cpu_model", p.cpu_model);
  o.str("commit", p.commit);
  return o.render();
}

// --- replay mode ---------------------------------------------------------

int run_replay(const Args& args, const ExperimentConfig& cfg) {
  const auto start = std::chrono::steady_clock::now();
  const RunResult r = cfg.open_loop.enabled()
                          ? edm::sim::run_experiment(cfg)
                          : edm::sim::run_experiment_streaming(cfg);
  const double total_s = seconds_since(start);
  const double peak_rss_mb =
      static_cast<double>(edm::util::peak_rss_bytes()) / (1024.0 * 1024.0);

  JsonObject out;
  out.str("mode", "replay");
  out.str("workload", args.workload);
  out.num("replay_s", r.perf.replay_wall_s);
  out.num("setup_s", total_s - r.perf.replay_wall_s);
  out.num("peak_rss_mb", peak_rss_mb);
  const bool ok = add_common(out, cfg, r);
  out.raw("provenance", provenance_json());
  std::cout << out.render() << std::endl;
  return ok ? 0 : 1;
}

// --- traced mode ---------------------------------------------------------

/// run_cell_with() from sim/experiment.cpp, one span per layer call.
template <typename Source>
RunResult replay_with_spans(const ExperimentConfig& cfg,
                            const std::vector<edm::trace::FileSpec>& files,
                            Source& source, perfbench::SpanLog& spans,
                            std::uint32_t parent) {
  std::uint32_t s = spans.begin("cluster.build", parent);
  std::optional<edm::cluster::Cluster> cluster;
  cluster.emplace(cluster_config_for(cfg), files);
  spans.end(s);
  s = spans.begin("cluster.populate", parent);
  cluster->populate();
  spans.end(s);
  s = spans.begin("cluster.warmup", parent);
  cluster->steady_state_warmup();
  cluster->reset_flash_stats();
  spans.end(s);

  s = spans.begin("core.make_policy", parent);
  auto policy = edm::core::make_policy(cfg.policy, cfg.policy_config);
  edm::sim::SimConfig sim_cfg = cfg.sim;
  if (cfg.policy == edm::core::PolicyKind::kNone) {
    sim_cfg.trigger = edm::sim::MigrationTrigger::kNone;
  }
  std::shared_ptr<edm::telemetry::Recorder> recorder;
  if (cfg.telemetry.any()) {
    recorder = std::make_shared<edm::telemetry::Recorder>(cfg.telemetry);
    sim_cfg.recorder = recorder.get();
  }
  spans.end(s);

  s = spans.begin("sim.init", parent);
  std::optional<edm::sim::Simulator> sim;
  sim.emplace(sim_cfg, *cluster, source, policy.get());
  spans.end(s);
  s = spans.begin("sim.replay", parent);
  RunResult result = sim->run();
  result.perf.replay_wall_s = spans.end(s);

  s = spans.begin("bench.teardown", parent);
  sim.reset();
  cluster.reset();
  policy.reset();
  spans.end(s);
  result.telemetry = std::move(recorder);
  return result;
}

/// Counts the standalone passes produce.
struct StandaloneCounts {
  std::uint64_t records = 0;
  std::uint64_t ios = 0;
  std::uint64_t plan_actions = 0;
};

/// The simulator's planning snapshot (Simulator::build_view) assembled
/// from a standalone cluster and tracker; no load EWMA, nothing in flight.
edm::core::ClusterView build_view(const edm::cluster::Cluster& cluster,
                                  const edm::core::AccessTracker& tracker) {
  edm::core::ClusterView view;
  view.placement = &cluster.placement();
  view.objects.resize(cluster.num_osds());
  for (edm::OsdId i = 0; i < cluster.num_osds(); ++i) {
    const edm::cluster::Osd& osd = cluster.osd(i);
    edm::core::DeviceView d;
    d.id = i;
    d.write_pages = osd.flash_stats().host_page_writes;
    d.utilization = osd.utilization();
    d.capacity_pages = osd.capacity_pages();
    d.free_pages = osd.free_pages();
    view.devices.push_back(d);
    auto& objs = view.objects[i];
    osd.store().for_each_object([&](edm::ObjectId oid) {
      objs.push_back({oid, osd.object_pages(oid),
                      tracker.write_temperature(oid),
                      tracker.total_temperature(oid),
                      cluster.remap().contains(oid)});
    });
    std::sort(objs.begin(), objs.end(),
              [](const edm::core::ObjectView& a,
                 const edm::core::ObjectView& b) { return a.oid < b.oid; });
  }
  return view;
}

/// Device I/O exactly as Simulator::execute() issues it at time `at`: the
/// fast-extent table when it covers the object, else the extent store.
/// Flat devices ignore `at`; parallel-geometry devices queue at it.
edm::SimDuration device_io(edm::cluster::Cluster& cluster,
                           const edm::cluster::OsdIo& io, edm::SimTime at) {
  const auto& fe = cluster.fast_extent(io.oid);
  if (fe.pages != 0 && fe.osd == io.osd) {
    return cluster.fast_extent_io_at(fe, io, at);
  }
  edm::cluster::Osd& osd = cluster.osd(io.osd);
  return io.is_write ? osd.write_at(at, io.oid, io.first_page, io.pages)
                     : osd.read_at(at, io.oid, io.first_page, io.pages);
}

/// Standalone layer passes over the workload's records, in trace order,
/// against a fresh populated and warmed cluster.  Records are pulled in
/// chunks outside any layer span; each chunk then goes through
/// map_request, AccessTracker::on_access and the flash devices, one span
/// per layer per chunk.  `pull` fills the next chunk of records and their
/// arrival times (left empty in closed loop, where I/O is issued at 0).
template <typename PullChunk>
StandaloneCounts layer_passes(const ExperimentConfig& cfg,
                              const std::vector<edm::trace::FileSpec>& files,
                              PullChunk&& pull, perfbench::SpanLog& spans,
                              std::uint32_t parent) {
  std::uint32_t s = spans.begin("standalone.setup", parent);
  edm::cluster::Cluster cluster(cluster_config_for(cfg), files);
  cluster.populate();
  cluster.steady_state_warmup();
  cluster.reset_flash_stats();
  edm::core::AccessTracker tracker(cfg.sim.temperature_cache_entries);
  tracker.reserve_dense(cluster.object_count());
  spans.end(s);

  constexpr std::size_t kChunk = 1 << 16;
  std::vector<edm::trace::Record> records;
  std::vector<edm::SimTime> arrivals;
  std::vector<edm::cluster::OsdIo> ios;
  std::vector<edm::SimTime> io_at;
  records.reserve(kChunk);
  StandaloneCounts counts;
  while (pull(records, arrivals, kChunk)) {
    counts.records += records.size();
    ios.clear();
    io_at.clear();
    s = spans.begin("cluster.map", parent);
    for (std::size_t i = 0; i < records.size(); ++i) {
      cluster.map_request(records[i], ios);
      if (!arrivals.empty()) io_at.resize(ios.size(), arrivals[i]);
    }
    spans.end(s);
    counts.ios += ios.size();
    s = spans.begin("core.temperature", parent);
    for (const auto& io : ios) tracker.on_access(io.oid, io.pages, io.is_write);
    spans.end(s);
    s = spans.begin("flash.io", parent);
    for (std::size_t i = 0; i < ios.size(); ++i) {
      device_io(cluster, ios[i], io_at.empty() ? 0 : io_at[i]);
    }
    spans.end(s);
  }

  s = spans.begin("core.build_view", parent);
  const edm::core::ClusterView view = build_view(cluster, tracker);
  auto policy = edm::core::make_policy(cfg.policy, cfg.policy_config);
  spans.end(s);
  s = spans.begin("core.plan", parent);
  counts.plan_actions = policy->plan(view, true).actions.size();
  spans.end(s);
  return counts;
}

int run_traced(const Args& args, const ExperimentConfig& cfg) {
  perfbench::SpanLog spans(args.run_id);
  const std::uint32_t root = spans.begin("bench.traced_run", 0);
  const bool open = cfg.open_loop.enabled();

  // 1. The replay, traced at layer boundaries.
  const std::uint32_t replay = spans.begin("bench.replay", root);
  RunResult r;
  std::uint64_t max_lookahead = 0;
  if (open) {
    std::uint32_t s = spans.begin("trace.open", replay);
    edm::workload::OpenLoopSource source(cfg.open_loop, cfg.num_clients,
                                         cfg.trace_seed_offset);
    spans.end(s);
    r = replay_with_spans(cfg, source.files(), source, spans, replay);
  } else {
    std::uint32_t s = spans.begin("trace.open", replay);
    edm::trace::TraceCursor cursor(profile_for(cfg), cfg.num_clients);
    spans.end(s);
    r = replay_with_spans(cfg, cursor.files(), cursor, spans, replay);
    max_lookahead = cursor.max_lookahead();
  }
  spans.end(replay);

  // 2. Standalone passes over the same inputs.
  const std::uint32_t alone = spans.begin("bench.standalone", root);
  StandaloneCounts counts;
  std::uint64_t drained = 0;
  if (open) {
    std::uint32_t s = spans.begin("standalone.open", alone);
    edm::workload::OpenLoopSource drain_source(cfg.open_loop, cfg.num_clients,
                                               cfg.trace_seed_offset);
    spans.end(s);
    s = spans.begin("workload.drain", alone);
    edm::workload::Arrival a;
    while (drain_source.next(a)) ++drained;
    spans.end(s);

    edm::workload::OpenLoopSource source(cfg.open_loop, cfg.num_clients,
                                         cfg.trace_seed_offset);
    auto pull = [&](std::vector<edm::trace::Record>& recs,
                    std::vector<edm::SimTime>& at, std::size_t n) {
      recs.clear();
      at.clear();
      edm::workload::Arrival next;
      while (recs.size() < n && source.next(next)) {
        recs.push_back(next.record);
        at.push_back(next.at);
      }
      return !recs.empty();
    };
    counts = layer_passes(cfg, source.files(), pull, spans, alone);
  } else {
    std::uint32_t s = spans.begin("standalone.open", alone);
    edm::trace::TraceCursor drain_cursor(profile_for(cfg), cfg.num_clients);
    spans.end(s);
    s = spans.begin("trace.drain", alone);
    edm::trace::Record rec;
    std::vector<bool> live(drain_cursor.lanes(), true);
    for (std::uint16_t remaining = drain_cursor.lanes(); remaining > 0;) {
      for (std::uint16_t lane = 0; lane < drain_cursor.lanes(); ++lane) {
        if (!live[lane]) continue;
        if (drain_cursor.next(lane, rec)) {
          ++drained;
        } else {
          live[lane] = false;
          --remaining;
        }
      }
    }
    spans.end(s);

    edm::trace::RecordStream stream(profile_for(cfg), cfg.num_clients);
    auto pull = [&](std::vector<edm::trace::Record>& recs,
                    std::vector<edm::SimTime>&, std::size_t n) {
      recs.clear();
      edm::trace::Record next;
      while (recs.size() < n && stream.next(next)) recs.push_back(next);
      return !recs.empty();
    };
    counts = layer_passes(cfg, stream.files(), pull, spans, alone);
  }
  spans.end(alone);
  spans.end(root);

  // 3. Result: layer seconds and counts; run.py derives the residuals.
  edm::flash::FlashStats flash;
  for (const auto& osd : r.per_osd) {
    flash.host_page_writes += osd.flash.host_page_writes;
    flash.gc_page_moves += osd.flash.gc_page_moves;
    flash.erase_count += osd.flash.erase_count;
  }
  JsonObject layers;
  layers.num("trace.open_s", spans.total("trace.open"));
  // The replay's record source: TraceCursor lanes in closed loop, the
  // OpenLoopSource (workload layer over per-tenant trace streams) in open.
  layers.num("trace.drain_s",
             spans.total(open ? "workload.drain" : "trace.drain"));
  layers.count("trace.records", drained);
  layers.count("trace.max_lookahead", max_lookahead);
  layers.num("cluster.build_s", spans.total("cluster.build"));
  layers.num("cluster.populate_s", spans.total("cluster.populate"));
  layers.num("cluster.warmup_s", spans.total("cluster.warmup"));
  layers.num("cluster.map_s", spans.total("cluster.map"));
  layers.num("cluster.ios_per_record",
             counts.records ? static_cast<double>(counts.ios) /
                                  static_cast<double>(counts.records)
                            : 0.0);
  layers.num("core.temperature_s", spans.total("core.temperature"));
  layers.num("core.plan_s", spans.total("core.plan"));
  layers.count("core.plan_actions", counts.plan_actions);
  layers.num("flash.io_s", spans.total("flash.io"));
  layers.count("flash.host_pages_written", flash.host_page_writes);
  layers.count("flash.gc_page_moves", flash.gc_page_moves);
  layers.count("flash.erases", flash.erase_count);
  layers.num("flash.write_amplification", flash.write_amplification());
  layers.num("sim.init_s", spans.total("sim.init"));
  layers.num("sim.replay_s", spans.total("sim.replay"));
  layers.count("sim.events", r.perf.events_processed);
  layers.num("sim.events_per_op",
             r.completed_ops ? static_cast<double>(r.perf.events_processed) /
                                   static_cast<double>(r.completed_ops)
                             : 0.0);
  layers.num("sim.events_per_s",
             static_cast<double>(r.perf.events_processed) /
                 spans.total("sim.replay"));
  layers.count("sim.migration_moved_objects", r.migration.moved_objects);
  layers.count("sim.migration_moved_pages", r.migration.moved_pages);
  const edm::telemetry::Recorder* tel = r.telemetry.get();
  const auto* tracer = tel ? tel->tracer() : nullptr;
  const auto* sampler = tel ? tel->sampler() : nullptr;
  layers.count("telemetry.trace_events", tracer ? tracer->events().size() : 0);
  layers.count("telemetry.dropped", tracer ? tracer->dropped() : 0);
  layers.count("telemetry.sample_rows", sampler ? sampler->rows().size() : 0);

  JsonObject out;
  out.str("mode", "traced");
  out.str("workload", args.workload);
  out.num("replay_s", r.perf.replay_wall_s);
  out.count("standalone_records", counts.records);
  out.raw("layers", layers.render());
  // The standalone passes must see exactly the records the replay completed.
  const bool standalone_ok =
      counts.records == r.completed_ops && drained == r.completed_ops;
  out.flag("standalone_ok", standalone_ok);
  bool ok = add_common(out, cfg, r) && standalone_ok;
  out.raw("provenance", provenance_json());

  if (!args.spans_out.empty()) {
    std::ofstream file(args.spans_out);
    spans.write_json(file);
    if (!file) {
      std::cerr << "edm_perfbench: cannot write " << args.spans_out << "\n";
      ok = false;
    }
  }
  std::cout << out.render() << std::endl;
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (argc < 2) {
    std::cerr << "usage: edm_perfbench replay|traced --workload=<name> "
                 "--seed=<n> [options]\n"
                 "       edm_perfbench workloads\n";
    return 2;
  }
  args.mode = argv[1];
  if (args.mode == "workloads") {
    // run.py reads the workload list and seeds from here, so they are
    // defined once, in workloads.h.
    std::string workloads = "[";
    for (const perfbench::WorkloadSpec& w : perfbench::kWorkloads) {
      JsonObject spec;
      spec.str("name", w.name);
      spec.count("traces_per_seed", w.traces_per_seed);
      workloads += (workloads.size() > 1 ? ", " : "") + spec.render();
    }
    JsonObject out;
    out.raw("workloads", workloads + "]");
    out.count("default_seed", perfbench::kDefaultSeed);
    out.count("held_out_seed", perfbench::kHeldOutSeed);
    std::cout << out.render() << std::endl;
    return 0;
  }
  edm::util::FlagParser parser;
  parser.add_string("--workload", &args.workload, "workload name");
  parser.add_string("--seed", &args.seed, "run seed");
  parser.add_uint32("--trace", &args.trace, "trace index within the seed");
  parser.add_string("--run-id", &args.run_id, "span run id (traced)");
  parser.add_string("--spans-out", &args.spans_out, "span file (traced)");
  parser.add_bool("--telemetry-off", &args.telemetry_off,
                  "replay without the workload's telemetry (replay)");
  const auto parsed = parser.parse(argc - 1, argv + 1);
  if (parsed != edm::util::FlagParser::Result::kOk) {
    if (parsed == edm::util::FlagParser::Result::kError) {
      std::cerr << "edm_perfbench: " << parser.error() << "\n";
    }
    parser.print_usage(std::cerr, "edm_perfbench replay|traced");
    return 2;
  }
  try {
    char* end = nullptr;
    const std::uint64_t seed = std::strtoull(args.seed.c_str(), &end, 10);
    if (args.seed.empty() || args.seed[0] == '-' || *end != '\0') {
      throw std::invalid_argument("--seed must be a non-negative integer");
    }
    ExperimentConfig cfg = edm::sim::finalize(
        perfbench::workload_config(args.workload, seed, args.trace));
    if (args.telemetry_off) cfg.telemetry = {};
    if (args.mode == "replay") return run_replay(args, cfg);
    if (args.mode == "traced") return run_traced(args, cfg);
    throw std::invalid_argument("unknown mode: " + args.mode);
  } catch (const std::exception& e) {
    std::cerr << "edm_perfbench: " << e.what() << "\n";
    return 2;
  }
}
