// phx_perfbench — the repository benchmark. Runs one workload for a fixed
// time and prints, as its last stdout line, one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of a
// traced run (--trace 1). Normally started through perfbench/run.py, which
// builds it first.
//
//   phx_perfbench --workload report|orders|resume --seed N --seconds S
//                 --trace 0|1 --phoenixd PATH --out-dir DIR [--commit ID]

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "measure.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},       {"ops_per_s", "1/s"},    {"op_p50_ms", "ms"},
    {"op_tail_ms", "ms"},   {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"trace.overhead_ms", "ms"},
    {"core.round_trips_per_op", "count"},
    {"core.server_stmts_per_op", "count"},
    {"core.bytes_per_op", "B"},
    {"core.classify_us", "us"},
    {"core.overhead_ms", "ms"},
    {"core.exec_update_ms", "ms"},
    {"core.exec_insert_ms", "ms"},
    {"core.exec_commit_ms", "ms"},
    {"core.recovery.detect_ms", "ms"},
    {"core.recovery.virtual_session_ms", "ms"},
    {"core.recovery.sql_state_ms", "ms"},
    {"core.reconnect_attempts_per_op", "count"},
    {"odbc.native_op_p50_ms", "ms"},
    {"net.ping_rtt_us", "us"},
    {"net.dispatch_wait_us", "us"},
    {"net.dispatch_wait_p99_us", "us"},
    {"net.pool_queue_depth_max", "count"},
    {"sql.parse_us", "us"},
    {"engine.rows_materialized_per_op", "count"},
    {"engine.rows_fetched_per_op", "count"},
    {"storage.wal_bytes_per_op", "B"},
    {"storage.wal_syncs_per_op", "count"},
    {"storage.checkpoints", "count"},
    {"storage.checkpoint_snapshot_p99_us", "us"},
    {"storage.recovery.checkpoint_load_ms", "ms"},
    {"storage.recovery.wal_replay_ms", "ms"},
    {"storage.recovery.records_replayed", "count"},
    {"server.restart_ms", "ms"},
    {"layer.app.self_ms_per_op", "ms"},
    {"layer.core.self_ms_per_op", "ms"},
    {"layer.net.self_ms_per_op", "ms"},
    {"layer.server.self_ms_per_op", "ms"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "phx_perfbench: %s\nusage: phx_perfbench --workload "
               "report|orders|resume --seed N --seconds S --trace 0|1 "
               "--phoenixd PATH --out-dir DIR [--commit ID]\n",
               why);
  return 2;
}

/// The benchmark measures the program at its default Options: any PHX_*
/// tuning variable would change what is measured. PHX_SERVER_BIN only
/// locates phoenixd.
bool TuningEnvSet() {
  bool set = false;
  for (char** e = environ; *e != nullptr; ++e) {
    std::string entry = *e;
    if (entry.rfind("PHX_", 0) == 0 && entry.rfind("PHX_SERVER_BIN=", 0) != 0) {
      std::fprintf(stderr, "phx_perfbench: refusing to run with %s set\n",
                   entry.substr(0, entry.find('=')).c_str());
      set = true;
    }
  }
  return set;
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Main(int argc, char** argv) {
  Args args;
  std::string commit = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--phoenixd") {
      args.phoenixd = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  if (args.workload != "report" && args.workload != "orders" &&
      args.workload != "resume") {
    return Usage("unknown workload");
  }
  if (args.seconds <= 0 || args.out_dir.empty() || args.phoenixd.empty()) {
    return Usage("--seconds, --out-dir and --phoenixd are required");
  }
  if (TuningEnvSet()) return 2;
  ::mkdir(args.out_dir.c_str(), 0755);

  const bool resume = args.workload == "resume";
  std::printf(
      "provenance {\"commit\": \"%s\", \"nproc\": %u, \"build_type\": \"%s\", "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"modelled_sync_us\": %llu, \"checkpoint_every_commits\": {\"report\": "
      "%llu, \"orders\": %llu, \"resume_phoenixd\": %llu}, \"clients\": %d, "
      "\"rows\": %lld}\n",
      commit.c_str(), std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0,
      static_cast<unsigned long long>(resume ? 0 : kSyncLatencyUs),
      static_cast<unsigned long long>(kReportCheckpointEvery),
      static_cast<unsigned long long>(kOrdersCheckpointEvery),
      static_cast<unsigned long long>(kResumeCheckpointEvery),
      resume ? 1 : kSharedClients,
      static_cast<long long>(resume ? kResumeRows : kSharedRows));
  std::fflush(stdout);

  RunResult r = resume ? RunResume(args) : RunSharedServer(args);

  // A traced run names every per-layer metric; the layers a workload
  // bypasses read 0 (the prediction there is no change).
  std::vector<Metric> out;
  const MetricDef* begin =
      args.trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const MetricDef* end = args.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  for (const MetricDef* d = begin; d != end; ++d) {
    Metric m{d->name, 0, d->unit};
    for (const Metric& got : r.metrics) {
      if (got.name == d->name) m.value = got.value;
    }
    out.push_back(m);
  }

  for (const std::string& note : r.notes) std::printf("%s\n", note.c_str());
  const double ratio = r.attempted == 0
                           ? 1.0
                           : static_cast<double>(r.failed) /
                                 static_cast<double>(r.attempted);
  std::printf("%-36s %16.6g %s\n", "failed_op_ratio", ratio, "ratio");
  for (const Metric& m : out) {
    std::printf("%-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = r.correct && r.failed == 0 && r.attempted > 0;
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < out.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + out[i].name + "\": {\"value\": " + Number(out[i].value) +
            ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
