// The three benchmark workloads. Each drives the application-facing API
// (core::PhoenixDriverManager over odbc handles) in a closed loop, checks
// every result against an oracle, and returns the end-to-end metrics, or
// with Args::trace the per-layer metrics of a traced run.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>

#include "measure.h"

namespace perfbench {

/// Fixed parameters, recorded in every output and in BENCHMARK.json.
inline constexpr int64_t kSharedRows = 50000;        ///< report / orders
inline constexpr int kSharedClients = 2;             ///< one session each
inline constexpr uint64_t kSyncLatencyUs = 200;      ///< modelled fsync
inline constexpr uint64_t kReportCheckpointEvery = 1000;  ///< commits
inline constexpr uint64_t kOrdersCheckpointEvery = 200;   ///< commits
inline constexpr int kSessionOps = 100;   ///< ops per Phoenix session
inline constexpr int kWarmupOps = 50;     ///< untimed ops per client
inline constexpr int kSetupReps = 5;      ///< setups per run (median)
inline constexpr int64_t kResumeRows = 20000;
inline constexpr uint64_t kResumeCheckpointEvery = 4;  ///< phoenixd commits
inline constexpr int64_t kResumeMinResult = 500;
inline constexpr int64_t kResumeMaxResult = 16000;
/// A run whose first-half and second-half op_p50_ms differ by more than
/// this share of its p50 is flagged as a trend (op_p50_ms's bound in
/// BENCHMARK.json).
inline constexpr double kTrendBound = 0.25;

/// report and orders: an in-process DbServer + SocketServer on a unix
/// socket over a SimDisk with a modelled sync time.
RunResult RunSharedServer(const Args& args);

/// resume: SIGKILL of a phoenixd child under an open result set.
RunResult RunResume(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
