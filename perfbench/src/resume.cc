// resume: the paper's Figure 2 over a real SIGKILL. One client thread with
// one Phoenix session against a phoenixd child on a unix socket. One op:
// commit a few wrapped DMLs, open a result of seeded size, fetch until one
// block is left, SIGKILL the server, and time the next Fetch — the stall
// the application sees while phoenixd restarts (boot recovery) and Phoenix
// re-maps the virtual session and repositions the cursor.

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <fstream>
#include <memory>

#include "common/rng.h"
#include "core/phoenix_driver_manager.h"
#include "net/channel.h"
#include "net/db_server.h"
#include "net/process_server.h"
#include "storage/sim_disk.h"
#include "workloads.h"

namespace perfbench {
namespace {

using phoenix::Rng;
using phoenix::Status;
using phoenix::Value;
using phoenix::core::PhoenixConfig;
using phoenix::core::PhoenixDriverManager;
using phoenix::odbc::DriverManager;
using phoenix::odbc::Hdbc;
using phoenix::odbc::Hstmt;
using phoenix::odbc::SqlReturn;

constexpr const char* kDsn = "bench";
constexpr uint64_t kBlock = 64;  ///< the default Hstmt block size

/// Removes a flat directory (phoenixd keeps no subdirectories).
void RemoveDir(const std::string& dir) {
  if (DIR* d = ::opendir(dir.c_str())) {
    while (dirent* e = ::readdir(d)) {
      std::string name = e->d_name;
      if (name != "." && name != "..") ::unlink((dir + "/" + name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

/// Copies the regular files of `from` into a fresh `to`.
void CopyDir(const std::string& from, const std::string& to) {
  RemoveDir(to);
  ::mkdir(to.c_str(), 0755);
  if (DIR* d = ::opendir(from.c_str())) {
    while (dirent* e = ::readdir(d)) {
      std::string src = from + "/" + e->d_name;
      struct stat st {};
      if (::stat(src.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) continue;
      std::ifstream in(src, std::ios::binary);
      std::ofstream out(to + "/" + e->d_name, std::ios::binary);
      out << in.rdbuf();
    }
    ::closedir(d);
  }
}

/// Per-op trace figures (traced run only).
struct CycleTrace {
  uint64_t fetch_start_ns = 0;
  uint64_t fetch_end_ns = 0;
  uint64_t restart_start_ns = 0;
  uint64_t restart_end_ns = 0;
  double restart_ms = 0;
  double detect_ms = 0;
  double virtual_session_ms = 0;
  double sql_state_ms = 0;
  double reconnect_attempts = 0;
  double checkpoint_load_ms = 0;
  double wal_replay_ms = 0;
  double records_replayed = 0;
};

class ResumeBench {
 public:
  ResumeBench(const Args& args, RunResult* result)
      : args_(args), result_(result), gen_(args.seed, kResumeRows),
        rng_(args.seed * 7919ULL + 3) {}
  ~ResumeBench() { Stop(); }

  /// Spawns phoenixd over a fresh data dir and loads the tables.
  Status Setup(int rep) {
    Stop();
    data_dir_ = args_.out_dir + "/resume-" + std::to_string(::getpid()) +
                "-" + std::to_string(rep);
    RemoveDir(data_dir_);
    ::mkdir(data_dir_.c_str(), 0755);
    phoenix::net::ProcessServerOptions opts;
    opts.binary = args_.phoenixd;
    opts.transport = "unix";
    opts.data_dir = data_dir_;
    opts.checkpoint_every_n_commits = kResumeCheckpointEvery;
    server_ = std::make_unique<phoenix::net::ProcessServerHandle>(opts);
    PHX_RETURN_IF_ERROR(server_->Start());
    network_ = std::make_unique<phoenix::net::Network>();
    network_->RegisterRemote(kDsn, server_->endpoint());

    DriverManager plain(network_.get());
    Hdbc* dbc = plain.AllocConnect(plain.AllocEnv());
    if (plain.Connect(dbc, kDsn, "loader") != SqlReturn::kSuccess) {
      return DriverManager::Diag(dbc);
    }
    PHX_RETURN_IF_ERROR(LoadTable(&plain, dbc, gen_));
    Hstmt* st = plain.AllocStmt(dbc);
    for (const char* sql :
         {"CREATE TABLE CTR (ID INTEGER PRIMARY KEY, V BIGINT, W BIGINT)",
          "INSERT INTO CTR VALUES (0, 0, 0)",
          "CREATE TABLE EVT (CYCLE INTEGER PRIMARY KEY)"}) {
      if (plain.ExecDirect(st, sql) != SqlReturn::kSuccess) {
        return DriverManager::Diag(st);
      }
    }
    plain.Disconnect(dbc);
    cycles_ = 0;
    cycle_sum_ = 0;

    PhoenixConfig config;
    // Restart phoenixd on the first failed reconnect, so no backoff sleep
    // falls inside the measured stall.
    config.retry_wait = [this] {
      if (server_->running()) return;
      restart_start_ns_ = NowNs();
      Status s = server_->Restart();
      restart_end_ns_ = NowNs();
      if (!s.ok()) result_->notes.push_back("restart failed: " + s.ToString());
    };
    dm_ = std::make_unique<PhoenixDriverManager>(network_.get(), config);
    dbc_ = dm_->AllocConnect(dm_->AllocEnv());
    return Status::Ok();
  }

  void Stop() {
    dm_.reset();
    if (server_) server_->Terminate(5.0);
    server_.reset();
    if (!data_dir_.empty()) RemoveDir(data_dir_);
    data_dir_.clear();
  }

  /// One kill-to-resumed-fetch cycle; returns false on any failure or
  /// oracle violation. `stall_ms` is the timed Fetch.
  bool Cycle(bool traced, double* stall_ms, CycleTrace* tr) {
    ++cycles_;
    cycle_sum_ += cycles_;
    if (!server_->running()) {  // an earlier cycle failed after its kill
      Status s = server_->Restart();
      if (!s.ok()) return Fail("restart: " + s.ToString());
    }
    if (dm_->Connect(dbc_, kDsn, "app") != SqlReturn::kSuccess) {
      return Fail("connect: " + DriverManager::Diag(dbc_).ToString());
    }
    Hstmt* stmt = dm_->AllocStmt(dbc_);
    // 1. A few wrapped, autocommitted DMLs.
    const std::string c = std::to_string(cycles_);
    for (const std::string& sql :
         {std::string("UPDATE CTR SET V = V + 1 WHERE ID = 0"),
          "UPDATE CTR SET W = W + " + c + " WHERE ID = 0",
          "INSERT INTO EVT VALUES (" + c + ")"}) {
      if (dm_->ExecDirect(stmt, sql) != SqlReturn::kSuccess) {
        return Fail(sql + ": " + DriverManager::Diag(stmt).ToString());
      }
    }
    // 2. A result of seeded size.
    int64_t size = rng_.NextRange(kResumeMinResult, kResumeMaxResult);
    int64_t lo = rng_.NextRange(0, kResumeRows - size);
    std::string sel = "SELECT N, C, V, S FROM T WHERE N >= " +
                      std::to_string(lo) + " AND N < " +
                      std::to_string(lo + size) + " ORDER BY N";
    if (dm_->ExecDirect(stmt, sel) != SqlReturn::kSuccess) {
      return Fail("select: " + DriverManager::Diag(stmt).ToString());
    }
    // 3. Fetch whole blocks until one block is left, so the next Fetch
    // must go to the server.
    const int64_t before_kill = (size - 1) / static_cast<int64_t>(kBlock) *
                                static_cast<int64_t>(kBlock);
    uint64_t h = 0;
    int64_t row = 0;
    for (; row < before_kill; ++row) {
      if (!FetchRow(stmt, lo + row, &h)) return false;
    }
    // 4. SIGKILL.
    server_->Kill();
    auto stats_before = dm_->stats();
    if (traced) TimeInProcessRecovery(tr);
    // 5. The timed Fetch.
    restart_start_ns_ = restart_end_ns_ = 0;
    uint64_t t0 = NowNs();
    bool ok = FetchRow(stmt, lo + row, &h);
    uint64_t t1 = NowNs();
    *stall_ms = NsToMs(t1 - t0);
    if (!ok) return false;
    const auto& st = dm_->stats();
    if (st.recoveries != stats_before.recoveries + 1) {
      return Fail("the fetch after the kill did not recover the session");
    }
    if (traced) {
      tr->fetch_start_ns = t0;
      tr->fetch_end_ns = t1;
      tr->restart_start_ns = restart_start_ns_;
      tr->restart_end_ns = restart_end_ns_;
      tr->restart_ms = NsToMs(restart_end_ns_ - restart_start_ns_);
      tr->detect_ms = st.last_detect_seconds * 1e3;
      tr->virtual_session_ms = st.last_virtual_session_seconds * 1e3;
      tr->sql_state_ms = st.last_sql_state_seconds * 1e3;
      tr->reconnect_attempts = static_cast<double>(
          st.reconnect_attempts - stats_before.reconnect_attempts);
    }
    // The rest of the result, then end of data.
    for (++row; row < size; ++row) {
      if (!FetchRow(stmt, lo + row, &h)) return false;
    }
    if (dm_->Fetch(stmt) != SqlReturn::kNoData) {
      return Fail("result has more than " + std::to_string(size) + " rows");
    }
    if (h != gen_.RangeChecksum(lo, lo + size)) {
      return Fail("checksum of the resumed result differs");
    }
    dm_->CloseCursor(stmt);
    dm_->Disconnect(dbc_);
    return CheckDml();
  }

 private:
  bool Fail(const std::string& what) {
    result_->Violation("cycle " + std::to_string(cycles_) + ": " + what);
    if (dbc_->connected) dm_->Disconnect(dbc_);
    return false;
  }

  /// Fetches one row and checks that it is row `want` of T.
  bool FetchRow(Hstmt* stmt, int64_t want, uint64_t* h) {
    if (dm_->Fetch(stmt) != SqlReturn::kSuccess) {
      return Fail("fetch of row " + std::to_string(want) + ": " +
                  DriverManager::Diag(stmt).ToString());
    }
    Value n, c, v, s;
    dm_->GetData(stmt, 0, &n);
    dm_->GetData(stmt, 1, &c);
    dm_->GetData(stmt, 2, &v);
    dm_->GetData(stmt, 3, &s);
    if (n.AsInt64() != want) {
      return Fail("expected row " + std::to_string(want) + ", got " +
                  std::to_string(n.AsInt64()));
    }
    *h = FoldRow(*h, RowHash(n.AsInt64(), c.AsInt64(), v.AsInt64(),
                             s.AsString()));
    return true;
  }

  /// Exactly-once oracle over a plain connection: each cycle's DMLs were
  /// applied once, whatever the kills did.
  bool CheckDml() {
    DriverManager plain(network_.get());
    Hdbc* dbc = plain.AllocConnect(plain.AllocEnv());
    if (plain.Connect(dbc, kDsn, "oracle") != SqlReturn::kSuccess) {
      return Fail("oracle connect: " + DriverManager::Diag(dbc).ToString());
    }
    Hstmt* st = plain.AllocStmt(dbc);
    auto v = QueryInt(&plain, st, "SELECT V FROM CTR WHERE ID = 0");
    auto w = QueryInt(&plain, st, "SELECT W FROM CTR WHERE ID = 0");
    auto n = QueryInt(&plain, st, "SELECT COUNT(*) FROM EVT");
    plain.Disconnect(dbc);
    if (!v.ok() || !w.ok() || !n.ok() || *v != cycles_ || *n != cycles_ ||
        *w != cycle_sum_) {
      return Fail("DML not applied exactly once (V " +
                  (v.ok() ? std::to_string(*v) : "?") + ", W " +
                  (w.ok() ? std::to_string(*w) : "?") + ", EVT rows " +
                  (n.ok() ? std::to_string(*n) : "?") + ")");
    }
    return true;
  }

  /// Boots an in-process DbServer over a copy of the killed data dir — the
  /// same recovery code phoenixd runs — and reads its recovery timings.
  void TimeInProcessRecovery(CycleTrace* tr) {
    std::string copy = data_dir_ + "-copy";
    CopyDir(data_dir_, copy);
    {
      RegistryDelta reg;
      reg.before = phoenix::obs::MetricsRegistry::Default()->Snapshot();
      phoenix::storage::SimDisk disk(copy);
      phoenix::net::ServerOptions opts;
      opts.db.checkpoint_every_n_commits = kResumeCheckpointEvery;
      phoenix::net::DbServer server(&disk, opts);
      Status s = server.Start();
      reg.after = phoenix::obs::MetricsRegistry::Default()->Snapshot();
      if (s.ok()) {
        tr->checkpoint_load_ms =
            reg.HistogramSum("storage.recovery.checkpoint_load_us") / 1e3;
        tr->wal_replay_ms =
            reg.HistogramSum("storage.recovery.wal_replay_us") / 1e3;
        tr->records_replayed = static_cast<double>(
            server.database()->recovery_info().records_replayed);
      }
    }
    RemoveDir(copy);
  }

  const Args& args_;
  RunResult* result_;
  TableGen gen_;
  Rng rng_;
  std::string data_dir_;
  std::unique_ptr<phoenix::net::ProcessServerHandle> server_;
  std::unique_ptr<phoenix::net::Network> network_;
  std::unique_ptr<PhoenixDriverManager> dm_;
  Hdbc* dbc_ = nullptr;
  int64_t cycles_ = 0;
  int64_t cycle_sum_ = 0;
  uint64_t restart_start_ns_ = 0;
  uint64_t restart_end_ns_ = 0;
};

constexpr int kWarmupCycles = 3;

}  // namespace

RunResult RunResume(const Args& args) {
  RunResult result;
  ResumeBench bench(args, &result);
  std::vector<double> setup_s;
  // The last host is measured; an untimed run boots kSetupReps of them and
  // reports the median set-up time.
  const int reps = args.trace ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    uint64_t t0 = NowNs();
    Status s = bench.Setup(rep);
    if (!s.ok()) {
      result.Violation("set-up failed: " + s.ToString());
      return result;
    }
    for (int i = 0; i < kWarmupCycles; ++i) {
      double stall = 0;
      CycleTrace tr;
      ++result.attempted;
      if (!bench.Cycle(false, &stall, &tr)) ++result.failed;
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  auto run = [&](bool traced, OpSamples* samples,
                 std::vector<CycleTrace>* trs) {
    uint64_t start = NowNs();
    uint64_t deadline = start + static_cast<uint64_t>(args.seconds * 1e9);
    while (NowNs() < deadline) {
      double stall = 0;
      CycleTrace tr;
      double at = static_cast<double>(NowNs() - start) / 1e9;
      ++result.attempted;
      if (!bench.Cycle(traced, &stall, &tr)) {
        ++result.failed;
        continue;
      }
      samples->Add(at, stall);
      if (traced) trs->push_back(tr);
    }
    return static_cast<double>(NowNs() - start) / 1e9;
  };

  OpSamples m;
  double elapsed = run(false, &m, nullptr);
  CheckStationary(m, args.seconds, kTrendBound, &result);
  double p50 = m.P(0.5);
  if (!args.trace) {
    result.Add("setup_s", Quantile(setup_s, 0.5), "s");
    result.Add("ops_per_s", static_cast<double>(m.ms.size()) / elapsed, "1/s");
    result.Add("op_p50_ms", p50, "ms");
    result.Add("op_tail_ms", m.P(0.90), "ms");
    result.notes.push_back("op_p90_ms " + std::to_string(m.P(0.90)) +
                           " over " + std::to_string(m.ms.size()) +
                           " kills (reported as op_tail_ms)");
    result.Add("peak_rss_mb", PeakRssMb(true), "MiB");
    bench.Stop();
    return result;
  }

  OpSamples t;
  std::vector<CycleTrace> trs;
  run(true, &t, &trs);
  bench.Stop();
  auto med = [&](double CycleTrace::*field) {
    std::vector<double> v;
    for (const CycleTrace& tr : trs) v.push_back(tr.*field);
    return Quantile(v, 0.5);
  };
  // Spans of the traced ops: the op is the stalled Fetch (app.op ==
  // core.fetch), and the phoenixd restart inside it.
  SpanLog spans;
  for (size_t i = 0; i < trs.size(); ++i) {
    const CycleTrace& tr = trs[i];
    int64_t n = static_cast<int64_t>(i);
    int64_t op = spans.Add("app.op", tr.fetch_start_ns, tr.fetch_end_ns, -1, n);
    int64_t fetch =
        spans.Add("core.fetch", tr.fetch_start_ns, tr.fetch_end_ns, op, n);
    spans.Add("server.restart", tr.restart_start_ns, tr.restart_end_ns, fetch,
              n);
  }
  std::string span_file = args.out_dir + "/resume-seed" +
                          std::to_string(args.seed) + ".spans.jsonl";
  spans.Write(span_file);
  result.notes.push_back("spans: " + std::to_string(spans.spans().size()) +
                         " written to " + span_file);
  std::map<std::string, uint64_t> self = spans.SelfTimeByLayer();
  const double ops = static_cast<double>(std::max<size_t>(trs.size(), 1));

  result.Add("trace.overhead_ms", t.P(0.5) - p50, "ms");
  result.Add("core.recovery.detect_ms", med(&CycleTrace::detect_ms), "ms");
  result.Add("core.recovery.virtual_session_ms",
             med(&CycleTrace::virtual_session_ms), "ms");
  result.Add("core.recovery.sql_state_ms", med(&CycleTrace::sql_state_ms),
             "ms");
  result.Add("core.reconnect_attempts_per_op",
             med(&CycleTrace::reconnect_attempts), "count");
  result.Add("storage.recovery.checkpoint_load_ms",
             med(&CycleTrace::checkpoint_load_ms), "ms");
  result.Add("storage.recovery.wal_replay_ms", med(&CycleTrace::wal_replay_ms),
             "ms");
  result.Add("storage.recovery.records_replayed",
             med(&CycleTrace::records_replayed), "count");
  result.Add("server.restart_ms", med(&CycleTrace::restart_ms), "ms");
  for (const char* layer : {"app", "core", "net", "server"}) {
    result.Add(std::string("layer.") + layer + ".self_ms_per_op",
               NsToMs(self[layer]) / ops, "ms");
  }
  return result;
}

}  // namespace perfbench
