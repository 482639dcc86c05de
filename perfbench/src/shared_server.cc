// report and orders: two client threads, one Phoenix session each, against
// an in-process DbServer + SocketServer (the two classes phoenixd runs) on a
// unix socket, over a SimDisk with a modelled sync time.
//
// report is the paper's hot path: every SELECT is materialized server-side
// (probe, CREATE, INSERT..SELECT, cursor), with no application DML.
// orders puts small write transactions on the same table: wrapped DML, the
// status table, the commit path and checkpoint stalls, and no result sets.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <thread>

#include "common/rng.h"
#include "core/classifier.h"
#include "core/phoenix_driver_manager.h"
#include "net/channel.h"
#include "net/db_server.h"
#include "net/socket_transport.h"
#include "sql/parser.h"
#include "storage/sim_disk.h"
#include "wire_tap.h"
#include "workloads.h"

namespace perfbench {
namespace {

using phoenix::Rng;
using phoenix::Status;
using phoenix::Value;
using phoenix::core::PhoenixDriverManager;
using phoenix::odbc::DriverManager;
using phoenix::odbc::Hdbc;
using phoenix::odbc::Henv;
using phoenix::odbc::Hstmt;
using phoenix::odbc::SqlReturn;

constexpr const char* kDsn = "bench";
constexpr const char* kTapDsn = "bench_tap";

bool IsReport(const Args& args) { return args.workload == "report"; }

/// One op of the seeded stream: a PK-range SELECT (report) or the key the
/// transaction updates (orders).
struct OpSpec {
  int64_t lo = 0;
  int64_t size = 0;
  int64_t key = 0;
};

OpSpec NextOp(bool report, Rng* rng) {
  OpSpec op;
  if (report) {
    double p = rng->NextDouble();
    op.size = p < 0.70 ? 10 : (p < 0.95 ? 200 : 5000);
    op.lo = rng->NextRange(0, kSharedRows - op.size);
  } else {
    op.key = rng->NextRange(0, kSharedRows - 1);
  }
  return op;
}

/// The stream of client `client` for `phase`; equal arguments give equal
/// streams, so the traced and native phases replay the measured one.
uint64_t StreamSeed(uint64_t seed, int client, uint64_t phase) {
  return (seed * 1000003ULL + static_cast<uint64_t>(client)) * 7919ULL + phase;
}
constexpr uint64_t kMeasuredStream = 1;
constexpr uint64_t kWarmupStream = 2;

std::string ReportSql(const OpSpec& op) {
  return "SELECT N, C, V, S FROM T WHERE N >= " + std::to_string(op.lo) +
         " AND N < " + std::to_string(op.lo + op.size) + " ORDER BY N";
}

/// The statements of an orders transaction that inserts row `n`.
std::vector<std::string> OrdersSteps(const TableGen& gen, const OpSpec& op,
                                     int64_t n) {
  return {"BEGIN",
          "UPDATE T SET C = C + 1 WHERE N = " + std::to_string(op.key),
          "INSERT INTO T VALUES " + gen.Tuple(n), "COMMIT"};
}

/// Server-side trace state, filled by the pre-dispatch hook while `on`.
struct ServerTrace {
  std::atomic<bool> on{false};
  phoenix::obs::Gauge* queue_depth =
      phoenix::obs::MetricsRegistry::Default()->GetGauge(
          "server.pool.queue_depth");
  std::mutex mu;  ///< guards the fields below
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> dispatch_ns;
  std::vector<std::string> sql;
  int64_t max_queue_depth = 0;

  void OnDispatch(const phoenix::net::Request& r) {
    if (!on.load(std::memory_order_relaxed)) return;
    uint64_t now = NowNs();
    int64_t depth = queue_depth->Value();
    std::lock_guard<std::mutex> lk(mu);
    dispatch_ns[{r.session_id, r.request_id}] = now;
    if (r.kind == phoenix::net::Request::Kind::kExecScript ||
        r.kind == phoenix::net::Request::Kind::kOpenCursor) {
      sql.push_back(r.sql);
    }
    max_queue_depth = std::max(max_queue_depth, depth);
  }
};

/// The server under test and the client-side name directory for it.
struct Host {
  phoenix::storage::SimDisk disk;
  std::unique_ptr<phoenix::net::DbServer> server;
  std::unique_ptr<phoenix::net::SocketServer> socket;
  phoenix::net::Network network;

  ~Host() {
    if (socket) socket->Shutdown();
  }

  Status Start(bool report, const std::string& endpoint, ServerTrace* trace) {
    disk.set_sync_latency_us(kSyncLatencyUs);
    phoenix::net::ServerOptions opts;
    opts.db.checkpoint_every_n_commits =
        report ? kReportCheckpointEvery : kOrdersCheckpointEvery;
    if (trace != nullptr) {
      opts.pre_dispatch_hook = [trace](const phoenix::net::Request& r) {
        trace->OnDispatch(r);
      };
    }
    server = std::make_unique<phoenix::net::DbServer>(&disk, opts);
    Status s = server->Start();
    if (!s.ok()) return s;
    socket = std::make_unique<phoenix::net::SocketServer>(server.get());
    s = socket->Start(endpoint);
    if (!s.ok()) return s;
    network.RegisterRemote(kDsn, socket->endpoint());
    return Status::Ok();
  }
};

struct RawSpan {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  size_t op;  ///< index into the client's op spans
};

/// What one client thread measured in one phase.
struct ClientOut {
  OpSamples samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t committed = 0;  ///< orders transactions committed
  std::vector<std::string> violations;
  // Traced phase only.
  std::vector<RawSpan> ops;
  std::vector<RawSpan> calls;
  std::vector<uint64_t> sessions;  ///< server session ids this client used
  std::vector<double> classify_us;
  std::vector<double> exec_ms[3];  ///< orders: UPDATE, INSERT, COMMIT
};

struct PhaseSpec {
  bool phoenix = true;
  bool traced = false;
  double seconds = 0;  ///< > 0: run until this deadline
  int fixed_ops = 0;   ///< > 0: run exactly this many ops (warm-up)
  uint64_t stream = kMeasuredStream;
  std::string dsn = kDsn;
};

/// One client's closed loop: sessions of kSessionOps ops (Phoenix artifact
/// tables live until their session disconnects), each op timed.
class Client {
 public:
  Client(const Args& args, const TableGen& gen, phoenix::net::Network* net,
         const PhaseSpec& spec, int id, std::atomic<int64_t>* next_insert)
      : gen_(gen),
        spec_(spec),
        report_(IsReport(args)),
        next_insert_(next_insert),
        rng_(StreamSeed(args.seed, id, spec.stream)) {
    if (spec.phoenix) {
      dm_ = std::make_unique<PhoenixDriverManager>(net);
    } else {
      dm_ = std::make_unique<DriverManager>(net);
    }
    env_ = dm_->AllocEnv();
    dbc_ = dm_->AllocConnect(env_);
  }

  void Run(uint64_t phase_start_ns, uint64_t deadline_ns, ClientOut* out) {
    out_ = out;
    for (int n = 0;; ++n) {
      bool done = spec_.fixed_ops > 0 ? n >= spec_.fixed_ops
                                       : NowNs() >= deadline_ns;
      if (done) break;
      if (!dbc_->connected || (spec_.phoenix && session_ops_ >= kSessionOps)) {
        if (!Reconnect()) {
          out->violations.push_back("connect failed: " +
                                    DriverManager::Diag(dbc_).ToString());
          ++out->failed;
          return;
        }
      }
      OpSpec op = NextOp(report_, &rng_);
      if (spec_.traced) TimeClassify(op);
      uint64_t t0 = NowNs();
      if (spec_.traced) op_index_ = out->ops.size();
      bool ok = report_ ? ReportOp(op) : OrdersOp(op);
      uint64_t t1 = NowNs();
      if (spec_.traced) out->ops.push_back({"app.op", t0, t1, op_index_});
      ++session_ops_;
      ++out->attempted;
      if (!ok) ++out->failed;
      out->samples.Add(static_cast<double>(t0 - phase_start_ns) / 1e9,
                       NsToMs(t1 - t0));
    }
    if (dbc_->connected) dm_->Disconnect(dbc_);
  }

 private:
  bool Reconnect() {
    if (dbc_->connected) dm_->Disconnect(dbc_);
    if (dm_->Connect(dbc_, spec_.dsn, "bench") != SqlReturn::kSuccess) {
      return false;
    }
    stmt_ = dm_->AllocStmt(dbc_);
    session_ops_ = 0;
    if (spec_.traced) {
      out_->sessions.push_back(dbc_->driver->session_id());
      if (auto* cs = PhoenixDriverManager::conn_state(dbc_)) {
        out_->sessions.push_back(cs->private_conn->session_id());
      }
    }
    return true;
  }

  /// Wraps one call into the driver manager in a span (traced phase only).
  template <typename F>
  SqlReturn Call(const char* name, F&& f) {
    if (!spec_.traced) return f();
    uint64_t t0 = NowNs();
    SqlReturn r = f();
    out_->calls.push_back({name, t0, NowNs(), op_index_});
    return r;
  }

  void TimeClassify(const OpSpec& op) {
    uint64_t t0 = NowNs();
    for (const std::string& sql : OpStatements(op)) {
      auto c = phoenix::core::Classify(sql);
      if (!c.ok()) out_->violations.push_back("Classify failed: " + sql);
    }
    out_->classify_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }

  std::vector<std::string> OpStatements(const OpSpec& op) {
    if (report_) return {ReportSql(op)};
    // The row number is a preview; the op takes its own.
    return OrdersSteps(gen_, op, next_insert_->load());
  }

  bool ReportOp(const OpSpec& op) {
    std::string sql = ReportSql(op);
    if (Call("core.exec", [&] { return dm_->ExecDirect(stmt_, sql); }) !=
        SqlReturn::kSuccess) {
      out_->violations.push_back("SELECT failed: " +
                                 DriverManager::Diag(stmt_).ToString());
      return false;
    }
    uint64_t h = 0;
    int64_t rows = 0;
    Value n, c, v, s;
    SqlReturn r;
    while (true) {
      // Only a Fetch that empties the client block buffer reaches the
      // server; the rest are client-local and stay in the op's own time.
      bool block = stmt_->server_cursor_id != 0 &&
                   stmt_->buffer_pos >= stmt_->buffered.size() &&
                   !stmt_->server_done;
      r = block ? Call("core.fetch", [&] { return dm_->Fetch(stmt_); })
                : dm_->Fetch(stmt_);
      if (r != SqlReturn::kSuccess) break;
      dm_->GetData(stmt_, 0, &n);
      dm_->GetData(stmt_, 1, &c);
      dm_->GetData(stmt_, 2, &v);
      dm_->GetData(stmt_, 3, &s);
      h = FoldRow(h, RowHash(n.AsInt64(), c.AsInt64(), v.AsInt64(),
                             s.AsString()));
      ++rows;
    }
    Call("core.close", [&] { return dm_->CloseCursor(stmt_); });
    if (r != SqlReturn::kNoData) {
      out_->violations.push_back("fetch failed: " +
                                 DriverManager::Diag(stmt_).ToString());
      return false;
    }
    if (rows != op.size || h != gen_.RangeChecksum(op.lo, op.lo + op.size)) {
      out_->violations.push_back(
          "result of [" + std::to_string(op.lo) + ", " +
          std::to_string(op.lo + op.size) + ") has " + std::to_string(rows) +
          " rows or a wrong checksum");
      return false;
    }
    return true;
  }

  bool OrdersOp(const OpSpec& op) {
    const std::vector<std::string> steps =
        OrdersSteps(gen_, op, next_insert_->fetch_add(1));
    for (size_t i = 0; i < steps.size(); ++i) {
      uint64_t t0 = NowNs();
      SqlReturn r =
          Call("core.exec", [&] { return dm_->ExecDirect(stmt_, steps[i]); });
      if (spec_.traced && i > 0) {
        out_->exec_ms[i - 1].push_back(NsToMs(NowNs() - t0));
      }
      int64_t affected = 0;
      dm_->RowCount(stmt_, &affected);
      bool wrong = (i == 1 || i == 2) && affected != 1;
      if (r != SqlReturn::kSuccess || wrong) {
        out_->violations.push_back(
            steps[i].substr(0, 40) + " failed: " +
            (wrong ? "affected " + std::to_string(affected)
                   : DriverManager::Diag(stmt_).ToString()));
        dm_->ExecDirect(stmt_, "ROLLBACK");
        return false;
      }
    }
    ++out_->committed;
    return true;
  }

  const TableGen& gen_;
  PhaseSpec spec_;
  bool report_;
  std::atomic<int64_t>* next_insert_;
  Rng rng_;
  std::unique_ptr<DriverManager> dm_;
  Henv* env_ = nullptr;
  Hdbc* dbc_ = nullptr;
  Hstmt* stmt_ = nullptr;
  int session_ops_ = 0;
  size_t op_index_ = 0;
  ClientOut* out_ = nullptr;
};

struct PhaseOut {
  std::vector<ClientOut> clients;
  OpSamples samples;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t committed = 0;
  double elapsed_s = 0;
};

PhaseOut RunPhase(const Args& args, const TableGen& gen,
                  phoenix::net::Network* net, const PhaseSpec& spec,
                  std::atomic<int64_t>* next_insert, RunResult* result) {
  PhaseOut out;
  out.clients.resize(kSharedClients);
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < kSharedClients; ++i) {
    clients.push_back(
        std::make_unique<Client>(args, gen, net, spec, i, next_insert));
  }
  uint64_t start = NowNs();
  uint64_t deadline = start + static_cast<uint64_t>(spec.seconds * 1e9);
  std::vector<std::thread> threads;
  for (int i = 0; i < kSharedClients; ++i) {
    threads.emplace_back(
        [&, i] { clients[i]->Run(start, deadline, &out.clients[i]); });
  }
  for (auto& t : threads) t.join();
  out.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  for (ClientOut& c : out.clients) {
    out.samples.Append(c.samples);
    out.attempted += c.attempted;
    out.failed += c.failed;
    out.committed += c.committed;
    for (const std::string& v : c.violations) result->Violation(v);
  }
  result->attempted += out.attempted;
  result->failed += out.failed;
  return out;
}

/// Builds the span tree of a traced phase: app.op > core.* > net.request >
/// server.exec, joining the tap's request records to the client calls by
/// session and time, and to the server's dispatch times by request id.
void BuildSpans(PhaseOut* phase, const std::vector<TapRecord>& taps,
                ServerTrace* trace, SpanLog* log, std::vector<double>* waits_us,
                uint64_t* unattributed) {
  std::map<uint64_t, int> session_client;
  std::vector<std::vector<int64_t>> call_ids(phase->clients.size());
  int64_t op_base = 0;
  for (size_t ci = 0; ci < phase->clients.size(); ++ci) {
    ClientOut& c = phase->clients[ci];
    for (uint64_t s : c.sessions) session_client[s] = static_cast<int>(ci);
    std::vector<int64_t> op_ids;
    for (size_t i = 0; i < c.ops.size(); ++i) {
      op_ids.push_back(log->Add(c.ops[i].name, c.ops[i].start_ns,
                                c.ops[i].end_ns, -1, op_base + i));
    }
    for (const RawSpan& s : c.calls) {
      call_ids[ci].push_back(log->Add(s.name, s.start_ns, s.end_ns,
                                      op_ids[s.op], op_base + s.op));
    }
    op_base += static_cast<int64_t>(c.ops.size());
  }
  std::lock_guard<std::mutex> lk(trace->mu);
  for (const TapRecord& t : taps) {
    auto sc = session_client.find(t.session_id);
    if (sc == session_client.end()) {
      ++*unattributed;
      continue;
    }
    const std::vector<RawSpan>& calls = phase->clients[sc->second].calls;
    auto it = std::upper_bound(
        calls.begin(), calls.end(), t.send_ns,
        [](uint64_t ns, const RawSpan& s) { return ns < s.start_ns; });
    if (it == calls.begin() || (it - 1)->end_ns < t.reply_ns) {
      ++*unattributed;  // session set-up or teardown, outside every op
      continue;
    }
    size_t k = static_cast<size_t>(it - 1 - calls.begin());
    int64_t parent = call_ids[sc->second][k];
    int64_t op = log->spans()[static_cast<size_t>(parent)].op;
    int64_t req = log->Add("net.request", t.send_ns, t.reply_ns, parent, op);
    auto d = trace->dispatch_ns.find({t.session_id, t.request_id});
    if (d != trace->dispatch_ns.end() && d->second >= t.send_ns &&
        d->second <= t.reply_ns) {
      waits_us->push_back(static_cast<double>(d->second - t.send_ns) / 1e3);
      log->Add("server.exec", d->second, t.reply_ns, req, op);
    }
  }
}

/// Round-trip time of a bare ping on an idle connection, in µs (median).
double PingRttUs(phoenix::net::Network* net) {
  auto ch = net->Connect(kDsn);
  if (!ch.ok()) return 0;
  std::vector<double> us;
  phoenix::net::Request ping;
  ping.kind = phoenix::net::Request::Kind::kPing;
  for (int i = 0; i < 300; ++i) {
    uint64_t t0 = NowNs();
    auto r = (*ch)->RoundTrip(ping);
    if (r.ok()) us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  (*ch)->Disconnect();
  return Quantile(us, 0.5);
}

/// Median sql::Parser::ParseScript time over the texts the server received,
/// summed per op.
double ParseUsPerOp(const std::vector<std::string>& texts, uint64_t ops) {
  if (ops == 0) return 0;
  uint64_t t0 = NowNs();
  for (const std::string& sql : texts) {
    auto parsed = phoenix::sql::Parser::ParseScript(sql);
    (void)parsed;
  }
  return static_cast<double>(NowNs() - t0) / 1e3 / static_cast<double>(ops);
}

}  // namespace

RunResult RunSharedServer(const Args& args) {
  RunResult result;
  const bool report = IsReport(args);
  TableGen gen(args.seed, kSharedRows);
  std::string endpoint = "unix:" + args.out_dir + "/" + args.workload + "-" +
                         std::to_string(::getpid()) + ".sock";
  ServerTrace trace;
  std::atomic<int64_t> next_insert{kSharedRows};
  uint64_t committed = 0;

  // Set-up: boot the server, load the table, warm up. The first host is
  // the one measured, so it is built on a fresh heap; an untimed run sets
  // up kSetupReps - 1 more hosts after the measurement, and setup_s is the
  // median of all of them.
  std::unique_ptr<Host> host;
  auto run_phase = [&](const PhaseSpec& spec) {
    return RunPhase(args, gen, &host->network, spec, &next_insert, &result);
  };
  auto setup = [&](double* seconds) -> Status {
    uint64_t t0 = NowNs();
    host = std::make_unique<Host>();
    PHX_RETURN_IF_ERROR(
        host->Start(report, endpoint, args.trace ? &trace : nullptr));
    DriverManager plain(&host->network);
    Hdbc* dbc = plain.AllocConnect(plain.AllocEnv());
    if (plain.Connect(dbc, kDsn, "loader") != SqlReturn::kSuccess) {
      return DriverManager::Diag(dbc);
    }
    PHX_RETURN_IF_ERROR(LoadTable(&plain, dbc, gen));
    plain.Disconnect(dbc);
    next_insert = kSharedRows;
    PhaseSpec warm;
    warm.fixed_ops = kWarmupOps;
    warm.stream = kWarmupStream;
    committed = run_phase(warm).committed;
    *seconds = static_cast<double>(NowNs() - t0) / 1e9;
    return Status::Ok();
  };
  std::vector<double> setup_s(1);
  Status booted = setup(&setup_s[0]);
  if (!booted.ok()) {
    result.Violation("set-up failed: " + booted.ToString());
    return result;
  }

  PhaseSpec measured;
  measured.seconds = args.seconds;
  PhaseOut m = run_phase(measured);
  committed += m.committed;
  CheckStationary(m.samples, args.seconds, kTrendBound, &result);
  double p50 = m.samples.P(0.5);

  if (args.trace) {
    // Traced replay of the same stream through the wire tap.
    WireTap tap;
    std::string tap_ep = "unix:" + args.out_dir + "/" + args.workload + "-" +
                         std::to_string(::getpid()) + "-tap.sock";
    Status s = tap.Start(tap_ep, host->socket->endpoint());
    if (!s.ok()) {
      result.Violation("wire tap: " + s.ToString());
      return result;
    }
    host->network.RegisterRemote(kTapDsn, tap.endpoint());
    PhaseSpec traced = measured;
    traced.traced = true;
    traced.dsn = kTapDsn;
    RegistryDelta reg;
    reg.before = phoenix::obs::MetricsRegistry::Default()->Snapshot();
    trace.on = true;
    PhaseOut t = run_phase(traced);
    trace.on = false;
    reg.after = phoenix::obs::MetricsRegistry::Default()->Snapshot();
    tap.Shutdown();
    committed += t.committed;

    // Native floor: the same stream through the plain driver manager.
    PhaseSpec native = measured;
    native.phoenix = false;
    native.seconds = args.seconds / 2;
    PhaseOut nat = run_phase(native);
    committed += nat.committed;
    double native_p50 = nat.samples.P(0.5);

    SpanLog spans;
    std::vector<double> waits_us;
    uint64_t unattributed = 0;
    BuildSpans(&t, tap.Drain(), &trace, &spans, &waits_us, &unattributed);
    std::string span_file = args.out_dir + "/" + args.workload + "-seed" +
                            std::to_string(args.seed) + ".spans.jsonl";
    spans.Write(span_file);
    result.notes.push_back(
        "spans: " + std::to_string(spans.spans().size()) + " written to " +
        span_file + " (" + std::to_string(unattributed) +
        " requests of session set-up and teardown fall outside every op)");

    const double ops = static_cast<double>(std::max<uint64_t>(t.attempted, 1));
    auto per_op = [&](uint64_t v) { return static_cast<double>(v) / ops; };
    double traced_p50 = t.samples.P(0.5);
    result.Add("trace.overhead_ms", traced_p50 - p50, "ms");
    result.Add("core.round_trips_per_op",
               per_op(reg.Counter("net.round_trips")), "count");
    result.Add("core.server_stmts_per_op",
               per_op(reg.Counter("engine.statements_executed")), "count");
    result.Add("core.bytes_per_op",
               per_op(reg.Counter("net.bytes_sent") +
                      reg.Counter("net.bytes_received")),
               "B");
    std::vector<double> classify;
    std::vector<double> exec[3];
    for (const ClientOut& c : t.clients) {
      classify.insert(classify.end(), c.classify_us.begin(),
                      c.classify_us.end());
      for (int i = 0; i < 3; ++i) {
        exec[i].insert(exec[i].end(), c.exec_ms[i].begin(), c.exec_ms[i].end());
      }
    }
    result.Add("core.classify_us", Quantile(classify, 0.5), "us");
    result.Add("core.overhead_ms", p50 - native_p50, "ms");
    result.Add("core.exec_update_ms", Quantile(exec[0], 0.5), "ms");
    result.Add("core.exec_insert_ms", Quantile(exec[1], 0.5), "ms");
    result.Add("core.exec_commit_ms", Quantile(exec[2], 0.5), "ms");
    result.Add("odbc.native_op_p50_ms", native_p50, "ms");
    result.Add("net.ping_rtt_us", PingRttUs(&host->network), "us");
    result.Add("net.dispatch_wait_us", Quantile(waits_us, 0.5), "us");
    result.Add("net.dispatch_wait_p99_us", Quantile(waits_us, 0.99), "us");
    result.Add("net.pool_queue_depth_max",
               static_cast<double>(trace.max_queue_depth), "count");
    result.Add("sql.parse_us", ParseUsPerOp(trace.sql, t.attempted), "us");
    result.Add("engine.rows_materialized_per_op",
               per_op(reg.Counter("engine.rows_materialized")), "count");
    result.Add("engine.rows_fetched_per_op",
               per_op(reg.Counter("engine.rows_fetched")), "count");
    result.Add("storage.wal_bytes_per_op",
               per_op(reg.Counter("storage.wal.bytes")), "B");
    result.Add("storage.wal_syncs_per_op",
               per_op(reg.Counter("storage.wal.syncs")), "count");
    result.Add("storage.checkpoints",
               static_cast<double>(reg.Counter("storage.checkpoints")),
               "count");
    result.Add("storage.checkpoint_snapshot_p99_us",
               reg.HistogramQuantile("storage.checkpoint.snapshot_us", 0.99),
               "us");
    std::map<std::string, uint64_t> self = spans.SelfTimeByLayer();
    for (const char* layer : {"app", "core", "net", "server"}) {
      result.Add(std::string("layer.") + layer + ".self_ms_per_op",
                 NsToMs(self[layer]) / ops, "ms");
    }
  }

  // orders oracle: every committed UPDATE added 1 to SUM(C), and every
  // committed INSERT one row — exactly once, through Phoenix's wrapping.
  if (!report) {
    DriverManager plain(&host->network);
    Hdbc* dbc = plain.AllocConnect(plain.AllocEnv());
    if (plain.Connect(dbc, kDsn, "oracle") != SqlReturn::kSuccess) {
      ++result.failed;
      result.Violation("oracle connect failed");
    } else {
      Hstmt* st = plain.AllocStmt(dbc);
      auto sum = QueryInt(&plain, st, "SELECT SUM(C) FROM T");
      auto count = QueryInt(&plain, st, "SELECT COUNT(*) FROM T");
      int64_t want = static_cast<int64_t>(committed);
      if (!sum.ok() || *sum != want) {
        ++result.failed;
        result.Violation("SUM(C) " + (sum.ok() ? std::to_string(*sum) : "?") +
                         " != committed updates " + std::to_string(want));
      }
      if (!count.ok() || *count != kSharedRows + want) {
        ++result.failed;
        result.Violation("COUNT(*) " +
                         (count.ok() ? std::to_string(*count) : "?") +
                         " != " + std::to_string(kSharedRows + want));
      }
      plain.Disconnect(dbc);
    }
  }

  if (!args.trace) {
    host.reset();
    for (int rep = 1; rep < kSetupReps; ++rep) {
      setup_s.push_back(0);
      Status s = setup(&setup_s.back());
      host.reset();
      if (!s.ok()) {
        result.Violation("set-up failed: " + s.ToString());
        return result;
      }
    }
    result.Add("setup_s", Quantile(setup_s, 0.5), "s");
    result.Add("ops_per_s",
               static_cast<double>(m.samples.ms.size()) / m.elapsed_s, "1/s");
    result.Add("op_p50_ms", p50, "ms");
    result.Add("op_tail_ms", m.samples.P(0.99), "ms");
    result.Add("peak_rss_mb", PeakRssMb(false), "MiB");
    result.notes.push_back("op_p99_ms " + std::to_string(m.samples.P(0.99)) +
                           " over " + std::to_string(m.samples.ms.size()) +
                           " ops (reported as op_tail_ms)");
  }
  return result;
}

}  // namespace perfbench
