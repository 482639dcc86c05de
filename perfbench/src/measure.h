// Shared measurement plumbing for the repository benchmark: clocks, sample
// statistics, the seeded table generator and its checksum oracle, in-memory
// spans, registry deltas, and what a run reports.
#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "odbc/driver_manager.h"

namespace perfbench {

/// Command-line arguments of phx_perfbench (see main.cc).
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string phoenixd;  ///< path of the phoenixd binary (resume)
  std::string out_dir;   ///< scratch directory inside the checkout
};

uint64_t NowNs();
inline double NsToMs(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Linear-interpolated quantile of `v` (copied and sorted); 0 when empty.
double Quantile(std::vector<double> v, double q);

/// Peak resident set in MiB of this process, or (children=true) of the
/// largest child this process has waited for.
double PeakRssMb(bool children);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `notes` are printed as human-readable
/// lines before the result line.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records an oracle violation: the run is marked incorrect. The caller
  /// counts the failed op.
  void Violation(const std::string& what);
};

/// Latency samples of one measured phase, with the start time of each op so
/// that the phase can be split into halves for the stationarity check.
struct OpSamples {
  std::vector<double> start_s;  ///< op start, seconds since phase start
  std::vector<double> ms;       ///< op duration

  void Add(double start, double dur_ms) {
    start_s.push_back(start);
    ms.push_back(dur_ms);
  }
  void Append(const OpSamples& o);
  double P(double q) const { return Quantile(ms, q); }
  /// p50 of the ops that started in the first (second) half of `seconds`.
  double HalfP50(double seconds, bool second_half) const;
};

/// Compares the two half-phase p50s; adds a note (and returns false) when
/// they differ by more than `bound` of the whole-phase p50.
bool CheckStationary(const OpSamples& s, double seconds, double bound,
                     RunResult* out);

// ---------------------------------------------------------------------------
// The seeded table T(N INTEGER PRIMARY KEY, C INTEGER, V BIGINT, S VARCHAR).
// Row N holds C = 0, V = H(seed, N) and S = a 16-letter string of H. The
// checksum of a result is an order-sensitive hash of its rows, so the
// report and resume oracles compare both content and order.
// ---------------------------------------------------------------------------
class TableGen {
 public:
  /// Generates rows [0, rows) and caches their row hashes.
  TableGen(uint64_t seed, int64_t rows);
  int64_t V(int64_t n) const;
  std::string S(int64_t n) const;
  /// Checksum of rows [lo, hi) as generated (all C = 0).
  uint64_t RangeChecksum(int64_t lo, int64_t hi) const;
  /// SQL VALUES tuple of row n.
  std::string Tuple(int64_t n) const;
  int64_t rows() const { return static_cast<int64_t>(row_hash_.size()); }

 private:
  uint64_t seed_;
  std::vector<uint64_t> row_hash_;
};

/// Hash of one row (N, C, V, S).
uint64_t RowHash(int64_t n, int64_t c, int64_t v, const std::string& s);
/// Folds a row hash into a running, order-sensitive checksum.
uint64_t FoldRow(uint64_t h, uint64_t row_hash);

/// Creates T and loads every generated row through `dm` on `dbc` in
/// batched autocommit INSERTs.
phoenix::Status LoadTable(phoenix::odbc::DriverManager* dm,
                          phoenix::odbc::Hdbc* dbc, const TableGen& gen);

/// Runs `sql` on `stmt` and returns the first column of its first row.
phoenix::Result<int64_t> QueryInt(phoenix::odbc::DriverManager* dm,
                                  phoenix::odbc::Hstmt* stmt,
                                  const std::string& sql);

/// Whole-registry counter and histogram deltas between two snapshots.
struct RegistryDelta {
  phoenix::obs::MetricsSnapshot before;
  phoenix::obs::MetricsSnapshot after;

  uint64_t Counter(const std::string& name) const;
  /// Upper bucket bound of quantile q of the histogram's delta (0 if the
  /// histogram saw nothing in between).
  double HistogramQuantile(const std::string& name, double q) const;
  /// Sum of the histogram's delta observations.
  uint64_t HistogramSum(const std::string& name) const;
};

// ---------------------------------------------------------------------------
// Spans: kept in memory during a traced phase, written out at the end.
// ---------------------------------------------------------------------------
struct Span {
  std::string name;  ///< "<layer>.<what>", e.g. "core.exec"
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = -1;  ///< -1 for an op's root span
  int64_t op = 0;
};

/// Built on one thread after a traced phase, from the per-client records.
class SpanLog {
 public:
  /// Appends a span and returns its id.
  int64_t Add(std::string name, uint64_t start_ns, uint64_t end_ns,
              int64_t parent, int64_t op);
  std::vector<Span>& spans() { return spans_; }
  /// Writes one JSON object per line.
  bool Write(const std::string& path) const;
  /// Self time per layer (span duration minus the time covered by its
  /// children), summed over all spans, in ns. The layer is the span name
  /// up to its first '.'.
  std::map<std::string, uint64_t> SelfTimeByLayer() const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
