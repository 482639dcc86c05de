#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <unordered_map>

namespace perfbench {

using phoenix::Result;
using phoenix::Status;
using phoenix::Value;
using phoenix::odbc::SqlReturn;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double PeakRssMb(bool children) {
  struct rusage ru {};
  ::getrusage(children ? RUSAGE_CHILDREN : RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void RunResult::Violation(const std::string& what) {
  correct = false;
  // Keep the first few for the log; a systematic failure would flood it.
  if (notes.size() < 20) notes.push_back("ORACLE VIOLATION: " + what);
}

void OpSamples::Append(const OpSamples& o) {
  start_s.insert(start_s.end(), o.start_s.begin(), o.start_s.end());
  ms.insert(ms.end(), o.ms.begin(), o.ms.end());
}

double OpSamples::HalfP50(double seconds, bool second_half) const {
  std::vector<double> half;
  for (size_t i = 0; i < ms.size(); ++i) {
    if ((start_s[i] >= seconds / 2) == second_half) half.push_back(ms[i]);
  }
  return Quantile(std::move(half), 0.5);
}

bool CheckStationary(const OpSamples& s, double seconds, double bound,
                     RunResult* out) {
  double first = s.HalfP50(seconds, false);
  double second = s.HalfP50(seconds, true);
  double whole = s.P(0.5);
  char line[200];
  std::snprintf(line, sizeof(line),
                "stationarity: op_p50_ms first half %.4f, second half %.4f",
                first, second);
  out->notes.push_back(line);
  if (whole > 0 && std::fabs(second - first) > bound * whole) {
    std::snprintf(line, sizeof(line),
                  "TREND: half-run op_p50_ms moved by %.1f%% (bound %.0f%%)",
                  100.0 * (second - first) / whole, 100.0 * bound);
    out->notes.push_back(line);
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Table generator and checksum oracle
// ---------------------------------------------------------------------------

namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

TableGen::TableGen(uint64_t seed, int64_t rows) : seed_(seed) {
  row_hash_.reserve(static_cast<size_t>(rows));
  for (int64_t n = 0; n < rows; ++n) {
    row_hash_.push_back(RowHash(n, 0, V(n), S(n)));
  }
}

int64_t TableGen::V(int64_t n) const {
  return static_cast<int64_t>(Mix(seed_ * 1000003ULL + n) >> 20);
}

std::string TableGen::S(int64_t n) const {
  uint64_t h = Mix(seed_ ^ (static_cast<uint64_t>(n) << 17));
  std::string s(16, 'a');
  for (int i = 0; i < 16; ++i) {
    s[i] = static_cast<char>('a' + (h % 26));
    h = (h / 26) ^ Mix(h + i);
  }
  return s;
}

uint64_t TableGen::RangeChecksum(int64_t lo, int64_t hi) const {
  uint64_t h = 0;
  for (int64_t n = lo; n < hi; ++n) h = FoldRow(h, row_hash_[n]);
  return h;
}

std::string TableGen::Tuple(int64_t n) const {
  return "(" + std::to_string(n) + ", 0, " + std::to_string(V(n)) + ", '" +
         S(n) + "')";
}

uint64_t RowHash(int64_t n, int64_t c, int64_t v, const std::string& s) {
  uint64_t r = Mix(static_cast<uint64_t>(n) * 31 + static_cast<uint64_t>(c));
  r = Mix(r ^ static_cast<uint64_t>(v));
  for (char ch : s) r = r * 131 + static_cast<unsigned char>(ch);
  return r;
}

uint64_t FoldRow(uint64_t h, uint64_t row_hash) {
  return Mix(h * 1099511628211ULL + row_hash);
}

Status LoadTable(phoenix::odbc::DriverManager* dm, phoenix::odbc::Hdbc* dbc,
                 const TableGen& gen) {
  const int64_t rows = gen.rows();
  auto* stmt = dm->AllocStmt(dbc);
  if (dm->ExecDirect(stmt, "CREATE TABLE T (N INTEGER PRIMARY KEY, "
                           "C INTEGER, V BIGINT, S VARCHAR(16))") !=
      SqlReturn::kSuccess) {
    return phoenix::odbc::DriverManager::Diag(stmt);
  }
  constexpr int64_t kBatch = 1000;
  for (int64_t lo = 0; lo < rows; lo += kBatch) {
    std::string sql = "INSERT INTO T VALUES ";
    for (int64_t n = lo; n < std::min(rows, lo + kBatch); ++n) {
      if (n > lo) sql += ", ";
      sql += gen.Tuple(n);
    }
    if (dm->ExecDirect(stmt, sql) != SqlReturn::kSuccess) {
      return phoenix::odbc::DriverManager::Diag(stmt);
    }
  }
  dm->FreeStmt(stmt);
  return Status::Ok();
}

Result<int64_t> QueryInt(phoenix::odbc::DriverManager* dm,
                         phoenix::odbc::Hstmt* stmt, const std::string& sql) {
  using phoenix::odbc::DriverManager;
  if (dm->ExecDirect(stmt, sql) != SqlReturn::kSuccess) {
    return DriverManager::Diag(stmt);
  }
  if (dm->Fetch(stmt) != SqlReturn::kSuccess) {
    return DriverManager::Diag(stmt);
  }
  Value v;
  dm->GetData(stmt, 0, &v);
  dm->CloseCursor(stmt);
  return v.AsInt64();
}

// ---------------------------------------------------------------------------
// Registry deltas
// ---------------------------------------------------------------------------

uint64_t RegistryDelta::Counter(const std::string& name) const {
  return after.counter(name) - before.counter(name);
}

namespace {

// Per-bucket delta counts of a histogram (bounds from `after`).
std::vector<uint64_t> BucketDelta(const phoenix::obs::MetricsSnapshot& before,
                                  const phoenix::obs::MetricsSnapshot& after,
                                  const std::string& name,
                                  std::vector<uint64_t>* bounds) {
  auto a = after.histograms.find(name);
  if (a == after.histograms.end()) return {};
  *bounds = a->second.bounds;
  std::vector<uint64_t> cum = a->second.cumulative;
  auto b = before.histograms.find(name);
  if (b != before.histograms.end()) {
    for (size_t i = 0; i < cum.size() && i < b->second.cumulative.size(); ++i) {
      cum[i] -= b->second.cumulative[i];
    }
  }
  return cum;
}

}  // namespace

double RegistryDelta::HistogramQuantile(const std::string& name,
                                        double q) const {
  std::vector<uint64_t> bounds;
  std::vector<uint64_t> cum = BucketDelta(before, after, name, &bounds);
  if (cum.empty() || cum.back() == 0) return 0;
  double target = q * static_cast<double>(cum.back());
  for (size_t i = 0; i < cum.size(); ++i) {
    if (static_cast<double>(cum[i]) >= target) {
      return static_cast<double>(bounds[i]);
    }
  }
  return static_cast<double>(bounds.back());
}

uint64_t RegistryDelta::HistogramSum(const std::string& name) const {
  uint64_t a = 0;
  uint64_t b = 0;
  if (auto it = after.histograms.find(name); it != after.histograms.end()) {
    a = it->second.sum;
  }
  if (auto it = before.histograms.find(name); it != before.histograms.end()) {
    b = it->second.sum;
  }
  return a - b;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

int64_t SpanLog::Add(std::string name, uint64_t start_ns, uint64_t end_ns,
                     int64_t parent, int64_t op) {
  int64_t id = static_cast<int64_t>(spans_.size());
  spans_.push_back(Span{std::move(name), start_ns, end_ns, id, parent, op});
  return id;
}

bool SpanLog::Write(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}\n";
  }
  return static_cast<bool>(out);
}

std::map<std::string, uint64_t> SpanLog::SelfTimeByLayer() const {
  std::unordered_map<int64_t, uint64_t> child_ns;
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<size_t>(s.parent)];
    uint64_t lo = std::max(s.start_ns, p.start_ns);
    uint64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) child_ns[s.parent] += hi - lo;
  }
  std::map<std::string, uint64_t> self;
  for (const Span& s : spans_) {
    uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    uint64_t covered = child_ns.count(s.id) ? child_ns[s.id] : 0;
    self[s.name.substr(0, s.name.find('.'))] +=
        dur > covered ? dur - covered : 0;
  }
  return self;
}

}  // namespace perfbench
