// perfbench: the repository benchmark (see perfbench/README.md).
//
//   perfbench --workload <warm_series|cold_churn|hot_det> --seed <n>
//             --seconds <s> --trace <0|1> [--tiny] [--trace-out <file>]
//
// Runs one workload on the paper's TPC-H tables (Customers x Orders on
// custkey, m = 9 attributes, IN clauses of t = 1, SJ dimension 21) through
// the system's public entry points only:
//
//   EncryptedClient -> TcpClient / TcpServer -> EncryptedServer
//   EncryptedClient -> Coordinator -> loopback ShardWorkers
//
// Every result is decrypted and compared with a plaintext hash join over
// a plaintext shadow of the stored tables (output oracle), and the
// server's LeakageTracker is compared with a tracker fed the paper's
// minimum leakage of every executed query (leakage oracle). With
// --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, measured from outside with
// spans around the benchmark's own calls plus probe calls on the same
// tokens. Exit status 1 means a failed operation or a wrong output.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "db/client.h"
#include "db/plaintext_exec.h"
#include "db/server.h"
#include "db/wire.h"
#include "dist/coordinator.h"
#include "dist/worker.h"
#include "field/mont_accel.h"
#include "net/tcp_client.h"
#include "net/tcp_server.h"
#include "tpch/tpch.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace sjoin;  // NOLINT: benchmark harness

// --- Settings -----------------------------------------------------------------

/// Setups per run; setup_s is their median.
constexpr int kSetupReps = 3;
/// Mutation probes (one-row insert batch + its delete batch) after the
/// measured loop of the workloads without a write stream.
constexpr int kMutationProbes = 20;
/// Rows of the fixed sample the kernel probes run on.
constexpr size_t kKernelSampleRows = 8;
/// Repetitions of the in-process server probe and of the codec probe.
constexpr int kServerProbeReps = 3;
constexpr int kCodecProbeReps = 20;
/// The measured loop runs for --seconds and then on until kMinSeries
/// series were attempted (with 20 samples the tail rule's percentile is
/// at least the median), but never past kMaxLoopFactor x --seconds.
constexpr size_t kMinSeries = 20;
constexpr double kMaxLoopFactor = 3;

struct Scale {
  double sf;                  // TPC-H scale factor
  size_t worker_cache_bytes;  // cold_churn: per-worker prepared-row cache
  size_t churn_rows;          // cold_churn: Orders rows replaced per series
};
// SF 0.001 is the paper's table shape at 150 Customers / 1,500 Orders; the
// two 64 MiB worker caches hold ~370 prepared rows of the 1,650 selectable
// (~350 KB each), so the working set is >= 4x the combined cache.
constexpr Scale kFullScale{0.001, size_t{64} << 20, 15};
// The smoke pass: 15 Customers / 150 Orders, ~11 prepared rows per worker.
constexpr Scale kTinyScale{0.0001, size_t{4} << 20, 2};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string trace_out;
};

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(1);
}

template <typename T>
T Must(Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(*r);
}

void MustOk(const Status& s, const char* what) {
  if (!s.ok()) Die(std::string(what) + ": " + s.ToString());
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      a.trace = value() == "1";
    } else if (flag == "--tiny") {
      a.tiny = true;
    } else if (flag == "--trace-out") {
      a.trace_out = value();
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (a.seconds <= 0) Die("--seconds must be positive");
  return a;
}

// --- Statistics -----------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The tail of a latency sample: the highest of p99.9/p99/p95/p90/p75/p50
/// (nearest rank) with at least ten samples above it; with fewer than 20
/// samples, the 11th-largest sample and the percentile it sits at. With
/// fewer than 11 samples no percentile qualifies (`enough` is false and
/// the maximum stands in).
struct Tail {
  double value = 0;
  double percentile = 0;
  size_t samples = 0;
  bool enough = false;
};

Tail TailOf(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    size_t rank = static_cast<size_t>(std::ceil(p * n / 100.0 - 1e-9));
    if (rank >= 1 && n - rank >= 10) {
      t.value = v[rank - 1];
      t.percentile = p;
      t.enough = true;
      return t;
    }
  }
  if (n >= 11) {
    t.value = v[n - 11];
    t.percentile = 100.0 * (n - 10) / n;
    t.enough = true;
  } else {
    t.value = v.back();
    t.percentile = 100.0;
  }
  return t;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// --- Metrics and host fingerprint -----------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

int Nproc() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

/// What a result may only be compared under: two runs whose fingerprints
/// differ measured different machines or builds.
std::string FingerprintJson() {
  const char* force = std::getenv("SJOIN_FORCE_SCALAR");
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\": %d, \"cpu\": \"%s\", \"mont_accel\": \"%s\", "
                "\"force_scalar\": %s, \"build_type\": \"%s\", "
                "\"compiler\": \"%s\"}",
                Nproc(), JsonEscape(CpuModel()).c_str(),
                mont_accel::kEnabled ? "bmi2_adx" : "scalar",
                force != nullptr && std::string(force) == "1" ? "true"
                                                              : "false",
                PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
  return buf;
}

// --- Workload inputs --------------------------------------------------------------

ClientOptions MakeClientOptions(uint64_t rng_seed, bool det) {
  ClientOptions o;
  o.num_attrs = 9;  // Orders' nine non-join columns; Customers is padded
  o.max_in_clause = 1;
  o.enable_sse_prefilter = true;
  o.rng_seed = rng_seed;
  o.upload_det_encoding = det;
  return o;
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

JoinQuerySpec CustomersOrders() {
  JoinQuerySpec q;
  q.table_a = "Customers";
  q.table_b = "Orders";
  q.join_column_a = q.join_column_b = "custkey";
  return q;
}

/// The paper's four selectivity queries (s = 1/12.5 ... 1/100), as one series.
std::vector<JoinQuerySpec> SelectivitySeries() {
  std::vector<JoinQuerySpec> out;
  for (double s : TpchSelectivities()) {
    JoinQuerySpec q = CustomersOrders();
    q.selection_a.predicates = {{"selectivity", {Value(SelectivityLabel(s))}}};
    q.selection_b.predicates = {{"selectivity", {Value(SelectivityLabel(s))}}};
    out.push_back(std::move(q));
  }
  return out;
}

const char* kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD",
                           "MACHINERY"};
const char* kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                             "4-NOT SPECIFIED", "5-LOW"};
const char* kStatuses[] = {"O", "F", "P"};

template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->NextUint64Below(i)]);
  }
}

/// cold_churn's queries: one mktsegment x orderpriority x orderstatus cell
/// per series (~30 Customers + ~100 Orders rows). The seed shuffles the
/// order; series i takes Orders cell i mod 15 and segment i mod 5, so every
/// 15 series cover each Orders cell once and each segment three times --
/// runs of different seeds see the same mix of selection sizes.
class ChurnSchedule {
 public:
  explicit ChurnSchedule(uint64_t seed) : rng_(seed) {
    for (size_t c = 0; c < 15; ++c) cells_.push_back(c);
    for (size_t s = 0; s < 5; ++s) segments_.push_back(s);
    Shuffle(&cells_, &rng_);
    Shuffle(&segments_, &rng_);
  }
  JoinQuerySpec Next() {
    const size_t cell = cells_[next_ % cells_.size()];
    const size_t segment = segments_[next_ % segments_.size()];
    ++next_;
    JoinQuerySpec q = CustomersOrders();
    q.selection_a.predicates = {{"mktsegment", {Value(kSegments[segment])}}};
    q.selection_b.predicates = {
        {"orderpriority", {Value(kPriorities[cell / 3])}},
        {"orderstatus", {Value(kStatuses[cell % 3])}}};
    return q;
  }

 private:
  Rng rng_;
  std::vector<size_t> cells_;
  std::vector<size_t> segments_;
  size_t next_ = 0;
};

/// A fresh Orders row shaped like the generator's (the selectivity column
/// gets a unique filler, so the paper's selectivity queries never see it).
std::vector<Value> NewOrder(Rng* rng, int64_t orderkey, size_t customers) {
  return {orderkey,
          static_cast<int64_t>(1 + rng->NextUint64Below(customers)),
          kStatuses[rng->NextUint64Below(3)],
          static_cast<int64_t>(100000 + rng->NextUint64Below(50000000)),
          "1998-0" + std::to_string(1 + rng->NextUint64Below(9)) + "-1" +
              std::to_string(rng->NextUint64Below(10)),
          kPriorities[rng->NextUint64Below(5)],
          "Clerk#" + std::to_string(100000000 + rng->NextUint64Below(1000)),
          int64_t{0},
          "inserted by the churn stream",
          "none-ins-" + std::to_string(orderkey)};
}

Table TableOf(const std::string& name, const Schema& schema,
              const std::vector<std::vector<Value>>& rows) {
  Table t(name, schema);
  for (const auto& r : rows) MustOk(t.AppendRow(r), "AppendRow");
  return t;
}

std::vector<StableRowId> InitialIds(size_t n) {
  std::vector<StableRowId> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = i;
  return ids;
}

// --- Oracles ----------------------------------------------------------------------

using Rows = std::vector<std::vector<Value>>;

/// The join result in the client's result schema (theta, A's non-join
/// columns, B's non-join columns), sorted: what DecryptJoinResult must
/// return, up to row order.
Rows ExpectedRows(const Table& a, const Table& b, const JoinQuerySpec& q) {
  auto pairs = Must(PlaintextHashJoin(a, b, q), "PlaintextHashJoin");
  size_t ja = Must(a.schema().ColumnIndex(q.join_column_a), "join column");
  size_t jb = Must(b.schema().ColumnIndex(q.join_column_b), "join column");
  Rows out;
  for (const JoinedRowPair& p : pairs) {
    std::vector<Value> row{a.At(p.row_a, ja)};
    for (size_t c = 0; c < a.schema().NumColumns(); ++c) {
      if (c != ja) row.push_back(a.At(p.row_a, c));
    }
    for (size_t c = 0; c < b.schema().NumColumns(); ++c) {
      if (c != jb) row.push_back(b.At(p.row_b, c));
    }
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end());
  return out;
}

Rows SortedRows(const Table& t) {
  Rows out;
  for (size_t r = 0; r < t.NumRows(); ++r) out.push_back(t.row(r));
  std::sort(out.begin(), out.end());
  return out;
}

using Groups = std::vector<std::vector<RowId>>;

/// The paper's minimum leakage of one query: the rows it selects in both
/// tables, grouped by join value, keyed by stable row id.
Groups MinimumGroups(const Table& a, const std::vector<StableRowId>& ids_a,
                     const Table& b, const std::vector<StableRowId>& ids_b,
                     const JoinQuerySpec& q) {
  std::map<Value, std::vector<RowId>> by_value;
  auto side = [&](const Table& t, const std::vector<StableRowId>& ids,
                  const std::string& join_col, const TableSelection& sel,
                  int table) {
    size_t j = Must(t.schema().ColumnIndex(join_col), "join column");
    for (size_t r = 0; r < t.NumRows(); ++r) {
      if (Must(RowMatchesSelection(t, r, sel), "RowMatchesSelection")) {
        by_value[t.At(r, j)].push_back(
            RowId{table, static_cast<size_t>(ids[r])});
      }
    }
  };
  side(a, ids_a, q.join_column_a, q.selection_a, 0);
  side(b, ids_b, q.join_column_b, q.selection_b, 1);
  Groups out;
  for (auto& [value, members] : by_value) {
    if (members.size() >= 2) out.push_back(std::move(members));
  }
  return out;
}

/// Expected output and minimum leakage of one query over fixed tables.
struct QueryOracle {
  Rows rows;
  Groups groups;
};

// --- Per-series accounting ----------------------------------------------------------

/// SeriesExecStats counts summed over the measured series (the counts
/// survive the wire; the timing fields are host-local and do not).
struct SeriesCounts {
  size_t series = 0;
  size_t queries = 0;
  size_t rows_selected = 0;
  size_t decrypts_performed = 0;
  size_t digest_cache_hits = 0;
  size_t cold_pairings = 0;
  size_t prepared_pairings = 0;
  size_t rows_built = 0;
  size_t prepared_hits = 0;
  size_t det_queries = 0;
  uint64_t leakage_charged = 0;

  void Add(const EncryptedSeriesResult& r) {
    ++series;
    queries += r.stats.queries;
    for (const EncryptedJoinResult& q : r.results) {
      rows_selected += q.stats.rows_selected_a + q.stats.rows_selected_b;
    }
    decrypts_performed += r.stats.decrypts_performed;
    digest_cache_hits += r.stats.digest_cache_hits;
    cold_pairings += r.stats.pairings_computed;
    prepared_pairings += r.stats.prepared_pairings;
    rows_built += r.stats.prepared_rows_built;
    prepared_hits += r.stats.prepared_cache_hits;
    det_queries += r.stats.backend_det_queries;
    leakage_charged += r.stats.leakage_charged;
  }
  void Merge(const SeriesCounts& o) {
    series += o.series;
    queries += o.queries;
    rows_selected += o.rows_selected;
    decrypts_performed += o.decrypts_performed;
    digest_cache_hits += o.digest_cache_hits;
    cold_pairings += o.cold_pairings;
    prepared_pairings += o.prepared_pairings;
    rows_built += o.rows_built;
    prepared_hits += o.prepared_hits;
    det_queries += o.det_queries;
    leakage_charged += o.leakage_charged;
  }
  double PerSeries(size_t v) const {
    return series == 0 ? 0 : static_cast<double>(v) / series;
  }
};

/// The measured window of a closed loop (see kMinSeries).
class LoopWindow {
 public:
  explicit LoopWindow(double seconds)
      : start_(Clock::now()),
        deadline_(start_ + Seconds(seconds)),
        limit_(start_ + Seconds(seconds * kMaxLoopFactor)) {}
  Clock::time_point start() const { return start_; }
  /// Whether to start another series, `attempted` series in.
  bool More(size_t attempted) const {
    Clock::time_point now = Clock::now();
    return now < deadline_ || (attempted < kMinSeries && now < limit_);
  }

 private:
  static Clock::duration Seconds(double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  }
  const Clock::time_point start_;
  const Clock::time_point deadline_;
  const Clock::time_point limit_;
};

/// What one closed-loop client thread measured.
struct LoopStats {
  std::vector<double> series_ms;
  std::vector<double> traced_ms;    // trace run: series recorded with spans
  std::vector<double> untraced_ms;  // trace run: the interleaved others
  std::vector<double> mutation_ms;
  SeriesCounts counts;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
  Clock::time_point last_done{};

  void Fail(const std::string& why) {
    ++failed;
    if (first_error.empty()) first_error = why;
  }
  void Merge(const LoopStats& o) {
    series_ms.insert(series_ms.end(), o.series_ms.begin(), o.series_ms.end());
    traced_ms.insert(traced_ms.end(), o.traced_ms.begin(), o.traced_ms.end());
    untraced_ms.insert(untraced_ms.end(), o.untraced_ms.begin(),
                       o.untraced_ms.end());
    mutation_ms.insert(mutation_ms.end(), o.mutation_ms.begin(),
                       o.mutation_ms.end());
    counts.Merge(o.counts);
    attempted += o.attempted;
    failed += o.failed;
    if (first_error.empty()) first_error = o.first_error;
    last_done = std::max(last_done, o.last_done);
  }
};

/// Everything shared by one run.
struct Run {
  explicit Run(const Args& a)
      : args(a),
        scale(a.tiny ? kTinyScale : kFullScale),
        nproc(Nproc()),
        tracer(a.trace),
        off(false),
        customers(GenerateCustomers({.scale_factor = scale.sf})),
        orders(GenerateOrders({.scale_factor = scale.sf})) {}

  /// Spans of series `index` go to the tracer on even indices only, so a
  /// traced run interleaves traced and untraced series (the difference of
  /// their medians is the tracing overhead).
  Tracer* TracerFor(uint64_t index) {
    return args.trace && index % 2 == 0 ? &tracer : &off;
  }
  uint64_t NextSeriesId() { return ++series_ids; }

  const Args args;
  const Scale scale;
  const int nproc;
  Tracer tracer;
  Tracer off;
  const Table customers;
  const Table orders;
  std::atomic<uint64_t> series_ids{0};
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  std::vector<std::string> notes;  // per-layer metrics not observable here
  uint64_t attempted = 0;          // series and mutation batches
  uint64_t failed = 0;             // non-OK status or wrong output
};

/// One series end to end: PrepareSeries -> `execute` -> DecryptJoinResult
/// of every result (timed), then the output check against `expected`
/// (untimed). Returns the latency in ms, or nullopt after recording a
/// failure.
template <typename Execute>
std::optional<double> RunSeries(
    Run& run, Tracer* tracer, EncryptedClient& client,
    const std::vector<JoinQuerySpec>& specs, const EncryptedTable& enc_c,
    const EncryptedTable& enc_o, const char* exec_span, Execute&& execute,
    const std::vector<const Rows*>& expected, LoopStats* stats,
    QuerySeriesTokens* tokens_out = nullptr,
    EncryptedSeriesResult* result_out = nullptr) {
  const uint64_t sid = run.NextSeriesId();
  ++stats->attempted;
  std::vector<Table> decrypted;
  Result<EncryptedSeriesResult> result = Status::Internal("not run");
  Result<QuerySeriesTokens> tokens = Status::Internal("not run");
  const Clock::time_point t0 = Clock::now();
  {
    Tracer::Scope root(tracer, "series", sid);
    {
      Tracer::Scope s(tracer, "client.prepare_series", sid);
      tokens = client.PrepareSeries(specs, {&enc_c, &enc_o});
    }
    if (!tokens.ok()) {
      stats->Fail("PrepareSeries: " + tokens.status().ToString());
      return std::nullopt;
    }
    {
      Tracer::Scope s(tracer, exec_span, sid);
      result = execute(*tokens);
    }
    if (!result.ok()) {
      stats->Fail(std::string(exec_span) + ": " + result.status().ToString());
      return std::nullopt;
    }
    Tracer::Scope s(tracer, "client.decrypt_result", sid);
    for (const EncryptedJoinResult& r : result->results) {
      auto t = client.DecryptJoinResult(r, enc_c, enc_o);
      if (!t.ok()) {
        stats->Fail("DecryptJoinResult: " + t.status().ToString());
        return std::nullopt;
      }
      decrypted.push_back(std::move(*t));
    }
  }
  const Clock::time_point t1 = Clock::now();
  const double ms = MsSince(t0, t1);
  if (decrypted.size() != expected.size()) {
    stats->Fail("series returned " + std::to_string(decrypted.size()) +
                " results for " + std::to_string(expected.size()) +
                " queries");
    return std::nullopt;
  }
  for (size_t i = 0; i < decrypted.size(); ++i) {
    if (SortedRows(decrypted[i]) != *expected[i]) {
      stats->Fail("query " + std::to_string(i) +
                  " differs from the plaintext join");
      return std::nullopt;
    }
  }
  stats->counts.Add(*result);
  stats->series_ms.push_back(ms);
  if (run.args.trace) {
    (tracer->enabled() ? stats->traced_ms : stats->untraced_ms).push_back(ms);
  }
  stats->last_done = t1;
  if (tokens_out != nullptr) *tokens_out = std::move(*tokens);
  if (result_out != nullptr) *result_out = std::move(*result);
  return ms;
}

// --- Probes (traced run only) ---------------------------------------------------------

/// Per-row costs of the SJ kernels, timed on a fixed sample of the
/// workload's selected Orders rows under the workload's own token.
struct KernelCosts {
  double miller_cold_ms = 0;
  double miller_prepared_ms = 0;
  double final_exp_ms = 0;
  double prepare_row_ms = 0;
  double prepared_row_kb = 0;
  double encrypt_row_ms = 0;
  double tokengen_ms = 0;
};

SjPredicates PredicatesFor(EncryptedClient& client, const EncryptedTable& enc,
                           const TableSelection& sel) {
  SjPredicates preds(client.options().num_attrs);
  for (const InPredicate& p : sel.predicates) {
    auto it = std::find(enc.attr_columns.begin(), enc.attr_columns.end(),
                        p.column);
    if (it == enc.attr_columns.end()) Die("unknown column " + p.column);
    for (const Value& v : p.values) {
      preds[it - enc.attr_columns.begin()].push_back(
          client.EmbedAttrValue(p.column, v));
    }
  }
  return preds;
}

KernelCosts ProbeKernels(Run& run, EncryptedClient& client,
                         const EncryptedTable& enc_c,
                         const EncryptedTable& enc_o,
                         const JoinQuerySpec& spec, const SjToken& token_b) {
  Tracer* t = &run.tracer;
  const uint64_t sid = run.NextSeriesId();
  Tracer::Scope root(t, "probe.kernels", sid);
  // The sample: the first selected Orders rows of `spec`, topped up with
  // unselected ones when the selection is small (SJ.Dec costs the same).
  std::vector<size_t> sample;
  for (size_t r = 0; r < run.orders.NumRows() && sample.size() < kKernelSampleRows;
       ++r) {
    if (Must(RowMatchesSelection(run.orders, r, spec.selection_b), "select")) {
      sample.push_back(r);
    }
  }
  for (size_t r = 0; r < run.orders.NumRows() && sample.size() < kKernelSampleRows;
       ++r) {
    if (std::find(sample.begin(), sample.end(), r) == sample.end()) {
      sample.push_back(r);
    }
  }
  auto per_row = [&](const char* name, const std::function<void(size_t)>& fn) {
    std::vector<double> ms;
    for (size_t i = 0; i < sample.size(); ++i) {
      Tracer::Scope s(t, name, sid);
      Clock::time_point t0 = Clock::now();
      fn(i);
      ms.push_back(MsSince(t0, Clock::now()));
    }
    return Median(ms);
  };

  KernelCosts k;
  std::vector<Fp12> millers(sample.size());
  std::vector<SjPreparedRow> prepared(sample.size());
  k.miller_cold_ms = per_row("probe.kernel.miller_cold", [&](size_t i) {
    millers[i] = SecureJoin::DecryptRowMiller(token_b, enc_o.rows[sample[i]].sj);
  });
  k.prepare_row_ms = per_row("probe.kernel.prepare_row", [&](size_t i) {
    prepared[i] = SecureJoin::PrepareRow(enc_o.rows[sample[i]].sj);
  });
  k.prepared_row_kb = prepared.empty() ? 0 : prepared[0].MemoryBytes() / 1024.0;
  k.miller_prepared_ms = per_row("probe.kernel.miller_prepared", [&](size_t i) {
    millers[i] = SecureJoin::DecryptRowMillerPrepared(token_b, prepared[i]);
  });
  // Batched final exponentiation over decrypt_batch_rows rows, per row.
  std::vector<double> fe;
  const size_t batch =
      std::min(millers.size(), SecureJoin::kDefaultDecryptBatchRows);
  for (int rep = 0; rep < 3 && batch > 0; ++rep) {
    Tracer::Scope s(t, "probe.kernel.final_exp", sid);
    Clock::time_point t0 = Clock::now();
    auto digests = SecureJoin::DigestMillerBatch(
        std::span<const Fp12>(millers.data(), batch));
    fe.push_back(MsSince(t0, Clock::now()) / batch);
    if (digests.size() != batch) Die("DigestMillerBatch size");
  }
  k.final_exp_ms = Median(fe);

  // SJ.Enc on the sample's plaintext rows, embedded as the client does.
  const size_t join_idx = Must(run.orders.schema().ColumnIndex("custkey"), "col");
  Rng rng(Mix(run.args.seed, 77));
  k.encrypt_row_ms = per_row("probe.kernel.encrypt_row", [&](size_t i) {
    size_t r = sample[i];
    std::vector<Fr> attrs(client.options().num_attrs);
    size_t a = 0;
    for (size_t c = 0; c < run.orders.schema().NumColumns(); ++c) {
      if (c == join_idx) continue;
      attrs[a++] = client.EmbedAttrValue(run.orders.schema().column(c).name,
                                         run.orders.At(r, c));
    }
    SjRowCiphertext ct = SecureJoin::EncryptRow(
        client.master_key(), client.EmbedJoinValue(run.orders.At(r, join_idx)),
        attrs, &rng);
    if (ct.c.empty()) Die("EncryptRow produced no ciphertext");
  });
  const SjPredicates preds_a = PredicatesFor(client, enc_c, spec.selection_a);
  const SjPredicates preds_b = PredicatesFor(client, enc_o, spec.selection_b);
  k.tokengen_ms = per_row("probe.kernel.tokengen", [&](size_t) {
    auto pair = SecureJoin::GenTokenPair(client.master_key(), preds_a, preds_b,
                                         &rng);
    if (pair.first.tk.empty()) Die("GenTokenPair produced no token");
  });
  return k;
}

/// Host-local phase timings of one series, read from an in-process call
/// on the same tokens (median of kServerProbeReps calls).
struct ServerProbe {
  double exec_ms = 0;
  double prefilter_ms = 0;
  double decrypt_ms = 0;
  double match_ms = 0;
  SeriesExecStats stats;  // of the median-exec call
};

ServerProbe ProbeServer(
    Run& run, const std::function<Result<EncryptedSeriesResult>()>& call) {
  const uint64_t sid = run.NextSeriesId();
  std::vector<std::pair<double, SeriesExecStats>> reps;
  for (int i = 0; i < kServerProbeReps; ++i) {
    Tracer::Scope s(&run.tracer, "probe.server_series", sid);
    Clock::time_point t0 = Clock::now();
    auto r = call();
    double ms = MsSince(t0, Clock::now());
    if (!r.ok()) Die("server probe: " + r.status().ToString());
    reps.emplace_back(ms, r->stats);
  }
  std::sort(reps.begin(), reps.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  const auto& mid = reps[reps.size() / 2];
  ServerProbe p;
  p.exec_ms = mid.first;
  p.prefilter_ms = mid.second.prefilter_seconds * 1e3;
  p.decrypt_ms = mid.second.decrypt_seconds * 1e3;
  p.match_ms = mid.second.match_seconds * 1e3;
  p.stats = mid.second;
  return p;
}

/// Sizes and codec round-trip time of one exchange (request + response).
struct CodecProbe {
  double request_bytes = 0;
  double response_bytes = 0;
  double codec_us = 0;
};

template <typename Request, typename Response>
CodecProbe ProbeCodec(Run& run, const std::vector<Request>& requests,
                      const std::vector<Response>& responses,
                      Bytes (*ser_req)(const Request&),
                      Result<Request> (*de_req)(const Bytes&),
                      Bytes (*ser_resp)(const Response&),
                      Result<Response> (*de_resp)(const Bytes&)) {
  const uint64_t sid = run.NextSeriesId();
  CodecProbe p;
  std::vector<double> us;
  for (int rep = 0; rep < kCodecProbeReps; ++rep) {
    Tracer::Scope s(&run.tracer, "probe.codec", sid);
    Clock::time_point t0 = Clock::now();
    size_t req_bytes = 0, resp_bytes = 0;
    for (const Request& r : requests) {
      Bytes b = ser_req(r);
      req_bytes += b.size();
      if (!de_req(b).ok()) Die("request codec round trip failed");
    }
    for (const Response& r : responses) {
      Bytes b = ser_resp(r);
      resp_bytes += b.size();
      if (!de_resp(b).ok()) Die("response codec round trip failed");
    }
    us.push_back(MsSince(t0, Clock::now()) * 1e3);
    p.request_bytes = static_cast<double>(req_bytes);
    p.response_bytes = static_cast<double>(resp_bytes);
  }
  p.codec_us = Median(us);
  return p;
}

// --- Reporting helpers ------------------------------------------------------------------

void Layer(Run& run, const std::string& name, double value,
           const std::string& unit) {
  run.layer.push_back({name, value, unit});
}

/// A per-layer metric the workload has no layer for: reported as 0 with
/// the reason printed.
void Absent(Run& run, const std::string& name, const std::string& unit,
            const std::string& why) {
  run.layer.push_back({name, 0, unit});
  run.notes.push_back(name + ": " + why);
}

void SpanMedian(Run& run, const std::string& metric, const char* span) {
  Layer(run, metric, Median(run.tracer.Durations(span)), "ms");
}

/// Series latency, throughput and the tracing-overhead line, shared by
/// every workload.
void ReportLoop(Run& run, const LoopStats& s, Clock::time_point loop_start) {
  Tail tail = TailOf(s.series_ms);
  const double p50 = Median(s.series_ms);
  const double elapsed =
      s.counts.series > 0 ? MsSince(loop_start, s.last_done) / 1e3 : 0;
  const double qps = elapsed > 0 ? s.counts.queries / elapsed : 0;
  std::printf("series: %zu measured, p50 %.3f ms, tail p%.4g %.3f ms "
              "(%zu samples%s), %.3f queries/s over %.3f s\n",
              s.series_ms.size(), p50, tail.percentile, tail.value,
              tail.samples,
              tail.enough ? "" : "; fewer than 11: maximum stands in", qps,
              elapsed);
  run.e2e.push_back({"series_p50_ms", p50, "ms"});
  run.e2e.push_back({"series_tail_ms", tail.value, "ms"});
  run.e2e.push_back({"queries_per_s", qps, "1/s"});
  if (run.args.trace) {
    const double traced = Median(s.traced_ms);
    const double untraced = Median(s.untraced_ms);
    std::printf("trace overhead: %+.2f%% (traced series p50 %.3f ms over "
                "%zu, untraced p50 %.3f ms over %zu, interleaved)\n",
                untraced > 0 ? 100.0 * (traced / untraced - 1) : 0.0, traced,
                s.traced_ms.size(), untraced, s.untraced_ms.size());
  }
}

/// Leakage oracle verdict: server closure vs the paper's minimum. A
/// negative excess means the server under-accounts what it learned.
bool ReportLeakage(Run& run, size_t server_pairs, size_t oracle_pairs) {
  const long long excess = static_cast<long long>(server_pairs) -
                           static_cast<long long>(oracle_pairs);
  const double ratio =
      oracle_pairs > 0 ? static_cast<double>(server_pairs) / oracle_pairs : 0;
  std::printf("leakage: server %zu pairs, paper minimum %zu pairs, "
              "leakage_excess_pairs %lld, ratio %.6f\n",
              server_pairs, oracle_pairs, excess, ratio);
  run.e2e.push_back({"leakage_ratio", ratio, "ratio"});
  if (excess < 0) {
    std::printf("FAIL: the server accounts fewer revealed pairs than the "
                "queries' minimum leakage\n");
    return false;
  }
  return true;
}

void ReportSetup(Run& run, const std::vector<double>& setup_s) {
  std::printf("setup: %zu reps, median %.3f s (", setup_s.size(),
              Median(setup_s));
  for (size_t i = 0; i < setup_s.size(); ++i) {
    std::printf("%s%.3f", i ? ", " : "", setup_s[i]);
  }
  std::printf(")\n");
  run.e2e.push_back({"setup_s", Median(setup_s), "s"});
}

/// Per-layer metrics every workload derives the same way.
void ReportCommonLayers(Run& run, const LoopStats& s, const KernelCosts& k,
                        const ServerProbe& sp, const CodecProbe& codec,
                        int decrypt_threads, double encrypt_ms_per_row) {
  Layer(run, "pairing.miller_cold_ms", k.miller_cold_ms, "ms");
  Layer(run, "pairing.miller_prepared_ms", k.miller_prepared_ms, "ms");
  Layer(run, "pairing.final_exp_ms", k.final_exp_ms, "ms");
  Layer(run, "core.prepare_row_ms", k.prepare_row_ms, "ms");
  Layer(run, "core.encrypt_row_ms", k.encrypt_row_ms, "ms");
  Layer(run, "core.tokengen_ms", k.tokengen_ms, "ms");
  SpanMedian(run, "db.client.prepare_series_ms", "client.prepare_series");
  SpanMedian(run, "db.client.decrypt_result_ms", "client.decrypt_result");
  Layer(run, "db.client.encrypt_ms_per_row", encrypt_ms_per_row, "ms");
  SpanMedian(run, "db.client.prepare_insert_ms", "client.prepare_insert");

  const double plan_ms =
      sp.exec_ms - sp.prefilter_ms - sp.decrypt_ms - sp.match_ms;
  Layer(run, "db.server.exec_ms", sp.exec_ms, "ms");
  Layer(run, "db.server.prefilter_ms", sp.prefilter_ms, "ms");
  Layer(run, "db.server.decrypt_ms", sp.decrypt_ms, "ms");
  Layer(run, "db.server.match_ms", sp.match_ms, "ms");
  Layer(run, "db.server.plan_ms", plan_ms, "ms");
  const SeriesCounts& c = s.counts;
  Layer(run, "db.server.rows_selected", c.PerSeries(c.rows_selected), "count");
  Layer(run, "db.server.decrypts_performed", c.PerSeries(c.decrypts_performed),
        "count");
  Layer(run, "db.server.digest_cache_hits", c.PerSeries(c.digest_cache_hits),
        "count");
  Layer(run, "db.server.cold_pairings", c.PerSeries(c.cold_pairings), "count");
  Layer(run, "db.server.prepared_pairings", c.PerSeries(c.prepared_pairings),
        "count");

  // Reconciliation: the probe's decrypt phase against what its counts
  // cost at the kernels' per-row prices, times the pool width.
  const SeriesExecStats& ps = sp.stats;
  const double kernel_ms = ps.pairings_computed * k.miller_cold_ms +
                           ps.prepared_pairings * k.miller_prepared_ms +
                           ps.prepared_rows_built * k.prepare_row_ms +
                           ps.decrypts_performed * k.final_exp_ms;
  const double reconcile =
      kernel_ms > 0 ? sp.decrypt_ms * decrypt_threads / kernel_ms : 0;
  std::printf("reconcile: decrypt %.3f ms x %d threads = %.3f thread-ms vs "
              "kernels %.3f ms = %zu cold x %.3f + %zu prepared x %.3f + "
              "%zu built x %.3f + %zu final-exp x %.3f -> ratio %.4f%s\n",
              sp.decrypt_ms, decrypt_threads, sp.decrypt_ms * decrypt_threads,
              kernel_ms, ps.pairings_computed, k.miller_cold_ms,
              ps.prepared_pairings, k.miller_prepared_ms,
              ps.prepared_rows_built, k.prepare_row_ms, ps.decrypts_performed,
              k.final_exp_ms, reconcile,
              kernel_ms > 0 ? (reconcile > 1.05 ? " (gap: pool/skew overhead)"
                                                : "")
                            : " (no SJ.Dec work: not defined)");
  if (kernel_ms > 0) {
    Layer(run, "db.server.decrypt_reconcile_ratio", reconcile, "ratio");
  } else {
    Absent(run, "db.server.decrypt_reconcile_ratio", "ratio",
           "the series runs no SJ.Dec");
  }
  std::printf("kernels: prepared row %.1f KB\n", k.prepared_row_kb);

  if (c.prepared_pairings > 0) {
    Layer(run, "db.prepared_cache.hit_ratio",
          static_cast<double>(c.prepared_hits) / c.prepared_pairings, "ratio");
  } else {
    Absent(run, "db.prepared_cache.hit_ratio", "ratio",
           "no prepared pairings (base 0)");
  }
  Layer(run, "db.prepared_cache.rows_built", c.PerSeries(c.rows_built),
        "count");
  Layer(run, "db.backend.det_ratio",
        c.queries > 0 ? static_cast<double>(c.det_queries) / c.queries : 0,
        "ratio");
  Layer(run, "db.backend.leakage_charged", static_cast<double>(c.leakage_charged),
        "count");
  Layer(run, "db.wire.request_bytes", codec.request_bytes, "bytes");
  Layer(run, "db.wire.response_bytes", codec.response_bytes, "bytes");
  Layer(run, "db.wire.codec_us", codec.codec_us, "us");
}

// --- warm_series and hot_det: client -> TCP -> server ------------------------------

/// One deployment of the networked engine plus the client that owns its
/// keys. Torn down in order: connections, transport, scheduler.
struct TcpDeployment {
  explicit TcpDeployment(const ClientOptions& o) : client(o) {}
  ~TcpDeployment() {
    conns.clear();
    if (transport) transport->Stop();
    if (server) server->Shutdown();
  }
  TcpDeployment(const TcpDeployment&) = delete;
  TcpDeployment& operator=(const TcpDeployment&) = delete;

  EncryptedClient client;
  EncryptedTable enc_c;
  EncryptedTable enc_o;
  std::unique_ptr<EncryptedServer> server;
  std::unique_ptr<TcpServer> transport;
  std::vector<TcpClient> conns;
};

struct SetupCosts {
  std::vector<double> setup_s;
  std::vector<double> encrypt_ms_per_row;
};

/// Encrypts the rows client-side and returns the elapsed ms.
double EncryptTables(Run& run, Tracer* t, uint64_t sid, EncryptedClient& client,
                     EncryptedTable* enc_c, EncryptedTable* enc_o) {
  Clock::time_point t0 = Clock::now();
  Tracer::Scope s(t, "client.encrypt_table", sid);
  *enc_c = Must(client.EncryptTable(run.customers, "custkey"), "EncryptTable");
  *enc_o = Must(client.EncryptTable(run.orders, "custkey"), "EncryptTable");
  return MsSince(t0, Clock::now());
}

std::unique_ptr<TcpDeployment> SetupTcp(Run& run, bool det, int connections,
                                        int rep, SetupCosts* costs) {
  Tracer* t = &run.tracer;
  const uint64_t sid = run.NextSeriesId();
  const Clock::time_point t0 = Clock::now();
  Tracer::Scope root(t, "setup", sid);
  auto dep = std::make_unique<TcpDeployment>(
      MakeClientOptions(Mix(run.args.seed, 100 + rep), det));
  if (det) dep->client.AllowBackends(BackendBit(BackendKind::kDetJoin));
  const double enc_ms =
      EncryptTables(run, t, sid, dep->client, &dep->enc_c, &dep->enc_o);
  dep->server = std::make_unique<EncryptedServer>(
      SchedulerOptions{.max_in_flight = run.nproc});
  {
    Tracer::Scope s(t, "server.store_table", sid);
    MustOk(dep->server->StoreTable(dep->enc_c), "StoreTable");
    MustOk(dep->server->StoreTable(dep->enc_o), "StoreTable");
  }
  TcpServerOptions topts;
  topts.exec.num_threads = run.nproc;
  dep->transport = std::make_unique<TcpServer>(dep->server.get(), topts);
  MustOk(dep->transport->Start(), "TcpServer::Start");
  for (int i = 0; i < connections; ++i) {
    dep->conns.push_back(Must(
        TcpClient::Connect("127.0.0.1", dep->transport->port()), "Connect"));
  }
  {
    // The priming series: builds the prepared rows the measured series
    // reuse (warm_series) and the first DET reveal (hot_det).
    Tracer::Scope s(t, "setup.prime", sid);
    auto tokens = Must(dep->client.PrepareSeries(SelectivitySeries(),
                                                 {&dep->enc_c, &dep->enc_o}),
                       "PrepareSeries");
    for (TcpClient& conn : dep->conns) {
      auto r = Must(conn.ExecuteSeries(tokens), "priming series");
      for (const auto& q : r.results) {
        Must(dep->client.DecryptJoinResult(q, dep->enc_c, dep->enc_o),
             "DecryptJoinResult");
      }
    }
  }
  costs->setup_s.push_back(MsSince(t0, Clock::now()) / 1e3);
  costs->encrypt_ms_per_row.push_back(
      enc_ms / (run.customers.NumRows() + run.orders.NumRows()));
  return dep;
}

/// kMutationProbes one-row replacements on connection 0 after the loop --
/// an insert batch, then the batch deleting that row, timed together: the
/// write path of a read-only workload.
void MutationProbes(Run& run, TcpDeployment& dep, LoopStats* stats) {
  Rng rng(Mix(run.args.seed, 5));
  TcpClient& conn = dep.conns[0];
  for (int i = 0; i < kMutationProbes; ++i) {
    const uint64_t sid = run.NextSeriesId();
    Tracer* t = run.TracerFor(i);
    Table row = TableOf("Orders", run.orders.schema(),
                        {NewOrder(&rng, 10000000 + i, run.customers.NumRows())});
    ++stats->attempted;
    Result<TableMutation> ins = Status::Internal("not run");
    Result<MutationResult> applied = Status::Internal("not run");
    Result<TableMutation> del = Status::Internal("not run");
    Result<MutationResult> removed = Status::Internal("not run");
    const Clock::time_point t0 = Clock::now();
    {
      Tracer::Scope root(t, "mutation", sid);
      {
        Tracer::Scope s(t, "client.prepare_insert", sid);
        ins = dep.client.PrepareInsert(dep.enc_o, row);
      }
      if (ins.ok()) {
        Tracer::Scope s(t, "net.apply_mutation", sid);
        applied = conn.ApplyMutation(*ins);
      }
      if (applied.ok() && applied->inserted_ids.size() == 1) {
        {
          Tracer::Scope s(t, "client.prepare_delete", sid);
          del = dep.client.PrepareDelete("Orders", applied->inserted_ids);
        }
        if (del.ok()) {
          Tracer::Scope s(t, "net.apply_mutation", sid);
          removed = conn.ApplyMutation(*del);
        }
      }
    }
    if (!removed.ok()) {
      stats->Fail("one-row replacement probe failed");
      continue;
    }
    stats->mutation_ms.push_back(MsSince(t0, Clock::now()));
  }
}

bool RunTcpWorkload(Run& run, bool det, int connections) {
  // Setup, kSetupReps times; the last deployment serves the loop.
  SetupCosts costs;
  std::unique_ptr<TcpDeployment> dep;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    dep.reset();  // one deployment's memory at a time
    dep = SetupTcp(run, det, connections, rep, &costs);
  }
  ReportSetup(run, costs.setup_s);

  const std::vector<JoinQuerySpec> specs = SelectivitySeries();
  const std::vector<StableRowId> ids_c = InitialIds(run.customers.NumRows());
  const std::vector<StableRowId> ids_o = InitialIds(run.orders.NumRows());
  std::vector<QueryOracle> oracles;
  std::vector<const Rows*> expected;
  for (const JoinQuerySpec& q : specs) {
    oracles.push_back({ExpectedRows(run.customers, run.orders, q),
                       MinimumGroups(run.customers, ids_c, run.orders, ids_o, q)});
  }
  for (const QueryOracle& o : oracles) expected.push_back(&o.rows);
  // The leakage oracle starts from the server's state after setup: the
  // priming series already ran these queries on this deployment.
  LeakageTracker oracle;
  for (const QueryOracle& o : oracles) {
    for (const auto& g : o.groups) oracle.ObserveEqualityGroup(g);
  }

  const TcpServer::Stats net0 = dep->transport->stats();
  const PreparedRowCache::Stats cache0 = dep->server->prepared_cache().stats();
  const LoopWindow window(run.args.seconds);
  std::atomic<size_t> started{0};
  std::vector<LoopStats> per_conn(connections);
  std::vector<QuerySeriesTokens> last_tokens(connections);
  std::vector<EncryptedSeriesResult> last_results(connections);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < connections; ++c) {
      threads.emplace_back([&, c] {
        // Each connection is its own client thread: same keys, own
        // randomness (fresh query keys per series).
        EncryptedClient client = dep->client;
        *client.rng() = Rng(Mix(run.args.seed, 200 + c));
        TcpClient& conn = dep->conns[c];
        LoopStats& stats = per_conn[c];
        for (uint64_t i = 0; window.More(started++); ++i) {
          for (const QueryOracle& o : oracles) {
            for (const auto& g : o.groups) oracle.ObserveEqualityGroup(g);
          }
          RunSeries(
              run, run.TracerFor(i), client, specs, dep->enc_c, dep->enc_o,
              "net.execute_series",
              [&](const QuerySeriesTokens& tk) { return conn.ExecuteSeries(tk); },
              expected, &stats, &last_tokens[c], &last_results[c]);
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  LoopStats loop;
  for (const LoopStats& s : per_conn) loop.Merge(s);
  const TcpServer::Stats net1 = dep->transport->stats();
  const PreparedRowCache::Stats cache1 = dep->server->prepared_cache().stats();
  ReportLoop(run, loop, window.start());
  bool ok = ReportLeakage(run, dep->server->leakage().RevealedPairCount(),
                          oracle.RevealedPairCount());

  MutationProbes(run, *dep, &loop);
  std::printf("mutation: %zu one-row replacements (insert + delete batch), "
              "p50 %.3f ms\n",
              loop.mutation_ms.size(), Median(loop.mutation_ms));

  if (run.args.trace && loop.counts.series > 0) {
    KernelCosts k = ProbeKernels(run, dep->client, dep->enc_c, dep->enc_o,
                                 specs.back(),
                                 last_tokens[0].queries.back().token_b);
    ServerExecOptions exec;
    exec.num_threads = run.nproc;
    ServerProbe sp = ProbeServer(run, [&] {
      return dep->server->ExecuteJoinSeries(last_tokens[0], exec);
    });
    CodecProbe codec = ProbeCodec<QuerySeriesTokens, EncryptedSeriesResult>(
        run, {last_tokens[0]}, {last_results[0]}, &SerializeQuerySeries,
        &DeserializeQuerySeries, &SerializeSeriesResult,
        &DeserializeSeriesResult);
    ReportCommonLayers(run, loop, k, sp, codec, exec.num_threads,
                       Median(costs.encrypt_ms_per_row));

    Layer(run, "db.prepared_cache.evictions",
          static_cast<double>(cache1.evicted - cache0.evicted), "count");
    Layer(run, "db.prepared_cache.mb", cache1.bytes / 1048576.0, "MB");
    Layer(run, "db.scheduler.rejected",
          static_cast<double>(dep->server->scheduler_stats().rejected),
          "count");
    const double rtt = Median(run.tracer.Durations("net.execute_series"));
    Layer(run, "net.round_trip_ms", rtt, "ms");
    Layer(run, "net.transport_ms", rtt - sp.exec_ms, "ms");
    Layer(run, "net.bytes_per_series",
          loop.counts.series > 0
              ? static_cast<double>((net1.bytes_in - net0.bytes_in) +
                                    (net1.bytes_out - net0.bytes_out)) /
                    loop.counts.series
              : 0,
          "bytes");
    Layer(run, "net.requests_error", static_cast<double>(net1.requests_error),
          "count");
    const std::string no_dist = "no coordinator in this workload";
    for (const auto& [m, unit] : std::vector<std::pair<const char*, const char*>>{
             {"dist.exec_ms", "ms"},
             {"dist.decrypt_rpcs_per_series", "count"},
             {"dist.rows_per_rpc", "count"},
             {"dist.worker_digest_skew", "ratio"},
             {"dist.failover_decrypts", "count"},
             {"dist.local_fallback_rows", "count"},
             {"dist.apply_mutation_ms", "ms"},
             {"dist.mutation_rpcs_per_batch", "count"}}) {
      Absent(run, m, unit, no_dist);
    }
  }
  run.e2e.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  if (!loop.first_error.empty()) {
    std::printf("FAIL: first failed operation: %s\n", loop.first_error.c_str());
  }
  run.attempted = loop.attempted;
  run.failed = loop.failed;
  return ok;
}

// --- cold_churn: client -> Coordinator -> loopback ShardWorkers --------------------

constexpr int kWorkers = 2;
constexpr int kWorkerThreads = 2;
constexpr size_t kPlacementShards = 8;

struct WorkerProc {
  explicit WorkerProc(const ShardWorkerOptions& o) : handler(o) {}
  EncryptedServer engine;  // the transport needs one; shard frames bypass it
  ShardWorker handler;
  std::unique_ptr<TcpServer> server;
};

/// Coordinator + workers + the client that owns the keys. The coordinator
/// (holding connections to the workers) goes first, then the workers'
/// transports, then their handlers.
struct DistDeployment {
  explicit DistDeployment(const ClientOptions& o) : client(o) {}
  ~DistDeployment() {
    coord.reset();
    for (WorkerProc& w : workers) {
      if (w.server) w.server->Stop();
    }
  }
  DistDeployment(const DistDeployment&) = delete;
  DistDeployment& operator=(const DistDeployment&) = delete;

  EncryptedClient client;
  EncryptedTable enc_c;
  EncryptedTable enc_o;
  std::deque<WorkerProc> workers;
  std::unique_ptr<Coordinator> coord;
};

std::unique_ptr<DistDeployment> SetupDist(Run& run, int rep,
                                          const JoinQuerySpec& prime,
                                          SetupCosts* costs) {
  Tracer* t = &run.tracer;
  const uint64_t sid = run.NextSeriesId();
  const Clock::time_point t0 = Clock::now();
  Tracer::Scope root(t, "setup", sid);
  auto dep = std::make_unique<DistDeployment>(
      MakeClientOptions(Mix(run.args.seed, 300 + rep), false));
  const double enc_ms =
      EncryptTables(run, t, sid, dep->client, &dep->enc_c, &dep->enc_o);
  CoordinatorOptions co;
  co.num_shards = kPlacementShards;
  co.exec.num_threads = run.nproc;
  dep->coord = std::make_unique<Coordinator>(co);
  for (int w = 0; w < kWorkers; ++w) {
    ShardWorkerOptions wo;
    wo.prepared_cache_bytes = run.scale.worker_cache_bytes;
    wo.num_threads = kWorkerThreads;
    WorkerProc& proc = dep->workers.emplace_back(wo);
    TcpServerOptions to;
    to.shard_handler = &proc.handler;
    proc.server = std::make_unique<TcpServer>(&proc.engine, to);
    MustOk(proc.server->Start(), "worker TcpServer::Start");
    MustOk(dep->coord->AddWorker("w" + std::to_string(w + 1), "127.0.0.1",
                                 proc.server->port()),
           "AddWorker");
  }
  {
    Tracer::Scope s(t, "dist.store_table", sid);
    MustOk(dep->coord->StoreTable(dep->enc_c), "Coordinator::StoreTable");
    MustOk(dep->coord->StoreTable(dep->enc_o), "Coordinator::StoreTable");
  }
  {
    Tracer::Scope s(t, "setup.prime", sid);
    auto tokens = Must(
        dep->client.PrepareSeries({prime}, {&dep->enc_c, &dep->enc_o}),
        "PrepareSeries");
    auto r = Must(dep->coord->ExecuteSeries(tokens), "priming series");
    for (const auto& q : r.results) {
      Must(dep->client.DecryptJoinResult(q, dep->enc_c, dep->enc_o),
           "DecryptJoinResult");
    }
  }
  costs->setup_s.push_back(MsSince(t0, Clock::now()) / 1e3);
  costs->encrypt_ms_per_row.push_back(
      enc_ms / (run.customers.NumRows() + run.orders.NumRows()));
  return dep;
}

/// Stable ids of the rows `sel` picks out of `t`.
std::vector<StableRowId> SelectedIds(const Table& t,
                                     const std::vector<StableRowId>& ids,
                                     const TableSelection& sel) {
  std::vector<StableRowId> out;
  for (size_t r = 0; r < t.NumRows(); ++r) {
    if (Must(RowMatchesSelection(t, r, sel), "RowMatchesSelection")) {
      out.push_back(ids[r]);
    }
  }
  return out;
}

bool RunDistWorkload(Run& run) {
  ChurnSchedule schedule(Mix(run.args.seed, 1));
  Rng draws(Mix(run.args.seed, 2));  // churn batches
  const JoinQuerySpec prime = schedule.Next();
  SetupCosts costs;
  std::unique_ptr<DistDeployment> dep;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    dep.reset();
    dep = SetupDist(run, rep, prime, &costs);
  }
  ReportSetup(run, costs.setup_s);
  Coordinator& coord = *dep->coord;

  // Plaintext shadow of Orders in the server's row order: deletes compact
  // in stable order, inserts append under the ids the server assigned.
  const std::vector<StableRowId> ids_c = InitialIds(run.customers.NumRows());
  std::vector<StableRowId> shadow_ids = InitialIds(run.orders.NumRows());
  std::vector<std::vector<Value>> shadow_rows;
  for (size_t r = 0; r < run.orders.NumRows(); ++r) {
    shadow_rows.push_back(run.orders.row(r));
  }
  LeakageTracker oracle;
  for (const auto& g :
       MinimumGroups(run.customers, ids_c, run.orders, shadow_ids, prime)) {
    oracle.ObserveEqualityGroup(g);
  }

  const Coordinator::Stats st0 = coord.stats();
  std::vector<WorkerHealthInfo> health0;
  for (const std::string& id : coord.worker_ids()) {
    health0.push_back(Must(coord.WorkerHealth(id), "WorkerHealth"));
  }
  std::vector<TcpServer::Stats> net0;
  for (WorkerProc& w : dep->workers) net0.push_back(w.server->stats());

  LoopStats loop;
  QuerySeriesTokens last_tokens;
  EncryptedSeriesResult last_result;
  JoinQuerySpec last_spec = prime;
  std::vector<StableRowId> last_sel_c, last_sel_o;
  int64_t next_orderkey = 100000000;
  size_t batches = 0;
  const LoopWindow window(run.args.seconds);
  for (uint64_t i = 0; window.More(i); ++i) {
    // One drawn join, checked against the shadow it ran on.
    const JoinQuerySpec spec = schedule.Next();
    const Table orders_now = TableOf("Orders", run.orders.schema(), shadow_rows);
    const Rows expected = ExpectedRows(run.customers, orders_now, spec);
    for (const auto& g :
         MinimumGroups(run.customers, ids_c, orders_now, shadow_ids, spec)) {
      oracle.ObserveEqualityGroup(g);
    }
    Tracer* t = run.TracerFor(i);
    auto ms = RunSeries(
        run, t, dep->client, {spec}, dep->enc_c, dep->enc_o,
        "dist.execute_series",
        [&](const QuerySeriesTokens& tk) { return coord.ExecuteSeries(tk); },
        {&expected}, &loop, &last_tokens, &last_result);
    if (ms.has_value()) {
      last_spec = spec;
      last_sel_c = SelectedIds(run.customers, ids_c, spec.selection_a);
      last_sel_o = SelectedIds(orders_now, shadow_ids, spec.selection_b);
    }

    // The churn batch: replace churn_rows random live Orders rows.
    std::vector<size_t> positions(shadow_ids.size());
    for (size_t p = 0; p < positions.size(); ++p) positions[p] = p;
    const size_t k = std::min(run.scale.churn_rows, positions.size());
    for (size_t p = 0; p < k; ++p) {
      std::swap(positions[p],
                positions[p + draws.NextUint64Below(positions.size() - p)]);
    }
    positions.resize(k);
    std::sort(positions.begin(), positions.end());
    std::vector<StableRowId> doomed;
    for (size_t p : positions) doomed.push_back(shadow_ids[p]);
    std::vector<std::vector<Value>> fresh;
    for (size_t p = 0; p < k; ++p) {
      fresh.push_back(
          NewOrder(&draws, next_orderkey++, run.customers.NumRows()));
    }
    const Table fresh_table = TableOf("Orders", run.orders.schema(), fresh);
    const uint64_t sid = run.NextSeriesId();
    ++loop.attempted;
    ++batches;
    Result<MutationResult> applied = Status::Internal("not run");
    const Clock::time_point m0 = Clock::now();
    {
      Tracer::Scope root(t, "mutation", sid);
      Result<TableMutation> del = Status::Internal("not run");
      Result<TableMutation> ins = Status::Internal("not run");
      {
        Tracer::Scope s(t, "client.prepare_delete", sid);
        del = dep->client.PrepareDelete("Orders", doomed);
      }
      {
        Tracer::Scope s(t, "client.prepare_insert", sid);
        ins = dep->client.PrepareInsert(dep->enc_o, fresh_table);
      }
      if (del.ok() && ins.ok()) {
        TableMutation m = std::move(*ins);
        m.deletes = std::move(del->deletes);
        Tracer::Scope s(t, "dist.apply_mutation", sid);
        applied = coord.ApplyMutation(m);
      }
    }
    if (!applied.ok() || applied->inserted_ids.size() != k) {
      // The shadow can no longer follow the server: stop here.
      loop.Fail("churn batch: " + (applied.ok() ? std::string("wrong id count")
                                                : applied.status().ToString()));
      break;
    }
    loop.mutation_ms.push_back(MsSince(m0, Clock::now()));
    std::vector<StableRowId> next_ids;
    std::vector<std::vector<Value>> next_rows;
    ForEachSurvivingPosition(shadow_ids.size(), positions, [&](size_t p) {
      next_ids.push_back(shadow_ids[p]);
      next_rows.push_back(std::move(shadow_rows[p]));
    });
    for (size_t p = 0; p < k; ++p) {
      next_ids.push_back(applied->inserted_ids[p]);
      next_rows.push_back(std::move(fresh[p]));
    }
    shadow_ids = std::move(next_ids);
    shadow_rows = std::move(next_rows);
  }
  const Coordinator::Stats st1 = coord.stats();
  std::vector<WorkerHealthInfo> health1;
  for (const std::string& id : coord.worker_ids()) {
    health1.push_back(Must(coord.WorkerHealth(id), "WorkerHealth"));
  }
  std::vector<TcpServer::Stats> net1;
  for (WorkerProc& w : dep->workers) net1.push_back(w.server->stats());

  ReportLoop(run, loop, window.start());
  bool ok = ReportLeakage(run, coord.engine().leakage().RevealedPairCount(),
                          oracle.RevealedPairCount());
  std::printf("mutation: %zu batches replacing %zu Orders rows each, p50 "
              "%.3f ms\n",
              loop.mutation_ms.size(), run.scale.churn_rows,
              Median(loop.mutation_ms));

  if (run.args.trace && loop.counts.series > 0) {
    KernelCosts k = ProbeKernels(run, dep->client, dep->enc_c, dep->enc_o,
                                 last_spec, last_tokens.queries[0].token_b);
    // The probe runs the coordinator's own engine on the same tokens with
    // the prepared pipeline off: every SJ.Dec is a cold pairing, the
    // regime this workload's worker caches are sized into.
    ServerExecOptions exec;
    exec.num_threads = kWorkers * kWorkerThreads;
    exec.prepared_cache_bytes = 0;
    exec.num_shards = static_cast<int>(kPlacementShards);
    ServerProbe sp = ProbeServer(run, [&] {
      return coord.engine().ExecuteJoinSeriesSharded(last_tokens, exec);
    });
    // The coordinator <-> worker exchange of the last series: one decrypt
    // request per table side (all its selected rows) and its digests.
    std::vector<ShardDecryptRequest> requests(2);
    std::vector<ShardDecryptResponse> responses(2);
    requests[0] = {"Customers", 0, 0, last_tokens.queries[0].token_a,
                   last_sel_c};
    requests[1] = {"Orders", 0, 0, last_tokens.queries[0].token_b, last_sel_o};
    for (size_t i = 0; i < 2; ++i) {
      responses[i].have.assign(requests[i].rows.size(), 1);
      responses[i].digests.resize(requests[i].rows.size());
    }
    CodecProbe codec = ProbeCodec<ShardDecryptRequest, ShardDecryptResponse>(
        run, requests, responses, &SerializeShardDecryptRequest,
        &DeserializeShardDecryptRequest, &SerializeShardDecryptResponse,
        &DeserializeShardDecryptResponse);
    std::printf("codec: db.wire.* measure the coordinator <-> worker decrypt "
                "exchange (the client calls the coordinator in-process)\n");
    ReportCommonLayers(run, loop, k, sp, codec, exec.num_threads,
                       Median(costs.encrypt_ms_per_row));

    const std::string private_cache =
        "worker prepared-row caches are private to ShardWorker";
    Absent(run, "db.prepared_cache.evictions", "count", private_cache);
    Absent(run, "db.prepared_cache.mb", "MB", private_cache);
    Layer(run, "db.scheduler.rejected",
          static_cast<double>(coord.engine().scheduler_stats().rejected),
          "count");
    const std::string in_process =
        "no client-facing TCP hop (the client calls the Coordinator "
        "in-process)";
    Absent(run, "net.round_trip_ms", "ms", in_process);
    Absent(run, "net.transport_ms", "ms", in_process);
    uint64_t bytes = 0, errors = 0;
    for (size_t w = 0; w < net1.size(); ++w) {
      bytes += (net1[w].bytes_in - net0[w].bytes_in) +
               (net1[w].bytes_out - net0[w].bytes_out);
      errors += net1[w].requests_error;
    }
    Layer(run, "net.bytes_per_series",
          static_cast<double>(bytes) / loop.counts.series, "bytes");
    Layer(run, "net.requests_error", static_cast<double>(errors), "count");

    SpanMedian(run, "dist.exec_ms", "dist.execute_series");
    const double rpcs = static_cast<double>(st1.decrypt_rpcs - st0.decrypt_rpcs);
    const double fallback_rows =
        static_cast<double>(st1.local_fallback_rows - st0.local_fallback_rows);
    Layer(run, "dist.decrypt_rpcs_per_series", rpcs / loop.counts.series,
          "count");
    Layer(run, "dist.rows_per_rpc",
          rpcs > 0 ? (loop.counts.decrypts_performed - fallback_rows) / rpcs : 0,
          "count");
    double max_d = 0, sum_d = 0;
    for (size_t w = 0; w < health1.size(); ++w) {
      double d = static_cast<double>(health1[w].digests_computed -
                                     health0[w].digests_computed);
      max_d = std::max(max_d, d);
      sum_d += d;
    }
    Layer(run, "dist.worker_digest_skew",
          sum_d > 0 ? max_d / (sum_d / health1.size()) : 0, "ratio");
    Layer(run, "dist.failover_decrypts",
          static_cast<double>(st1.failover_decrypts - st0.failover_decrypts),
          "count");
    Layer(run, "dist.local_fallback_rows", fallback_rows, "count");
    SpanMedian(run, "dist.apply_mutation_ms", "dist.apply_mutation");
    Layer(run, "dist.mutation_rpcs_per_batch",
          batches > 0 ? static_cast<double>(st1.mutation_rpcs -
                                            st0.mutation_rpcs) /
                            batches
                      : 0,
          "count");
  }
  run.e2e.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  if (!loop.first_error.empty()) {
    std::printf("FAIL: first failed operation: %s\n", loop.first_error.c_str());
  }
  run.attempted = loop.attempted;
  run.failed = loop.failed;
  return ok;
}

// --- Output -------------------------------------------------------------------------

void PrintSpanTotals(const Tracer& tracer) {
  std::printf("spans (name: count, total ms, self ms):\n");
  for (const auto& [name, t] : tracer.Totals()) {
    std::printf("  %-32s %6zu %12.3f %12.3f\n", name.c_str(), t.count,
                t.total_ms, t.self_ms);
  }
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// Checks of the benchmark's own statistics (run by `run.py --smoke`).
int SelfTest() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::printf("self-test FAILED: %s\n", what);
      ++failures;
    }
  };
  auto series = [](size_t n) {
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);  // 1..n
    return v;
  };
  // Every tail leaves at least ten samples above it and names its count.
  for (size_t n : {11, 12, 19, 20, 39, 40, 100, 199, 200, 1000, 10000}) {
    Tail t = TailOf(series(n));
    size_t above = 0;
    for (double x : series(n)) above += x > t.value;
    expect(t.enough && above >= 10 && t.samples == n, "ten samples beyond");
  }
  expect(TailOf(series(20)).percentile == 50, "n=20 -> p50");
  expect(TailOf(series(100)).percentile == 90, "n=100 -> p90");
  expect(TailOf(series(1000)).percentile == 99, "n=1000 -> p99");
  expect(TailOf(series(10000)).percentile == 99.9, "n=10000 -> p99.9");
  Tail small = TailOf(series(11));
  expect(small.value == 1 && std::abs(small.percentile - 100.0 / 11) < 1e-9,
         "n=11 -> the 11th-largest sample");
  expect(!TailOf(series(10)).enough, "n=10 has no qualifying percentile");
  expect(Median({3, 1, 2}) == 2 && Median({4, 1, 3, 2}) == 2.5, "median");
  std::printf("self-test: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0) return SelfTest();
  const Args args = ParseArgs(argc, argv);
  const bool dist = args.workload == "cold_churn";
  const bool det = args.workload == "hot_det";
  if (!dist && !det && args.workload != "warm_series") {
    Die("unknown workload '" + args.workload +
        "' (warm_series, cold_churn, hot_det)");
  }
  Run run(args);
  std::printf("perfbench: workload %s, seed %llu, %.3g s, trace %d, scale %s "
              "(%zu Customers, %zu Orders)\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.tiny ? "tiny" : "full",
              run.customers.NumRows(), run.orders.NumRows());
  std::printf("fingerprint %s\n", FingerprintJson().c_str());
  std::fflush(stdout);

  const bool ok = dist ? RunDistWorkload(run)
                       : RunTcpWorkload(run, det, det ? run.nproc : 1);
  std::printf("error_rate: %llu / %llu failed\n",
              static_cast<unsigned long long>(run.failed),
              static_cast<unsigned long long>(run.attempted));
  if (args.trace) {
    for (const std::string& n : run.notes) std::printf("n/a: %s\n", n.c_str());
    PrintSpanTotals(run.tracer);
    if (!args.trace_out.empty() && !run.tracer.WriteJson(args.trace_out)) {
      Die("cannot write " + args.trace_out);
    }
  }
  const bool correct = ok && run.failed == 0 && run.attempted > 0;
  PrintResult(correct, run.attempted, run.failed,
              args.trace ? run.layer : run.e2e);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
