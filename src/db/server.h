// The semi-honest DBMS server: stores encrypted tables (generational,
// mutable -- see db/table_store.h), executes join queries from tokens
// alone, applies client-prepared mutation batches, and (for the
// evaluation) records exactly what it learned in a LeakageTracker.
//
// Concurrency contract (docs/ARCHITECTURE.md, "Concurrency model"):
// every public method is safe to call from any number of threads at
// once. Reads are snapshot-isolated -- a series pins one TableStore
// generation per table up front and executes entirely against it, so it
// never blocks behind (or observes half of) a concurrent mutation; its
// results are bit-identical to a serial run against those generations
// (asserted by tests/concurrency_test.cc). Mutations serialize per table
// and run in parallel across tables. The Submit* APIs add a scheduled
// layer on top: requests queue per session (FIFO within a session,
// round-robin across sessions, a global in-flight cap) and execute on
// the shared ThreadPool.
#ifndef SJOIN_DB_SERVER_H_
#define SJOIN_DB_SERVER_H_

#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/leakage.h"
#include "db/backend.h"
#include "db/encrypted_table.h"
#include "db/prepared_cache.h"
#include "db/scheduler.h"
#include "db/session.h"
#include "db/sharded_table.h"
#include "db/table_store.h"
#include "db/wire.h"  // ShardDecryptRequest/Response (delegated SJ.Dec)

namespace sjoin {

struct ServerExecOptions {
  /// Threads for the SJ.Dec pass (<= 0: hardware concurrency).
  int num_threads = 1;
  /// false switches SJ.Match to the O(n^2) nested-loop join (ablation A2).
  bool use_hash_join = true;
  /// Byte budget for the server's prepared-row cache (the eviction knob;
  /// 0 disables the prepared pipeline for this call). The cache itself is
  /// per-server and persists across calls, so a series against a table a
  /// previous series already touched starts warm -- on every path and at
  /// every shard count.
  size_t prepared_cache_bytes = PreparedRowCache::kDefaultMaxBytes;
  /// Shard count K for ExecuteJoinSeriesSharded (<= 0: 1). Overridden by
  /// QuerySeriesTokens::requested_shards when the client set one; either
  /// source is clamped to the largest referenced table (no empty shard
  /// ever gets a pool task) and to ShardedTable::kMaxShards (the request
  /// is untrusted wire input). See docs/TUNING.md for sizing.
  int num_shards = 1;
  /// Server-side dispatch policy for the adaptive executor: the backends
  /// this server is willing to run, intersected with the client's
  /// QuerySeriesTokens::allowed_backends per series. The sjoin pairing
  /// path is always available regardless of either mask (it is the
  /// fallback, not a privilege). Defaults to everything -- the client's
  /// sjoin-only default keeps behavior unchanged unless a client opts in.
  uint32_t allowed_backends = kBackendMaskAll;
  /// Cost constants the executor compares backends with; defaults are
  /// calibrated from `bench_sec65_comparison --json` (docs/TUNING.md).
  BackendCostModel cost_model{};
};

class EncryptedServer {
 public:
  EncryptedServer() : EncryptedServer(SchedulerOptions{}) {}
  /// `sched_opts` tunes the Submit* request scheduler (max in-flight,
  /// per-session queue bound); the synchronous Execute* APIs bypass it.
  explicit EncryptedServer(const SchedulerOptions& sched_opts)
      : scheduler_(&sessions_, sched_opts) {}

  /// Registers a table; AlreadyExists if the name is taken. Rows get
  /// stable ids 0..n-1 and the table starts at generation 1.
  Status StoreTable(EncryptedTable table);

  /// Applies one client-prepared mutation batch (wire v4): deletes by
  /// stable id (stable-order compaction), then inserted rows appended.
  /// Cache maintenance is row-granular -- exactly the deleted rows'
  /// prepared entries are dropped from the prepared-row cache. Leakage
  /// accounting is deliberately NOT touched: the tracker keys rows by
  /// stable id, so a deleted row's past equality observations stay in the
  /// transitive closure -- the adversary cannot unlearn what it already
  /// saw, and a freshly inserted row (new id) can never alias them.
  /// Concurrent mutations serialize per table (TableStore's per-table
  /// writer lock) and never disturb a running series, which keeps reading
  /// the generation it pinned.
  Result<MutationResult> ApplyMutation(const TableMutation& mutation);

  bool HasTable(const std::string& name) const { return store_.Has(name); }
  /// Current-generation row data; the pointer stays valid until the next
  /// ApplyMutation on that table (hold a TableStore::Snapshot via
  /// table_store().Get() to pin a generation across mutations). NotFound
  /// carries the store's canonical "table '<name>' not stored" message.
  Result<const EncryptedTable*> GetTable(const std::string& name) const;

  /// Executes one join query: SSE pre-filter, SJ.Dec on the selected rows,
  /// SJ.Match via hash join on GT digests, payload pairs out. Runs as a
  /// one-query ExecuteJoinSeries, so it honours every ServerExecOptions
  /// field (prepared_cache_bytes = 0 keeps the decryptions cold).
  Result<EncryptedJoinResult> ExecuteJoin(
      const JoinQueryTokens& query, const ServerExecOptions& opts = {});

  /// Executes a batch of join queries as one pipeline: all SSE pre-filters
  /// first, then every SJ.Dec of the batch scheduled together onto the
  /// shared ThreadPool, with a per-(table, token) digest cache so a token
  /// reused within the series (repeated queries, multi-way chains with a
  /// shared query key) decrypts each row at most once. Results are
  /// identical to executing the queries one by one; leakage accounting
  /// feeds the same cross-query transitive closure. The series resolves
  /// one TableStore snapshot per referenced table up front, so every
  /// query of the batch observes exactly one generation (reported in
  /// EncryptedSeriesResult::pinned_generations).
  Result<EncryptedSeriesResult> ExecuteJoinSeries(
      const QuerySeriesTokens& series, const ServerExecOptions& opts = {});

  /// ExecuteJoinSeries with rows routed to K shards: each pending row goes
  /// to ShardedTable::ShardOfDigest(RowDigest(row), K clamped to its
  /// table's row count), the batched SJ.Dec pass is scheduled as (shard x
  /// decrypt-unit) work units (row-chunked, so parallelism is bounded by
  /// pending rows, not by K) on the shared ThreadPool, and every unit
  /// decrypts through the one shared prepared-row cache -- so rows warmed
  /// by any path, at any K, stay warm here. Digests are merged back by
  /// original row index before SJ.Match, which makes the results
  /// bit-identical to the unsharded path (asserted by tests/shard_test.cc
  /// and tests/series_test.cc); only the stats gain a per-shard breakdown
  /// (SeriesExecStats::shards / shard_stats, wire v3). Reads the same
  /// generation-consistent snapshots as the unsharded path.
  Result<EncryptedSeriesResult> ExecuteJoinSeriesSharded(
      const QuerySeriesTokens& series, const ServerExecOptions& opts = {});

  /// The SJ.Dec delegate of ExecuteJoinSeriesDelegated: answers one
  /// (decrypt-unit x placement-shard) slice of the batched decrypt pass
  /// -- in src/dist, a worker RPC. Invoked concurrently from pool
  /// threads; a non-OK result fails the whole series with that status.
  using ShardDecryptFn =
      std::function<Result<ShardDecryptResponse>(const ShardDecryptRequest&)>;

  /// ExecuteJoinSeriesSharded with the SJ.Dec pass delegated slice by
  /// slice: planning, dedup, SJ.Match, leakage and budget accounting all
  /// run locally against this server's pinned snapshots, and only the
  /// pairing work goes through `decrypt`. Rows are routed to placement
  /// shards by ShardedTable::ShardOfDigest under a FIXED width
  /// `placement_shards` (the cluster's K, not the per-table clamp --
  /// uploads were partitioned under it, so routing must match). Digests
  /// depend only on (ciphertext, token), never on where they were
  /// computed, so per-query results are byte-identical to the local
  /// sharded path (asserted by tests/dist_test.cc); stats report the
  /// delegate's counters per placement shard. A row the delegate reports
  /// missing (ShardDecryptResponse::have) is decrypted locally from the
  /// pinned snapshot -- a worker that already applied a newer mutation
  /// cannot skew a snapshot-isolated series. A response whose bitmap,
  /// digest count or counters disagree fails the series with Internal.
  Result<EncryptedSeriesResult> ExecuteJoinSeriesDelegated(
      const QuerySeriesTokens& series, const ServerExecOptions& opts,
      size_t placement_shards, const ShardDecryptFn& decrypt);

  // --- Concurrent session layer -------------------------------------------
  //
  // Submit* enqueue a request under the session id carried by the message
  // (wire v5; 0 = the implicit default session, always open) and return a
  // future that resolves when the scheduler has executed it. Admission
  // failures (unknown/closed session, per-session queue full) resolve the
  // future immediately with the error. The scheduler guarantees FIFO
  // execution within a session, serializes mutations per table, caps
  // global in-flight requests, and round-robins across sessions --
  // see db/scheduler.h.

  /// Opens a session for Submit* requests (ids are never reused).
  SessionId OpenSession() { return sessions_.Open(); }
  /// Closes a session: queued requests drain, later submissions refuse.
  Status CloseSession(SessionId id) { return sessions_.Close(id); }
  size_t open_sessions() const { return sessions_.open_count(); }

  std::future<Result<EncryptedSeriesResult>> SubmitJoinSeries(
      QuerySeriesTokens series, ServerExecOptions opts = {});
  std::future<Result<EncryptedSeriesResult>> SubmitJoinSeriesSharded(
      QuerySeriesTokens series, ServerExecOptions opts = {});
  std::future<Result<MutationResult>> SubmitMutation(TableMutation mutation);

  // Push-completion variants for transports: same scheduler path as the
  // future-returning Submit* (they are implemented on top of these), but
  // `done` is invoked with the result -- on the pool thread that executed
  // the request, or inline on the submitting thread when admission fails.
  // std::future has no continuation hook, and an event-loop transport
  // cannot park a thread per in-flight request; a callback lets the
  // socket layer serialize the response the moment it exists. `done` must
  // not block for long (it runs on a shared pool worker) and must
  // tolerate being the last reference to its captures (the connection may
  // be gone by completion time).
  void SubmitJoinSeriesAsync(
      QuerySeriesTokens series, ServerExecOptions opts,
      std::function<void(Result<EncryptedSeriesResult>)> done);
  void SubmitJoinSeriesShardedAsync(
      QuerySeriesTokens series, ServerExecOptions opts,
      std::function<void(Result<EncryptedSeriesResult>)> done);
  void SubmitMutationAsync(TableMutation mutation,
                           std::function<void(Result<MutationResult>)> done);

  /// Stops the Submit* layer: in-flight and queued requests drain, every
  /// later submission resolves with a clean FailedPrecondition (never a
  /// silent drop -- the regression tests/net_test.cc pins: a transport
  /// still enqueuing during teardown must get an error it can put on the
  /// wire). Synchronous Execute* calls keep working; shut transports
  /// down BEFORE the engine so their in-flight requests drain here.
  void Shutdown() { scheduler_.Shutdown(); }

  /// Scheduler counters (admitted/rejected/completed/in-flight/queued).
  RequestScheduler::Stats scheduler_stats() const {
    return scheduler_.stats();
  }

  /// Everything the server has learned so far (equality of rows, closed
  /// transitively) -- the quantity the paper's security analysis bounds.
  /// RowId::row is the row's STABLE id, so observations survive deletes
  /// without ever aliasing onto later inserts.
  LeakageTracker& leakage() { return leakage_; }
  const LeakageTracker& leakage() const { return leakage_; }

  // --- Leakage budget policy ----------------------------------------------
  //
  // The per-table knobs of the adaptive executor (db/backend.h): a table
  // with a budget can absorb at most that many fast-backend revealed
  // pairs; once exhausted, every query touching it falls back to the
  // pairing path. Budgets are monotone (SetLeakageBudget can only
  // tighten) and shared by every session -- Submit* requests and direct
  // Execute* calls charge one ledger.

  /// Caps `table` at `max_pairs` fast-backend revealed pairs. Monotone:
  /// a later call can only lower the effective limit. The name does not
  /// need to be stored yet (policy can precede upload).
  void SetLeakageBudget(const std::string& table, uint64_t max_pairs) {
    leakage_.SetBudget(TableIdFor(table), max_pairs);
  }
  /// LeakageTracker::kUnlimitedBudget when no budget was ever set.
  uint64_t LeakageBudgetLimit(const std::string& table) {
    return leakage_.BudgetLimit(TableIdFor(table));
  }
  uint64_t LeakageBudgetSpent(const std::string& table) {
    return leakage_.BudgetSpent(TableIdFor(table));
  }
  uint64_t LeakageBudgetRemaining(const std::string& table) {
    return leakage_.BudgetRemaining(TableIdFor(table));
  }

  /// The generational store behind the server (exposed for tests and
  /// monitoring: snapshots, generations).
  const TableStore& table_store() const { return store_; }

  /// The server's one prepared-row cache, behind every local SJ.Dec:
  /// ExecuteJoin, ExecuteJoinSeries, ExecuteJoinSeriesSharded and the
  /// delegated path's local fallback (exposed for tests and benchmarks;
  /// see ServerExecOptions::prepared_cache_bytes). The eviction /
  /// invalidation contract lives at the top of db/prepared_cache.h; the
  /// short version: entries are shared_ptr (eviction never invalidates
  /// work in flight), keyed by (table, stable row id) and invalidated
  /// per-row by ApplyMutation.
  const PreparedRowCache& prepared_cache() const { return prepared_cache_; }

 private:
  struct SeriesPlanState;  // defined in server.cc
  /// One (decrypt-unit x shard) slice of a series' batched SJ.Dec pass:
  /// the pending rows of one unit that hash to one shard, optionally
  /// chunked further for pool granularity. Defined in server.cc.
  struct ShardWorkUnit;

  /// Where the series executor sends a plan's pending rows: K placement
  /// shards (0 = unsharded: one implicit shard, no per-shard report), the
  /// row position -> shard map (null: shard 0), and the rows per pool task
  /// (0 = one task per (unit, shard) group, the delegated RPC granularity).
  struct Placement {
    size_t shards = 0;
    std::function<size_t(const EncryptedTable*, size_t)> shard_of;
    size_t rows_per_task = 0;
  };
  /// The decrypt sink of the series executor: one work unit's digests
  /// (aligned with its rows), adding the SJ.Dec counters of the work to
  /// *stats. Called concurrently from pool threads; an error fails the
  /// whole series with it.
  using DecryptSink = std::function<Result<std::vector<Digest32>>(
      const ShardWorkUnit&, ShardExecStats*)>;

  /// Groups a plan's pending (unit, row) decryptions into ShardWorkUnits
  /// under the placement's shard_of, then subdivides groups into
  /// rows_per_task-row chunks. Chunks stay within one unit and one shard,
  /// so stats attribution is independent of chunking.
  static std::vector<ShardWorkUnit> BuildShardUnits(
      const SeriesPlanState& state, const Placement& placement);
  /// The local decrypt sink: the kernel over `cache` (nullptr: cold).
  static DecryptSink LocalSink(PreparedRowCache* cache);

  /// Lock stripes of the shared prepared-row cache: enough that the
  /// decrypt pools of several concurrent sessions rarely collide on one
  /// mutex, few enough that the per-stripe budget (bytes / stripes) still
  /// dwarfs any single prepared row.
  static constexpr size_t kPreparedCacheLockShards = 8;

  int TableIdFor(const std::string& name);

  /// SJ.Match + leakage accounting + payload assembly for one query whose
  /// digests are already computed. `ids_*` map row positions to stable
  /// ids (leakage identities). Fills every stats field except the timing
  /// of the phases the caller ran itself.
  EncryptedJoinResult MatchAndAccount(const EncryptedTable& a,
                                      const EncryptedTable& b,
                                      const std::vector<StableRowId>& ids_a,
                                      const std::vector<StableRowId>& ids_b,
                                      const std::vector<size_t>& sel_a,
                                      const std::vector<size_t>& sel_b,
                                      const std::vector<Digest32>& da,
                                      const std::vector<Digest32>& db,
                                      const ServerExecOptions& opts);

  /// Steps shared by every series path: snapshot resolution
  /// (all-or-nothing, one generation per table for the whole batch), SSE
  /// pre-filters, adaptive backend dispatch (queries a fast backend wins
  /// are answered from tag digests and never enter the SJ.Dec plan), and
  /// digest-cache deduplication into pending (unit, row) decryptions.
  /// Fills the request/dedup and per-backend counters of *stats.
  Status BuildSeriesPlan(const QuerySeriesTokens& series,
                         const ServerExecOptions& opts,
                         SeriesExecStats* stats, SeriesPlanState* state);
  /// Steps shared by every series path after the digests exist: per-query
  /// SJ.Match + leakage + payloads, then the cross-query digest groups,
  /// plus the pinned-generation report.
  void FinishSeries(SeriesPlanState& state, const ServerExecOptions& opts,
                    EncryptedSeriesResult* out);

  /// The one series executor behind every Execute* entry point:
  /// BuildSeriesPlan, then `place` picks the placement for the pinned
  /// plan, BuildShardUnits, one ParallelFor over the work units through
  /// `decrypt` (the first error wins), per-shard counters summed into the
  /// totals and checked against the SeriesExecStats identities, then
  /// FinishSeries.
  Result<EncryptedSeriesResult> RunSeries(
      const QuerySeriesTokens& series, const ServerExecOptions& opts,
      const std::function<Placement(const SeriesPlanState&)>& place,
      const DecryptSink& decrypt);
  /// The shared prepared-row cache resized to opts.prepared_cache_bytes,
  /// or nullptr when the options disable the prepared pipeline.
  PreparedRowCache* SharedCache(const ServerExecOptions& opts);

  TableStore store_;
  std::mutex ids_mu_;
  std::map<std::string, int> table_ids_;
  LeakageTracker leakage_;
  /// The adaptive dispatch layer (db/backend.h). One instance per server:
  /// every session's series -- direct or scheduled -- authorizes against
  /// the same backends and the same budget ledger in leakage_.
  AdaptiveExecutor executor_{&leakage_};
  PreparedRowCache prepared_cache_{PreparedRowCache::kDefaultMaxBytes,
                                   kPreparedCacheLockShards};
  /// Session registry + request scheduler. Declared last: the scheduler's
  /// destructor drains in-flight requests, which must happen while the
  /// state above is still alive.
  SessionManager sessions_;
  RequestScheduler scheduler_;
};

}  // namespace sjoin

#endif  // SJOIN_DB_SERVER_H_
