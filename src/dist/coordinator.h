// The coordinator half of distributed series execution: owns the full
// engine (planning, SSE pre-filters, SJ.Match, leakage closure, budget
// ledger all run here) and fans the batched SJ.Dec pass out to worker
// TcpServers over the framed wire-v7 protocol, merging the returned
// digests back by original row index. Digests depend only on
// (ciphertext, token), so the merged per-query results are BYTE-IDENTICAL
// to single-node ExecuteJoinSeriesSharded (tests/dist_test.cc pins this
// for every worker count, replication factor, and failure scenario).
//
// Placement: every stored row is hashed to one of K placement shards
// (ShardedTable::RowDigest -> ShardOfDigest, K = CoordinatorOptions::
// num_shards, fixed for the coordinator's lifetime); shards are mapped to
// workers by rendezvous (highest-random-weight) hashing. With
// CoordinatorOptions::replication = R, each shard lives on the top-R
// rendezvous workers, so adding or removing one worker moves only the
// shards whose top-R set changed -- membership changes re-upload exactly
// the moved copies, nothing else.
//
// Fault model (resilient, not fail-fast): a worker RPC that fails at the
// transport (connect, torn frame, EOF mid-response) marks the worker
// UNHEALTHY; decrypt slices fail over to the next replica in rendezvous
// order, and when every replica of a shard is down the slice's rows are
// decrypted coordinator-locally from the pinned snapshot -- the series
// completes either way, byte-identical by construction. A worker that
// stalls past the client io timeout still surfaces as DeadlineExceeded
// (slow is a sizing problem, not a crash; see docs/TUNING.md). A
// background reconnect loop re-dials unhealthy workers with capped,
// jittered exponential backoff and re-uploads whatever they missed while
// down (mutation slices, tables stored, membership moves) before
// returning them to the rotation. With no reachable workers at all, the
// same path decrypts every slice locally through the engine's prepared-row
// cache -- a coordinator is always usable.
#ifndef SJOIN_DIST_COORDINATOR_H_
#define SJOIN_DIST_COORDINATOR_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "db/server.h"
#include "net/tcp_client.h"

namespace sjoin {

struct CoordinatorOptions {
  /// Cluster placement width K: every table is partitioned K ways by row
  /// digest at upload time, and series routing must agree -- so K is
  /// fixed for the coordinator's lifetime (clamped to [1, kMaxShards]).
  /// More shards than workers is deliberate: rebalance granularity is a
  /// shard, so K >= a few x the expected worker count keeps moves small.
  size_t num_shards = 8;
  /// Replication factor R: each shard is uploaded to the top-R rendezvous
  /// workers (clamped to [1, num_shards]; effectively min(R, workers)).
  /// R = 1 is the PR-8 single-owner layout; R = 2 survives any single
  /// worker loss without touching the coordinator's pairing budget.
  size_t replication = 1;
  /// Background re-dial of unhealthy workers. Off, a worker that failed
  /// an RPC stays out of rotation until it is RemoveWorker'd/re-added;
  /// its shards are served by replicas or coordinator-local fallback.
  bool auto_reconnect = true;
  /// First re-dial delay after a worker is marked unhealthy; doubles per
  /// failed attempt up to reconnect_max_backoff_ms, jittered to
  /// [50%, 100%] of the nominal value so a mass failure does not re-dial
  /// in lockstep.
  int reconnect_initial_backoff_ms = 100;
  int reconnect_max_backoff_ms = 5000;
  /// Transport options for the per-worker connections (io_timeout_ms is
  /// the slow-worker detector: a decrypt slice past it fails the series
  /// with DeadlineExceeded -- deliberately NOT failed over; see above).
  TcpClientOptions client;
  /// Local execution options (planning threads, match, budgets); also
  /// the options of the no-worker local fallback.
  ServerExecOptions exec;
};

class Coordinator {
 public:
  explicit Coordinator(CoordinatorOptions opts = {});
  ~Coordinator();  // stops the reconnect loop

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  // --- Data plane ----------------------------------------------------------

  /// Stores the table in the local engine, computes its row -> placement
  /// shard map, and uploads each shard to its top-R owning workers.
  /// Unreachable owners do not fail the store: their copies are queued
  /// for the reconnect heal (stats().shards_queued) and their reads are
  /// covered by replicas or local fallback meanwhile.
  Status StoreTable(EncryptedTable table);

  /// Applies the mutation locally (authoritative), then routes the slice
  /// of deletes and inserts each replica owns to exactly those workers.
  /// Worker slice failures do not fail the mutation: the failed slice's
  /// shards are queued on the worker (re-uploaded whole by the reconnect
  /// heal) and counted in stats().mutation_rpc_failures; until healed the
  /// worker only costs fallback decrypts (ShardDecryptResponse::have).
  Result<MutationResult> ApplyMutation(const TableMutation& mutation);

  /// Executes the series with the SJ.Dec pass delegated to the workers
  /// (EncryptedServer::ExecuteJoinSeriesDelegated). Each decrypt slice
  /// tries its shard's replicas in rendezvous order; with every replica
  /// down -- or no healthy worker registered at all -- the slice is
  /// decrypted locally (counted in stats().local_fallback_*).
  Result<EncryptedSeriesResult> ExecuteSeries(const QuerySeriesTokens& series);

  // --- Membership ----------------------------------------------------------

  /// Connects to a worker TcpServer and rebalances: shard copies whose
  /// top-R rendezvous set now includes `id` are uploaded to it and
  /// dropped from the owners they displaced. AlreadyExists on a taken
  /// id; a failed connect does NOT register the worker. Upload failures
  /// after a successful connect do not fail the add -- the missed shards
  /// are queued for the reconnect heal (the half-rebalanced-cluster
  /// regression in tests/dist_test.cc pins this).
  Status AddWorker(const std::string& id, const std::string& host,
                   uint16_t port);
  /// Disconnects `id` and re-uploads the shard copies it owned to the
  /// workers entering their top-R sets. NotFound for unknown ids. Also
  /// the hard-recovery path for a permanently dead worker (the reconnect
  /// loop stops dialing it once removed).
  Status RemoveWorker(const std::string& id);
  std::vector<std::string> worker_ids() const;
  /// Round-trips a kWorkerHealth probe to one worker.
  Result<WorkerHealthInfo> WorkerHealth(const std::string& id);
  /// The coordinator-side health flag (false: out of rotation, being
  /// re-dialed by the reconnect loop). NotFound for unknown ids.
  Result<bool> WorkerIsHealthy(const std::string& id) const;

  // --- Introspection (tests, monitoring) -----------------------------------

  /// Placement shard of a stored row; NotFound for unknown table/id.
  Result<uint32_t> ShardOfRow(const std::string& table, StableRowId id) const;
  /// Primary rendezvous owner of a shard; NotFound with no workers.
  Result<std::string> OwnerOfShard(uint32_t shard) const;
  /// All replicas of a shard in rendezvous (failover) order, primary
  /// first; NotFound with no workers registered.
  Result<std::vector<std::string>> OwnersOfShard(uint32_t shard) const;
  size_t num_shards() const { return num_shards_; }
  size_t replication() const { return replication_; }

  /// The local engine (leakage closure, budgets, table store). The
  /// coordinator owns it; callers must not mutate tables behind its back.
  EncryptedServer& engine() { return engine_; }

  struct Stats {
    uint64_t shard_uploads = 0;   // non-empty assignments sent
    uint64_t rows_uploaded = 0;   // rows across those assignments
    uint64_t shard_drops = 0;     // empty (drop) assignments sent
    uint64_t shards_queued = 0;   // (table, shard) sends deferred to heal
    uint64_t decrypt_rpcs = 0;    // decrypt RPCs actually attempted
    uint64_t decrypt_rpc_failures = 0;
    uint64_t failover_decrypts = 0;    // units served by a non-primary replica
    uint64_t local_fallback_units = 0; // units with no healthy replica
    uint64_t local_fallback_rows = 0;  // rows across those units
    uint64_t mutation_rpcs = 0;           // successful slice RPCs
    uint64_t mutation_rpc_failures = 0;   // failed slices (queued for heal)
    uint64_t mutation_slices_queued = 0;  // slices skipped: worker was down
    uint64_t workers_marked_unhealthy = 0;
    uint64_t reconnect_attempts = 0;
    uint64_t reconnects = 0;  // heals completed: worker back in rotation
  };
  Stats stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  /// One registered worker. `mu` serializes RPCs on the connection (the
  /// transport is strictly request/response per connection); the struct
  /// is shared_ptr so a concurrent RemoveWorker never invalidates a
  /// connection an in-flight series is using -- the RPC completes or
  /// fails on the closed socket, never on freed memory.
  ///
  /// Health lifecycle: `healthy` flips false on the first transport
  /// failure (MarkUnhealthy); while false, decrypts skip the worker,
  /// mutation slices and uploads queue on `dirty`, and the reconnect
  /// loop re-dials at `next_attempt`. A successful re-dial re-sends
  /// every dirty (table, shard) before flipping `healthy` back.
  struct Worker {
    std::string id;
    std::string host;
    uint16_t port = 0;
    std::mutex mu;
    std::unique_ptr<TcpClient> client;
    std::atomic<bool> healthy{true};
    // Guarded by the coordinator's mu_:
    int backoff_ms = 0;
    Clock::time_point next_attempt{};
    std::set<std::pair<std::string, uint32_t>> dirty;  // (table, shard)
  };

  /// Top-`replication` rendezvous owners of `shard` among `workers`,
  /// primary first (highest Sha256(shard, id) score; ties resolve to the
  /// lexicographically smaller id). Deterministic, so ownership is
  /// stable across coordinators, and minimal-movement under membership
  /// change. Empty when `workers` is empty.
  static std::vector<std::shared_ptr<Worker>> OwnersAmong(
      uint32_t shard,
      const std::map<std::string, std::shared_ptr<Worker>>& workers,
      size_t replication);
  static bool Among(const std::vector<std::shared_ptr<Worker>>& owners,
                    const std::shared_ptr<Worker>& w);

  /// One framed request/response exchange on `w`, serialized by w->mu.
  /// Transport failures close the connection, mark the worker unhealthy,
  /// and map to Unavailable (DeadlineExceeded passes through); a kError
  /// response decodes to the worker-reported status (worker stays
  /// healthy -- it answered).
  Result<Bytes> WorkerRpc(Worker& w, FrameType request, const Bytes& payload,
                          FrameType expected);

  /// Builds the ShardAssignment of (table, shard) from the engine's
  /// current snapshot and sends it to `w`. skip_empty: an empty
  /// assignment is only worth sending when the worker may hold stale
  /// rows of the shard (the heal path sets false). force: send even to
  /// an unhealthy worker (only the heal path, which owns the fresh
  /// connection). On any failure the shard is queued on w->dirty; the
  /// returned status reflects the RPC so the heal loop can bail, and
  /// data-plane callers deliberately ignore transport failures (the
  /// reconnect loop owns recovery). Caller must not hold mu_ or w.mu.
  Status SendShard(Worker& w, const std::string& table, uint32_t shard,
                   bool skip_empty, bool force);
  Status UploadShard(Worker& w, const std::string& table, uint32_t shard);
  /// Tells `w` it no longer owns (table, shard); skipped when the
  /// coordinator's map says the shard holds no rows.
  Status DropShard(Worker& w, const std::string& table, uint32_t shard);

  /// Flips `w` out of rotation and schedules its first re-dial. Safe
  /// under w.mu (locks mu_; mu_ is never held while acquiring w.mu).
  void MarkUnhealthy(Worker& w);
  /// Queues (table, shard) for the reconnect heal. Caller must not hold mu_.
  void QueueDirty(Worker& w, const std::string& table, uint32_t shard);
  /// Jittered backoff delay in [ms/2, ms]. Caller holds mu_.
  Clock::duration JitteredLocked(int ms);

  void ReconnectLoop();
  /// One re-dial + heal attempt: connect, re-send every dirty shard
  /// copy (dropping copies whose ownership moved away while the worker
  /// was down), then return the worker to rotation. On failure, backs
  /// off and leaves the remaining dirty set queued.
  void TryReconnect(const std::shared_ptr<Worker>& w);

  const size_t num_shards_;
  const size_t replication_;
  const CoordinatorOptions opts_;
  EncryptedServer engine_;

  mutable std::mutex mu_;  // workers_, row_shard_, stats_, rng_, Worker
                           // reconnect bookkeeping. NEVER held while
                           // acquiring a Worker::mu (the reverse holds).
  std::map<std::string, std::shared_ptr<Worker>> workers_;
  /// Stable id -> placement shard per table (authoritative copy of what
  /// was uploaded; mutation routing and the test hooks read it).
  std::map<std::string, std::map<StableRowId, uint32_t>> row_shard_;
  Stats stats_;
  std::mt19937_64 rng_;  // backoff jitter; guarded by mu_

  /// Serializes the data plane end-to-end: mutations (local apply +
  /// worker slices), table stores, membership rebalances, and reconnect
  /// heals. Two racing mutations cannot interleave their slices per
  /// worker, and a heal observes a frozen topology -- whatever lands
  /// after it is delivered over the healed connection, never lost.
  /// Always acquired before mu_ / Worker::mu; decrypts never take it.
  std::mutex data_mu_;

  bool stopping_ = false;  // guarded by mu_
  std::condition_variable reconnect_cv_;
  std::thread reconnect_thread_;
};

}  // namespace sjoin

#endif  // SJOIN_DIST_COORDINATOR_H_
