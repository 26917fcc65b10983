// The coordinator half of distributed series execution: owns the full
// engine (planning, SSE pre-filters, SJ.Match, leakage closure, budget
// ledger all run here) and fans the batched SJ.Dec pass out to worker
// TcpServers over the framed wire protocol, merging the returned
// digests back by original row index. Digests depend only on
// (ciphertext, token), so the merged per-query results are BYTE-IDENTICAL
// to single-node ExecuteJoinSeries (tests/dist_test.cc pins this for
// every worker count, replication factor, and failure scenario).
//
// Placement: every stored row is hashed to one of K placement shards
// (ShardedTable::RowDigest -> ShardOfDigest, K = CoordinatorOptions::
// num_shards, fixed for the coordinator's lifetime). The shard is a pure
// function of the row's SJ.Enc ciphertext, so the coordinator recomputes
// it wherever it needs it and stores no per-row map. An owner table maps
// each shard to its failover chain: at most R = CoordinatorOptions::
// replication worker ids, primary first. The table is kept balanced
// under membership change -- per-worker copy counts within one of each
// other at R = 1, primaries spread as evenly as the moved shards allow --
// while moving only what must move: an added worker takes copies from
// the most-loaded workers (only it gains shards), a removed worker's
// copies go to the least-loaded workers lacking them (only its shards
// move). Membership changes re-upload exactly the moved copies, nothing
// else. Ties break by a rendezvous hash of (shard, worker id), so the
// table is a deterministic function of this coordinator's membership
// history -- not of the membership alone.
//
// A series sends one decrypt RPC per (decrypt unit x failover chain): the
// rows of one unit whose shards share a chain travel together (at R = 1,
// one RPC per unit and worker).
//
// Fault model (resilient, not fail-fast): a worker RPC that fails at the
// transport (connect, torn frame, EOF mid-response) marks the worker
// UNHEALTHY; decrypt requests fail over to the next replica of their
// chain, and when every replica of a chain is down the request's rows are
// decrypted coordinator-locally from the pinned snapshot -- the series
// completes either way, byte-identical by construction. A worker that
// stalls past the client io timeout still surfaces as DeadlineExceeded
// (slow is a sizing problem, not a crash; see docs/TUNING.md). A
// background reconnect loop re-dials unhealthy workers with capped,
// jittered exponential backoff and re-syncs every shard before returning
// the worker to the rotation: it re-sends each copy the owner table gives
// the worker (a restarted process has lost them all) and drops every other
// non-empty shard, so nothing has to remember what a down worker missed.
// With no reachable workers at all, the same path decrypts every slice
// locally through the engine's prepared-row cache -- a coordinator is
// always usable.
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
  /// K costs no RPCs (a series sends one per decrypt unit and failover
  /// chain, whatever K is); it sets the balance grain: per-worker loads
  /// come out within one shard's worth of rows, so K >= a few x the
  /// expected worker count keeps workers even and membership moves small.
  size_t num_shards = 8;
  /// Replication factor R: each shard is uploaded to the R workers of its
  /// owner-table chain (clamped to [1, kMaxShards]; effectively
  /// min(R, workers)). R = 1 is the single-owner layout; R = 2 survives
  /// any single worker loss without touching the coordinator's pairing
  /// budget.
  size_t replication = 1;
  /// A background loop re-dials every worker marked unhealthy: first after
  /// this delay, then doubling per failed attempt up to
  /// reconnect_max_backoff_ms, jittered to [50%, 100%] of the nominal
  /// value so a mass failure does not re-dial in lockstep.
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

  /// Stores the table in the local engine and uploads each non-empty
  /// placement shard to every worker of its chain. Unreachable owners do
  /// not fail the store: their copies are left to the reconnect heal
  /// (stats().shards_queued) and their reads are covered by replicas or
  /// local fallback meanwhile.
  Status StoreTable(EncryptedTable table);

  /// Applies the mutation locally (authoritative), then routes the slice
  /// of deletes and inserts each replica owns to exactly those workers.
  /// Slice failures do not fail the mutation: a failed slice (a refusal
  /// included) takes the worker out of rotation, a down worker's slice is
  /// skipped, and both are left to the reconnect heal, which re-sends the
  /// shards whole; until then the worker only costs fallback decrypts
  /// (ShardDecryptResponse::have).
  Result<MutationResult> ApplyMutation(const TableMutation& mutation);

  /// Executes the series with the SJ.Dec pass delegated to the workers
  /// (EncryptedServer::ExecuteJoinSeriesDelegated). The failover chains
  /// are read once per series; each decrypt unit sends one request per
  /// chain among its rows' shards, which tries the chain's replicas in
  /// order. With every replica down -- or no healthy worker registered at
  /// all -- the request's rows are decrypted locally (counted in
  /// stats().local_fallback_*). The result's in-process shards /
  /// shard_stats report one entry per chain, not per placement shard.
  Result<EncryptedSeriesResult> ExecuteSeries(const QuerySeriesTokens& series);

  // --- Membership ----------------------------------------------------------

  /// Connects to a worker TcpServer and rebalances: the newcomer takes
  /// floor(K * min(R, W) / W) shard copies (W counting it) -- free
  /// replica slots first, then slots of the most-loaded workers -- which
  /// are uploaded to it and dropped from the owners it displaced; the
  /// primaries of those shards are re-picked. AlreadyExists on a taken
  /// id; a failed connect does NOT register the worker. Upload failures
  /// after a successful connect do not fail the add -- the missed shards
  /// are left to the reconnect heal (the half-rebalanced-cluster
  /// regression in tests/dist_test.cc pins this).
  Status AddWorker(const std::string& id, const std::string& host,
                   uint16_t port);
  /// Disconnects `id` and re-uploads each shard copy it owned to a
  /// least-loaded worker lacking that shard (no other shard moves; the
  /// primaries of those shards are re-picked). NotFound for unknown ids. Also
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

  /// Placement shard of a stored row, recomputed from its ciphertext in
  /// the engine's current snapshot; NotFound for unknown table/id.
  Result<uint32_t> ShardOfRow(const std::string& table, StableRowId id) const;
  /// Primary owner of a shard; OutOfRange for shard >= num_shards(),
  /// NotFound with no workers.
  Result<std::string> OwnerOfShard(uint32_t shard) const;
  /// The shard's failover chain from the owner table, primary first;
  /// OutOfRange for shard >= num_shards(), NotFound with no workers.
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
    // (table, shard) copies left to the heal: each skipped or failed
    // assignment, and each shard of a skipped or failed mutation slice.
    uint64_t shards_queued = 0;
    uint64_t decrypt_rpcs = 0;    // decrypt RPCs actually attempted
    uint64_t decrypt_rpc_failures = 0;
    uint64_t failover_decrypts = 0;    // units served by a non-primary replica
    uint64_t local_fallback_units = 0; // units with no healthy replica
    uint64_t local_fallback_rows = 0;  // rows across those units
    // Zero presence bits of every decoded worker answer: rows a worker
    // that answered did not hold, decrypted locally from the snapshot.
    uint64_t worker_missing_rows = 0;
    uint64_t mutation_rpcs = 0;           // successful slice RPCs
    uint64_t mutation_rpc_failures = 0;   // failed slices (left to heal)
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
  /// Health lifecycle: `healthy` flips false on the first failed RPC
  /// of the data plane -- a transport failure, or a worker that refuses
  /// an assignment, a mutation slice or a decrypt (MarkUnhealthy); while
  /// false, decrypts, mutation slices and assignments skip the worker
  /// (counted, never remembered), and the reconnect loop re-dials at
  /// `next_attempt`. A successful re-dial re-syncs every shard of every
  /// stored table before flipping `healthy` back.
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
  };

  /// A table's snapshot with its rows' positions bucketed by placement
  /// shard: every copy the coordinator sends is cut from one of these.
  struct Placed {
    TableStore::Snapshot snap;
    std::vector<std::vector<size_t>> shards;  // positions, per shard
  };

  /// The workers of owners_[shard], primary first. Caller holds mu_.
  std::vector<std::shared_ptr<Worker>> ChainLocked(uint32_t shard) const;
  /// Registered worker ids in id order. Caller holds mu_.
  std::vector<std::string> WorkerIdsLocked() const;

  /// One framed request/response exchange on `w`, serialized by w->mu.
  /// Transport failures close the connection, mark the worker unhealthy,
  /// and map to Unavailable (DeadlineExceeded passes through); a kError
  /// response decodes to the worker-reported status, and the caller
  /// decides whether the refusal takes the worker out of rotation (every
  /// data-plane caller does).
  Result<Bytes> WorkerRpc(Worker& w, FrameType request, const Bytes& payload,
                          FrameType expected);

  /// Placement shard of a row: a pure function of its SJ.Enc ciphertext.
  uint32_t ShardOf(const EncryptedRow& row) const;
  /// The engine's current snapshot of a stored table, placed in one pass.
  Placed Place(const std::string& table) const;

  /// The one send path: sends `w` the ShardAssignment of `shard` holding
  /// snap's rows at `positions` -- the whole copy; none drop the shard.
  /// Skips an unhealthy worker unless `heal`. A skipped or failed send
  /// counts in stats().shards_queued, and any failure, a refusal
  /// included, takes the worker out of rotation. Returns the RPC status
  /// (the heal bails on it; the data plane leaves recovery to the heal).
  /// Caller holds data_mu_, not mu_ or w.mu.
  Status Assign(Worker& w, const TableStore::Snapshot& snap, uint32_t shard,
                const std::vector<size_t>& positions, bool heal = false);

  /// Flips `w` out of rotation and schedules its first re-dial. Safe
  /// under w.mu (locks mu_; mu_ is never held while acquiring w.mu).
  void MarkUnhealthy(Worker& w);
  /// Jittered backoff delay in [ms/2, ms]. Caller holds mu_.
  Clock::duration JitteredLocked(int ms);

  void ReconnectLoop();
  /// One re-dial + heal attempt: connect, re-send every shard copy the
  /// owner table gives the worker, empty ones included, drop every other
  /// non-empty shard, then return the worker to rotation. On failure,
  /// backs off; the next attempt re-syncs in full.
  void TryReconnect(const std::shared_ptr<Worker>& w);

  const size_t num_shards_;
  const size_t replication_;
  const CoordinatorOptions opts_;
  EncryptedServer engine_;

  mutable std::mutex mu_;  // workers_, owners_, stats_, rng_,
                           // Worker reconnect bookkeeping. NEVER held
                           // while acquiring a Worker::mu (the reverse
                           // holds).
  std::map<std::string, std::shared_ptr<Worker>> workers_;
  /// The owner table: entry s is placement shard s's failover chain of
  /// registered worker ids, primary first, min(R, workers) long. Only
  /// AddWorker and RemoveWorker change it, holding data_mu_ throughout:
  /// they place on a copy outside mu_ and install it with workers_ under
  /// mu_ (see coordinator.cc).
  std::vector<std::vector<std::string>> owners_;
  Stats stats_;
  std::mt19937_64 rng_;  // backoff jitter; guarded by mu_

  /// Serializes the data plane end-to-end: mutations (local apply +
  /// worker slices), table stores, membership rebalances, and reconnect
  /// heals. Two racing mutations cannot interleave their slices per
  /// worker, and a heal observes a frozen topology -- whatever lands
  /// after it is delivered over the healed connection, never lost.
  /// Always acquired before mu_ / Worker::mu; decrypts never take it.
  std::mutex data_mu_;
  /// Names of the tables stored through StoreTable; guarded by data_mu_.
  std::vector<std::string> tables_;

  bool stopping_ = false;  // guarded by mu_
  std::condition_variable reconnect_cv_;
  std::thread reconnect_thread_;
};

}  // namespace sjoin

#endif  // SJOIN_DIST_COORDINATOR_H_
