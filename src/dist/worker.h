// The worker half of distributed series execution (docs/ARCHITECTURE.md,
// "Distributed execution"): a ShardFrameHandler that a TcpServer installs
// (TcpServerOptions::shard_handler) to hold placement shards of encrypted
// tables and answer the coordinator's delegated SJ.Dec slices.
//
// A worker holds, per table, the rows of the placement shards assigned to
// it -- keyed by STABLE row id, so its prepared-row cache keys match the
// single-node keys and routing survives mutations without positional
// bookkeeping. It never sees query plans, match results, or payloads:
// only (ciphertext, token) pairs, exactly the inputs of SJ.Dec, whose
// GT digest is location-independent -- which is why the coordinator's
// merged results are byte-identical to single-node execution.
//
// The worker keeps its own slice of the leakage ledger: the equality
// groups among the digests it computes for one request are exactly what
// this worker's host learns, accounted in the same transitive-closure
// tracker the single-node server uses.
//
// Threading: Handle() (event-loop thread) moves every request onto the
// worker's OWN thread pool and returns immediately. A decrypt request then
// fans out over that same pool through the one SJ.Dec kernel
// (DecryptRowsCached, whose SecureJoin::DigestRowsBatched sets the
// chunking), so one slice uses every thread even though the coordinator
// sends this worker one request at a time. The pool is private -- never
// ThreadPool::Shared() -- so an in-process coordinator whose delegated
// pass blocks every shared-pool thread on worker RPCs cannot starve the
// very decrypts those RPCs wait for.
#ifndef SJOIN_DIST_WORKER_H_
#define SJOIN_DIST_WORKER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "core/leakage.h"
#include "db/prepared_cache.h"
#include "db/table_store.h"
#include "db/wire.h"
#include "net/tcp_server.h"
#include "util/thread_pool.h"

namespace sjoin {

struct ShardWorkerOptions {
  /// Byte budget of the worker's prepared-row cache (0 disables it).
  size_t prepared_cache_bytes = PreparedRowCache::kDefaultMaxBytes;
  /// Threads of the worker's private decrypt pool, which is also the
  /// kernel width one decrypt slice fans out over. <= 0 means hardware
  /// concurrency - 1, the whole machine (see docs/TUNING.md, "Distributed
  /// execution").
  int num_threads = 2;
};

class ShardWorker : public ShardFrameHandler {
 public:
  explicit ShardWorker(ShardWorkerOptions opts = {});

  // ShardFrameHandler: decodes the request, runs it on the private pool,
  // responds exactly once (a malformed payload or an unexpected type
  // responds with the Status, which the transport turns into kError).
  void Handle(FrameType request, Bytes payload, Respond respond) override;

  /// The kWorkerHealth answer, also callable in-process.
  WorkerHealthInfo Health() const;

  /// Rows currently held of (table, shard); 0 when absent. Test hook for
  /// the membership suite ("only moved shards re-upload").
  uint64_t RowsHeld(const std::string& table, uint32_t shard) const;

  /// This worker's slice of the leakage ledger: equality among the
  /// digests it computed, transitively closed.
  const LeakageTracker& leakage() const { return leakage_; }

 private:
  /// Everything held of one table. Replaced shard-wise by assignments,
  /// patched row-wise by mutation slices.
  struct Holding {
    uint64_t generation = 0;
    std::map<StableRowId, EncryptedRow> rows;
    std::map<StableRowId, uint32_t> shard_of;
  };

  Result<Frame> Process(FrameType request, const Bytes& payload);
  Result<ShardAck> ApplyAssignment(const ShardAssignment& assign);
  Result<ShardAck> ApplyShardMutation(const ShardMutation& mutation);
  ShardDecryptResponse Decrypt(const ShardDecryptRequest& request);
  int TableIdFor(const std::string& name);

  const ShardWorkerOptions opts_;
  mutable std::mutex mu_;  // guards tables_ and table_ids_
  std::map<std::string, Holding> tables_;
  std::map<std::string, int> table_ids_;
  PreparedRowCache cache_;
  LeakageTracker leakage_;
  std::atomic<uint64_t> decrypt_requests_{0};
  std::atomic<uint64_t> digests_computed_{0};
  /// Declared last: its destructor drains in-flight requests, which must
  /// happen while the state above is still alive.
  ThreadPool pool_;
};

}  // namespace sjoin

#endif  // SJOIN_DIST_WORKER_H_
