// Memory-bounded LRU cache of prepared SJ rows (SecureJoin::PrepareRow
// output), keyed by (table name, StableRowId).
//
// Prepared rows are token-independent, so one entry serves every query of
// a series -- and every later series -- that decrypts the row. They are
// also large (~ScheduleLength() line triples per vector slot), so the
// cache enforces a byte budget.
//
// Eviction / invalidation contract (what callers may rely on):
//
//   1. Lifetime: Get hands out shared_ptr<const SjPreparedRow>. Eviction
//      drops only the cache's own reference -- a decryption holding the
//      pointer completes against valid data no matter what the cache does
//      concurrently. Eviction therefore NEVER invalidates work in flight;
//      it only prevents future reuse. (This is why the server may run
//      thousands of pool decryptions against a cache whose budget another
//      call is simultaneously shrinking.)
//
//   2. Eviction policy: least-recently-touched entries are removed until
//      the incoming entry fits; a row whose prepared form alone exceeds
//      the whole budget is rejected up front (never built) and the caller
//      falls back to the cold full-pairing path. Shrinking max_bytes via
//      set_max_bytes evicts immediately, before the call returns.
//
//   3. Invalidation is row-granular. Entries derive from a row's SJ
//      ciphertext, and the key is the row's STABLE id (TableStore), which
//      never changes and is never reused within a table -- so an entry
//      can only go stale when its exact row is deleted, and EraseRow on
//      the deleted ids is a complete invalidation. A mutation batch
//      therefore costs the warm state exactly its deleted rows; inserts
//      (fresh ids, never cached) cost nothing. EraseTable drops a whole
//      table (drop/replace workflows), Clear everything. There is no TTL
//      and no implicit invalidation path.
//
//   4. One instance per server: EncryptedServer decrypts through a
//      single striped cache on every local path -- unsharded, sharded at
//      any K, and the delegated path's local fallback. Keys name the row,
//      not where it was routed, so shard placement never splits or cools
//      the warm state.
//
// Thread-safe, and built for many-session contention: the key space is
// hash-split across `lock_shards` internal stripes, each with its own
// mutex, LRU list and byte budget (an even split of max_bytes), so
// concurrent decrypt pools rarely contend on one lock; the stat counters
// and the total byte footprint are atomics read without any lock. The
// default of one stripe preserves the exact global-LRU semantics the
// eviction tests pin down; the server's shared cache uses several (see
// EncryptedServer). The expensive PrepareRow runs outside all locks; when
// two threads race to prepare the same row, the first insert wins and the
// loser's work is discarded.
#ifndef SJOIN_DB_PREPARED_CACHE_H_
#define SJOIN_DB_PREPARED_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/scheme.h"
#include "db/encrypted_table.h"

namespace sjoin {

class PreparedRowCache {
 public:
  /// Default byte budget; ServerExecOptions::prepared_cache_bytes
  /// overrides it per call.
  static constexpr size_t kDefaultMaxBytes = size_t{256} << 20;  // 256 MiB

  /// `lock_shards` internal lock stripes (clamped to >= 1). One stripe ==
  /// one global LRU over the whole budget; N stripes split the budget N
  /// ways by key hash and eliminate cross-stripe lock contention.
  explicit PreparedRowCache(size_t max_bytes = kDefaultMaxBytes,
                            size_t lock_shards = 1);

  /// The eviction knob: shrinking the budget evicts immediately.
  void set_max_bytes(size_t max_bytes);
  size_t max_bytes() const { return max_bytes_.load(); }
  size_t lock_shard_count() const { return shards_.size(); }

  /// Returns the prepared form of the row with stable id `row_id` of
  /// table `table`, building it from `ct` on first touch. Returns nullptr
  /// when the row cannot be admitted within the byte budget (the caller
  /// falls back to the unprepared SJ.Dec path). `*built` reports whether
  /// this call built the entry (false on a cache hit).
  std::shared_ptr<const SjPreparedRow> Get(const std::string& table,
                                           uint64_t row_id,
                                           const SjRowCiphertext& ct,
                                           bool* built);

  /// Drops the entry of one deleted row; no-op when it is not cached.
  /// The per-row half of the mutation invalidation contract (point 3).
  void EraseRow(const std::string& table, uint64_t row_id);
  /// Drops every entry of one table (e.g. when it is dropped).
  void EraseTable(const std::string& table);
  /// Drops everything.
  void Clear();

  struct Stats {
    size_t entries = 0;   // rows currently cached
    size_t bytes = 0;     // their accounted footprint
    uint64_t hits = 0;    // Get calls served from the cache
    uint64_t built = 0;   // Get calls that prepared a new row
    uint64_t evicted = 0; // entries removed to make room / honor the knob
    uint64_t rejected = 0;// Get calls refused for exceeding the budget
  };
  /// Lock-free: every field is an atomic counter. Under concurrent
  /// mutation the fields are individually -- not mutually -- consistent.
  Stats stats() const;

 private:
  using Key = std::pair<std::string, uint64_t>;  // (table, stable row id)
  struct Entry {
    std::shared_ptr<const SjPreparedRow> row;
    size_t bytes = 0;
    std::list<Key>::iterator lru_pos;
  };
  /// One lock stripe: an independent LRU over its slice of the budget.
  struct Shard {
    mutable std::mutex mu;
    size_t max_bytes = 0;
    size_t bytes = 0;
    std::list<Key> lru;  // front = most recently used
    std::map<Key, Entry> entries;
  };

  Shard& ShardFor(const Key& key);
  /// Evicts LRU entries of `shard` until `bytes + incoming <= max_bytes`.
  /// Caller holds shard.mu.
  void EvictFor(Shard& shard, size_t incoming);
  /// Re-splits max_bytes_ across stripes and evicts; caller must NOT hold
  /// any shard lock.
  void ApplyBudget();

  std::vector<std::unique_ptr<Shard>> shards_;  // fixed size after ctor
  std::atomic<size_t> max_bytes_;
  // Atomic accounting: totals readable without touching any stripe lock.
  std::atomic<size_t> bytes_{0};
  std::atomic<size_t> entries_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> built_{0};
  std::atomic<uint64_t> evicted_{0};
  std::atomic<uint64_t> rejected_{0};
};

/// One row handed to DecryptRowsCached: its stable id (the cache key) and
/// its SJ ciphertext.
struct CachedDecryptRow {
  uint64_t id = 0;
  const SjRowCiphertext* ct = nullptr;
};

/// The cache-aware SJ.Dec kernel behind every decrypt path (the server's
/// series executor, its delegated local fallback, and dist/ShardWorker):
/// for each row of `table`, the prepared Miller loop when `cache` (may be
/// null) holds or admits the row, the cold one otherwise; then one batched
/// final exponentiation per SecureJoin::kDefaultDecryptBatchRows rows.
/// Sequential -- callers parallelize across calls. Returns the digests
/// aligned with `rows` (byte-identical to per-row DecryptToDigest) and adds
/// this call's decrypts_performed, pairings_computed and prepared_* counts
/// to *stats.
std::vector<Digest32> DecryptRowsCached(const SjToken& token,
                                        const std::string& table,
                                        std::span<const CachedDecryptRow> rows,
                                        PreparedRowCache* cache,
                                        ShardExecStats* stats);

}  // namespace sjoin

#endif  // SJOIN_DB_PREPARED_CACHE_H_
