// Generational mutable table storage: the layer that turns the frozen
// StoreTable-once model into dynamic encrypted tables.
//
// Every stored row carries a StableRowId that never changes and is never
// reused within a table: the initial upload gets ids 0..n-1, every later
// insert draws fresh ids from a per-table counter. Every mutation batch
// (TableMutation: deletes by id + inserts of client-encrypted rows) bumps
// the table's generation by one. Both properties are what the caches and
// the leakage accounting key on:
//
//  - The prepared-row cache is keyed by (table, StableRowId), so a
//    mutation invalidates exactly the deleted rows' entries -- a 1% churn
//    batch costs ~1% of the warm state instead of a full re-upload.
//  - LeakageTracker rows are identified by StableRowId, so a deleted
//    row's past equality observations stay in the transitive closure
//    (the adversary cannot unlearn them) and can never be aliased onto
//    an unrelated row that later occupies the same position.
//
// Reads hand out Snapshots: shared_ptr views of one generation's row
// vector and id vector. Apply never mutates a published snapshot -- it
// builds the next generation's vectors and swaps them in -- so a series
// that resolved its snapshots keeps executing against exactly one
// consistent generation no matter what mutations land afterwards.
//
// Mutation semantics (Apply): deletes are applied first, compacting the
// row vector in stable order (surviving rows keep their relative order);
// inserts are then appended in batch order. A scratch re-encryption of
// the same plaintext edits therefore produces the same row layout, which
// is what tests/mutation_test.cc's equivalence suite asserts.
//
// Thread-safe. The locking is two-level so a series never blocks behind a
// mutation:
//
//  - A shared_mutex guards the table map's structure: Store takes it
//    exclusive, everything else shared (tables are never removed, so a
//    looked-up entry stays valid once found).
//  - Each table has a writer mutex (serializes Apply per table; Applies on
//    DIFFERENT tables run in parallel) and a separate snapshot mutex held
//    only for the pointer swap / pointer copy. Apply builds the next
//    generation's vectors while holding just the writer mutex -- the
//    published snapshot is immutable, so concurrent Gets copy shared_ptrs
//    under the snapshot mutex without ever waiting out the O(rows) copy.
//
// A *held* Snapshot stays valid across any number of later mutations.
#ifndef SJOIN_DB_TABLE_STORE_H_
#define SJOIN_DB_TABLE_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "db/encrypted_table.h"
#include "util/status.h"

namespace sjoin {

/// Stable identity of one stored row, unique per table for the table's
/// whole lifetime (never reused after a delete).
using StableRowId = uint64_t;

/// Client -> server: one mutation batch against a stored table
/// (SerializeTableMutation). Built by EncryptedClient::PrepareInsert /
/// PrepareDelete; the two halves may be merged into one batch.
struct TableMutation {
  std::string table;
  /// Session the batch executes under (0 = the implicit default session).
  /// The scheduler uses it for per-session FIFO ordering; the crypto is
  /// session-agnostic. Not on the wire: TcpServer sets it from the
  /// connection's session.
  uint64_t session_id = 0;
  /// Optimistic concurrency guard: when nonzero, Apply fails with
  /// FailedPrecondition unless it equals the table's current generation.
  /// 0 applies unconditionally.
  uint64_t base_generation = 0;
  /// Rows to remove, by stable id. Unknown ids fail the whole batch.
  std::vector<StableRowId> deletes;
  /// Rows to append, encrypted by the client under the table's existing
  /// SJ/SSE/AEAD keys (EncryptedClient::PrepareInsert).
  std::vector<EncryptedRow> inserts;
};

/// Server -> client: acknowledgement of one applied mutation
/// (SerializeMutationResult).
struct MutationResult {
  /// The table's generation after the batch.
  uint64_t generation = 0;
  /// Stable ids assigned to the inserted rows, in insert order (the
  /// client needs them to delete those rows later).
  std::vector<StableRowId> inserted_ids;
};

/// Calls `keep(p)` for every position in [0, size) not listed in
/// `removed` (which must be ascending), in order -- the one stable-order
/// compaction that TableStore::Apply (rows + ids) runs and that any
/// shadow copy of a table (a test's or a benchmark's plaintext twin)
/// must agree on to keep its positions synchronized with the snapshot.
template <typename Fn>
void ForEachSurvivingPosition(size_t size, const std::vector<size_t>& removed,
                              Fn&& keep) {
  size_t next_removed = 0;
  for (size_t p = 0; p < size; ++p) {
    if (next_removed < removed.size() && removed[next_removed] == p) {
      ++next_removed;
      continue;
    }
    keep(p);
  }
}

class TableStore {
 public:
  /// One generation's consistent view of a table. `table` and `row_ids`
  /// are parallel (row_ids->at(p) identifies table->rows[p]) and
  /// immutable; holding the shared_ptrs keeps the generation alive across
  /// later mutations.
  struct Snapshot {
    std::shared_ptr<const EncryptedTable> table;
    std::shared_ptr<const std::vector<StableRowId>> row_ids;
    uint64_t generation = 0;
  };

  /// Everything EncryptedServer needs to maintain its derived state (the
  /// prepared-row cache) incrementally after one Apply.
  struct Applied {
    MutationResult result;
    /// Ids the batch removed (echo of TableMutation::deletes).
    std::vector<StableRowId> removed_ids;
    /// The post-mutation snapshot.
    Snapshot snapshot;
  };

  /// Registers a table under generation 1 with row ids 0..n-1;
  /// AlreadyExists if the name is taken.
  Status Store(EncryptedTable table);

  bool Has(const std::string& name) const;
  size_t size() const;

  /// Current-generation snapshot; NotFound ("table '<name>' not stored",
  /// the one message every lookup path uses) for unknown names.
  Result<Snapshot> Get(const std::string& name) const;

  /// Applies one mutation batch: deletes (stable-order compaction), then
  /// inserts (appended). All-or-nothing -- any invalid id, a duplicate
  /// delete, an insert whose SJ dimension disagrees with the table's
  /// (remembered from the first rows ever seen, so emptying a table does
  /// not reopen it to foreign rows), a stale base_generation, or an
  /// empty batch fails before anything changes. Published snapshots are
  /// never touched.
  ///
  /// Cost: O(surviving rows) -- copy-on-write snapshotting copies the row
  /// vector into the next generation. That is deliberate: row copies are
  /// memcpy-scale while everything the caches protect is pairing-scale
  /// (~ms per row), so batching deltas (docs/TUNING.md, "churn") keeps
  /// mutation cost negligible; a chunked/persistent row representation
  /// is the obvious follow-up if profile data ever disagrees.
  Result<Applied> Apply(const TableMutation& mutation);

 private:
  struct Stored {
    /// Serializes Apply on this table (mutations on other tables proceed
    /// in parallel). Also guards the writer-only bookkeeping below.
    std::mutex writer_mu;
    /// Guards `snap` for the brief pointer copy/swap only -- never held
    /// across the next-generation row copy.
    mutable std::mutex snap_mu;
    Snapshot snap;
    uint64_t next_row_id = 0;  // writer_mu
    /// SJ ciphertext dimension of this table's rows; 0 until the first
    /// row is seen (empty upload), then fixed for the table's lifetime.
    size_t sj_dim = 0;  // writer_mu
    std::map<StableRowId, size_t> id_to_pos;  // current generation; writer_mu
  };

  /// Looks up a table under a shared map lock; nullptr when absent. The
  /// pointer stays valid forever (tables are never erased, and the map
  /// holds unique_ptrs so rebalancing never moves a Stored).
  Stored* Find(const std::string& name) const;

  mutable std::shared_mutex map_mu_;
  std::map<std::string, std::unique_ptr<Stored>> tables_;
};

}  // namespace sjoin

#endif  // SJOIN_DB_TABLE_STORE_H_
