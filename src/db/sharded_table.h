// Row -> shard routing for the sharded and distributed series paths: a
// row goes to the shard its SJ ciphertext's digest hashes to, so the
// assignment is (a) deterministic across processes -- client, server,
// coordinator and workers agree on routing without extra metadata -- and
// (b) independent of row order, selection predicates, and query tokens.
// Routing is a pure function of the row; nothing is kept per table.
//
// Why this preserves the equi-join result: SJ.Dec of a row yields the
// same GT digest no matter which shard the row lives in (the pairing
// sees only the ciphertext and the token), and SJ.Match is a join on
// those digests over the *selected* row set. Partitioning the rows
// therefore commutes with decryption; executing per shard and merging
// back by original row index reproduces the unsharded result bit for
// bit. The paper's series analysis (amortizing SJ.Dec over the corpus)
// carries over shard by shard -- see docs/ARCHITECTURE.md, "Sharded
// series execution".
#ifndef SJOIN_DB_SHARDED_TABLE_H_
#define SJOIN_DB_SHARDED_TABLE_H_

#include <cstddef>

#include "db/encrypted_table.h"

namespace sjoin {

class ShardedTable {
 public:
  ShardedTable() = delete;

  /// Hard ceiling on shard counts: an absurd ServerExecOptions::num_shards
  /// or placement width must clamp instead of allocating absurd stats
  /// vectors; past a few times the core count more shards only shrink
  /// each work unit anyway.
  static constexpr size_t kMaxShards = 1024;

  /// The shard count actually used for a table of `rows` rows when
  /// `requested` shards are asked for: empty tables get no shards, and
  /// the count never exceeds the row count (an empty shard would only
  /// waste a pool task and a stats slot) nor kMaxShards. A request of 0
  /// means 1.
  static size_t ClampShardCount(size_t rows, size_t requested);

  /// Content digest of one row's SJ ciphertext (the G2 points only --
  /// SSE tags and the AEAD payload are not part of the row's join
  /// identity). Stable across serialization round trips.
  static Digest32 RowDigest(const EncryptedRow& row);

  /// Shard index of a row digest under a `num_shards`-way partition.
  static size_t ShardOfDigest(const Digest32& digest, size_t num_shards);
};

}  // namespace sjoin

#endif  // SJOIN_DB_SHARDED_TABLE_H_
