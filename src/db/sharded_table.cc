#include "db/sharded_table.h"

#include <algorithm>

#include "db/wire.h"

namespace sjoin {

size_t ShardedTable::ClampShardCount(size_t rows, size_t requested) {
  if (rows == 0) return 0;
  if (requested == 0) requested = 1;
  return std::min(std::min(requested, kMaxShards), rows);
}

Digest32 ShardedTable::RowDigest(const EncryptedRow& row) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(row.sj.c.size()));
  for (const G2Affine& p : row.sj.c) WriteG2Point(&w, p);
  return Sha256::Hash(w.bytes());
}

size_t ShardedTable::ShardOfDigest(const Digest32& digest, size_t num_shards) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(digest[i]) << (8 * i);
  }
  return static_cast<size_t>(v % num_shards);
}

}  // namespace sjoin
