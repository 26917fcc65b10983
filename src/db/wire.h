// Versioned wire format for everything that crosses the client/server
// boundary: encrypted tables (upload), query tokens (per query), join
// results (response), and table mutations (delta upload). Length-prefixed
// little-endian framing; elliptic-curve points are serialized uncompressed
// and validated on-curve when read.
//
// There is one wire version, v8, in byte 0 of every message. Every peer
// is built from this tree, so writers emit v8 and readers accept v8 only:
// any other stamp is rejected with a versioned InvalidArgument before a
// field is read. A message carries only fields its receiver reads.
//
// Each message's layout is stated once, in wire.cc, as a field template
// that both its Serialize* and its Deserialize* run. Validation (on-curve
// points, flag and presence bytes, counts, column kinds, version, tag,
// trailing bytes) runs on decode only; encoding never fails.
#ifndef SJOIN_DB_WIRE_H_
#define SJOIN_DB_WIRE_H_

#include <cstdint>
#include <string>

#include "db/encrypted_table.h"
#include "db/table_store.h"
#include "util/hex.h"
#include "util/status.h"

namespace sjoin {

/// Append-only byte sink.
class WireWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void Raw(const uint8_t* data, size_t len);
  /// Length-prefixed byte string.
  void Blob(const Bytes& b);
  void Str(const std::string& s);

  const Bytes& bytes() const { return buf_; }
  Bytes Take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Bounds-checked reader over a byte buffer.
class WireReader {
 public:
  explicit WireReader(const Bytes& buf) : buf_(buf) {}

  Result<uint8_t> U8();
  Result<uint32_t> U32();
  Result<uint64_t> U64();
  Status Raw(uint8_t* out, size_t len);
  Result<Bytes> Blob();
  Result<std::string> Str();
  bool AtEnd() const { return pos_ == buf_.size(); }
  size_t remaining() const { return buf_.size() - pos_; }

 private:
  const Bytes& buf_;
  size_t pos_ = 0;
};

// --- Point codecs (on-curve validated on read) ------------------------------

void WriteG1Point(WireWriter* w, const G1Affine& p);
Result<G1Affine> ReadG1Point(WireReader* r);
void WriteG2Point(WireWriter* w, const G2Affine& p);
Result<G2Affine> ReadG2Point(WireReader* r);

// --- Message codecs -----------------------------------------------------------

/// Upload message: one encrypted table.
Bytes SerializeEncryptedTable(const EncryptedTable& table);
Result<EncryptedTable> DeserializeEncryptedTable(const Bytes& wire);

/// Query message: the token pair + SSE tokens.
Bytes SerializeJoinQueryTokens(const JoinQueryTokens& tokens);
Result<JoinQueryTokens> DeserializeJoinQueryTokens(const Bytes& wire);

/// Response message: matched payload pairs (+ indices and stats).
Bytes SerializeJoinResult(const EncryptedJoinResult& result);
Result<EncryptedJoinResult> DeserializeJoinResult(const Bytes& wire);

/// Series query message: an ordered batch of join queries executed as one
/// unit by EncryptedServer::ExecuteJoinSeries.
Bytes SerializeQuerySeries(const QuerySeriesTokens& series);
Result<QuerySeriesTokens> DeserializeQuerySeries(const Bytes& wire);

/// Series response message: per-query results + batch accounting (timing
/// fields and the shards / shard_stats breakdown are host-local and do
/// not cross the wire).
Bytes SerializeSeriesResult(const EncryptedSeriesResult& result);
Result<EncryptedSeriesResult> DeserializeSeriesResult(const Bytes& wire);

/// Mutation request message: delete ids + client-encrypted insert
/// rows for one table (EncryptedClient::PrepareInsert / PrepareDelete ->
/// EncryptedServer::ApplyMutation). Insert rows use the same row codec as
/// the table upload, on-curve validation included.
Bytes SerializeTableMutation(const TableMutation& mutation);
Result<TableMutation> DeserializeTableMutation(const Bytes& wire);

/// Mutation acknowledgement message: the table's new generation and
/// the stable ids assigned to the inserted rows.
Bytes SerializeMutationResult(const MutationResult& result);
Result<MutationResult> DeserializeMutationResult(const Bytes& wire);

// --- Distributed-execution messages ------------------------------------------
//
// The coordinator/worker vocabulary of src/dist (docs/ARCHITECTURE.md,
// "Distributed execution"). Rows are named by STABLE id everywhere: the
// worker's prepared-cache keys then match the single-node keys, and
// routing survives compaction without positional bookkeeping.

/// One placement shard of one table, uploaded to its owning worker. The
/// worker's holding of (table, shard) becomes exactly `rows` -- an empty
/// assignment drops the shard (it moved to another worker).
struct ShardAssignment {
  std::string table;
  uint64_t generation = 0;
  uint32_t shard = 0;
  std::vector<StableRowId> row_ids;  ///< aligned with `rows`
  std::vector<EncryptedRow> rows;
};

/// Worker acknowledgement of a ShardAssignment or ShardMutation: the
/// generation it now tracks the table at and its total row count across
/// every shard it holds of that table.
struct ShardAck {
  uint64_t generation = 0;
  uint64_t rows_held = 0;
};

/// One (decrypt-unit x shard) slice of a series' batched SJ.Dec pass:
/// decrypt the named rows of `table` under `token`. Row order is
/// meaningful -- the response digests align with it.
struct ShardDecryptRequest {
  std::string table;
  /// The coordinator's pinned snapshot generation (diagnostic only: row
  /// content is immutable per stable id, so any held row is valid).
  uint64_t generation = 0;
  /// The sender's request group of the rows (a coordinator's failover
  /// chain index; diagnostic only: a worker looks rows up by stable id).
  uint32_t shard = 0;
  SjToken token;
  std::vector<StableRowId> rows;
};

/// Digests answering a ShardDecryptRequest. have[i] == 0 marks a row the
/// worker no longer holds (a concurrent mutation slice deleted it after
/// the coordinator pinned its snapshot); that row has no digests entry
/// and the coordinator decrypts it locally from the pinned snapshot.
struct ShardDecryptResponse {
  std::vector<uint8_t> have;      ///< aligned with the request's rows
  std::vector<Digest32> digests;  ///< one per have[i] != 0, in row order
  ShardExecStats stats;           ///< this slice's decrypt counters
};

/// Routed slice of one TableMutation: the deletes and inserts that land
/// on one worker's owned shards. insert_shards names each inserted row's
/// placement shard (one worker may own several).
struct ShardMutation {
  std::string table;
  uint64_t new_generation = 0;
  std::vector<StableRowId> deletes;
  std::vector<StableRowId> insert_ids;  ///< aligned with `inserts`
  std::vector<uint32_t> insert_shards;  ///< aligned with `inserts`
  std::vector<EncryptedRow> inserts;
};

/// Worker health / inventory snapshot (the kWorkerHealth probe).
struct WorkerHealthInfo {
  uint64_t tables = 0;
  uint64_t shards_held = 0;
  uint64_t rows_held = 0;
  uint64_t decrypt_requests = 0;
  uint64_t digests_computed = 0;
};

Bytes SerializeShardAssignment(const ShardAssignment& assign);
Result<ShardAssignment> DeserializeShardAssignment(const Bytes& wire);

Bytes SerializeShardAck(const ShardAck& ack);
Result<ShardAck> DeserializeShardAck(const Bytes& wire);

Bytes SerializeShardDecryptRequest(const ShardDecryptRequest& request);
Result<ShardDecryptRequest> DeserializeShardDecryptRequest(const Bytes& wire);

Bytes SerializeShardDecryptResponse(const ShardDecryptResponse& response);
Result<ShardDecryptResponse> DeserializeShardDecryptResponse(const Bytes& wire);

Bytes SerializeShardMutation(const ShardMutation& mutation);
Result<ShardMutation> DeserializeShardMutation(const Bytes& wire);

Bytes SerializeWorkerHealthInfo(const WorkerHealthInfo& info);
Result<WorkerHealthInfo> DeserializeWorkerHealthInfo(const Bytes& wire);

}  // namespace sjoin

#endif  // SJOIN_DB_WIRE_H_
