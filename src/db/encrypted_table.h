// Wire/storage types shared between the encrypted client and server.
#ifndef SJOIN_DB_ENCRYPTED_TABLE_H_
#define SJOIN_DB_ENCRYPTED_TABLE_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/scheme.h"
#include "crypto/aead.h"
#include "db/sse.h"
#include "db/table.h"

namespace sjoin {

// --- Join backends ----------------------------------------------------------

/// The server-side join backends the adaptive executor can dispatch a
/// query to (db/backend.h). `kSjoin` is the paper's pairing pipeline --
/// always available, minimum leakage. The other two are the Section 6.5
/// comparison schemes re-homed as fast low-security backends over the
/// per-row encodings below; they may only run when the client's series
/// policy allows them AND the projected reveal fits every involved
/// table's leakage budget.
enum class BackendKind : uint8_t {
  kSjoin = 0,
  kDetJoin = 1,
  kCryptDbOnion = 2,
};

/// Bitmask over BackendKind for the client/server dispatch policy.
constexpr uint32_t BackendBit(BackendKind k) {
  return uint32_t{1} << static_cast<uint32_t>(k);
}
constexpr uint32_t kBackendMaskSjoinOnly = BackendBit(BackendKind::kSjoin);
constexpr uint32_t kBackendMaskAll = BackendBit(BackendKind::kSjoin) |
                                     BackendBit(BackendKind::kDetJoin) |
                                     BackendBit(BackendKind::kCryptDbOnion);

constexpr const char* BackendName(BackendKind k) {
  switch (k) {
    case BackendKind::kSjoin:
      return "sjoin";
    case BackendKind::kDetJoin:
      return "det_join";
    case BackendKind::kCryptDbOnion:
      return "cryptdb_onion";
  }
  return "unknown";
}

/// Deterministic join tag: truncated HMAC of the join value. 16 bytes --
/// the DET ciphertext unit of Hacigumus et al.; equal join values produce
/// equal tags. Defined here (not in src/baselines/) because the db layer
/// stores and joins on these tags when the fast backends run.
using DetTag = std::array<uint8_t, 16>;

/// Optional per-row encodings for the fast backends, produced at
/// encryption time by EncryptedClient::EncryptRowFor. Both are
/// strictly opt-in:
///   det    -- the join value's DetTag in the clear. Visible at rest:
///             uploading it is the client declaring the table
///             low-sensitivity (DET semantics, leaks from t0 once read).
///   onion  -- the same DetTag wrapped in a probabilistic RND layer
///             (ChaCha20 XOR under a per-row nonce). Leaks nothing at
///             rest; the server can only strip it once the client
///             releases the onion key with a query series (CryptDB
///             semantics: first join on the column reveals the pattern).
struct BackendRowEncoding {
  bool has_det = false;
  DetTag det_tag{};
  bool has_onion = false;
  std::array<uint8_t, 12> onion_nonce{};
  DetTag onion_wrapped{};
  bool operator==(const BackendRowEncoding&) const = default;
};

/// One outsourced row: SJ ciphertext (join + selection crypto), SSE tags
/// for pre-filtering, optional fast-backend encodings, and the
/// AEAD-protected payload only the client can open.
struct EncryptedRow {
  SjRowCiphertext sj;
  SseRowTags sse;  // tags aligned with EncryptedTable::attr_columns
  BackendRowEncoding enc;  // fast-backend encodings (may be absent)
  AeadCiphertext payload;
};

/// An outsourced table. Schema metadata (column names/kinds) is treated as
/// public; cell contents are not.
struct EncryptedTable {
  std::string name;
  Schema schema;
  std::string join_column;
  std::vector<std::string> attr_columns;  // filterable columns, vector order
  std::vector<EncryptedRow> rows;
};

/// Client -> server: everything the server needs to run one join query.
struct JoinQueryTokens {
  std::string table_a;
  std::string table_b;
  SjToken token_a;
  SjToken token_b;
  bool use_sse_prefilter = true;
  std::vector<SseTokenGroup> sse_a;
  std::vector<SseTokenGroup> sse_b;
};

/// Client -> server: a batch ("series") of join queries executed as one
/// unit. The paper's cost and leakage analysis is amortized over exactly
/// such a series; the server schedules all SJ.Dec work of the batch onto
/// one shared thread pool and deduplicates per-(table, token) decryptions.
struct QuerySeriesTokens {
  std::vector<JoinQueryTokens> queries;
  /// Session the batch executes under (0 = the implicit default session).
  /// Scheduler routing metadata for EncryptedServer::Submit* -- per-session
  /// FIFO and admission control key on it; the crypto is session-agnostic.
  /// Not on the wire: TcpServer sets it from the connection's session.
  uint64_t session_id = 0;
  /// Client dispatch policy: the backends the adaptive executor may
  /// consider for this batch. The default is the pairing path alone, so a
  /// client that never opts in gets exactly the paper's scheme. The server
  /// intersects this with its own ServerExecOptions::allowed_backends
  /// before dispatching.
  uint32_t allowed_backends = kBackendMaskSjoinOnly;
  /// CryptDB-style key release: when the policy includes the onion
  /// backend the client ships the onion key with the series, letting the
  /// server strip the RND layer of the rows it joins. Absent otherwise
  /// (has_onion_key = false, key zeroed).
  bool has_onion_key = false;
  std::array<uint8_t, 32> onion_key{};
};

/// Server-side execution accounting (reported with every result).
struct JoinExecStats {
  size_t rows_total_a = 0;
  size_t rows_total_b = 0;
  size_t rows_selected_a = 0;
  size_t rows_selected_b = 0;
  size_t result_pairs = 0;
  double prefilter_seconds = 0;
  double decrypt_seconds = 0;
  double match_seconds = 0;
};

/// Server -> client: AEAD payload pairs of matched rows.
struct EncryptedJoinResult {
  std::vector<std::pair<AeadCiphertext, AeadCiphertext>> row_pairs;
  /// Original row indices of each pair (information the server necessarily
  /// has; exposed for the leakage experiments).
  std::vector<JoinedRowPair> matched_row_indices;
  JoinExecStats stats;
};

/// One shard's share of a sharded series execution. The fields
/// mirror the SJ.Dec counters of SeriesExecStats; the series-level totals
/// are exactly the per-shard sums (asserted by tests/shard_test.cc):
///
///   sum over shard_stats of <field> == SeriesExecStats::<field>
///
/// for every field below. A skewed routing shows up here directly: one
/// shard with most of the decrypts_performed is the warm-up bottleneck
/// the shard count K is meant to split (see docs/TUNING.md).
struct ShardExecStats {
  size_t decrypts_performed = 0;   // digests computed by this shard
  size_t pairings_computed = 0;    // of those, cold full Miller loops
  size_t prepared_pairings = 0;    // of those, via a prepared row
  size_t prepared_rows_built = 0;  // prepared rows built for this shard
  size_t prepared_cache_hits = 0;  // this shard's rows served warm
  bool operator==(const ShardExecStats&) const = default;
};

/// Adds one shard's SJ.Dec counters into a shard or series total (the two
/// stats structs share these field names).
template <typename Stats>
void AddShardStats(Stats* into, const ShardExecStats& s) {
  into->decrypts_performed += s.decrypts_performed;
  into->pairings_computed += s.pairings_computed;
  into->prepared_pairings += s.prepared_pairings;
  into->prepared_rows_built += s.prepared_rows_built;
  into->prepared_cache_hits += s.prepared_cache_hits;
}

/// Series-level accounting: how much SJ.Dec work the batch needed and how
/// much the two server-side caches saved. A multi-way chain whose queries
/// share the middle-table token decrypts each shared row once;
/// `digest_cache_hits` counts the decryptions avoided entirely. Of the
/// decryptions that did run, the prepared-row cache distinguishes full
/// pairings (G2 line derivation inline) from prepared ones (line
/// evaluation only, the warm path).
///
/// Invariants, asserted by tests/series_test.cc:
///   decrypts_requested == decrypts_performed + digest_cache_hits
///   decrypts_performed == pairings_computed + prepared_pairings
///   prepared_pairings  == prepared_rows_built + prepared_cache_hits
struct SeriesExecStats {
  size_t queries = 0;
  size_t decrypts_requested = 0;   // (table, token, row) digests needed
  size_t decrypts_performed = 0;   // digests actually computed
  size_t digest_cache_hits = 0;    // requests served from the series cache
  size_t pairings_computed = 0;    // cold SJ.Dec: full Miller loops
  size_t prepared_pairings = 0;    // SJ.Dec through a prepared row
  size_t prepared_rows_built = 0;  // prepared rows built by this call
  size_t prepared_cache_hits = 0;  // decrypts served from a warm prepared row
  /// Sharded and delegated execution only: the effective shard count
  /// (0 on the unsharded path) and the per-shard breakdown, indexed by
  /// shard. The totals above are the merged (summed) view of shard_stats.
  /// Host-local like the timing fields -- not serialized.
  size_t shards = 0;
  std::vector<ShardExecStats> shard_stats;
  /// Adaptive-executor decision trail: how many queries of the batch each
  /// backend served, and how many revealed pairs the fast dispatches
  /// charged against the budget ledger.
  size_t backend_sjoin_queries = 0;
  size_t backend_det_queries = 0;
  size_t backend_onion_queries = 0;
  uint64_t leakage_charged = 0;
  /// Budget ledger snapshot for every table the batch referenced. limit is
  /// LeakageTracker::kUnlimitedBudget when the table has no budget;
  /// remaining is limit - spent, saturated at 0.
  struct TableBudget {
    std::string table;
    uint64_t limit = 0;
    uint64_t spent = 0;
    uint64_t remaining = 0;
    bool operator==(const TableBudget&) const = default;
  };
  std::vector<TableBudget> budgets;
  double prefilter_seconds = 0;
  double decrypt_seconds = 0;      // the one batched SJ.Dec pass
  double match_seconds = 0;
};

/// Server -> client: one result per query of the series, in order.
struct EncryptedSeriesResult {
  std::vector<EncryptedJoinResult> results;
  SeriesExecStats stats;
  /// Generation each referenced table was pinned at for the whole batch
  /// (snapshot isolation: every query of the series read exactly these).
  /// Host-local like the timing fields -- not serialized; the concurrency
  /// harness replays a series against these generations and asserts the
  /// concurrent results bit-identical.
  std::vector<std::pair<std::string, uint64_t>> pinned_generations;
};

}  // namespace sjoin

#endif  // SJOIN_DB_ENCRYPTED_TABLE_H_
