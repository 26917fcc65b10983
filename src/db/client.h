// The trusted client of the outsourced-database model (Section 2): owns all
// keys, encrypts tables for upload, issues per-query token pairs, and
// decrypts join results.
#ifndef SJOIN_DB_CLIENT_H_
#define SJOIN_DB_CLIENT_H_

#include <string>
#include <vector>

#include "db/encrypted_table.h"
#include "db/query.h"
#include "db/table_store.h"

namespace sjoin {

struct ClientOptions {
  /// m: number of filterable-attribute slots in the SJ vectors. Both joined
  /// tables share the master key, so this must cover the larger table;
  /// narrower tables are zero-padded.
  size_t num_attrs = 4;
  /// t: maximum IN-clause size per attribute.
  size_t max_in_clause = 4;
  /// Ship SSE tags/tokens so the server pre-filters before SJ.Dec.
  bool enable_sse_prefilter = true;
  /// Deterministic seed (examples/benchmarks); use EncryptedClient::
  /// WithSystemEntropy for production randomness.
  uint64_t rng_seed = 0;
  /// Attach a deterministic join tag (16-byte HMAC of the join value) to
  /// every uploaded row. Lets the server's AdaptiveExecutor serve queries
  /// from the `det_join` fast backend -- at DET leakage: the at-rest
  /// equality pattern of the join column is visible to the server the
  /// moment the upload lands. Off by default.
  bool upload_det_encoding = false;
  /// Attach a CryptDB-style onion encoding: the det tag wrapped in a
  /// probabilistic RND layer (fresh nonce per row). Leaks nothing at rest;
  /// the server can join on it only after this client releases the onion
  /// key with a series (AllowBackends including kCryptDbOnion), which
  /// irreversibly exposes the DET pattern of the touched tables.
  bool upload_onion_encoding = false;
};

class EncryptedClient {
 public:
  explicit EncryptedClient(const ClientOptions& options);
  static EncryptedClient WithSystemEntropy(ClientOptions options);

  /// Series execution policy: which server-side backends later Prepare*
  /// batches permit. The mask is a client-side ceiling -- the server
  /// intersects it with its own ServerExecOptions::allowed_backends and
  /// its leakage budgets before dispatching anything -- and kSjoin is
  /// always retained (the executor's fallback must stay legal). Permitting
  /// kCryptDbOnion releases the onion key with each series, which lets
  /// the server strip the RND layer of every table those queries touch:
  /// an irreversible downgrade, priced by the server's budget ledger.
  /// Backends whose encoding this client never uploaded are dispatched
  /// around (CanExecute fails), so a too-wide mask is safe, just useless.
  void AllowBackends(uint32_t mask) {
    allowed_backends_ = mask | BackendBit(BackendKind::kSjoin);
  }
  uint32_t allowed_backends() const { return allowed_backends_; }

  /// SJ.Setup + SJ.Enc of every row; builds SSE tags and AEAD payloads.
  /// Every non-join column becomes a filterable attribute (at most
  /// options.num_attrs of them).
  Result<EncryptedTable> EncryptTable(const Table& table,
                                      const std::string& join_column);

  /// Client-side delta preparation: encrypts `rows` (a plaintext table
  /// whose schema must equal the encrypted table's, column for column)
  /// into a mutation batch appending them to `enc`. The rows go
  /// through the exact SJ.Enc / SSE-tag / AEAD pipeline of EncryptTable
  /// under the same keys, so the server cannot tell an inserted row from
  /// an originally uploaded one -- and every existing token keeps working
  /// against them (tokens are table-level, not row-level). Apply with
  /// EncryptedServer::ApplyMutation; the returned MutationResult carries
  /// the stable ids the server assigned.
  Result<TableMutation> PrepareInsert(const EncryptedTable& enc,
                                      const Table& rows);

  /// Mutation batch deleting `row_ids` (stable ids: 0..n-1 for the
  /// original upload, MutationResult::inserted_ids afterwards) from
  /// `table`. No cryptographic material is involved -- deletion is pure
  /// bookkeeping -- but the batch rides the same mutation message, and the
  /// two halves can be merged (one TableMutation holds both lists;
  /// deletes apply before inserts).
  Result<TableMutation> PrepareDelete(const std::string& table,
                                      std::vector<StableRowId> row_ids);

  /// SJ.TokenGen for both tables with a fresh shared query key, plus SSE
  /// tokens for the IN predicates.
  Result<JoinQueryTokens> BuildQueryTokens(const JoinQuerySpec& query,
                                           const EncryptedTable& enc_a,
                                           const EncryptedTable& enc_b);

  /// Batch token generation for a series of queries (the setting the
  /// paper's amortized analysis covers). Each query gets a fresh query key
  /// k, so queries stay mutually unlinkable beyond what their results
  /// overlap on -- the secure default. `tables` must contain every table a
  /// query references (looked up by name).
  Result<QuerySeriesTokens> PrepareSeries(
      const std::vector<JoinQuerySpec>& queries,
      const std::vector<const EncryptedTable*>& tables);

  /// Multi-way chain T1 JOIN T2 JOIN ... JOIN Tk expressed as k-1 pairwise
  /// queries sharing ONE query key: the token of a table shared by two
  /// adjacent queries (same table, same selection) is literally reused, so
  /// the server's series digest cache decrypts each shared row once
  /// instead of twice. Leakage trade-off: under a shared key, decryption
  /// digests are comparable across ALL of the chain's queries, so the
  /// server learns join-value equality between any two decrypted rows of
  /// the chain -- including pairs (e.g. a T1 row and a T3 row with no
  /// connecting T2 row) that the combined multi-way result would not
  /// link. ExecuteJoinSeries feeds exactly this cross-query observation
  /// to the LeakageTracker. Use PrepareSeries when per-query
  /// unlinkability matters more than the decryption savings.
  Result<QuerySeriesTokens> PrepareChain(
      const std::vector<JoinQuerySpec>& chain,
      const std::vector<const EncryptedTable*>& tables);

  /// Opens an EncryptedJoinResult into the paper's result schema
  /// (Theta, A.<attrs...>, B.<attrs...>).
  Result<Table> DecryptJoinResult(const EncryptedJoinResult& result,
                                  const EncryptedTable& enc_a,
                                  const EncryptedTable& enc_b);

  const SecureJoin::MasterKey& master_key() const { return msk_; }
  const ClientOptions& options() const { return options_; }
  Rng* rng() { return &rng_; }

  /// Value embeddings into Z_q (exposed for tests; the join embedding is
  /// shared across tables, the attribute embedding is domain-separated per
  /// column name).
  Fr EmbedJoinValue(const Value& v) const;
  Fr EmbedAttrValue(const std::string& column, const Value& v) const;

 private:
  /// SJ.Enc + SSE tags + AEAD payload for row `r` of `table`, tagged for
  /// `table_name` (the server-side name: EncryptTable and PrepareInsert
  /// both route here, so inserted rows are indistinguishable from
  /// originally uploaded ones).
  EncryptedRow EncryptRowFor(const std::string& table_name,
                             const Table& table, size_t r, size_t join_idx);
  /// Predicate roots + SSE token groups for one side of one query.
  Status BuildSide(const TableSelection& sel, const EncryptedTable& enc,
                   SjPredicates* preds, std::vector<SseTokenGroup>* sse);
  /// Shared validation of a spec against the encrypted tables it names.
  Status CheckSpec(const JoinQuerySpec& query, const EncryptedTable& enc_a,
                   const EncryptedTable& enc_b) const;

  /// Deterministic join tag of a join value under det_join_key_ (shared
  /// across this client's tables: equal values must collide table-wide,
  /// the DET semantic both fast backends join on).
  DetTag DetJoinTag(const Value& v) const;
  /// Stamps the backend policy mask (and, when permitted, the onion key)
  /// onto a prepared series.
  void StampBackendPolicy(QuerySeriesTokens* out) const;

  ClientOptions options_;
  Rng rng_;
  SecureJoin::MasterKey msk_;
  AeadKey payload_key_;
  SseKey sse_key_;
  /// Fast-backend key material, derived only when an encoding upload is
  /// requested, after every other key -- a default-configured client
  /// draws no randomness for it.
  std::array<uint8_t, 32> det_join_key_{};
  std::array<uint8_t, 32> onion_key_{};
  bool backend_keys_derived_ = false;
  uint32_t allowed_backends_ = kBackendMaskSjoinOnly;
};

}  // namespace sjoin

#endif  // SJOIN_DB_CLIENT_H_
