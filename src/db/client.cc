#include "db/client.h"

#include <algorithm>
#include <map>
#include <utility>

#include "crypto/chacha20.h"
#include "crypto/sha256.h"

namespace sjoin {
namespace {

std::array<uint8_t, 32> DeriveSubKey(Rng* rng) {
  std::array<uint8_t, 32> k;
  rng->Fill(k.data(), k.size());
  return k;
}

}  // namespace

EncryptedClient::EncryptedClient(const ClientOptions& options)
    : options_(options),
      rng_(options.rng_seed),
      msk_(SecureJoin::Setup(
          {.num_attrs = options.num_attrs,
           .max_in_clause = options.max_in_clause},
          &rng_)),
      payload_key_(DeriveSubKey(&rng_)),
      sse_key_(DeriveSubKey(&rng_)) {
  // Fast-backend keys are drawn only on request, AFTER every key a
  // default client derives: a default client draws no randomness for
  // them, and a seed yields the same master, payload and SSE keys either
  // way.
  if (options.upload_det_encoding || options.upload_onion_encoding) {
    det_join_key_ = DeriveSubKey(&rng_);
    onion_key_ = DeriveSubKey(&rng_);
    backend_keys_derived_ = true;
  }
}

EncryptedClient EncryptedClient::WithSystemEntropy(ClientOptions options) {
  Rng sys = Rng::FromSystemEntropy();
  options.rng_seed = sys.NextUint64();
  return EncryptedClient(options);
}

DetTag EncryptedClient::DetJoinTag(const Value& v) const {
  Bytes msg = v.ToBytes();
  Digest32 mac =
      HmacSha256(det_join_key_.data(), det_join_key_.size(), msg.data(),
                 msg.size());
  DetTag tag;
  std::copy(mac.begin(), mac.begin() + tag.size(), tag.begin());
  return tag;
}

Fr EncryptedClient::EmbedJoinValue(const Value& v) const {
  // Shared across tables: equal join values must collide.
  return HashToFr("sjoin/join-value", v.ToBytes());
}

Fr EncryptedClient::EmbedAttrValue(const std::string& column,
                                   const Value& v) const {
  return HashToFr("sjoin/attr:" + column, v.ToBytes());
}

Result<EncryptedTable> EncryptedClient::EncryptTable(
    const Table& table, const std::string& join_column) {
  auto join_idx_r = table.schema().ColumnIndex(join_column);
  SJOIN_RETURN_IF_ERROR(join_idx_r.status());
  size_t join_idx = *join_idx_r;

  EncryptedTable out;
  out.name = table.name();
  out.schema = table.schema();
  out.join_column = join_column;
  for (size_t c = 0; c < table.schema().NumColumns(); ++c) {
    if (c == join_idx) continue;
    out.attr_columns.push_back(table.schema().column(c).name);
  }
  if (out.attr_columns.size() > options_.num_attrs) {
    return Status::InvalidArgument(
        "table has " + std::to_string(out.attr_columns.size()) +
        " filterable columns but the client was configured with num_attrs=" +
        std::to_string(options_.num_attrs));
  }

  out.rows.reserve(table.NumRows());
  for (size_t r = 0; r < table.NumRows(); ++r) {
    out.rows.push_back(EncryptRowFor(table.name(), table, r, join_idx));
  }
  return out;
}

EncryptedRow EncryptedClient::EncryptRowFor(const std::string& table_name,
                                            const Table& table, size_t r,
                                            size_t join_idx) {
  EncryptedRow row;
  // SJ vector inputs: hashed join value + embedded attributes, padded to m.
  Fr join_hash = EmbedJoinValue(table.At(r, join_idx));
  std::vector<Fr> attrs(options_.num_attrs);
  row.sse.salt = SseKey::RandomSalt(&rng_);
  size_t a = 0;
  for (size_t c = 0; c < table.schema().NumColumns(); ++c) {
    if (c == join_idx) continue;
    const std::string& col_name = table.schema().column(c).name;
    attrs[a] = EmbedAttrValue(col_name, table.At(r, c));
    row.sse.tags.push_back(sse_key_.TagFor(table_name, col_name,
                                           table.At(r, c), row.sse.salt));
    ++a;
  }
  row.sj = SecureJoin::EncryptRow(msk_, join_hash, attrs, &rng_);
  // Payload: the full row, AEAD-protected.
  Bytes payload;
  for (size_t c = 0; c < table.schema().NumColumns(); ++c) {
    table.At(r, c).SerializeTo(&payload);
  }
  row.payload = payload_key_.Encrypt(payload, &rng_);
  // Optional fast-backend encodings, appended after every
  // pre-existing draw so the SJ/SSE/AEAD material above is byte-identical
  // whether or not encodings ride along. The onion wraps the SAME det tag
  // -- stripping its RND layer must land on the DET pattern the det
  // backend joins on.
  if (options_.upload_det_encoding || options_.upload_onion_encoding) {
    DetTag tag = DetJoinTag(table.At(r, join_idx));
    if (options_.upload_det_encoding) {
      row.enc.has_det = true;
      row.enc.det_tag = tag;
    }
    if (options_.upload_onion_encoding) {
      row.enc.has_onion = true;
      rng_.Fill(row.enc.onion_nonce.data(), row.enc.onion_nonce.size());
      row.enc.onion_wrapped = tag;
      ChaCha20Xor(onion_key_.data(), 0, row.enc.onion_nonce.data(),
                  row.enc.onion_wrapped.data(), row.enc.onion_wrapped.size());
    }
  }
  return row;
}

Result<TableMutation> EncryptedClient::PrepareInsert(const EncryptedTable& enc,
                                                     const Table& rows) {
  if (rows.NumRows() == 0) {
    return Status::InvalidArgument("insert batch for '" + enc.name +
                                   "' is empty");
  }
  // The batch must carry the encrypted table's exact schema: the SJ/SSE
  // encodings are column-name-sensitive, so a silent mismatch would
  // produce rows that never match any token.
  if (rows.schema().NumColumns() != enc.schema.NumColumns()) {
    return Status::InvalidArgument(
        "insert batch for '" + enc.name + "' has " +
        std::to_string(rows.schema().NumColumns()) + " columns, table has " +
        std::to_string(enc.schema.NumColumns()));
  }
  for (size_t c = 0; c < enc.schema.NumColumns(); ++c) {
    if (rows.schema().column(c).name != enc.schema.column(c).name ||
        rows.schema().column(c).kind != enc.schema.column(c).kind) {
      return Status::InvalidArgument(
          "insert batch for '" + enc.name + "' disagrees on column " +
          std::to_string(c) + " ('" + rows.schema().column(c).name +
          "' vs '" + enc.schema.column(c).name + "')");
    }
  }
  auto join_idx = enc.schema.ColumnIndex(enc.join_column);
  SJOIN_RETURN_IF_ERROR(join_idx.status());

  TableMutation m;
  m.table = enc.name;
  m.inserts.reserve(rows.NumRows());
  for (size_t r = 0; r < rows.NumRows(); ++r) {
    m.inserts.push_back(EncryptRowFor(enc.name, rows, r, *join_idx));
  }
  return m;
}

Result<TableMutation> EncryptedClient::PrepareDelete(
    const std::string& table, std::vector<StableRowId> row_ids) {
  if (row_ids.empty()) {
    return Status::InvalidArgument("delete batch for '" + table +
                                   "' is empty");
  }
  TableMutation m;
  m.table = table;
  m.deletes = std::move(row_ids);
  return m;
}

Status EncryptedClient::BuildSide(const TableSelection& sel,
                                  const EncryptedTable& enc,
                                  SjPredicates* preds,
                                  std::vector<SseTokenGroup>* sse) {
  preds->assign(options_.num_attrs, {});
  for (const InPredicate& p : sel.predicates) {
    if (p.values.empty()) {
      return Status::InvalidArgument("empty IN list on '" + p.column + "'");
    }
    if (p.values.size() > options_.max_in_clause) {
      return Status::InvalidArgument(
          "IN list on '" + p.column + "' exceeds max_in_clause=" +
          std::to_string(options_.max_in_clause));
    }
    auto it = std::find(enc.attr_columns.begin(), enc.attr_columns.end(),
                        p.column);
    if (it == enc.attr_columns.end()) {
      return Status::NotFound("'" + p.column +
                              "' is not a filterable column of " + enc.name);
    }
    size_t attr_idx = static_cast<size_t>(it - enc.attr_columns.begin());
    SjPredicates::value_type roots;
    SseTokenGroup group;
    group.column_index = attr_idx;
    for (const Value& v : p.values) {
      roots.push_back(EmbedAttrValue(p.column, v));
      group.tokens.push_back(sse_key_.TokenFor(enc.name, p.column, v));
    }
    (*preds)[attr_idx] = std::move(roots);
    sse->push_back(std::move(group));
  }
  return Status::OK();
}

Status EncryptedClient::CheckSpec(const JoinQuerySpec& query,
                                  const EncryptedTable& enc_a,
                                  const EncryptedTable& enc_b) const {
  if (query.table_a != enc_a.name || query.table_b != enc_b.name) {
    return Status::InvalidArgument("query/table name mismatch");
  }
  if (query.join_column_a != enc_a.join_column ||
      query.join_column_b != enc_b.join_column) {
    return Status::InvalidArgument(
        "query join columns do not match the columns the tables were "
        "encrypted under");
  }
  return Status::OK();
}

Result<JoinQueryTokens> EncryptedClient::BuildQueryTokens(
    const JoinQuerySpec& query, const EncryptedTable& enc_a,
    const EncryptedTable& enc_b) {
  SJOIN_RETURN_IF_ERROR(CheckSpec(query, enc_a, enc_b));

  JoinQueryTokens out;
  out.table_a = enc_a.name;
  out.table_b = enc_b.name;
  out.use_sse_prefilter = options_.enable_sse_prefilter;
  SjPredicates preds_a, preds_b;
  SJOIN_RETURN_IF_ERROR(
      BuildSide(query.selection_a, enc_a, &preds_a, &out.sse_a));
  SJOIN_RETURN_IF_ERROR(
      BuildSide(query.selection_b, enc_b, &preds_b, &out.sse_b));
  auto [ta, tb] = SecureJoin::GenTokenPair(msk_, preds_a, preds_b, &rng_);
  out.token_a = std::move(ta);
  out.token_b = std::move(tb);
  return out;
}

namespace {

Result<const EncryptedTable*> FindTable(
    const std::vector<const EncryptedTable*>& tables,
    const std::string& name) {
  for (const EncryptedTable* t : tables) {
    if (t != nullptr && t->name == name) return t;
  }
  return Status::NotFound("series references table '" + name +
                          "' not in the provided table set");
}

/// Canonical encoding of one side's selection; two chain queries may share
/// a table's token only when they select it identically (the token embeds
/// the predicate polynomials). Every chunk is length-prefixed: value bytes
/// are arbitrary, so in-band separators would make the key ambiguous.
std::string SelectionKey(const TableSelection& sel) {
  std::string key;
  auto append_chunk = [&key](const uint8_t* data, size_t len) {
    for (int i = 0; i < 4; ++i) {
      key.push_back(static_cast<char>(len >> (8 * i)));
    }
    key.append(reinterpret_cast<const char*>(data), len);
  };
  for (const InPredicate& p : sel.predicates) {
    append_chunk(reinterpret_cast<const uint8_t*>(p.column.data()),
                 p.column.size());
    for (const Value& v : p.values) {
      Bytes b = v.ToBytes();
      append_chunk(b.data(), b.size());
    }
    key.push_back('\1');  // predicate terminator (chunk lengths skip it)
  }
  return key;
}

}  // namespace

void EncryptedClient::StampBackendPolicy(QuerySeriesTokens* out) const {
  out->allowed_backends = allowed_backends_;
  // The onion key rides along only when the policy actually permits the
  // onion backend AND this client derived one -- releasing it is the
  // irreversible CryptDB downgrade, never done implicitly.
  if ((allowed_backends_ & BackendBit(BackendKind::kCryptDbOnion)) != 0 &&
      backend_keys_derived_) {
    out->has_onion_key = true;
    out->onion_key = onion_key_;
  }
}

Result<QuerySeriesTokens> EncryptedClient::PrepareSeries(
    const std::vector<JoinQuerySpec>& queries,
    const std::vector<const EncryptedTable*>& tables) {
  QuerySeriesTokens out;
  StampBackendPolicy(&out);
  out.queries.reserve(queries.size());
  for (const JoinQuerySpec& spec : queries) {
    auto enc_a = FindTable(tables, spec.table_a);
    SJOIN_RETURN_IF_ERROR(enc_a.status());
    auto enc_b = FindTable(tables, spec.table_b);
    SJOIN_RETURN_IF_ERROR(enc_b.status());
    auto tokens = BuildQueryTokens(spec, **enc_a, **enc_b);
    SJOIN_RETURN_IF_ERROR(tokens.status());
    out.queries.push_back(std::move(*tokens));
  }
  return out;
}

Result<QuerySeriesTokens> EncryptedClient::PrepareChain(
    const std::vector<JoinQuerySpec>& chain,
    const std::vector<const EncryptedTable*>& tables) {
  if (chain.empty()) {
    return Status::InvalidArgument("empty chain");
  }
  // One query key for the whole chain; tokens are cached per
  // (table, selection) so a table shared by adjacent queries reuses its
  // token verbatim.
  Fr k = rng_.NextFrNonZero();
  std::map<std::pair<std::string, std::string>, SjToken> token_cache;
  auto side_token = [&](const TableSelection& sel, const EncryptedTable& enc,
                        std::vector<SseTokenGroup>* sse,
                        SjToken* token) -> Status {
    SjPredicates preds;
    SJOIN_RETURN_IF_ERROR(BuildSide(sel, enc, &preds, sse));
    auto key = std::make_pair(enc.name, SelectionKey(sel));
    auto it = token_cache.find(key);
    if (it == token_cache.end()) {
      it = token_cache.emplace(key, SecureJoin::GenToken(msk_, preds, k, &rng_))
               .first;
    }
    *token = it->second;
    return Status::OK();
  };

  QuerySeriesTokens out;
  StampBackendPolicy(&out);
  out.queries.reserve(chain.size());
  for (const JoinQuerySpec& spec : chain) {
    auto enc_a = FindTable(tables, spec.table_a);
    SJOIN_RETURN_IF_ERROR(enc_a.status());
    auto enc_b = FindTable(tables, spec.table_b);
    SJOIN_RETURN_IF_ERROR(enc_b.status());
    SJOIN_RETURN_IF_ERROR(CheckSpec(spec, **enc_a, **enc_b));
    JoinQueryTokens q;
    q.table_a = spec.table_a;
    q.table_b = spec.table_b;
    q.use_sse_prefilter = options_.enable_sse_prefilter;
    SJOIN_RETURN_IF_ERROR(
        side_token(spec.selection_a, **enc_a, &q.sse_a, &q.token_a));
    SJOIN_RETURN_IF_ERROR(
        side_token(spec.selection_b, **enc_b, &q.sse_b, &q.token_b));
    out.queries.push_back(std::move(q));
  }
  return out;
}

Result<Table> EncryptedClient::DecryptJoinResult(
    const EncryptedJoinResult& result, const EncryptedTable& enc_a,
    const EncryptedTable& enc_b) {
  // Result schema per the paper: (Theta, A..., B...) where Theta carries the
  // matched join value and the A/B parts are the non-join attributes.
  auto join_idx_a = enc_a.schema.ColumnIndex(enc_a.join_column);
  auto join_idx_b = enc_b.schema.ColumnIndex(enc_b.join_column);
  SJOIN_RETURN_IF_ERROR(join_idx_a.status());
  SJOIN_RETURN_IF_ERROR(join_idx_b.status());

  std::vector<Column> cols;
  cols.push_back(Column{
      "theta", enc_a.schema.column(*join_idx_a).kind});
  for (size_t c = 0; c < enc_a.schema.NumColumns(); ++c) {
    if (c == *join_idx_a) continue;
    cols.push_back(Column{enc_a.name + "." + enc_a.schema.column(c).name,
                          enc_a.schema.column(c).kind});
  }
  for (size_t c = 0; c < enc_b.schema.NumColumns(); ++c) {
    if (c == *join_idx_b) continue;
    cols.push_back(Column{enc_b.name + "." + enc_b.schema.column(c).name,
                          enc_b.schema.column(c).kind});
  }
  Table joined("join_result", Schema(cols));

  auto parse_row = [](const Bytes& payload,
                      size_t num_cols) -> Result<std::vector<Value>> {
    std::vector<Value> row;
    size_t pos = 0;
    for (size_t c = 0; c < num_cols; ++c) {
      auto v = Value::DeserializeFrom(payload, &pos);
      SJOIN_RETURN_IF_ERROR(v.status());
      row.push_back(std::move(*v));
    }
    if (pos != payload.size()) {
      return Status::InvalidArgument("trailing bytes in row payload");
    }
    return row;
  };

  for (const auto& [ct_a, ct_b] : result.row_pairs) {
    auto pa = payload_key_.Decrypt(ct_a);
    SJOIN_RETURN_IF_ERROR(pa.status());
    auto pb = payload_key_.Decrypt(ct_b);
    SJOIN_RETURN_IF_ERROR(pb.status());
    auto row_a = parse_row(*pa, enc_a.schema.NumColumns());
    SJOIN_RETURN_IF_ERROR(row_a.status());
    auto row_b = parse_row(*pb, enc_b.schema.NumColumns());
    SJOIN_RETURN_IF_ERROR(row_b.status());

    std::vector<Value> out_row;
    out_row.push_back((*row_a)[*join_idx_a]);  // Theta
    for (size_t c = 0; c < row_a->size(); ++c) {
      if (c != *join_idx_a) out_row.push_back((*row_a)[c]);
    }
    for (size_t c = 0; c < row_b->size(); ++c) {
      if (c != *join_idx_b) out_row.push_back((*row_b)[c]);
    }
    SJOIN_RETURN_IF_ERROR(joined.AppendRow(std::move(out_row)));
  }
  return joined;
}

}  // namespace sjoin
