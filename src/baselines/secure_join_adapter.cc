#include "baselines/secure_join_adapter.h"

namespace sjoin {

SecureJoinAdapter::SecureJoinAdapter(const ClientOptions& options)
    : client_(options) {}

Status SecureJoinAdapter::Upload(const Table& a, const std::string& join_a,
                                 const Table& b, const std::string& join_b) {
  auto enc_a = client_.EncryptTable(a, join_a);
  SJOIN_RETURN_IF_ERROR(enc_a.status());
  auto enc_b = client_.EncryptTable(b, join_b);
  SJOIN_RETURN_IF_ERROR(enc_b.status());
  SJOIN_RETURN_IF_ERROR(server_.StoreTable(std::move(*enc_a)));
  return server_.StoreTable(std::move(*enc_b));
}

Result<std::vector<JoinedRowPair>> SecureJoinAdapter::RunQuery(
    const JoinQuerySpec& q) {
  auto enc_a = server_.GetTable(q.table_a);
  SJOIN_RETURN_IF_ERROR(enc_a.status());
  auto enc_b = server_.GetTable(q.table_b);
  SJOIN_RETURN_IF_ERROR(enc_b.status());
  auto tokens = client_.BuildQueryTokens(q, **enc_a, **enc_b);
  SJOIN_RETURN_IF_ERROR(tokens.status());
  auto result = server_.ExecuteJoin(*tokens, {.prepared_cache_bytes = 0});
  SJOIN_RETURN_IF_ERROR(result.status());
  return result->matched_row_indices;
}

size_t SecureJoinAdapter::RevealedPairCount() const {
  return server_.leakage().RevealedPairCount();
}

}  // namespace sjoin
