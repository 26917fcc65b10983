// Sharded routing and parallel cross-shard series execution: row routing
// must be deterministic, ExecuteJoinSeriesSharded must produce results
// bit-identical to the unsharded engine at every shard count and share its
// warm prepared rows, and per-shard stats must sum to the series totals.
// Also pins the one wire version every decoder accepts. Runs standalone
// via: ctest -L shard
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "db/client.h"
#include "db/server.h"
#include "db/sharded_table.h"
#include "db/wire.h"

namespace sjoin {
namespace {

// --- ShardedTable routing ------------------------------------------------------

Table MakeOrders(size_t rows) {
  Table t("Orders", Schema({{"customer", ValueKind::kInt64},
                            {"item", ValueKind::kString}}));
  for (size_t i = 0; i < rows; ++i) {
    SJOIN_CHECK(t.AppendRow({static_cast<int64_t>(i % 5),
                             "item#" + std::to_string(i)}).ok());
  }
  return t;
}

Table MakeCustomers(size_t rows) {
  Table t("Customers", Schema({{"customer", ValueKind::kInt64},
                               {"name", ValueKind::kString}}));
  for (size_t i = 0; i < rows; ++i) {
    SJOIN_CHECK(t.AppendRow({static_cast<int64_t>(i),
                             "cust#" + std::to_string(i)}).ok());
  }
  return t;
}

TEST(ShardedTableTest, ClampShardCount) {
  EXPECT_EQ(ShardedTable::ClampShardCount(0, 8), 0u);   // empty: no shards
  EXPECT_EQ(ShardedTable::ClampShardCount(10, 0), 1u);  // 0 means 1
  EXPECT_EQ(ShardedTable::ClampShardCount(10, 4), 4u);
  EXPECT_EQ(ShardedTable::ClampShardCount(3, 8), 3u);   // never beyond rows
  EXPECT_EQ(ShardedTable::ClampShardCount(3, 3), 3u);
  // An absurd request hits the ceiling instead of allocating millions of
  // partitions.
  EXPECT_EQ(ShardedTable::ClampShardCount(size_t{1} << 20, size_t{1} << 30),
            ShardedTable::kMaxShards);
}

TEST(ShardedTableTest, PartitionIsDeterministic) {
  EncryptedClient client({.num_attrs = 1, .max_in_clause = 1,
                          .rng_seed = 1101});
  auto enc = client.EncryptTable(MakeOrders(17), "customer");
  ASSERT_TRUE(enc.ok());
  // The digest depends only on the SJ ciphertext, so another process
  // recomputing it from the wire bytes routes every row the same way.
  auto copy = DeserializeEncryptedTable(SerializeEncryptedTable(*enc));
  ASSERT_TRUE(copy.ok()) << copy.status().ToString();
  std::set<size_t> used;
  for (size_t r = 0; r < enc->rows.size(); ++r) {
    size_t s = ShardedTable::ShardOfDigest(
        ShardedTable::RowDigest(enc->rows[r]), 3);
    EXPECT_EQ(s, ShardedTable::ShardOfDigest(
                     ShardedTable::RowDigest(copy->rows[r]), 3));
    EXPECT_LT(s, 3u);
    used.insert(s);
  }
  EXPECT_GT(used.size(), 1u) << "17 rows all routed to one shard";
}

// --- Sharded series execution --------------------------------------------------

/// Byte-level equality of two join results: same matched indices and the
/// same AEAD payload pairs, bit for bit. This is the merge-correctness
/// guarantee -- the client decrypts identical bytes either way.
void ExpectBitIdentical(const EncryptedJoinResult& x,
                        const EncryptedJoinResult& y) {
  EXPECT_EQ(x.matched_row_indices, y.matched_row_indices);
  ASSERT_EQ(x.row_pairs.size(), y.row_pairs.size());
  for (size_t i = 0; i < x.row_pairs.size(); ++i) {
    EXPECT_EQ(x.row_pairs[i].first.nonce, y.row_pairs[i].first.nonce);
    EXPECT_EQ(x.row_pairs[i].first.body, y.row_pairs[i].first.body);
    EXPECT_EQ(x.row_pairs[i].first.tag, y.row_pairs[i].first.tag);
    EXPECT_EQ(x.row_pairs[i].second.nonce, y.row_pairs[i].second.nonce);
    EXPECT_EQ(x.row_pairs[i].second.body, y.row_pairs[i].second.body);
    EXPECT_EQ(x.row_pairs[i].second.tag, y.row_pairs[i].second.tag);
  }
}

class ShardSeriesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    client_ = std::make_unique<EncryptedClient>(ClientOptions{
        .num_attrs = 2, .max_in_clause = 2, .rng_seed = 1103});
    auto enc_c = client_->EncryptTable(MakeCustomers(5), "customer");
    auto enc_o = client_->EncryptTable(MakeOrders(11), "customer");
    ASSERT_TRUE(enc_c.ok() && enc_o.ok());
    enc_customers_ = std::move(*enc_c);
    enc_orders_ = std::move(*enc_o);
    ASSERT_TRUE(sharded_server_.StoreTable(enc_customers_).ok());
    ASSERT_TRUE(sharded_server_.StoreTable(enc_orders_).ok());
    ASSERT_TRUE(plain_server_.StoreTable(enc_customers_).ok());
    ASSERT_TRUE(plain_server_.StoreTable(enc_orders_).ok());
  }

  JoinQuerySpec Spec() const {
    JoinQuerySpec q;
    q.table_a = "Customers";
    q.table_b = "Orders";
    q.join_column_a = q.join_column_b = "customer";
    return q;
  }

  std::vector<const EncryptedTable*> Tables() const {
    return {&enc_customers_, &enc_orders_};
  }

  std::unique_ptr<EncryptedClient> client_;
  EncryptedServer sharded_server_;
  EncryptedServer plain_server_;
  EncryptedTable enc_customers_, enc_orders_;
};

TEST_F(ShardSeriesTest, BitIdenticalToUnshardedAcrossShardCounts) {
  JoinQuerySpec all = Spec();
  JoinQuerySpec one = Spec();
  one.selection_a.predicates = {{"name", {Value("cust#2")}}};
  auto series = client_->PrepareSeries({all, one, all}, Tables());
  ASSERT_TRUE(series.ok()) << series.status().ToString();

  auto plain = plain_server_.ExecuteJoinSeries(*series);
  ASSERT_TRUE(plain.ok());

  for (int k : {1, 2, 3, 8}) {
    auto sharded = sharded_server_.ExecuteJoinSeriesSharded(
        *series, {.num_shards = k});
    ASSERT_TRUE(sharded.ok()) << "K=" << k;
    ASSERT_EQ(sharded->results.size(), plain->results.size());
    for (size_t q = 0; q < plain->results.size(); ++q) {
      ExpectBitIdentical(sharded->results[q], plain->results[q]);
    }
    // And the client can open the sharded results.
    auto opened = client_->DecryptJoinResult(sharded->results[0],
                                             enc_customers_, enc_orders_);
    ASSERT_TRUE(opened.ok());
  }
}

TEST_F(ShardSeriesTest, PerShardStatsSumToSeriesTotals) {
  auto series = client_->PrepareSeries({Spec(), Spec()}, Tables());
  ASSERT_TRUE(series.ok());
  auto r = sharded_server_.ExecuteJoinSeriesSharded(*series,
                                                    {.num_shards = 4});
  ASSERT_TRUE(r.ok());
  const SeriesExecStats& s = r->stats;
  EXPECT_EQ(s.shards, 4u);
  ASSERT_EQ(s.shard_stats.size(), s.shards);
  ShardExecStats sum;
  for (const ShardExecStats& shard : s.shard_stats) {
    sum.decrypts_performed += shard.decrypts_performed;
    sum.pairings_computed += shard.pairings_computed;
    sum.prepared_pairings += shard.prepared_pairings;
    sum.prepared_rows_built += shard.prepared_rows_built;
    sum.prepared_cache_hits += shard.prepared_cache_hits;
    EXPECT_EQ(shard.prepared_pairings,
              shard.prepared_rows_built + shard.prepared_cache_hits);
  }
  EXPECT_EQ(sum.decrypts_performed, s.decrypts_performed);
  EXPECT_EQ(sum.pairings_computed, s.pairings_computed);
  EXPECT_EQ(sum.prepared_pairings, s.prepared_pairings);
  EXPECT_EQ(sum.prepared_rows_built, s.prepared_rows_built);
  EXPECT_EQ(sum.prepared_cache_hits, s.prepared_cache_hits);
  // The usual series invariants hold on the sharded path too.
  EXPECT_EQ(s.decrypts_requested, s.decrypts_performed + s.digest_cache_hits);
  EXPECT_EQ(s.decrypts_performed, s.pairings_computed + s.prepared_pairings);
}

TEST_F(ShardSeriesTest, WarmupIsPerPartitionAndSurvivesAcrossSeries) {
  auto first = client_->PrepareSeries({Spec()}, Tables());
  auto second = client_->PrepareSeries({Spec()}, Tables());
  ASSERT_TRUE(first.ok() && second.ok());

  auto cold = sharded_server_.ExecuteJoinSeriesSharded(*first,
                                                       {.num_shards = 2});
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->stats.prepared_rows_built, cold->stats.decrypts_performed);
  EXPECT_EQ(cold->stats.prepared_cache_hits, 0u);
  // Every touched row, whichever shard it was routed to, landed in the
  // server's one prepared-row cache.
  EXPECT_EQ(sharded_server_.prepared_cache().stats().entries,
            cold->stats.decrypts_performed);

  // Fresh tokens, same K: every decrypt is served warm.
  auto warm = sharded_server_.ExecuteJoinSeriesSharded(*second,
                                                       {.num_shards = 2});
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->stats.prepared_rows_built, 0u);
  EXPECT_EQ(warm->stats.prepared_cache_hits, warm->stats.decrypts_performed);
  EXPECT_EQ(warm->stats.pairings_computed, 0u);
  EXPECT_EQ(sharded_server_.prepared_cache().stats().entries,
            cold->stats.decrypts_performed);
}

// Where a row is routed never changes its prepared form, so rows warmed by
// the unsharded path serve the sharded path, at any K.
TEST_F(ShardSeriesTest, ShardedPathSharesWarmRowsWithUnshardedPath) {
  auto unsharded = client_->PrepareSeries({Spec()}, Tables());
  ASSERT_TRUE(unsharded.ok());
  auto cold = sharded_server_.ExecuteJoinSeries(*unsharded);
  ASSERT_TRUE(cold.ok());
  ASSERT_EQ(cold->stats.prepared_rows_built, cold->stats.decrypts_performed);

  for (int k : {3, 5}) {
    SCOPED_TRACE("K=" + std::to_string(k));
    auto fresh = client_->PrepareSeries({Spec()}, Tables());
    ASSERT_TRUE(fresh.ok());
    auto r = sharded_server_.ExecuteJoinSeriesSharded(*fresh,
                                                      {.num_shards = k});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->stats.shards, static_cast<size_t>(k));
    EXPECT_EQ(r->stats.decrypts_performed, cold->stats.decrypts_performed);
    EXPECT_EQ(r->stats.prepared_rows_built, 0u);
    EXPECT_EQ(r->stats.prepared_cache_hits, r->stats.decrypts_performed);
    EXPECT_EQ(r->stats.pairings_computed, 0u);
  }
}

TEST_F(ShardSeriesTest, ShardedChainStillDeduplicatesSharedTokens) {
  // A shared-key chain replayed twice: the digest cache must dedupe on the
  // sharded path exactly as on the unsharded one.
  auto chain = client_->PrepareChain({Spec()}, Tables());
  ASSERT_TRUE(chain.ok());
  chain->queries.push_back(chain->queries[0]);
  auto r = sharded_server_.ExecuteJoinSeriesSharded(*chain, {.num_shards = 3});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.decrypts_requested, 32u);   // (5 + 11) x 2
  EXPECT_EQ(r->stats.decrypts_performed, 16u);   // replay fully deduped
  EXPECT_EQ(r->stats.digest_cache_hits, 16u);
  ExpectBitIdentical(r->results[0], r->results[1]);
}

TEST_F(ShardSeriesTest, DelegateCountersMustAgreeWithItsBitmap) {
  // A delegate's counters come off the network. One that claims pairings
  // for rows its own bitmap marks absent would break the SeriesExecStats
  // identities, so the series fails with Internal -- and the server keeps
  // serving the next series.
  auto series = client_->PrepareSeries({Spec()}, Tables());
  ASSERT_TRUE(series.ok());
  auto none_held = [](const ShardDecryptRequest& req,
                      size_t claimed_pairings) {
    ShardDecryptResponse resp;
    resp.have.assign(req.rows.size(), 0);
    resp.stats.pairings_computed = claimed_pairings;
    return Result<ShardDecryptResponse>(std::move(resp));
  };
  auto two_groups = [](const EncryptedRow& row) {
    return ShardedTable::ShardOfDigest(ShardedTable::RowDigest(row), 2);
  };
  auto lying = sharded_server_.ExecuteJoinSeriesDelegated(
      *series, {}, 2, two_groups,
      [&](const ShardDecryptRequest& req) { return none_held(req, 5); });
  ASSERT_FALSE(lying.ok());
  EXPECT_EQ(lying.status().code(), StatusCode::kInternal);

  // An honest all-zero answer (every replica down): local fallback.
  auto honest = sharded_server_.ExecuteJoinSeriesDelegated(
      *series, {}, 2, two_groups,
      [&](const ShardDecryptRequest& req) { return none_held(req, 0); });
  ASSERT_TRUE(honest.ok()) << honest.status().ToString();
  auto plain = plain_server_.ExecuteJoinSeries(*series);
  ASSERT_TRUE(plain.ok());
  ExpectBitIdentical(honest->results[0], plain->results[0]);
  EXPECT_EQ(honest->stats.decrypts_performed,
            honest->stats.pairings_computed + honest->stats.prepared_pairings);
}

// --- Wire version --------------------------------------------------------------

/// Round-trips `msg` through its codec, then re-stamps byte 0 with every
/// version but the current one: each must be refused before a field is
/// read, with an InvalidArgument naming the stamp. The current stamp, put
/// back, decodes again.
template <typename Msg, typename Ser, typename De>
void ExpectOnlyCurrentVersionDecodes(const Msg& msg, Ser serialize,
                                     De deserialize, const char* what) {
  SCOPED_TRACE(what);
  Bytes wire = serialize(msg);
  ASSERT_EQ(wire[0], 8) << "current wire version";
  for (int version : {0, 1, 2, 6, 7, 9, 255}) {
    wire[0] = static_cast<uint8_t>(version);
    auto back = deserialize(wire);
    ASSERT_FALSE(back.ok()) << "version " << version << " decoded";
    EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(back.status().message().find("wire version " +
                                           std::to_string(version)),
              std::string::npos)
        << back.status().ToString();
  }
  wire[0] = 8;
  auto back = deserialize(wire);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(serialize(*back), wire);
}

TEST(ShardWireTest, VersionsOutsideTheWindowRejectedWithVersionedError) {
  // The window is one version wide: every one of the 13 decoders accepts
  // v8 and nothing else. Payloads are small but non-empty, so a decoder
  // that skipped the check would have fields to misread.
  EncryptedClient client({.num_attrs = 1, .max_in_clause = 1,
                          .rng_seed = 1109});
  auto enc = client.EncryptTable(MakeCustomers(2), "customer");
  ASSERT_TRUE(enc.ok());
  JoinQuerySpec spec;
  spec.table_a = spec.table_b = "Customers";
  spec.join_column_a = spec.join_column_b = "customer";
  auto series = client.PrepareSeries({spec}, {&*enc});
  ASSERT_TRUE(series.ok());
  const JoinQueryTokens& query = series->queries[0];

  EncryptedJoinResult result;
  result.row_pairs.emplace_back(enc->rows[0].payload, enc->rows[1].payload);
  result.matched_row_indices = {{0, 1}};
  result.stats.result_pairs = 1;
  EncryptedSeriesResult series_result;
  series_result.results = {result};
  series_result.stats.queries = 1;
  series_result.stats.budgets = {{"Customers", 10, 2, 8}};
  TableMutation mutation;
  mutation.table = "Customers";
  mutation.deletes = {1};
  mutation.inserts = {enc->rows[0]};
  MutationResult mutation_result{.generation = 3, .inserted_ids = {7}};
  ShardAssignment assign;
  assign.table = "Customers";
  assign.shard = 1;
  assign.row_ids = {0};
  assign.rows = {enc->rows[0]};
  ShardAck ack{.generation = 2, .rows_held = 1};
  ShardDecryptRequest decrypt_req;
  decrypt_req.table = "Customers";
  decrypt_req.token = query.token_a;
  decrypt_req.rows = {0, 1};
  ShardDecryptResponse decrypt_resp;
  decrypt_resp.have = {1, 0};
  decrypt_resp.digests.resize(1);
  decrypt_resp.stats.decrypts_performed = 1;
  ShardMutation shard_mutation;
  shard_mutation.table = "Customers";
  shard_mutation.deletes = {1};
  shard_mutation.insert_ids = {2};
  shard_mutation.insert_shards = {0};
  shard_mutation.inserts = {enc->rows[1]};
  WorkerHealthInfo health{.tables = 1, .rows_held = 2};

  ExpectOnlyCurrentVersionDecodes(*enc, SerializeEncryptedTable,
                                  DeserializeEncryptedTable, "table");
  ExpectOnlyCurrentVersionDecodes(query, SerializeJoinQueryTokens,
                                  DeserializeJoinQueryTokens, "query");
  ExpectOnlyCurrentVersionDecodes(result, SerializeJoinResult,
                                  DeserializeJoinResult, "result");
  ExpectOnlyCurrentVersionDecodes(*series, SerializeQuerySeries,
                                  DeserializeQuerySeries, "series");
  ExpectOnlyCurrentVersionDecodes(series_result, SerializeSeriesResult,
                                  DeserializeSeriesResult, "series result");
  ExpectOnlyCurrentVersionDecodes(mutation, SerializeTableMutation,
                                  DeserializeTableMutation, "mutation");
  ExpectOnlyCurrentVersionDecodes(mutation_result, SerializeMutationResult,
                                  DeserializeMutationResult,
                                  "mutation result");
  ExpectOnlyCurrentVersionDecodes(assign, SerializeShardAssignment,
                                  DeserializeShardAssignment,
                                  "shard assignment");
  ExpectOnlyCurrentVersionDecodes(ack, SerializeShardAck, DeserializeShardAck,
                                  "shard ack");
  ExpectOnlyCurrentVersionDecodes(decrypt_req, SerializeShardDecryptRequest,
                                  DeserializeShardDecryptRequest,
                                  "shard decrypt request");
  ExpectOnlyCurrentVersionDecodes(decrypt_resp, SerializeShardDecryptResponse,
                                  DeserializeShardDecryptResponse,
                                  "shard decrypt response");
  ExpectOnlyCurrentVersionDecodes(shard_mutation, SerializeShardMutation,
                                  DeserializeShardMutation, "shard mutation");
  ExpectOnlyCurrentVersionDecodes(health, SerializeWorkerHealthInfo,
                                  DeserializeWorkerHealthInfo,
                                  "worker health");
}

}  // namespace
}  // namespace sjoin
