// Sharded encrypted tables and parallel cross-shard series execution:
// hash partitioning must cover every row exactly once and deterministically,
// ExecuteJoinSeriesSharded must produce results bit-identical to the
// unsharded engine at every shard count, per-shard stats must sum to the
// series totals, and the wire v3 shard fields must round-trip (with v2
// payloads still decoding). Runs standalone via: ctest -L shard
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "db/client.h"
#include "db/server.h"
#include "db/sharded_table.h"
#include "db/wire.h"

namespace sjoin {
namespace {

// --- ShardedTable partitioning -------------------------------------------------

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
  // The request can come off the wire: a hostile value hits the ceiling
  // instead of allocating millions of partitions.
  EXPECT_EQ(ShardedTable::ClampShardCount(size_t{1} << 20, size_t{1} << 30),
            ShardedTable::kMaxShards);
}

TEST(ShardedTableTest, PartitionCoversEveryRowExactlyOnce) {
  EncryptedClient client({.num_attrs = 1, .max_in_clause = 1,
                          .rng_seed = 1100});
  auto enc = client.EncryptTable(MakeOrders(23), "customer");
  ASSERT_TRUE(enc.ok());

  ShardedTable view(&*enc, 4);
  ASSERT_EQ(view.num_shards(), 4u);
  std::set<size_t> seen;
  for (size_t s = 0; s < view.num_shards(); ++s) {
    for (size_t r : view.shard_rows(s)) {
      EXPECT_EQ(view.shard_of(r), s);
      EXPECT_TRUE(seen.insert(r).second) << "row " << r << " in two shards";
    }
    // Rows of a shard keep table order (merge order must be reproducible).
    EXPECT_TRUE(std::is_sorted(view.shard_rows(s).begin(),
                               view.shard_rows(s).end()));
  }
  EXPECT_EQ(seen.size(), enc->rows.size());
}

TEST(ShardedTableTest, PartitionIsDeterministic) {
  EncryptedClient client({.num_attrs = 1, .max_in_clause = 1,
                          .rng_seed = 1101});
  auto enc = client.EncryptTable(MakeOrders(17), "customer");
  ASSERT_TRUE(enc.ok());
  ShardedTable a(&*enc, 3), b(&*enc, 3);
  for (size_t r = 0; r < enc->rows.size(); ++r) {
    EXPECT_EQ(a.shard_of(r), b.shard_of(r));
    // The digest depends only on the SJ ciphertext, so recomputing agrees.
    EXPECT_EQ(a.shard_of(r),
              ShardedTable::ShardOfDigest(
                  ShardedTable::RowDigest(enc->rows[r]), 3));
  }
}

TEST(ShardedTableTest, MaterializeShardPreservesMetadataAndRows) {
  EncryptedClient client({.num_attrs = 1, .max_in_clause = 1,
                          .rng_seed = 1102});
  auto enc = client.EncryptTable(MakeOrders(9), "customer");
  ASSERT_TRUE(enc.ok());
  ShardedTable view(&*enc, 2);
  size_t total = 0;
  for (size_t s = 0; s < view.num_shards(); ++s) {
    EncryptedTable shard = view.MaterializeShard(s);
    EXPECT_EQ(shard.name, enc->name + "/shard" + std::to_string(s));
    EXPECT_EQ(shard.join_column, enc->join_column);
    EXPECT_EQ(shard.attr_columns, enc->attr_columns);
    ASSERT_EQ(shard.rows.size(), view.shard_rows(s).size());
    for (size_t i = 0; i < shard.rows.size(); ++i) {
      size_t orig = view.shard_rows(s)[i];
      EXPECT_EQ(shard.rows[i].payload.body, enc->rows[orig].payload.body);
    }
    total += shard.rows.size();
  }
  EXPECT_EQ(total, enc->rows.size());
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
  ASSERT_EQ(sharded_server_.shard_partition_count(), 2u);
  // Every touched row landed in its own shard's cache partition (access
  // is bounds-checked: partitions past the effective K do not exist).
  size_t entries = sharded_server_.shard_cache(0)->stats().entries +
                   sharded_server_.shard_cache(1)->stats().entries;
  EXPECT_EQ(entries, cold->stats.decrypts_performed);
  EXPECT_EQ(sharded_server_.shard_cache(2), nullptr);

  // Fresh tokens, same K: every decrypt is served warm from its partition.
  auto warm = sharded_server_.ExecuteJoinSeriesSharded(*second,
                                                       {.num_shards = 2});
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->stats.prepared_rows_built, 0u);
  EXPECT_EQ(warm->stats.prepared_cache_hits, warm->stats.decrypts_performed);
  EXPECT_EQ(warm->stats.pairings_computed, 0u);
  // The unsharded cache was never touched by the sharded path.
  EXPECT_EQ(sharded_server_.prepared_cache().stats().entries, 0u);
}

TEST_F(ShardSeriesTest, ClientRoutingRequestOverridesServerOption) {
  auto series = client_->PrepareSeriesSharded({Spec()}, Tables(), 2);
  ASSERT_TRUE(series.ok());
  EXPECT_EQ(series->requested_shards, 2u);
  // The client's request (2) wins over the server default (8).
  auto r = sharded_server_.ExecuteJoinSeriesSharded(*series,
                                                    {.num_shards = 8});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.shards, 2u);
  EXPECT_EQ(sharded_server_.shard_partition_count(), 2u);
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
  auto lying = sharded_server_.ExecuteJoinSeriesDelegated(
      *series, {}, 2,
      [&](const ShardDecryptRequest& req) { return none_held(req, 5); });
  ASSERT_FALSE(lying.ok());
  EXPECT_EQ(lying.status().code(), StatusCode::kInternal);

  // An honest all-zero answer (every replica down): local fallback.
  auto honest = sharded_server_.ExecuteJoinSeriesDelegated(
      *series, {}, 2,
      [&](const ShardDecryptRequest& req) { return none_held(req, 0); });
  ASSERT_TRUE(honest.ok()) << honest.status().ToString();
  auto plain = plain_server_.ExecuteJoinSeries(*series);
  ASSERT_TRUE(plain.ok());
  ExpectBitIdentical(honest->results[0], plain->results[0]);
  EXPECT_EQ(honest->stats.decrypts_performed,
            honest->stats.pairings_computed + honest->stats.prepared_pairings);
}

// --- Wire v3 -------------------------------------------------------------------

TEST(ShardWireTest, SeriesResultRoundTripCarriesShardStats) {
  EncryptedSeriesResult result;
  result.stats.queries = 2;
  result.stats.decrypts_requested = 10;
  result.stats.decrypts_performed = 7;
  result.stats.digest_cache_hits = 3;
  result.stats.pairings_computed = 1;
  result.stats.prepared_pairings = 6;
  result.stats.prepared_rows_built = 4;
  result.stats.prepared_cache_hits = 2;
  result.stats.shards = 2;
  result.stats.shard_stats = {
      ShardExecStats{.decrypts_performed = 4,
                     .pairings_computed = 1,
                     .prepared_pairings = 3,
                     .prepared_rows_built = 2,
                     .prepared_cache_hits = 1},
      ShardExecStats{.decrypts_performed = 3,
                     .pairings_computed = 0,
                     .prepared_pairings = 3,
                     .prepared_rows_built = 2,
                     .prepared_cache_hits = 1}};

  Bytes wire = SerializeSeriesResult(result);
  auto back = DeserializeSeriesResult(wire);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->stats.shards, 2u);
  EXPECT_EQ(back->stats.shard_stats, result.stats.shard_stats);
  EXPECT_EQ(back->stats.decrypts_performed, 7u);
  EXPECT_EQ(back->stats.prepared_cache_hits, 2u);
}

TEST(ShardWireTest, QuerySeriesRoundTripCarriesRoutingRequest) {
  QuerySeriesTokens series;
  series.requested_shards = 5;
  Bytes wire = SerializeQuerySeries(series);
  auto back = DeserializeQuerySeries(wire);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->requested_shards, 5u);
}

TEST(ShardWireTest, V2SeriesResultStillDecodes) {
  // A v2 series result (PR 2 layout): header, zero results, the eight
  // u64 counters, nothing else. Must decode with the v3-only fields at
  // their defaults -- old servers keep talking to new clients.
  WireWriter w;
  w.U8(2);     // wire version 2
  w.U8(0x72);  // series-result tag
  w.U32(0);    // no per-query results
  for (uint64_t v = 1; v <= 8; ++v) w.U64(v);
  auto back = DeserializeSeriesResult(w.bytes());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->stats.queries, 1u);
  EXPECT_EQ(back->stats.prepared_cache_hits, 8u);
  EXPECT_EQ(back->stats.shards, 0u);          // v3 field, default
  EXPECT_TRUE(back->stats.shard_stats.empty());
}

TEST(ShardWireTest, V2QuerySeriesStillDecodes) {
  WireWriter w;
  w.U8(2);     // wire version 2
  w.U8(0x71);  // query-series tag
  w.U32(0);    // no queries
  auto back = DeserializeQuerySeries(w.bytes());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->queries.empty());
  EXPECT_EQ(back->requested_shards, 0u);      // v3 field, default
}

TEST(ShardWireTest, VersionsOutsideTheWindowRejectedWithVersionedError) {
  // One below the window (v1) and two above the current ceiling (v7).
  for (uint8_t version : {uint8_t{1}, uint8_t{8}, uint8_t{9}}) {
    WireWriter w;
    w.U8(version);
    w.U8(0x72);
    w.U32(0);
    auto back = DeserializeSeriesResult(w.bytes());
    ASSERT_FALSE(back.ok());
    EXPECT_NE(back.status().ToString().find("version"), std::string::npos)
        << back.status().ToString();
    EXPECT_NE(back.status().ToString().find(std::to_string(version)),
              std::string::npos);
  }
}

}  // namespace
}  // namespace sjoin
