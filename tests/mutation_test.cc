// Dynamic encrypted tables: the generational TableStore, client-side
// delta preparation, server-side ApplyMutation, row-granular cache
// retention, stable-id leakage accounting and the wire v4 mutation
// messages.
//
// The acceptance property is equivalence: a series executed after
// ApplyMutation must return results byte-identical (at the plaintext
// level the client decrypts, and index-identical at the wire level) to
// encrypting the mutated plaintext table from scratch -- for insert-only,
// delete-only and mixed batches, on the unsharded and the sharded path.
// Runs standalone via: ctest -L mutation
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "db/client.h"
#include "db/server.h"
#include "db/table_store.h"
#include "db/wire.h"

namespace sjoin {
namespace {

Table MakeCustomers(size_t rows) {
  Table t("Customers", Schema({{"k", ValueKind::kInt64},
                               {"name", ValueKind::kString}}));
  for (size_t i = 0; i < rows; ++i) {
    SJOIN_CHECK(t.AppendRow({static_cast<int64_t>(i % 3),
                             "cust#" + std::to_string(i)}).ok());
  }
  return t;
}

Table MakeOrders(size_t rows) {
  Table t("Orders", Schema({{"k", ValueKind::kInt64},
                            {"item", ValueKind::kString}}));
  for (size_t i = 0; i < rows; ++i) {
    SJOIN_CHECK(t.AppendRow({static_cast<int64_t>(i % 3),
                             "item#" + std::to_string(i)}).ok());
  }
  return t;
}

JoinQuerySpec Spec() {
  JoinQuerySpec q;
  q.table_a = "Customers";
  q.table_b = "Orders";
  q.join_column_a = q.join_column_b = "k";
  return q;
}

/// The plaintext twin of TableStore's delete semantics: stable-order
/// compaction of `positions` (ascending).
Table ErasePositions(const Table& t, const std::vector<size_t>& positions) {
  Table out(t.name(), t.schema());
  size_t next = 0;
  for (size_t r = 0; r < t.NumRows(); ++r) {
    if (next < positions.size() && positions[next] == r) {
      ++next;
      continue;
    }
    SJOIN_CHECK(out.AppendRow(t.row(r)).ok());
  }
  return out;
}

/// The plaintext twin of the insert semantics: appended in batch order.
Table AppendRows(const Table& t, const Table& extra) {
  Table out(t.name(), t.schema());
  for (size_t r = 0; r < t.NumRows(); ++r) {
    SJOIN_CHECK(out.AppendRow(t.row(r)).ok());
  }
  for (size_t r = 0; r < extra.NumRows(); ++r) {
    SJOIN_CHECK(out.AppendRow(extra.row(r)).ok());
  }
  return out;
}

/// Every cell of a decrypted result, serialized -- the byte-level form of
/// "the client sees the same table".
Bytes TableBytes(const Table& t) {
  Bytes out;
  for (size_t r = 0; r < t.NumRows(); ++r) {
    for (size_t c = 0; c < t.schema().NumColumns(); ++c) {
      t.At(r, c).SerializeTo(&out);
    }
  }
  return out;
}

// --- TableStore ----------------------------------------------------------------

class TableStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    client_ = std::make_unique<EncryptedClient>(ClientOptions{
        .num_attrs = 1, .max_in_clause = 1, .rng_seed = 2100});
    auto enc = client_->EncryptTable(MakeOrders(3), "k");
    ASSERT_TRUE(enc.ok());
    enc_ = std::move(*enc);
    auto extra = client_->EncryptTable(MakeOrders(2), "k");
    ASSERT_TRUE(extra.ok());
    extra_rows_ = extra->rows;
  }

  std::unique_ptr<EncryptedClient> client_;
  EncryptedTable enc_;
  std::vector<EncryptedRow> extra_rows_;
};

TEST_F(TableStoreTest, StoreAssignsSequentialIdsAndGenerationOne) {
  TableStore store;
  ASSERT_TRUE(store.Store(enc_).ok());
  EXPECT_FALSE(store.Store(enc_).ok());  // AlreadyExists
  auto snap = store.Get("Orders");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->generation, 1u);
  EXPECT_EQ(*snap->row_ids, (std::vector<StableRowId>{0, 1, 2}));
  EXPECT_EQ(snap->table->rows.size(), 3u);
}

TEST_F(TableStoreTest, GetUnknownTableUsesCanonicalNotFoundMessage) {
  TableStore store;
  auto snap = store.Get("Nope");
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(snap.status().message(), "table 'Nope' not stored");
}

TEST_F(TableStoreTest, ApplyCompactsDeletesThenAppendsInserts) {
  TableStore store;
  ASSERT_TRUE(store.Store(enc_).ok());
  auto before = store.Get("Orders");
  ASSERT_TRUE(before.ok());

  TableMutation m;
  m.table = "Orders";
  m.deletes = {1};
  m.inserts = extra_rows_;
  auto applied = store.Apply(m);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->result.generation, 2u);
  EXPECT_EQ(applied->result.inserted_ids, (std::vector<StableRowId>{3, 4}));

  auto after = store.Get("Orders");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after->row_ids, (std::vector<StableRowId>{0, 2, 3, 4}));
  ASSERT_EQ(after->table->rows.size(), 4u);
  // Survivors kept their content and relative order; inserts appended.
  EXPECT_EQ(after->table->rows[0].payload.body, enc_.rows[0].payload.body);
  EXPECT_EQ(after->table->rows[1].payload.body, enc_.rows[2].payload.body);
  EXPECT_EQ(after->table->rows[2].payload.body, extra_rows_[0].payload.body);
  EXPECT_EQ(after->table->rows[3].payload.body, extra_rows_[1].payload.body);

  // The pre-mutation snapshot is immutable: a series holding it keeps
  // reading generation 1 no matter what landed since.
  EXPECT_EQ(before->generation, 1u);
  EXPECT_EQ(before->table->rows.size(), 3u);
  EXPECT_EQ(*before->row_ids, (std::vector<StableRowId>{0, 1, 2}));
}

TEST_F(TableStoreTest, StableIdsAreNeverReused) {
  TableStore store;
  ASSERT_TRUE(store.Store(enc_).ok());
  TableMutation del;
  del.table = "Orders";
  del.deletes = {2};
  ASSERT_TRUE(store.Apply(del).ok());
  TableMutation ins;
  ins.table = "Orders";
  ins.inserts = {extra_rows_[0]};
  auto applied = store.Apply(ins);
  ASSERT_TRUE(applied.ok());
  // Id 2 was freed but must never come back: the new row gets 3.
  EXPECT_EQ(applied->result.inserted_ids, (std::vector<StableRowId>{3}));
  EXPECT_EQ(applied->result.generation, 3u);
}

TEST_F(TableStoreTest, ApplyIsAllOrNothingOnInvalidBatches) {
  TableStore store;
  ASSERT_TRUE(store.Store(enc_).ok());

  TableMutation unknown_table;
  unknown_table.table = "Nope";
  unknown_table.deletes = {0};
  auto r1 = store.Apply(unknown_table);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().message(), "table 'Nope' not stored");

  TableMutation unknown_id;
  unknown_id.table = "Orders";
  unknown_id.deletes = {0, 99};
  EXPECT_EQ(store.Apply(unknown_id).status().code(), StatusCode::kNotFound);

  TableMutation dup;
  dup.table = "Orders";
  dup.deletes = {1, 1};
  EXPECT_EQ(store.Apply(dup).status().code(), StatusCode::kInvalidArgument);

  TableMutation empty;
  empty.table = "Orders";
  EXPECT_EQ(store.Apply(empty).status().code(), StatusCode::kInvalidArgument);

  TableMutation bad_dim;
  bad_dim.table = "Orders";
  bad_dim.inserts = {extra_rows_[0]};
  bad_dim.inserts[0].sj.c.push_back(bad_dim.inserts[0].sj.c[0]);
  EXPECT_EQ(store.Apply(bad_dim).status().code(),
            StatusCode::kInvalidArgument);

  TableMutation stale;
  stale.table = "Orders";
  stale.base_generation = 7;
  stale.deletes = {0};
  EXPECT_EQ(store.Apply(stale).status().code(),
            StatusCode::kFailedPrecondition);

  // Nothing above changed the table.
  auto snap = store.Get("Orders");
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap->generation, 1u);
  EXPECT_EQ(snap->table->rows.size(), 3u);

  // A correct base_generation passes, and replaying it is then stale:
  // optimistic concurrency for read-modify-write clients.
  TableMutation guarded;
  guarded.table = "Orders";
  guarded.base_generation = 1;
  guarded.deletes = {0};
  ASSERT_TRUE(store.Apply(guarded).ok());
  EXPECT_EQ(store.Apply(guarded).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(TableStoreTest, DimensionGuardSurvivesEmptyingTheTable) {
  // Regression: the SJ-dimension check must come from the table's
  // remembered dimension, not from whatever rows currently exist --
  // otherwise deleting every row reopens the table to foreign-shaped
  // rows that would only fail (fatally) inside a later SJ.Dec.
  TableStore store;
  ASSERT_TRUE(store.Store(enc_).ok());
  TableMutation drain;
  drain.table = "Orders";
  drain.deletes = {0, 1, 2};
  ASSERT_TRUE(store.Apply(drain).ok());
  ASSERT_EQ(store.Get("Orders")->table->rows.size(), 0u);

  TableMutation foreign;
  foreign.table = "Orders";
  foreign.inserts = {extra_rows_[0]};
  foreign.inserts[0].sj.c.push_back(foreign.inserts[0].sj.c[0]);
  EXPECT_EQ(store.Apply(foreign).status().code(),
            StatusCode::kInvalidArgument);

  // Zero-dimension rows are rejected outright (no real row is empty, and
  // accepting one into an empty table would leave it dimension-unlocked).
  TableMutation hollow;
  hollow.table = "Orders";
  hollow.inserts = {extra_rows_[0]};
  hollow.inserts[0].sj.c.clear();
  EXPECT_EQ(store.Apply(hollow).status().code(),
            StatusCode::kInvalidArgument);

  // Right-dimension rows still insert fine into the emptied table.
  TableMutation refill;
  refill.table = "Orders";
  refill.inserts = {extra_rows_[0]};
  auto applied = store.Apply(refill);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->result.inserted_ids, (std::vector<StableRowId>{3}));
}

// --- Equivalence: mutated tables vs scratch re-encryption ----------------------

class MutationEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    client_ = std::make_unique<EncryptedClient>(ClientOptions{
        .num_attrs = 1, .max_in_clause = 1, .rng_seed = 2300});
    customers_ = MakeCustomers(4);
    orders_ = MakeOrders(6);
  }

  /// Runs the acceptance scenario: store the original tables, apply
  /// `mutations`, and require the mutated server's series -- unsharded
  /// AND sharded, with tokens prepared BEFORE the mutation landed -- to
  /// agree with a scratch server holding a fresh encryption of the edited
  /// plaintexts (`plain_a` / `plain_b`).
  void ExpectEquivalent(const std::vector<TableMutation>& mutations,
                        const Table& plain_a, const Table& plain_b) {
    auto enc_a0 = client_->EncryptTable(customers_, "k");
    auto enc_b0 = client_->EncryptTable(orders_, "k");
    ASSERT_TRUE(enc_a0.ok() && enc_b0.ok());
    EncryptedServer mutated;
    ASSERT_TRUE(mutated.StoreTable(*enc_a0).ok());
    ASSERT_TRUE(mutated.StoreTable(*enc_b0).ok());

    // Tokens from the pre-mutation era: SJ tokens and SSE tokens are
    // table-level, so a dashboard's prepared series keeps working across
    // churn (and must see exactly the post-mutation generation).
    auto series = client_->PrepareSeries({Spec(), Spec()},
                                         {&*enc_a0, &*enc_b0});
    ASSERT_TRUE(series.ok()) << series.status().ToString();

    for (const TableMutation& m : mutations) {
      auto applied = mutated.ApplyMutation(m);
      ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    }

    auto enc_a1 = client_->EncryptTable(plain_a, "k");
    auto enc_b1 = client_->EncryptTable(plain_b, "k");
    ASSERT_TRUE(enc_a1.ok() && enc_b1.ok());
    EncryptedServer scratch;
    ASSERT_TRUE(scratch.StoreTable(*enc_a1).ok());
    ASSERT_TRUE(scratch.StoreTable(*enc_b1).ok());

    auto from_mutated = mutated.ExecuteJoinSeries(*series);
    auto from_scratch = scratch.ExecuteJoinSeries(*series);
    ASSERT_TRUE(from_mutated.ok()) << from_mutated.status().ToString();
    ASSERT_TRUE(from_scratch.ok());
    ExpectSameAnswers(*from_mutated, *from_scratch, *enc_a1, *enc_b1);

    auto sharded_mutated =
        mutated.ExecuteJoinSeriesSharded(*series, {.num_shards = 3});
    auto sharded_scratch =
        scratch.ExecuteJoinSeriesSharded(*series, {.num_shards = 3});
    ASSERT_TRUE(sharded_mutated.ok()) << sharded_mutated.status().ToString();
    ASSERT_TRUE(sharded_scratch.ok());
    ExpectSameAnswers(*sharded_mutated, *sharded_scratch, *enc_a1, *enc_b1);

    // And sharded-vs-unsharded on the mutated server stays bit-identical
    // (payload bytes included -- same stored ciphertexts).
    ASSERT_EQ(sharded_mutated->results.size(), from_mutated->results.size());
    for (size_t q = 0; q < from_mutated->results.size(); ++q) {
      EXPECT_EQ(sharded_mutated->results[q].matched_row_indices,
                from_mutated->results[q].matched_row_indices);
      ASSERT_EQ(sharded_mutated->results[q].row_pairs.size(),
                from_mutated->results[q].row_pairs.size());
      for (size_t i = 0; i < from_mutated->results[q].row_pairs.size(); ++i) {
        EXPECT_EQ(sharded_mutated->results[q].row_pairs[i].first.body,
                  from_mutated->results[q].row_pairs[i].first.body);
        EXPECT_EQ(sharded_mutated->results[q].row_pairs[i].second.body,
                  from_mutated->results[q].row_pairs[i].second.body);
      }
    }
  }

  /// Same matched positions, and byte-identical plaintext once the client
  /// opens the payloads (the AEAD bytes themselves differ: a scratch
  /// encryption draws fresh nonces, which is exactly why the comparison
  /// happens at the decrypted level).
  void ExpectSameAnswers(const EncryptedSeriesResult& x,
                         const EncryptedSeriesResult& y,
                         const EncryptedTable& enc_a,
                         const EncryptedTable& enc_b) {
    ASSERT_EQ(x.results.size(), y.results.size());
    for (size_t q = 0; q < x.results.size(); ++q) {
      EXPECT_EQ(x.results[q].matched_row_indices,
                y.results[q].matched_row_indices)
          << "query " << q;
      auto tx = client_->DecryptJoinResult(x.results[q], enc_a, enc_b);
      auto ty = client_->DecryptJoinResult(y.results[q], enc_a, enc_b);
      ASSERT_TRUE(tx.ok()) << tx.status().ToString();
      ASSERT_TRUE(ty.ok()) << ty.status().ToString();
      EXPECT_EQ(TableBytes(*tx), TableBytes(*ty)) << "query " << q;
    }
  }

  std::unique_ptr<EncryptedClient> client_;
  Table customers_, orders_;
};

TEST_F(MutationEquivalenceTest, InsertOnlyBatch) {
  Table fresh("Orders", orders_.schema());
  ASSERT_TRUE(fresh.AppendRow({int64_t{1}, "item#new0"}).ok());
  ASSERT_TRUE(fresh.AppendRow({int64_t{0}, "item#new1"}).ok());
  ASSERT_TRUE(fresh.AppendRow({int64_t{7}, "item#new2"}).ok());  // no match

  auto enc_b = client_->EncryptTable(orders_, "k");
  ASSERT_TRUE(enc_b.ok());
  auto ins = client_->PrepareInsert(*enc_b, fresh);
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  ASSERT_EQ(ins->inserts.size(), 3u);

  ExpectEquivalent({*ins}, customers_, AppendRows(orders_, fresh));
}

TEST_F(MutationEquivalenceTest, DeleteOnlyBatch) {
  // Ids of the original upload are positions 0..n-1, so the plaintext
  // twin erases the same positions.
  auto del_b = client_->PrepareDelete("Orders", {1, 4});
  auto del_a = client_->PrepareDelete("Customers", {0});
  ASSERT_TRUE(del_b.ok() && del_a.ok());
  ExpectEquivalent({*del_b, *del_a}, ErasePositions(customers_, {0}),
                   ErasePositions(orders_, {1, 4}));
}

TEST_F(MutationEquivalenceTest, MixedBatch) {
  Table fresh("Orders", orders_.schema());
  ASSERT_TRUE(fresh.AppendRow({int64_t{2}, "item#mix0"}).ok());
  ASSERT_TRUE(fresh.AppendRow({int64_t{1}, "item#mix1"}).ok());

  auto enc_b = client_->EncryptTable(orders_, "k");
  ASSERT_TRUE(enc_b.ok());
  auto mixed = client_->PrepareInsert(*enc_b, fresh);
  ASSERT_TRUE(mixed.ok());
  mixed->deletes = {2, 5};  // one batch, both halves: deletes apply first

  ExpectEquivalent({*mixed}, customers_,
                   AppendRows(ErasePositions(orders_, {2, 5}), fresh));
}

// --- Row-granular cache retention ----------------------------------------------

class MutationCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    client_ = std::make_unique<EncryptedClient>(ClientOptions{
        .num_attrs = 1, .max_in_clause = 1, .rng_seed = 2400});
    auto enc_a = client_->EncryptTable(MakeCustomers(2), "k");
    auto enc_b = client_->EncryptTable(MakeOrders(6), "k");
    ASSERT_TRUE(enc_a.ok() && enc_b.ok());
    enc_a_ = std::move(*enc_a);
    enc_b_ = std::move(*enc_b);
    ASSERT_TRUE(server_.StoreTable(enc_a_).ok());
    ASSERT_TRUE(server_.StoreTable(enc_b_).ok());
  }

  Result<TableMutation> OneRowChurn() {
    Table fresh("Orders", enc_b_.schema);
    SJOIN_CHECK(fresh.AppendRow({int64_t{1}, "item#churn"}).ok());
    auto m = client_->PrepareInsert(enc_b_, fresh);
    SJOIN_RETURN_IF_ERROR(m.status());
    m->deletes = {3};
    return m;
  }

  // Warms the server's one prepared-row cache through `run`, applies a
  // one-row churn and checks that exactly the deleted row went cold.
  template <typename Run>
  void ExpectRowGranularRetention(Run run) {
    auto warm_series = client_->PrepareSeries({Spec()}, {&enc_a_, &enc_b_});
    ASSERT_TRUE(warm_series.ok());
    ASSERT_TRUE(run(*warm_series).ok());
    ASSERT_EQ(server_.prepared_cache().stats().entries, 8u);  // 2 + 6 rows

    auto churn = OneRowChurn();
    ASSERT_TRUE(churn.ok());
    auto applied = server_.ApplyMutation(*churn);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    EXPECT_EQ(applied->generation, 2u);
    EXPECT_EQ(applied->inserted_ids, (std::vector<StableRowId>{6}));
    // Exactly the deleted row's entry dropped; 7 of 8 stayed warm.
    EXPECT_EQ(server_.prepared_cache().stats().entries, 7u);

    auto series = client_->PrepareSeries({Spec()}, {&enc_a_, &enc_b_});
    ASSERT_TRUE(series.ok());
    auto r = run(*series);
    ASSERT_TRUE(r.ok());
    // 2 + 6 live rows decrypt; only the inserted row is cold-built. This
    // is the retention property: 1-row churn costs 1 row of warm state,
    // not the table.
    EXPECT_EQ(r->stats.decrypts_performed, 8u);
    EXPECT_EQ(r->stats.prepared_cache_hits, 7u);
    EXPECT_EQ(r->stats.prepared_rows_built, 1u);
    EXPECT_EQ(r->stats.pairings_computed, 0u);
  }

  std::unique_ptr<EncryptedClient> client_;
  EncryptedServer server_;
  EncryptedTable enc_a_, enc_b_;
};

TEST_F(MutationCacheTest, MutationInvalidatesOnlyDeletedRows) {
  ExpectRowGranularRetention([&](const QuerySeriesTokens& q) {
    return server_.ExecuteJoinSeries(q, {.num_threads = 1});
  });
}

TEST_F(MutationCacheTest, ShardedPartitionsRetainWarmRowsAcrossMutation) {
  // The sharded entry point's shards decrypt through the same cache, so
  // they see the same row-granular retention.
  ExpectRowGranularRetention([&](const QuerySeriesTokens& q) {
    return server_.ExecuteJoinSeriesSharded(q, {.num_shards = 2});
  });
}

// --- Leakage across mutations --------------------------------------------------

TEST_F(MutationCacheTest, DeletedRowsStayInClosureAndIdsNeverAlias) {
  // Customers(2): k = 0, 1. Orders(6): k = i % 3, so rows {0,3} -> k 0,
  // {1,4} -> k 1, {2,5} -> k 2 (no customer, but their mutual equality is
  // still observed). The unrestricted join reveals {A0,B0,B3},
  // {A1,B1,B4} and {B2,B5}: 3 + 3 + 1 = 7 pairs.
  auto series = client_->PrepareSeries({Spec()}, {&enc_a_, &enc_b_});
  ASSERT_TRUE(series.ok());
  ASSERT_TRUE(server_.ExecuteJoinSeries(*series).ok());
  ASSERT_EQ(server_.leakage().RevealedPairCount(), 7u);

  // Delete order row id 3 (k = 0), insert one with k = 1 (stable id 6).
  auto churn = OneRowChurn();
  ASSERT_TRUE(churn.ok());
  ASSERT_TRUE(server_.ApplyMutation(*churn).ok());
  auto again = client_->PrepareSeries({Spec()}, {&enc_a_, &enc_b_});
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(server_.ExecuteJoinSeries(*again).ok());

  // Customers stored first -> table id 0, Orders -> 1. The deleted row's
  // past observation persists: the server once saw order 3 equal A0, and
  // deletion cannot unlearn that.
  EXPECT_TRUE(server_.leakage().Linked({1, 3}, {0, 0}));
  // The inserted row observed under its own fresh id, joined to A1's
  // class -- NOT aliased onto the deleted id's class.
  EXPECT_TRUE(server_.leakage().Linked({1, 6}, {0, 1}));
  EXPECT_FALSE(server_.leakage().Linked({1, 6}, {1, 3}));
  // Closure: {A0,B0,B3}, {A1,B1,B4,B6}, {B2,B5} -> 3 + 6 + 1 pairs.
  EXPECT_EQ(server_.leakage().RevealedPairCount(), 10u);
}

// --- Server surface satellites -------------------------------------------------

TEST_F(MutationCacheTest, ShardCacheIsBoundsCheckedAndNotFoundIsCanonical) {
  auto series = client_->PrepareSeries({Spec()}, {&enc_a_, &enc_b_});
  ASSERT_TRUE(series.ok());

  // Every missing-table path speaks the same NotFound message.
  const std::string want = "table 'Nope' not stored";
  auto get = server_.GetTable("Nope");
  ASSERT_FALSE(get.ok());
  EXPECT_EQ(get.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(get.status().message(), want);
  TableMutation m;
  m.table = "Nope";
  m.deletes = {0};
  auto apply = server_.ApplyMutation(m);
  ASSERT_FALSE(apply.ok());
  EXPECT_EQ(apply.status().message(), want);
  JoinQueryTokens q = series->queries[0];
  q.table_b = "Nope";
  auto exec = server_.ExecuteJoin(q);
  ASSERT_FALSE(exec.ok());
  EXPECT_EQ(exec.status().message(), want);
  auto exec_series = server_.ExecuteJoinSeries(QuerySeriesTokens{{q}, 0});
  ASSERT_FALSE(exec_series.ok());
  EXPECT_EQ(exec_series.status().message(), want);
}

TEST_F(MutationCacheTest, GenerationGuardRejectsStaleClients) {
  auto churn = OneRowChurn();
  ASSERT_TRUE(churn.ok());
  churn->base_generation = 1;
  ASSERT_TRUE(server_.ApplyMutation(*churn).ok());
  // Replaying against the old generation is refused: the table moved on.
  auto replay = server_.ApplyMutation(*churn);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(server_.table_store().Get("Orders")->generation, 2u);
}

// --- Wire v4 -------------------------------------------------------------------

TEST_F(TableStoreTest, MutationWireRoundTrip) {
  TableMutation m;
  m.table = "Orders";
  m.base_generation = 5;
  m.deletes = {0, 17, uint64_t{1} << 40};
  m.inserts = extra_rows_;

  Bytes wire = SerializeTableMutation(m);
  auto back = DeserializeTableMutation(wire);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->table, m.table);
  EXPECT_EQ(back->base_generation, 5u);
  EXPECT_EQ(back->deletes, m.deletes);
  ASSERT_EQ(back->inserts.size(), m.inserts.size());
  for (size_t i = 0; i < m.inserts.size(); ++i) {
    EXPECT_EQ(back->inserts[i].sj.c.size(), m.inserts[i].sj.c.size());
    EXPECT_EQ(back->inserts[i].payload.body, m.inserts[i].payload.body);
    EXPECT_EQ(back->inserts[i].sse.tags.size(), m.inserts[i].sse.tags.size());
  }

  // A deserialized mutation applies like the original.
  TableStore store;
  ASSERT_TRUE(store.Store(enc_).ok());
  back->base_generation = 0;
  back->deletes = {1};
  auto applied = store.Apply(*back);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->snapshot.table->rows.size(), 4u);

  // Cross-wired messages are rejected by tag.
  EXPECT_FALSE(DeserializeTableMutation(SerializeEncryptedTable(enc_)).ok());
}

TEST(MutationWireTest, MutationResultRoundTrip) {
  MutationResult r;
  r.generation = 9;
  r.inserted_ids = {4, 5, uint64_t{1} << 33};
  auto back = DeserializeMutationResult(SerializeMutationResult(r));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->generation, 9u);
  EXPECT_EQ(back->inserted_ids, r.inserted_ids);
}

TEST(MutationWireTest, MutationMessagesRequireWireV4) {
  // v3 sits inside the general reader window, but the mutation message
  // type did not exist before v4 -- a v3-tagged frame is a forgery or a
  // bug, never an old peer, and must be rejected with a versioned error.
  for (uint8_t tag : {uint8_t{0x4D}, uint8_t{0x6D}}) {
    WireWriter w;
    w.U8(3);  // wire version 3
    w.U8(tag);
    w.U64(0);
    w.U32(0);
    if (tag == 0x4D) w.U32(0);
    auto status = tag == 0x4D
                      ? DeserializeTableMutation(w.bytes()).status()
                      : DeserializeMutationResult(w.bytes()).status();
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("wire version 4"), std::string::npos)
        << status.ToString();
  }
  // Truncated counts must fail cleanly, not allocate.
  Bytes huge = {0x04, 0x4D, 0x00, 0x00, 0x00, 0x00,  // v4, 'M', name ""
                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // gen 0
                0xFF, 0xFF, 0xFF, 0xFF};  // 4B deletes, no payload
  EXPECT_FALSE(DeserializeTableMutation(huge).ok());
}

}  // namespace
}  // namespace sjoin
