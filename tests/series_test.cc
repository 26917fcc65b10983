// Series-of-queries execution engine: batched ExecuteJoinSeries must be
// indistinguishable (results and leakage) from running the same queries one
// by one, while the per-(table, token) digest cache deduplicates SJ.Dec
// work and the shared ThreadPool carries the batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "db/client.h"
#include "db/server.h"
#include "db/wire.h"
#include "util/thread_pool.h"

namespace sjoin {
namespace {

// --- ThreadPool ----------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> counts(100);
  pool.ParallelFor(counts.size(), 0,
                   [&](size_t i) { counts[i].fetch_add(1); });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPoolTest, ParallelismClampedToWorkSize) {
  // More executors than items must still run every item exactly once.
  ThreadPool pool(8);
  std::vector<std::atomic<int>> counts(3);
  pool.ParallelFor(counts.size(), 16,
                   [&](size_t i) { counts[i].fetch_add(1); });
  for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
  pool.ParallelFor(0, 4, [&](size_t) { FAIL() << "n = 0 must not run"; });
}

TEST(ThreadPoolTest, ZeroWorkersMeansHardwareConcurrency) {
  // Regression: only negative sizes used to mean "hardware concurrency - 1",
  // so ThreadPool(0) -- and ShardWorkerOptions{.num_threads = 0} -- got a
  // single background thread.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  EXPECT_EQ(ThreadPool(0).concurrency(), std::max(hw - 1, 1) + 1);
  EXPECT_EQ(ThreadPool(-1).concurrency(), std::max(hw - 1, 1) + 1);
}

TEST(ThreadPoolTest, SubmitRunsEnqueuedTasks) {
  std::atomic<int> ran{0};
  std::mutex mu;
  std::condition_variable cv;
  // Declared after what its tasks touch, so it joins its threads first: a
  // task may still be inside cv.notify_one() when the wait below returns.
  ThreadPool pool(2);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(pool.Submit([&] {
      if (ran.fetch_add(1) + 1 == 10) cv.notify_one();
    }));
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return ran.load() == 10; });
  EXPECT_EQ(ran.load(), 10);
}

TEST(ThreadPoolTest, ReentrantParallelForDoesNotDeadlock) {
  // Regression: a pool task calling ParallelFor used to park its worker
  // thread waiting on helpers that could never be scheduled once every
  // worker was in that state. Waiting callers now drain the queue.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  std::atomic<int> finished{0};
  std::mutex mu;
  std::condition_variable cv;
  for (int t = 0; t < 2; ++t) {
    ASSERT_TRUE(pool.Submit([&] {
      pool.ParallelFor(8, 0, [&](size_t) { total.fetch_add(1); });
      if (finished.fetch_add(1) + 1 == 2) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_one();
      }
    }));
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return finished.load() == 2; });
  EXPECT_EQ(total.load(), 16);
}

TEST(ThreadPoolTest, DecryptRowsClampsWorkersToRows) {
  // Regression: num_threads far above rows.size() used to spawn that many
  // threads; now the width clamps and the tiny batch still decrypts right.
  Rng rng(7001);
  auto msk = SecureJoin::Setup({.num_attrs = 1, .max_in_clause = 1}, &rng);
  Fr h = rng.NextFr();
  std::vector<Fr> attrs = {rng.NextFr()};
  std::vector<SjRowCiphertext> rows = {
      SecureJoin::EncryptRow(msk, h, attrs, &rng),
      SecureJoin::EncryptRow(msk, h, attrs, &rng)};
  auto [ta, tb] = SecureJoin::GenTokenPair(msk, {{}}, {{}}, &rng);
  auto serial = SecureJoin::DecryptRows(ta, rows, 1);
  auto clamped = SecureJoin::DecryptRows(ta, rows, 64);
  EXPECT_EQ(serial, clamped);
}

// --- Series engine fixtures ----------------------------------------------------

Table MakeTeams() {
  Table t("Teams", Schema({{"key", ValueKind::kInt64},
                           {"name", ValueKind::kString}}));
  SJOIN_CHECK(t.AppendRow({int64_t{1}, "Web Application"}).ok());
  SJOIN_CHECK(t.AppendRow({int64_t{2}, "Database"}).ok());
  return t;
}

Table MakeEmployees() {
  Table t("Employees", Schema({{"record", ValueKind::kInt64},
                               {"employee", ValueKind::kString},
                               {"role", ValueKind::kString},
                               {"team", ValueKind::kInt64}}));
  SJOIN_CHECK(t.AppendRow({int64_t{1}, "Hans", "Programmer", int64_t{1}}).ok());
  SJOIN_CHECK(t.AppendRow({int64_t{2}, "Kaily", "Tester", int64_t{1}}).ok());
  SJOIN_CHECK(t.AppendRow({int64_t{3}, "John", "Programmer", int64_t{2}}).ok());
  SJOIN_CHECK(t.AppendRow({int64_t{4}, "Sally", "Tester", int64_t{2}}).ok());
  return t;
}

JoinQuerySpec TeamsEmployeesSpec() {
  JoinQuerySpec q;
  q.table_a = "Teams";
  q.table_b = "Employees";
  q.join_column_a = "key";
  q.join_column_b = "team";
  return q;
}

class SeriesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    client_ = std::make_unique<EncryptedClient>(ClientOptions{
        .num_attrs = 3, .max_in_clause = 2, .rng_seed = 900});
    auto enc_teams = client_->EncryptTable(MakeTeams(), "key");
    auto enc_emps = client_->EncryptTable(MakeEmployees(), "team");
    ASSERT_TRUE(enc_teams.ok()) << enc_teams.status().ToString();
    ASSERT_TRUE(enc_emps.ok()) << enc_emps.status().ToString();
    enc_teams_ = std::move(*enc_teams);
    enc_emps_ = std::move(*enc_emps);
    // Identical state on both servers: series_server_ runs the batch,
    // sequential_server_ runs the same tokens query by query.
    ASSERT_TRUE(series_server_.StoreTable(enc_teams_).ok());
    ASSERT_TRUE(series_server_.StoreTable(enc_emps_).ok());
    ASSERT_TRUE(sequential_server_.StoreTable(enc_teams_).ok());
    ASSERT_TRUE(sequential_server_.StoreTable(enc_emps_).ok());
  }

  std::vector<const EncryptedTable*> Tables() const {
    return {&enc_teams_, &enc_emps_};
  }

  /// The same tokens, one ExecuteJoin at a time, on the twin server.
  std::vector<EncryptedJoinResult> RunSequentially(
      const QuerySeriesTokens& series, const ServerExecOptions& opts = {}) {
    std::vector<EncryptedJoinResult> out;
    for (const JoinQueryTokens& q : series.queries) {
      auto r = sequential_server_.ExecuteJoin(q, opts);
      SJOIN_CHECK(r.ok());
      out.push_back(std::move(*r));
    }
    return out;
  }

  std::unique_ptr<EncryptedClient> client_;
  EncryptedServer series_server_;
  EncryptedServer sequential_server_;
  EncryptedTable enc_teams_, enc_emps_;
};

void ExpectSameResults(const std::vector<EncryptedJoinResult>& series,
                       const std::vector<EncryptedJoinResult>& sequential) {
  ASSERT_EQ(series.size(), sequential.size());
  for (size_t q = 0; q < series.size(); ++q) {
    EXPECT_EQ(series[q].matched_row_indices, sequential[q].matched_row_indices)
        << "query " << q;
    EXPECT_EQ(series[q].row_pairs.size(), sequential[q].row_pairs.size());
    EXPECT_EQ(series[q].stats.rows_selected_a,
              sequential[q].stats.rows_selected_a);
    EXPECT_EQ(series[q].stats.rows_selected_b,
              sequential[q].stats.rows_selected_b);
  }
}

// (a) ExecuteJoinSeries == N independent ExecuteJoin calls.
TEST_F(SeriesTest, SeriesMatchesIndependentExecution) {
  JoinQuerySpec unrestricted = TeamsEmployeesSpec();
  JoinQuerySpec testers = TeamsEmployeesSpec();
  testers.selection_b.predicates = {{"role", {Value("Tester")}}};
  JoinQuerySpec web = TeamsEmployeesSpec();
  web.selection_a.predicates = {{"name", {Value("Web Application")}}};
  JoinQuerySpec none = TeamsEmployeesSpec();
  none.selection_b.predicates = {{"role", {Value("Manager")}}};

  auto series = client_->PrepareSeries({unrestricted, testers, web, none},
                                       Tables());
  ASSERT_TRUE(series.ok()) << series.status().ToString();
  auto batched = series_server_.ExecuteJoinSeries(*series);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  ASSERT_EQ(batched->results.size(), 4u);
  ExpectSameResults(batched->results, RunSequentially(*series));

  // Fresh keys per query: nothing to deduplicate across the series.
  EXPECT_EQ(batched->stats.digest_cache_hits, 0u);
  EXPECT_EQ(batched->stats.decrypts_performed,
            batched->stats.decrypts_requested);

  // And the client can open every result.
  for (const EncryptedJoinResult& r : batched->results) {
    auto opened = client_->DecryptJoinResult(r, enc_teams_, enc_emps_);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  }
}

// (b) The digest cache is hit on repeated (table, token) pairs.
TEST_F(SeriesTest, DigestCacheHitOnRepeatedTokens) {
  auto series =
      client_->PrepareSeries({TeamsEmployeesSpec()}, Tables());
  ASSERT_TRUE(series.ok());
  // The client replays the identical tokens: same (table, token) pairs.
  series->queries.push_back(series->queries[0]);

  auto batched = series_server_.ExecuteJoinSeries(*series);
  ASSERT_TRUE(batched.ok());
  ASSERT_EQ(batched->results.size(), 2u);
  EXPECT_EQ(batched->results[0].matched_row_indices,
            batched->results[1].matched_row_indices);

  // 2 + 4 rows per execution; the second execution is served entirely from
  // the cache.
  EXPECT_EQ(batched->stats.decrypts_requested, 12u);
  EXPECT_EQ(batched->stats.decrypts_performed, 6u);
  EXPECT_EQ(batched->stats.digest_cache_hits, 6u);
}

// (b') A multi-way chain shares the middle table's token, so its rows are
// decrypted once for the whole chain.
TEST(SeriesChainTest, ChainSharesMiddleTableDecryptions) {
  Table regions("Regions", Schema({{"region_id", ValueKind::kInt64},
                                   {"continent", ValueKind::kString}}));
  SJOIN_CHECK(regions.AppendRow({int64_t{1}, "Europe"}).ok());
  SJOIN_CHECK(regions.AppendRow({int64_t{2}, "Asia"}).ok());
  // Region 3 exists in Regions and Offices but has no supplier: no join
  // result of the chain links its rows.
  SJOIN_CHECK(regions.AppendRow({int64_t{3}, "America"}).ok());
  Table suppliers("Suppliers", Schema({{"supp_id", ValueKind::kInt64},
                                       {"region_id", ValueKind::kInt64}}));
  SJOIN_CHECK(suppliers.AppendRow({int64_t{10}, int64_t{1}}).ok());
  SJOIN_CHECK(suppliers.AppendRow({int64_t{11}, int64_t{2}}).ok());
  SJOIN_CHECK(suppliers.AppendRow({int64_t{12}, int64_t{1}}).ok());
  Table offices("Offices", Schema({{"office_id", ValueKind::kInt64},
                                   {"region_id", ValueKind::kInt64}}));
  SJOIN_CHECK(offices.AppendRow({int64_t{100}, int64_t{1}}).ok());
  SJOIN_CHECK(offices.AppendRow({int64_t{101}, int64_t{2}}).ok());
  SJOIN_CHECK(offices.AppendRow({int64_t{102}, int64_t{3}}).ok());

  EncryptedClient client({.num_attrs = 2, .max_in_clause = 2,
                          .rng_seed = 901});
  auto enc_regions = client.EncryptTable(regions, "region_id");
  auto enc_suppliers = client.EncryptTable(suppliers, "region_id");
  auto enc_offices = client.EncryptTable(offices, "region_id");
  ASSERT_TRUE(enc_regions.ok() && enc_suppliers.ok() && enc_offices.ok());

  EncryptedServer series_server, sequential_server;
  for (EncryptedServer* s : {&series_server, &sequential_server}) {
    ASSERT_TRUE(s->StoreTable(*enc_regions).ok());
    ASSERT_TRUE(s->StoreTable(*enc_suppliers).ok());
    ASSERT_TRUE(s->StoreTable(*enc_offices).ok());
  }

  JoinQuerySpec q1;
  q1.table_a = "Regions";
  q1.table_b = "Suppliers";
  q1.join_column_a = q1.join_column_b = "region_id";
  JoinQuerySpec q2;
  q2.table_a = "Suppliers";
  q2.table_b = "Offices";
  q2.join_column_a = q2.join_column_b = "region_id";

  auto chain = client.PrepareChain(
      {q1, q2}, {&*enc_regions, &*enc_suppliers, &*enc_offices});
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();
  ASSERT_EQ(chain->queries.size(), 2u);

  auto batched = series_server.ExecuteJoinSeries(*chain);
  ASSERT_TRUE(batched.ok());
  // Suppliers (3 rows) is decrypted once, not twice: 3+3 + 3+3 requested,
  // the second Suppliers pass is all cache hits.
  EXPECT_EQ(batched->stats.decrypts_requested, 12u);
  EXPECT_EQ(batched->stats.decrypts_performed, 9u);
  EXPECT_EQ(batched->stats.digest_cache_hits, 3u);

  // Chain results still equal one-at-a-time execution of the same tokens.
  for (size_t q = 0; q < chain->queries.size(); ++q) {
    auto r = sequential_server.ExecuteJoin(chain->queries[q]);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(batched->results[q].matched_row_indices,
              r->matched_row_indices);
  }

  // Shared-key chains leak across queries: region 3's Regions row (table
  // 0, row 2) and Offices row (table 2, row 2) match in NO join result,
  // but their digests collide under the shared query key and the tracker
  // must record that the server linked them.
  EXPECT_TRUE(series_server.leakage().Linked({0, 2}, {2, 2}));
}

// A chain reuses a table's token only for byte-identical selections: the
// cache key length-prefixes every chunk, so values whose raw bytes embed
// separator-looking content cannot collide with a different value list.
TEST(SeriesChainTest, ChainDistinguishesSelectionsWithEmbeddedSeparators) {
  Table left("Left", Schema({{"k", ValueKind::kInt64},
                             {"tag", ValueKind::kString}}));
  SJOIN_CHECK(left.AppendRow({int64_t{1}, std::string("a\x00\x01"
                                                      "b",
                                                      4)}).ok());
  Table mid("Mid", Schema({{"k", ValueKind::kInt64},
                           {"tag", ValueKind::kString}}));
  SJOIN_CHECK(mid.AppendRow({int64_t{1}, "a"}).ok());
  SJOIN_CHECK(mid.AppendRow({int64_t{1}, "b"}).ok());

  EncryptedClient client({.num_attrs = 1, .max_in_clause = 2,
                          .rng_seed = 902});
  auto enc_left = client.EncryptTable(left, "k");
  auto enc_mid = client.EncryptTable(mid, "k");
  ASSERT_TRUE(enc_left.ok() && enc_mid.ok());

  // Query 1 selects Mid.tag IN {"a\0\1b"}; query 2 selects
  // Mid.tag IN {"a", "b"}. Concatenation-based keys collide here; the
  // tokens must nevertheless differ (different predicate polynomials).
  JoinQuerySpec q1;
  q1.table_a = "Left";
  q1.table_b = "Mid";
  q1.join_column_a = q1.join_column_b = "k";
  JoinQuerySpec q2 = q1;
  q1.selection_b.predicates = {
      {"tag", {Value(std::string("a\x00\x01"
                                 "b",
                                 4))}}};
  q2.selection_b.predicates = {{"tag", {Value("a"), Value("b")}}};

  auto chain = client.PrepareChain({q1, q2}, {&*enc_left, &*enc_mid});
  ASSERT_TRUE(chain.ok()) << chain.status().ToString();

  EncryptedServer server;
  ASSERT_TRUE(server.StoreTable(*enc_left).ok());
  ASSERT_TRUE(server.StoreTable(*enc_mid).ok());
  auto batched = server.ExecuteJoinSeries(*chain);
  ASSERT_TRUE(batched.ok());
  // Query 1 matches no Mid row; query 2 matches both. Token reuse would
  // silently give both queries the same (wrong) answer.
  EXPECT_EQ(batched->results[0].stats.result_pairs, 0u);
  EXPECT_EQ(batched->results[1].stats.result_pairs, 2u);
}

// (b'') Stats reconcile: pairings computed vs cache hits are distinguished
// and the counters add up (the digest-cache hit path must not count as a
// performed decrypt, and every performed decrypt is either a cold pairing
// or a prepared one).
TEST_F(SeriesTest, StatsDistinguishPairingsFromCacheHits) {
  auto series = client_->PrepareSeries({TeamsEmployeesSpec()}, Tables());
  ASSERT_TRUE(series.ok());
  series->queries.push_back(series->queries[0]);  // identical tokens replayed

  auto batched =
      series_server_.ExecuteJoinSeries(*series, {.num_threads = 1});
  ASSERT_TRUE(batched.ok());
  const SeriesExecStats& s = batched->stats;
  EXPECT_EQ(s.decrypts_requested, s.decrypts_performed + s.digest_cache_hits);
  EXPECT_EQ(s.decrypts_performed, s.pairings_computed + s.prepared_pairings);
  EXPECT_EQ(s.prepared_pairings,
            s.prepared_rows_built + s.prepared_cache_hits);
  // 2 + 4 rows once; the replay is served by the digest cache and computes
  // NO pairings of either kind.
  EXPECT_EQ(s.decrypts_performed, 6u);
  EXPECT_EQ(s.digest_cache_hits, 6u);
  // First touch of every row: the prepared pipeline built each entry.
  EXPECT_EQ(s.prepared_rows_built, 6u);
  EXPECT_EQ(s.pairings_computed, 0u);
}

// Tentpole: a second series against warm tables skips all G2 line
// derivation -- every decrypt is served from the prepared-row cache even
// though its tokens are fresh.
TEST_F(SeriesTest, SecondSeriesAgainstWarmTablesSkipsLineDerivation) {
  auto first = client_->PrepareSeries({TeamsEmployeesSpec()}, Tables());
  auto second = client_->PrepareSeries({TeamsEmployeesSpec()}, Tables());
  ASSERT_TRUE(first.ok() && second.ok());

  auto cold = series_server_.ExecuteJoinSeries(*first, {.num_threads = 1});
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->stats.prepared_rows_built, 6u);
  EXPECT_EQ(cold->stats.prepared_cache_hits, 0u);

  auto warm = series_server_.ExecuteJoinSeries(*second, {.num_threads = 1});
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->stats.prepared_rows_built, 0u);
  EXPECT_EQ(warm->stats.prepared_cache_hits, 6u);
  EXPECT_EQ(warm->stats.pairings_computed, 0u);
  EXPECT_EQ(series_server_.prepared_cache().stats().entries, 6u);

  // Fresh tokens, same predicates: identical join results either way.
  EXPECT_EQ(cold->results[0].matched_row_indices,
            warm->results[0].matched_row_indices);
}

// Disabling the prepared pipeline (eviction knob at 0) falls back to cold
// full pairings with identical results.
TEST_F(SeriesTest, PreparedPipelineDisabledComputesColdPairings) {
  auto series = client_->PrepareSeries({TeamsEmployeesSpec()}, Tables());
  ASSERT_TRUE(series.ok());
  auto batched = series_server_.ExecuteJoinSeries(
      *series, {.num_threads = 1, .prepared_cache_bytes = 0});
  ASSERT_TRUE(batched.ok());
  const SeriesExecStats& s = batched->stats;
  EXPECT_EQ(s.pairings_computed, s.decrypts_performed);
  EXPECT_EQ(s.prepared_pairings, 0u);
  EXPECT_EQ(s.prepared_rows_built, 0u);
  EXPECT_EQ(series_server_.prepared_cache().stats().entries, 0u);
  ExpectSameResults(batched->results, RunSequentially(*series));
}

// (c) Leakage over a series matches sequential semantics, including the
// cross-query transitive closure (LeakageTest.TransitiveClosureAcrossQueries
// at the engine level: two queries each reveal disjoint pair sets whose
// union closes into larger classes).
TEST_F(SeriesTest, SeriesLeakageMatchesSequentialTransitiveClosure) {
  JoinQuerySpec testers = TeamsEmployeesSpec();
  testers.selection_b.predicates = {{"role", {Value("Tester")}}};
  JoinQuerySpec programmers = TeamsEmployeesSpec();
  programmers.selection_b.predicates = {{"role", {Value("Programmer")}}};

  auto series = client_->PrepareSeries({testers, programmers}, Tables());
  ASSERT_TRUE(series.ok());
  auto batched = series_server_.ExecuteJoinSeries(*series);
  ASSERT_TRUE(batched.ok());
  RunSequentially(*series);

  // Per query the server sees only (team, one employee) pairs; the closure
  // links the two employees of each team through their team row:
  // {T0, E0, E1} and {T1, E2, E3} -> 3 + 3 pairs.
  EXPECT_EQ(series_server_.leakage().RevealedPairCount(), 6u);
  EXPECT_EQ(sequential_server_.leakage().RevealedPairCount(), 6u);
  // Cross-query link: Kaily (row 1) and Hans (row 0) were revealed by
  // different queries, joined transitively through their team.
  EXPECT_TRUE(series_server_.leakage().Linked({1, 0}, {1, 1}));

  auto series_classes = series_server_.leakage().EqualityClasses();
  auto seq_classes = sequential_server_.leakage().EqualityClasses();
  ASSERT_EQ(series_classes.size(), seq_classes.size());
  for (size_t i = 0; i < series_classes.size(); ++i) {
    EXPECT_EQ(series_classes[i], seq_classes[i]);
  }
}

TEST_F(SeriesTest, SeriesHonorsExecOptions) {
  auto series = client_->PrepareSeries(
      {TeamsEmployeesSpec(), TeamsEmployeesSpec()}, Tables());
  ASSERT_TRUE(series.ok());
  auto pool_default = series_server_.ExecuteJoinSeries(
      *series, {.num_threads = 0});
  auto four = series_server_.ExecuteJoinSeries(*series, {.num_threads = 4});
  ASSERT_TRUE(pool_default.ok() && four.ok());
  for (size_t q = 0; q < 2; ++q) {
    EXPECT_EQ(pool_default->results[q].matched_row_indices,
              four->results[q].matched_row_indices);
  }
}

TEST_F(SeriesTest, SeriesErrorsBeforePartialExecution) {
  auto series = client_->PrepareSeries({TeamsEmployeesSpec()}, Tables());
  ASSERT_TRUE(series.ok());
  series->queries.push_back(series->queries[0]);
  series->queries[1].table_b = "NoSuchTable";
  auto r = series_server_.ExecuteJoinSeries(*series);
  EXPECT_FALSE(r.ok());
  // The bad batch must not have leaked observations from its first query.
  EXPECT_EQ(series_server_.leakage().RevealedPairCount(), 0u);

  EXPECT_FALSE(
      client_->PrepareSeries({TeamsEmployeesSpec()}, {&enc_teams_}).ok());

  auto empty = series_server_.ExecuteJoinSeries(QuerySeriesTokens{});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->results.empty());
}

TEST_F(SeriesTest, SeriesWireRoundTrip) {
  auto series = client_->PrepareSeries(
      {TeamsEmployeesSpec(), TeamsEmployeesSpec()}, Tables());
  ASSERT_TRUE(series.ok());

  Bytes wire = SerializeQuerySeries(*series);
  auto parsed = DeserializeQuerySeries(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->queries.size(), 2u);

  // The deserialized batch executes identically to the original.
  auto from_wire = series_server_.ExecuteJoinSeries(*parsed);
  auto direct = sequential_server_.ExecuteJoinSeries(*series);
  ASSERT_TRUE(from_wire.ok() && direct.ok());
  ExpectSameResults(from_wire->results, direct->results);

  Bytes result_wire = SerializeSeriesResult(*from_wire);
  auto parsed_result = DeserializeSeriesResult(result_wire);
  ASSERT_TRUE(parsed_result.ok()) << parsed_result.status().ToString();
  ASSERT_EQ(parsed_result->results.size(), from_wire->results.size());
  EXPECT_EQ(parsed_result->stats.decrypts_performed,
            from_wire->stats.decrypts_performed);
  EXPECT_EQ(parsed_result->stats.digest_cache_hits,
            from_wire->stats.digest_cache_hits);
  EXPECT_EQ(parsed_result->stats.pairings_computed,
            from_wire->stats.pairings_computed);
  EXPECT_EQ(parsed_result->stats.prepared_pairings,
            from_wire->stats.prepared_pairings);
  EXPECT_EQ(parsed_result->stats.prepared_rows_built,
            from_wire->stats.prepared_rows_built);
  EXPECT_EQ(parsed_result->stats.prepared_cache_hits,
            from_wire->stats.prepared_cache_hits);
  for (size_t q = 0; q < from_wire->results.size(); ++q) {
    EXPECT_EQ(parsed_result->results[q].matched_row_indices,
              from_wire->results[q].matched_row_indices);
  }

  // Series messages are tagged: a single-query message must be rejected.
  EXPECT_FALSE(
      DeserializeQuerySeries(SerializeJoinQueryTokens(series->queries[0]))
          .ok());
}

// --- Sharded execution ---------------------------------------------------------

// The sharded engine must be an implementation detail: same results (down
// to the payload bytes the client decrypts), same leakage, only the stats
// gain a per-shard breakdown.
TEST_F(SeriesTest, ShardedSeriesBitIdenticalToUnsharded) {
  JoinQuerySpec unrestricted = TeamsEmployeesSpec();
  JoinQuerySpec testers = TeamsEmployeesSpec();
  testers.selection_b.predicates = {{"role", {Value("Tester")}}};
  auto series = client_->PrepareSeries({unrestricted, testers}, Tables());
  ASSERT_TRUE(series.ok());

  auto sharded = series_server_.ExecuteJoinSeriesSharded(
      *series, {.num_shards = 3});
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  auto plain = sequential_server_.ExecuteJoinSeries(*series);
  ASSERT_TRUE(plain.ok());

  ASSERT_EQ(sharded->results.size(), plain->results.size());
  for (size_t q = 0; q < plain->results.size(); ++q) {
    EXPECT_EQ(sharded->results[q].matched_row_indices,
              plain->results[q].matched_row_indices);
    ASSERT_EQ(sharded->results[q].row_pairs.size(),
              plain->results[q].row_pairs.size());
    for (size_t i = 0; i < plain->results[q].row_pairs.size(); ++i) {
      EXPECT_EQ(sharded->results[q].row_pairs[i].first.body,
                plain->results[q].row_pairs[i].first.body);
      EXPECT_EQ(sharded->results[q].row_pairs[i].second.body,
                plain->results[q].row_pairs[i].second.body);
    }
  }
  // Identical leakage: the partition never changes what the server sees.
  auto sharded_classes = series_server_.leakage().EqualityClasses();
  auto plain_classes = sequential_server_.leakage().EqualityClasses();
  ASSERT_EQ(sharded_classes.size(), plain_classes.size());
  for (size_t i = 0; i < sharded_classes.size(); ++i) {
    EXPECT_EQ(sharded_classes[i], plain_classes[i]);
  }
}

// K far beyond the row count: the effective shard count clamps to the
// largest referenced table (Employees, 4 rows), so no empty shard ever
// gets a stats slot or schedules a pool task.
TEST_F(SeriesTest, ShardCountClampedToRowCount) {
  auto series = client_->PrepareSeries({TeamsEmployeesSpec()}, Tables());
  ASSERT_TRUE(series.ok());
  auto r = series_server_.ExecuteJoinSeriesSharded(*series,
                                                   {.num_shards = 64});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.shards, 4u);  // max(2 Teams rows, 4 Employees rows)
  EXPECT_EQ(r->stats.shard_stats.size(), 4u);  // not 64
  // All 6 decrypts happened, distributed over the real shards only.
  size_t sum = 0;
  for (const ShardExecStats& s : r->stats.shard_stats) {
    sum += s.decrypts_performed;
  }
  EXPECT_EQ(sum, 6u);
  EXPECT_EQ(r->stats.decrypts_performed, 6u);

  // Results still match the unsharded twin.
  auto plain = sequential_server_.ExecuteJoinSeries(*series);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(r->results[0].matched_row_indices,
            plain->results[0].matched_row_indices);
}

// An empty series has no shards at all.
TEST_F(SeriesTest, EmptyShardedSeriesAllocatesNothing) {
  auto r = series_server_.ExecuteJoinSeriesSharded(QuerySeriesTokens{},
                                                   {.num_shards = 8});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->results.empty());
  EXPECT_EQ(r->stats.shards, 0u);
  EXPECT_TRUE(r->stats.shard_stats.empty());
}

TEST(SeriesWireTest, OutOfRangeSseColumnIndexMatchesNothing) {
  // column_index is wire-controlled; an index past the row's tag vector
  // must select nothing instead of reading out of bounds.
  std::array<uint8_t, 32> master{3};
  SseKey key(master);
  Rng rng(903);
  SseRowTags row;
  row.salt = SseKey::RandomSalt(&rng);
  row.tags = {key.TagFor("T", "c", Value("x"), row.salt)};
  std::vector<SseTokenGroup> groups = {
      {99, {key.TokenFor("T", "c", Value("x"))}}};
  EXPECT_TRUE(SseSelectRows({row}, groups).empty());
}

TEST(SeriesWireTest, HugeCountRejectedWithoutAllocation) {
  // The current version (byte 0 of a fresh message), series tags, count =
  // 0xFFFFFFFF, no payload: the header passes, so the decoder reaches the
  // hostile count and must come back with a truncated read (OutOfRange),
  // not an attempted multi-GB allocation.
  const uint8_t version = SerializeQuerySeries(QuerySeriesTokens{})[0];
  Bytes query_msg = {version, 0x71, 0xFF, 0xFF, 0xFF, 0xFF};
  auto query = DeserializeQuerySeries(query_msg);
  ASSERT_FALSE(query.ok());
  EXPECT_EQ(query.status().code(), StatusCode::kOutOfRange)
      << query.status().ToString();
  Bytes result_msg = {version, 0x72, 0xFF, 0xFF, 0xFF, 0xFF};
  auto result = DeserializeSeriesResult(result_msg);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange)
      << result.status().ToString();
}

}  // namespace
}  // namespace sjoin
