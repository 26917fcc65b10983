// Relational substrate tests: values, tables, plaintext executors, SSE
// pre-filter, and the full encrypted client/server round trip checked
// against the plaintext ground truth.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "db/client.h"
#include "db/plaintext_exec.h"
#include "db/server.h"

namespace sjoin {
namespace {

// --- Value -------------------------------------------------------------------

TEST(ValueTest, KindsAndAccessors) {
  Value i(int64_t{42});
  Value s("hello");
  EXPECT_TRUE(i.is_int());
  EXPECT_FALSE(s.is_int());
  EXPECT_EQ(i.AsInt(), 42);
  EXPECT_EQ(s.AsString(), "hello");
  EXPECT_EQ(i.ToDisplayString(), "42");
  EXPECT_EQ(s.ToDisplayString(), "hello");
}

TEST(ValueTest, EqualityAndOrdering) {
  EXPECT_EQ(Value(int64_t{1}), Value(int64_t{1}));
  EXPECT_NE(Value(int64_t{1}), Value(int64_t{2}));
  EXPECT_NE(Value("1"), Value(int64_t{1}));
  EXPECT_LT(Value(int64_t{1}), Value(int64_t{2}));
}

TEST(ValueTest, CanonicalBytesInjective) {
  // Int and string encodings of "the same" content differ.
  std::set<Bytes> seen;
  seen.insert(Value(int64_t{42}).ToBytes());
  seen.insert(Value("42").ToBytes());
  seen.insert(Value(int64_t{-42}).ToBytes());
  seen.insert(Value("").ToBytes());
  EXPECT_EQ(seen.size(), 4u);
}

TEST(ValueTest, SerializationRoundTrip) {
  Bytes buf;
  Value(int64_t{-7}).SerializeTo(&buf);
  Value("abc def").SerializeTo(&buf);
  Value(int64_t{1} << 60).SerializeTo(&buf);
  size_t pos = 0;
  auto v1 = Value::DeserializeFrom(buf, &pos);
  auto v2 = Value::DeserializeFrom(buf, &pos);
  auto v3 = Value::DeserializeFrom(buf, &pos);
  ASSERT_TRUE(v1.ok() && v2.ok() && v3.ok());
  EXPECT_EQ(*v1, Value(int64_t{-7}));
  EXPECT_EQ(*v2, Value("abc def"));
  EXPECT_EQ(*v3, Value(int64_t{1} << 60));
  EXPECT_EQ(pos, buf.size());
}

TEST(ValueTest, DeserializeRejectsTruncation) {
  Bytes buf;
  Value("hello").SerializeTo(&buf);
  buf.pop_back();
  size_t pos = 0;
  EXPECT_FALSE(Value::DeserializeFrom(buf, &pos).ok());
}

// --- Table --------------------------------------------------------------------

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

TEST(TableTest, SchemaLookups) {
  Table t = MakeTeams();
  EXPECT_EQ(t.NumRows(), 2u);
  EXPECT_TRUE(t.schema().HasColumn("key"));
  EXPECT_FALSE(t.schema().HasColumn("nope"));
  auto v = t.ValueByName(1, "name");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, Value("Database"));
}

TEST(TableTest, AppendRowValidation) {
  Table t = MakeTeams();
  EXPECT_FALSE(t.AppendRow({int64_t{3}}).ok());                    // arity
  EXPECT_FALSE(t.AppendRow({"three", "Backend"}).ok());            // kind
  EXPECT_TRUE(t.AppendRow({int64_t{3}, "Backend"}).ok());
}

// --- Plaintext executors -------------------------------------------------------

JoinQuerySpec PaperQueryT1() {
  // t1: ... WHERE Name = "Web Application" AND Role = "Tester"
  JoinQuerySpec q;
  q.table_a = "Teams";
  q.table_b = "Employees";
  q.join_column_a = "key";
  q.join_column_b = "team";
  q.selection_a.predicates = {{"name", {Value("Web Application")}}};
  q.selection_b.predicates = {{"role", {Value("Tester")}}};
  return q;
}

TEST(PlaintextJoinTest, PaperExampleQueryT1) {
  Table teams = MakeTeams();
  Table employees = MakeEmployees();
  auto result = PlaintextHashJoin(teams, employees, PaperQueryT1());
  ASSERT_TRUE(result.ok());
  // Table 3 of the paper: exactly (team row 0, employee "Kaily" row 1).
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].row_a, 0u);
  EXPECT_EQ((*result)[0].row_b, 1u);
}

TEST(PlaintextJoinTest, HashMatchesNestedLoop) {
  Table teams = MakeTeams();
  Table employees = MakeEmployees();
  JoinQuerySpec q = PaperQueryT1();
  q.selection_a.predicates.clear();  // unrestricted: 4 pairs
  q.selection_b.predicates.clear();
  auto h = PlaintextHashJoin(teams, employees, q);
  auto n = PlaintextNestedLoopJoin(teams, employees, q);
  ASSERT_TRUE(h.ok() && n.ok());
  auto hs = *h, ns = *n;
  std::sort(hs.begin(), hs.end());
  std::sort(ns.begin(), ns.end());
  EXPECT_EQ(hs, ns);
  EXPECT_EQ(hs.size(), 4u);
}

TEST(PlaintextJoinTest, InClauseWithSeveralValues) {
  Table teams = MakeTeams();
  Table employees = MakeEmployees();
  JoinQuerySpec q = PaperQueryT1();
  q.selection_a.predicates.clear();
  q.selection_b.predicates = {{"role", {Value("Tester"), Value("Programmer")}}};
  auto result = PlaintextHashJoin(teams, employees, q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 4u);
}

TEST(PlaintextJoinTest, ErrorsSurfaceCleanly) {
  Table teams = MakeTeams();
  Table employees = MakeEmployees();
  JoinQuerySpec q = PaperQueryT1();
  q.join_column_a = "nonexistent";
  EXPECT_FALSE(PlaintextHashJoin(teams, employees, q).ok());
  q = PaperQueryT1();
  q.selection_b.predicates = {{"role", {}}};
  EXPECT_FALSE(PlaintextHashJoin(teams, employees, q).ok());
}

// --- SSE -----------------------------------------------------------------------

TEST(SseTest, TokenMatchesOwnTagOnly) {
  std::array<uint8_t, 32> master{1, 2, 3};
  SseKey key(master);
  Rng rng(450);
  SseSalt salt = SseKey::RandomSalt(&rng);
  SseTag tag = key.TagFor("T", "c", Value("x"), salt);
  EXPECT_TRUE(SseTokenMatches(key.TokenFor("T", "c", Value("x")), salt, tag));
  EXPECT_FALSE(SseTokenMatches(key.TokenFor("T", "c", Value("y")), salt, tag));
  EXPECT_FALSE(SseTokenMatches(key.TokenFor("T", "d", Value("x")), salt, tag));
  EXPECT_FALSE(SseTokenMatches(key.TokenFor("U", "c", Value("x")), salt, tag));
}

TEST(SseTest, SaltedTagsHideEqualityAtRest) {
  // Two rows with the same value get different tags: no t0 leakage.
  std::array<uint8_t, 32> master{4};
  SseKey key(master);
  Rng rng(451);
  SseSalt s1 = SseKey::RandomSalt(&rng);
  SseSalt s2 = SseKey::RandomSalt(&rng);
  EXPECT_NE(key.TagFor("T", "c", Value("x"), s1),
            key.TagFor("T", "c", Value("x"), s2));
}

TEST(SseTest, SelectRowsConjunctionSemantics) {
  std::array<uint8_t, 32> master{9};
  SseKey key(master);
  Rng rng(452);
  auto make_row = [&](int64_t a, const char* b) {
    SseRowTags row;
    row.salt = SseKey::RandomSalt(&rng);
    row.tags = {key.TagFor("T", "a", Value(a), row.salt),
                key.TagFor("T", "b", Value(b), row.salt)};
    return row;
  };
  std::vector<SseRowTags> rows = {make_row(1, "x"), make_row(1, "y"),
                                  make_row(2, "x")};
  // a IN {1} AND b IN {x}: only row 0.
  std::vector<SseTokenGroup> groups = {
      {0, {key.TokenFor("T", "a", Value(int64_t{1}))}},
      {1, {key.TokenFor("T", "b", Value("x"))}},
  };
  EXPECT_EQ(SseSelectRows(rows, groups), (std::vector<size_t>{0}));
  // a IN {1, 2} AND b IN {x}: rows 0, 2.
  groups = {
      {0,
       {key.TokenFor("T", "a", Value(int64_t{1})),
        key.TokenFor("T", "a", Value(int64_t{2}))}},
      {1, {key.TokenFor("T", "b", Value("x"))}},
  };
  EXPECT_EQ(SseSelectRows(rows, groups), (std::vector<size_t>{0, 2}));
  // No predicates: everything.
  EXPECT_EQ(SseSelectRows(rows, {}).size(), 3u);
}

// --- Encrypted end-to-end --------------------------------------------------------

class EncryptedDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    client_ = std::make_unique<EncryptedClient>(ClientOptions{
        .num_attrs = 3, .max_in_clause = 2, .rng_seed = 400});
    teams_ = MakeTeams();
    employees_ = MakeEmployees();
    auto enc_teams = client_->EncryptTable(teams_, "key");
    auto enc_emps = client_->EncryptTable(employees_, "team");
    ASSERT_TRUE(enc_teams.ok()) << enc_teams.status().ToString();
    ASSERT_TRUE(enc_emps.ok()) << enc_emps.status().ToString();
    ASSERT_TRUE(server_.StoreTable(*enc_teams).ok());
    ASSERT_TRUE(server_.StoreTable(*enc_emps).ok());
  }

  Result<Table> RunQuery(const JoinQuerySpec& q,
                         const ServerExecOptions& opts = {}) {
    auto enc_a = server_.GetTable(q.table_a);
    auto enc_b = server_.GetTable(q.table_b);
    SJOIN_RETURN_IF_ERROR(enc_a.status());
    SJOIN_RETURN_IF_ERROR(enc_b.status());
    auto tokens = client_->BuildQueryTokens(q, **enc_a, **enc_b);
    SJOIN_RETURN_IF_ERROR(tokens.status());
    auto result = server_.ExecuteJoin(*tokens, opts);
    SJOIN_RETURN_IF_ERROR(result.status());
    return client_->DecryptJoinResult(*result, **enc_a, **enc_b);
  }

  std::unique_ptr<EncryptedClient> client_;
  EncryptedServer server_;
  Table teams_, employees_;
};

TEST_F(EncryptedDbTest, PaperQueryT1MatchesPlaintext) {
  auto joined = RunQuery(PaperQueryT1());
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  ASSERT_EQ(joined->NumRows(), 1u);
  // (theta=1, Teams.name="Web Application", record=2, "Kaily", "Tester")
  EXPECT_EQ(joined->At(0, 0), Value(int64_t{1}));
  EXPECT_EQ(joined->At(0, 1), Value("Web Application"));
  EXPECT_EQ(joined->At(0, 3), Value("Kaily"));
  EXPECT_EQ(joined->At(0, 4), Value("Tester"));
}

TEST_F(EncryptedDbTest, UnrestrictedJoinMatchesPlaintext) {
  JoinQuerySpec q = PaperQueryT1();
  q.selection_a.predicates.clear();
  q.selection_b.predicates.clear();
  auto joined = RunQuery(q);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  auto expect = PlaintextHashJoin(teams_, employees_, q);
  ASSERT_TRUE(expect.ok());
  EXPECT_EQ(joined->NumRows(), expect->size());
}

TEST_F(EncryptedDbTest, EmptyResultWhenNoRowSatisfiesSelection) {
  JoinQuerySpec q = PaperQueryT1();
  q.selection_b.predicates = {{"role", {Value("Manager")}}};
  auto joined = RunQuery(q);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->NumRows(), 0u);
}

TEST_F(EncryptedDbTest, MultithreadedDecryptMatches) {
  JoinQuerySpec q = PaperQueryT1();
  q.selection_a.predicates.clear();
  q.selection_b.predicates.clear();
  auto one = RunQuery(q, {.num_threads = 1});
  auto many = RunQuery(q, {.num_threads = 4});
  ASSERT_TRUE(one.ok() && many.ok());
  EXPECT_EQ(one->NumRows(), many->NumRows());
}

TEST_F(EncryptedDbTest, QueryErrorsPropagate) {
  JoinQuerySpec q = PaperQueryT1();
  q.table_a = "NoSuchTable";
  EXPECT_FALSE(RunQuery(q).ok());

  q = PaperQueryT1();
  // IN clause larger than t = 2.
  q.selection_b.predicates = {
      {"role", {Value("a"), Value("b"), Value("c")}}};
  EXPECT_FALSE(RunQuery(q).ok());

  q = PaperQueryT1();
  q.selection_b.predicates = {{"team", {Value(int64_t{1})}}};  // join col
  EXPECT_FALSE(RunQuery(q).ok());
}

TEST_F(EncryptedDbTest, ClientRejectsTooManyAttributes) {
  Table wide("Wide", Schema({{"j", ValueKind::kInt64},
                             {"a", ValueKind::kInt64},
                             {"b", ValueKind::kInt64},
                             {"c", ValueKind::kInt64},
                             {"d", ValueKind::kInt64}}));
  ASSERT_TRUE(
      wide.AppendRow({int64_t{1}, int64_t{2}, int64_t{3}, int64_t{4},
                      int64_t{5}})
          .ok());
  // num_attrs = 3 < 4 filterable columns.
  EXPECT_FALSE(client_->EncryptTable(wide, "j").ok());
}

TEST_F(EncryptedDbTest, DuplicateTableNameRejected) {
  auto enc = client_->EncryptTable(teams_, "key");
  ASSERT_TRUE(enc.ok());
  EXPECT_FALSE(server_.StoreTable(*enc).ok());
}

TEST_F(EncryptedDbTest, StatsReflectPrefilter) {
  auto enc_a = server_.GetTable("Teams");
  auto enc_b = server_.GetTable("Employees");
  auto tokens = client_->BuildQueryTokens(PaperQueryT1(), **enc_a, **enc_b);
  ASSERT_TRUE(tokens.ok());
  auto result = server_.ExecuteJoin(*tokens);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.rows_total_a, 2u);
  EXPECT_EQ(result->stats.rows_total_b, 4u);
  EXPECT_EQ(result->stats.rows_selected_a, 1u);  // name = Web Application
  EXPECT_EQ(result->stats.rows_selected_b, 2u);  // role = Tester
  EXPECT_EQ(result->stats.result_pairs, 1u);
}

TEST_F(EncryptedDbTest, ExecuteJoinHonoursPreparedCacheOption) {
  // ExecuteJoin runs as a one-query series, so ServerExecOptions applies:
  // prepared_cache_bytes = 0 keeps its SJ.Dec cold, the default prepares
  // every selected row into the server's cache. Same matches either way.
  auto enc_a = server_.GetTable("Teams");
  auto enc_b = server_.GetTable("Employees");
  auto tokens = client_->BuildQueryTokens(PaperQueryT1(), **enc_a, **enc_b);
  ASSERT_TRUE(tokens.ok());
  auto cold = server_.ExecuteJoin(*tokens, {.prepared_cache_bytes = 0});
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(server_.prepared_cache().stats().entries, 0u);

  auto warm = server_.ExecuteJoin(*tokens);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(server_.prepared_cache().stats().entries,
            warm->stats.rows_selected_a + warm->stats.rows_selected_b);
  EXPECT_EQ(warm->matched_row_indices, cold->matched_row_indices);
  EXPECT_EQ(warm->matched_row_indices.size(), 1u);
}

TEST_F(EncryptedDbTest, LeakageIsPerQueryMinimum) {
  // Paper t1 then t2; server must link only the two matched pairs, never all
  // six equal pairs (the Hahn et al. super-additive leakage).
  auto r1 = RunQuery(PaperQueryT1());
  ASSERT_TRUE(r1.ok());
  JoinQuerySpec q2 = PaperQueryT1();
  q2.selection_a.predicates = {{"name", {Value("Database")}}};
  q2.selection_b.predicates = {{"role", {Value("Programmer")}}};
  auto r2 = RunQuery(q2);
  ASSERT_TRUE(r2.ok());
  // Exactly 2 pairs: (teams.0, employees.1) and (teams.1, employees.2).
  EXPECT_EQ(server_.leakage().RevealedPairCount(), 2u);
  EXPECT_TRUE(server_.leakage().Linked({0, 0}, {1, 1}));
  EXPECT_TRUE(server_.leakage().Linked({0, 1}, {1, 2}));
  EXPECT_FALSE(server_.leakage().Linked({1, 1}, {1, 3}));
}

TEST_F(EncryptedDbTest, SseDisabledStillCorrectButDecryptsEverything) {
  EncryptedClient client(ClientOptions{.num_attrs = 3,
                                       .max_in_clause = 2,
                                       .enable_sse_prefilter = false,
                                       .rng_seed = 401});
  EncryptedServer server;
  auto enc_teams = client.EncryptTable(teams_, "key");
  auto enc_emps = client.EncryptTable(employees_, "team");
  ASSERT_TRUE(enc_teams.ok() && enc_emps.ok());
  ASSERT_TRUE(server.StoreTable(*enc_teams).ok());
  ASSERT_TRUE(server.StoreTable(*enc_emps).ok());
  auto tokens = client.BuildQueryTokens(PaperQueryT1(), *enc_teams, *enc_emps);
  ASSERT_TRUE(tokens.ok());
  auto result = server.ExecuteJoin(*tokens);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.rows_selected_a, 2u);  // no prefilter
  EXPECT_EQ(result->stats.rows_selected_b, 4u);
  EXPECT_EQ(result->stats.result_pairs, 1u);     // SJ still filters
  auto joined = client.DecryptJoinResult(*result, *enc_teams, *enc_emps);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->NumRows(), 1u);
}

}  // namespace
}  // namespace sjoin
