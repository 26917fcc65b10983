// Server-side join backends and the adaptive hybrid executor: fast
// tag-join backends must produce results byte-identical to the pairing
// pipeline, dispatch must respect the client/server policy masks and the
// per-table leakage budgets, and the budget ledger must be monotone and
// all-or-nothing. Labeled `baselines` with baselines_test (ctest -L
// baselines): these backends are the Section 6.5 comparison schemes
// re-homed into the server.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/leakage.h"
#include "db/client.h"
#include "db/plaintext_exec.h"
#include "db/server.h"
#include "db/wire.h"

namespace sjoin {
namespace {

// --- LeakageTracker budget ledger ---------------------------------------------

TEST(LeakageBudgetTest, UnlimitedByDefault) {
  LeakageTracker t;
  EXPECT_EQ(t.BudgetLimit(0), LeakageTracker::kUnlimitedBudget);
  EXPECT_EQ(t.BudgetRemaining(0), LeakageTracker::kUnlimitedBudget);
  EXPECT_EQ(t.BudgetSpent(0), 0u);
  std::vector<LeakageTracker::Charge> huge = {{0, ~uint64_t{0} / 2}};
  EXPECT_TRUE(t.TryCharge(huge));
}

TEST(LeakageBudgetTest, SetBudgetOnlyTightens) {
  LeakageTracker t;
  t.SetBudget(0, 100);
  EXPECT_EQ(t.BudgetLimit(0), 100u);
  t.SetBudget(0, 200);  // loosening is ignored: "cannot unlearn"
  EXPECT_EQ(t.BudgetLimit(0), 100u);
  t.SetBudget(0, 50);
  EXPECT_EQ(t.BudgetLimit(0), 50u);
}

TEST(LeakageBudgetTest, TryChargeIsAllOrNothingAcrossTables) {
  LeakageTracker t;
  t.SetBudget(0, 10);
  t.SetBudget(1, 5);
  // Table 1 cannot absorb its share: NOTHING may be recorded.
  std::vector<LeakageTracker::Charge> too_much = {{0, 8}, {1, 6}};
  EXPECT_FALSE(t.TryCharge(too_much));
  EXPECT_EQ(t.BudgetSpent(0), 0u);
  EXPECT_EQ(t.BudgetSpent(1), 0u);
  std::vector<LeakageTracker::Charge> fits = {{0, 8}, {1, 5}};
  EXPECT_TRUE(t.TryCharge(fits));
  EXPECT_EQ(t.BudgetSpent(0), 8u);
  EXPECT_EQ(t.BudgetRemaining(0), 2u);
  EXPECT_EQ(t.BudgetRemaining(1), 0u);
  // Spend is permanent: the next overdraft still fails.
  std::vector<LeakageTracker::Charge> overdraft = {{0, 3}};
  EXPECT_FALSE(t.TryCharge(overdraft));
  EXPECT_EQ(t.BudgetSpent(0), 8u);
}

TEST(LeakageBudgetTest, SplitChargesOnOneTableAggregate) {
  LeakageTracker t;
  t.SetBudget(0, 10);
  // Two entries for the same table must be summed before the check.
  std::vector<LeakageTracker::Charge> split = {{0, 6}, {0, 6}};
  EXPECT_FALSE(t.TryCharge(split));
  EXPECT_EQ(t.BudgetSpent(0), 0u);
}

TEST(LeakageBudgetTest, RevealedPairCountForSplitsByTable) {
  LeakageTracker t;
  // One equality class spanning {A0, A1, B0}: A sees its in-table pair
  // plus two cross links; B sees only the two cross links.
  std::vector<RowId> group = {RowId{0, 0}, RowId{0, 1}, RowId{1, 0}};
  t.ObserveEqualityGroup(group);
  EXPECT_EQ(t.RevealedPairCount(), 3u);
  EXPECT_EQ(t.RevealedPairCountFor(0), 3u);  // 1 in-table + 2 cross
  EXPECT_EQ(t.RevealedPairCountFor(1), 2u);  // 2 cross
  EXPECT_EQ(t.RevealedPairCountFor(7), 0u);
}

// --- Adaptive execution fixtures ----------------------------------------------

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

// Expected full-pattern charge of revealing Teams(2) x Employees(4) with
// join pattern {1,2} x {1,1,2,2}: each tag groups 1 team row with 2
// employee rows, so per tag Teams pays 2 cross pairs and Employees pays
// 1 in-table + 2 cross. Two tags.
constexpr uint64_t kTeamsFullCharge = 4;
constexpr uint64_t kEmployeesFullCharge = 6;

class BackendDispatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    client_ = std::make_unique<EncryptedClient>(
        ClientOptions{.num_attrs = 3,
                      .max_in_clause = 2,
                      .rng_seed = 6100,
                      .upload_det_encoding = true,
                      .upload_onion_encoding = true});
    auto enc_teams = client_->EncryptTable(MakeTeams(), "key");
    auto enc_emps = client_->EncryptTable(MakeEmployees(), "team");
    ASSERT_TRUE(enc_teams.ok()) << enc_teams.status().ToString();
    ASSERT_TRUE(enc_emps.ok()) << enc_emps.status().ToString();
    enc_teams_ = std::move(*enc_teams);
    enc_emps_ = std::move(*enc_emps);
    ASSERT_TRUE(adaptive_server_.StoreTable(enc_teams_).ok());
    ASSERT_TRUE(adaptive_server_.StoreTable(enc_emps_).ok());
    ASSERT_TRUE(pairing_server_.StoreTable(enc_teams_).ok());
    ASSERT_TRUE(pairing_server_.StoreTable(enc_emps_).ok());
  }

  std::vector<const EncryptedTable*> Tables() const {
    return {&enc_teams_, &enc_emps_};
  }

  /// A 3-query series exercising selections and repeats.
  QuerySeriesTokens MakeSeries() {
    JoinQuerySpec all = TeamsEmployeesSpec();
    JoinQuerySpec testers = TeamsEmployeesSpec();
    testers.selection_b.predicates = {{"role", {Value("Tester")}}};
    auto series = client_->PrepareSeries({all, testers, all}, Tables());
    SJOIN_CHECK(series.ok());
    return std::move(*series);
  }

  std::unique_ptr<EncryptedClient> client_;
  EncryptedServer adaptive_server_;
  EncryptedServer pairing_server_;
  EncryptedTable enc_teams_, enc_emps_;
};

void ExpectByteIdentical(const EncryptedSeriesResult& a,
                         const EncryptedSeriesResult& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t q = 0; q < a.results.size(); ++q) {
    EXPECT_EQ(SerializeJoinResult(a.results[q]),
              SerializeJoinResult(b.results[q]))
        << "query " << q;
  }
}

// Infinite budget + det policy: every query routes to the det backend,
// the full-pattern charge lands once, and results stay byte-identical to
// the pure pairing pipeline.
TEST_F(BackendDispatchTest, DetBackendByteIdenticalToPairing) {
  client_->AllowBackends(BackendBit(BackendKind::kDetJoin));
  auto series = MakeSeries();
  auto fast = adaptive_server_.ExecuteJoinSeries(series);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  EXPECT_EQ(fast->stats.backend_det_queries, 3u);
  EXPECT_EQ(fast->stats.backend_sjoin_queries, 0u);
  EXPECT_EQ(fast->stats.decrypts_performed, 0u);  // no pairings at all
  EXPECT_EQ(fast->stats.leakage_charged,
            kTeamsFullCharge + kEmployeesFullCharge);
  EXPECT_EQ(adaptive_server_.LeakageBudgetSpent("Teams"), kTeamsFullCharge);
  EXPECT_EQ(adaptive_server_.LeakageBudgetSpent("Employees"),
            kEmployeesFullCharge);

  // The pairing twin gets the same tokens with a sjoin-only server policy.
  auto slow = pairing_server_.ExecuteJoinSeries(
      series, {.allowed_backends = kBackendMaskSjoinOnly});
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  EXPECT_EQ(slow->stats.backend_sjoin_queries, 3u);
  ExpectByteIdentical(*fast, *slow);

  // The client can open fast-backend results like any other.
  for (const EncryptedJoinResult& r : fast->results) {
    auto opened = client_->DecryptJoinResult(r, enc_teams_, enc_emps_);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  }
}

TEST_F(BackendDispatchTest, DetBackendMatchesPlaintext) {
  client_->AllowBackends(BackendBit(BackendKind::kDetJoin));
  JoinQuerySpec q = TeamsEmployeesSpec();
  q.selection_b.predicates = {{"role", {Value("Programmer")}}};
  auto series = client_->PrepareSeries({q}, Tables());
  ASSERT_TRUE(series.ok());
  auto res = adaptive_server_.ExecuteJoinSeries(*series);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->stats.backend_det_queries, 1u);
  auto expect = PlaintextHashJoin(MakeTeams(), MakeEmployees(), q);
  ASSERT_TRUE(expect.ok());
  auto measured = res->results[0].matched_row_indices;
  auto expected = *expect;
  std::sort(measured.begin(), measured.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(measured, expected);
}

// Repeat series on unchanged tables: the reveal happened, later fast
// queries are free.
TEST_F(BackendDispatchTest, RepeatQueriesChargeNothing) {
  client_->AllowBackends(BackendBit(BackendKind::kDetJoin));
  auto first = adaptive_server_.ExecuteJoinSeries(MakeSeries());
  ASSERT_TRUE(first.ok());
  uint64_t spent = adaptive_server_.LeakageBudgetSpent("Teams") +
                   adaptive_server_.LeakageBudgetSpent("Employees");
  EXPECT_GT(spent, 0u);
  auto second = adaptive_server_.ExecuteJoinSeries(MakeSeries());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->stats.backend_det_queries, 3u);
  EXPECT_EQ(second->stats.leakage_charged, 0u);
  EXPECT_EQ(adaptive_server_.LeakageBudgetSpent("Teams") +
                adaptive_server_.LeakageBudgetSpent("Employees"),
            spent);
}

// Zero budget on one table: dispatch never leaves the pairing path (the
// very first fast query would have to charge > 0 to that table) and the
// results are byte-identical to a server that never saw a fast policy.
TEST_F(BackendDispatchTest, ZeroBudgetNeverLeavesPairing) {
  adaptive_server_.SetLeakageBudget("Teams", 0);
  client_->AllowBackends(BackendBit(BackendKind::kDetJoin) |
                         BackendBit(BackendKind::kCryptDbOnion));
  auto series = MakeSeries();
  auto guarded = adaptive_server_.ExecuteJoinSeries(series);
  ASSERT_TRUE(guarded.ok()) << guarded.status().ToString();
  EXPECT_EQ(guarded->stats.backend_sjoin_queries, 3u);
  EXPECT_EQ(guarded->stats.backend_det_queries, 0u);
  EXPECT_EQ(guarded->stats.backend_onion_queries, 0u);
  EXPECT_EQ(guarded->stats.leakage_charged, 0u);
  EXPECT_EQ(adaptive_server_.LeakageBudgetSpent("Teams"), 0u);
  auto plain = pairing_server_.ExecuteJoinSeries(series);
  ASSERT_TRUE(plain.ok());
  ExpectByteIdentical(*guarded, *plain);
  // The ledger receipt reports the clamp.
  bool saw_teams = false;
  for (const auto& b : guarded->stats.budgets) {
    if (b.table == "Teams") {
      saw_teams = true;
      EXPECT_EQ(b.limit, 0u);
      EXPECT_EQ(b.remaining, 0u);
    }
  }
  EXPECT_TRUE(saw_teams);
}

// A budget exactly covering the full-pattern charge admits the det
// backend; one pair less blocks it forever.
TEST_F(BackendDispatchTest, BudgetBoundaryIsExact) {
  client_->AllowBackends(BackendBit(BackendKind::kDetJoin));
  adaptive_server_.SetLeakageBudget("Teams", kTeamsFullCharge - 1);
  auto blocked = adaptive_server_.ExecuteJoinSeries(MakeSeries());
  ASSERT_TRUE(blocked.ok());
  EXPECT_EQ(blocked->stats.backend_det_queries, 0u);
  EXPECT_EQ(adaptive_server_.LeakageBudgetSpent("Teams"), 0u);

  // The twin with the exact budget admits it and lands at remaining 0.
  pairing_server_.SetLeakageBudget("Teams", kTeamsFullCharge);
  auto admitted = pairing_server_.ExecuteJoinSeries(MakeSeries());
  ASSERT_TRUE(admitted.ok());
  EXPECT_EQ(admitted->stats.backend_det_queries, 3u);
  EXPECT_EQ(pairing_server_.LeakageBudgetRemaining("Teams"), 0u);
}

// The client's mask is a hard ceiling: encodings alone enable nothing.
TEST_F(BackendDispatchTest, DefaultClientPolicyStaysSjoinOnly) {
  auto res = adaptive_server_.ExecuteJoinSeries(MakeSeries());
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->stats.backend_sjoin_queries, 3u);
  EXPECT_EQ(res->stats.backend_det_queries, 0u);
  EXPECT_EQ(res->stats.leakage_charged, 0u);
}

// And so is the server's: a sjoin-only ServerExecOptions overrides any
// client release.
TEST_F(BackendDispatchTest, ServerPolicyOverridesClientRelease) {
  client_->AllowBackends(kBackendMaskAll);
  auto res = adaptive_server_.ExecuteJoinSeries(
      MakeSeries(), {.allowed_backends = kBackendMaskSjoinOnly});
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->stats.backend_sjoin_queries, 3u);
  EXPECT_EQ(res->stats.leakage_charged, 0u);
}

// Onion dispatch requires the key release riding the series; the release
// happens exactly when the client's policy includes the onion backend.
TEST_F(BackendDispatchTest, OnionBackendNeedsKeyRelease) {
  client_->AllowBackends(BackendBit(BackendKind::kCryptDbOnion));
  auto series = MakeSeries();
  EXPECT_TRUE(series.has_onion_key);
  auto res = adaptive_server_.ExecuteJoinSeries(series);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->stats.backend_onion_queries, 3u);
  EXPECT_EQ(res->stats.leakage_charged,
            kTeamsFullCharge + kEmployeesFullCharge);

  // Tampering the release away (policy bit without the key) falls back
  // to pairing: CanExecute fails, nothing is charged.
  QuerySeriesTokens stripped = MakeSeries();
  stripped.has_onion_key = false;
  auto fallback = pairing_server_.ExecuteJoinSeries(stripped);
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ(fallback->stats.backend_onion_queries, 0u);
  EXPECT_EQ(fallback->stats.backend_sjoin_queries, 3u);
  ExpectByteIdentical(*res, *fallback);
}

// Fast backends must feed the SAME equality knowledge into the tracker
// that their reveal hands the adversary: after a det dispatch the
// transitive closure holds the full join pattern of both tables.
TEST_F(BackendDispatchTest, FastRevealLandsInLeakageTracker) {
  client_->AllowBackends(BackendBit(BackendKind::kDetJoin));
  auto res = adaptive_server_.ExecuteJoinSeries(MakeSeries());
  ASSERT_TRUE(res.ok());
  // Full pattern: {T1,E1,E2} and {T2,E3,E4} -> 3 pairs each.
  EXPECT_EQ(adaptive_server_.leakage().RevealedPairCount(), 6u);
  // The pairing twin running the same (unselective) series converges to
  // the same closure -- the fast path leaks sooner, not other things.
  auto slow = pairing_server_.ExecuteJoinSeries(MakeSeries());
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(pairing_server_.leakage().RevealedPairCount(), 6u);
}

// Randomized equivalence: det-dispatched series match PlaintextHashJoin
// on random tables with clustered join values.
TEST(BackendPropertyTest, RandomTablesMatchPlaintext) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed * 977);
    Table a("A", Schema({{"k", ValueKind::kInt64},
                         {"pad", ValueKind::kInt64}}));
    Table b("B", Schema({{"v", ValueKind::kInt64},
                         {"k", ValueKind::kInt64}}));
    size_t na = 4 + rng.NextUint64() % 8, nb = 4 + rng.NextUint64() % 8;
    for (size_t i = 0; i < na; ++i) {
      SJOIN_CHECK(a.AppendRow({static_cast<int64_t>(rng.NextUint64() % 4),
                               static_cast<int64_t>(i)})
                      .ok());
    }
    for (size_t i = 0; i < nb; ++i) {
      SJOIN_CHECK(b.AppendRow({static_cast<int64_t>(i),
                               static_cast<int64_t>(rng.NextUint64() % 4)})
                      .ok());
    }
    EncryptedClient client(ClientOptions{.num_attrs = 1,
                                         .max_in_clause = 1,
                                         .rng_seed = seed,
                                         .upload_det_encoding = true});
    client.AllowBackends(BackendBit(BackendKind::kDetJoin));
    auto enc_a = client.EncryptTable(a, "k");
    auto enc_b = client.EncryptTable(b, "k");
    ASSERT_TRUE(enc_a.ok() && enc_b.ok());
    EncryptedServer server;
    ASSERT_TRUE(server.StoreTable(*enc_a).ok());
    ASSERT_TRUE(server.StoreTable(*enc_b).ok());
    JoinQuerySpec q;
    q.table_a = "A";
    q.table_b = "B";
    q.join_column_a = "k";
    q.join_column_b = "k";
    auto series = client.PrepareSeries({q}, {&*enc_a, &*enc_b});
    ASSERT_TRUE(series.ok());
    auto res = server.ExecuteJoinSeries(*series);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_EQ(res->stats.backend_det_queries, 1u) << "seed " << seed;
    auto expect = PlaintextHashJoin(a, b, q);
    ASSERT_TRUE(expect.ok());
    auto measured = res->results[0].matched_row_indices;
    auto expected = *expect;
    std::sort(measured.begin(), measured.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(measured, expected) << "seed " << seed;
  }
}

// --- Wire v6 round trips -------------------------------------------------------

TEST_F(BackendDispatchTest, RowEncodingsSurviveTheWire) {
  Bytes wire = SerializeEncryptedTable(enc_teams_);
  auto back = DeserializeEncryptedTable(wire);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->rows.size(), enc_teams_.rows.size());
  for (size_t r = 0; r < back->rows.size(); ++r) {
    EXPECT_TRUE(back->rows[r].enc.has_det);
    EXPECT_TRUE(back->rows[r].enc.has_onion);
    EXPECT_EQ(back->rows[r].enc, enc_teams_.rows[r].enc);
  }
}

TEST_F(BackendDispatchTest, SeriesPolicySurvivesTheWire) {
  client_->AllowBackends(kBackendMaskAll);
  auto series = MakeSeries();
  auto back = DeserializeQuerySeries(SerializeQuerySeries(series));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->allowed_backends, kBackendMaskAll);
  EXPECT_TRUE(back->has_onion_key);
  EXPECT_EQ(back->onion_key, series.onion_key);
}

TEST_F(BackendDispatchTest, BackendTrailSurvivesTheWire) {
  client_->AllowBackends(BackendBit(BackendKind::kDetJoin));
  auto res = adaptive_server_.ExecuteJoinSeries(MakeSeries());
  ASSERT_TRUE(res.ok());
  auto back = DeserializeSeriesResult(SerializeSeriesResult(*res));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->stats.backend_det_queries, res->stats.backend_det_queries);
  EXPECT_EQ(back->stats.backend_sjoin_queries,
            res->stats.backend_sjoin_queries);
  EXPECT_EQ(back->stats.backend_onion_queries,
            res->stats.backend_onion_queries);
  EXPECT_EQ(back->stats.leakage_charged, res->stats.leakage_charged);
  ASSERT_EQ(back->stats.budgets.size(), res->stats.budgets.size());
  EXPECT_EQ(back->stats.budgets, res->stats.budgets);
}

}  // namespace
}  // namespace sjoin
