// Secure Join core tests: polynomial predicate encoding, the eight-case
// match truth table from the proof of Theorem 5.2, hash-join correctness,
// and the leakage tracker.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/leakage.h"
#include "core/scheme.h"

namespace sjoin {
namespace {

// --- Polynomial encoding (Section 4.1) --------------------------------------

TEST(PolyTest, VanishesExactlyAtRoots) {
  Rng rng(300);
  std::vector<Fr> roots = {Fr::FromUint64(3), Fr::FromUint64(7),
                           Fr::FromUint64(11)};
  auto coeffs = PolynomialFromRoots(roots, 5, Fr::One());
  ASSERT_EQ(coeffs.size(), 6u);
  for (const Fr& r : roots) {
    EXPECT_TRUE(EvaluatePolynomial(coeffs, r).IsZero());
  }
  EXPECT_FALSE(EvaluatePolynomial(coeffs, Fr::FromUint64(4)).IsZero());
  EXPECT_FALSE(EvaluatePolynomial(coeffs, Fr::Zero()).IsZero());
  // Degree exactly 3: coefficient 3 nonzero (monic), 4 and 5 zero.
  EXPECT_EQ(coeffs[3], Fr::One());
  EXPECT_TRUE(coeffs[4].IsZero());
  EXPECT_TRUE(coeffs[5].IsZero());
}

TEST(PolyTest, SingleRootLinear) {
  auto coeffs = PolynomialFromRoots(std::vector<Fr>{Fr::FromUint64(5)}, 1,
                                    Fr::One());
  // x - 5.
  ASSERT_EQ(coeffs.size(), 2u);
  EXPECT_EQ(coeffs[0], -Fr::FromUint64(5));
  EXPECT_EQ(coeffs[1], Fr::One());
}

TEST(PolyTest, ScalarMultiplePreservesRoots) {
  Rng rng(301);
  std::vector<Fr> roots = {rng.NextFr(), rng.NextFr()};
  auto c1 = RandomizedPolynomialFromRoots(roots, 4, &rng);
  auto c2 = RandomizedPolynomialFromRoots(roots, 4, &rng);
  EXPECT_NE(c1, c2);  // fresh scalar each time
  for (const Fr& r : roots) {
    EXPECT_TRUE(EvaluatePolynomial(c1, r).IsZero());
    EXPECT_TRUE(EvaluatePolynomial(c2, r).IsZero());
  }
}

TEST(PolyTest, ZeroPolynomialIsIdenticallyZero) {
  auto z = ZeroPolynomial(3);
  ASSERT_EQ(z.size(), 4u);
  Rng rng(302);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(EvaluatePolynomial(z, rng.NextFr()).IsZero());
  }
}

TEST(PolyTest, RepeatedRootsAllowed) {
  std::vector<Fr> roots = {Fr::FromUint64(2), Fr::FromUint64(2)};
  auto coeffs = PolynomialFromRoots(roots, 2, Fr::One());
  // (x-2)^2 = x^2 - 4x + 4.
  EXPECT_EQ(coeffs[0], Fr::FromUint64(4));
  EXPECT_EQ(coeffs[1], -Fr::FromUint64(4));
  EXPECT_EQ(coeffs[2], Fr::One());
}

TEST(PolyTest, HornerMatchesDirectEvaluation) {
  Rng rng(303);
  std::vector<Fr> coeffs;
  for (int i = 0; i < 6; ++i) coeffs.push_back(rng.NextFr());
  Fr x = rng.NextFr();
  Fr direct;
  Fr pow = Fr::One();
  for (const Fr& c : coeffs) {
    direct += c * pow;
    pow *= x;
  }
  EXPECT_EQ(EvaluatePolynomial(coeffs, x), direct);
}

// --- The eight cases of Theorem 5.2 -----------------------------------------

// Fixture: one master key (m = 2 attributes, t = 2), two queries.
class MatchCasesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<Rng>(310);
    msk_ = SecureJoin::Setup({.num_attrs = 2, .max_in_clause = 2},
                             rng_.get());
    // Rows: join value and two attributes, already embedded in Fr.
    join_x_ = HashToFr("join", std::string("join-x"));
    join_y_ = HashToFr("join", std::string("join-y"));
    attr_sel_ = HashToFr("attr", std::string("selected"));
    attr_other_ = HashToFr("attr", std::string("other"));
    // Predicates select attr_sel_ on attribute 0; attribute 1 unrestricted.
    preds_ = {{attr_sel_}, {}};
    k1_ = rng_->NextFrNonZero();
    k2_ = rng_->NextFrNonZero();
    while (k2_ == k1_) k2_ = rng_->NextFrNonZero();
  }

  GT DecryptRow(const Fr& join, const Fr& attr0, const Fr& k) {
    std::vector<Fr> attrs = {attr0, attr_other_};
    SjRowCiphertext ct = SecureJoin::EncryptRow(msk_, join, attrs, rng_.get());
    SjToken token = SecureJoin::GenToken(msk_, preds_, k, rng_.get());
    return SecureJoin::Decrypt(token, ct);
  }

  std::unique_ptr<Rng> rng_;
  SecureJoin::MasterKey msk_;
  Fr join_x_, join_y_, attr_sel_, attr_other_;
  SjPredicates preds_;
  Fr k1_, k2_;
};

TEST_F(MatchCasesTest, Case1SameQuerySameJoinSelected) {
  // Must match with probability 1.
  EXPECT_TRUE(SecureJoin::Match(DecryptRow(join_x_, attr_sel_, k1_),
                                DecryptRow(join_x_, attr_sel_, k1_)));
}

TEST_F(MatchCasesTest, Case2SameQuerySameJoinSelectionFails) {
  EXPECT_FALSE(SecureJoin::Match(DecryptRow(join_x_, attr_sel_, k1_),
                                 DecryptRow(join_x_, attr_other_, k1_)));
  EXPECT_FALSE(SecureJoin::Match(DecryptRow(join_x_, attr_other_, k1_),
                                 DecryptRow(join_x_, attr_other_, k1_)));
}

TEST_F(MatchCasesTest, Case3SameQueryDifferentJoinSelected) {
  EXPECT_FALSE(SecureJoin::Match(DecryptRow(join_x_, attr_sel_, k1_),
                                 DecryptRow(join_y_, attr_sel_, k1_)));
}

TEST_F(MatchCasesTest, Case4SameQueryDifferentJoinSelectionFails) {
  EXPECT_FALSE(SecureJoin::Match(DecryptRow(join_x_, attr_sel_, k1_),
                                 DecryptRow(join_y_, attr_other_, k1_)));
}

TEST_F(MatchCasesTest, Case5DifferentQueriesSameJoinSelected) {
  // The super-additive leakage case: both rows satisfy their selections and
  // share the join value, but the queries differ -> no match.
  EXPECT_FALSE(SecureJoin::Match(DecryptRow(join_x_, attr_sel_, k1_),
                                 DecryptRow(join_x_, attr_sel_, k2_)));
}

TEST_F(MatchCasesTest, Case6DifferentQueriesSameJoinSelectionFails) {
  EXPECT_FALSE(SecureJoin::Match(DecryptRow(join_x_, attr_sel_, k1_),
                                 DecryptRow(join_x_, attr_other_, k2_)));
}

TEST_F(MatchCasesTest, Case7DifferentQueriesDifferentJoinSelected) {
  EXPECT_FALSE(SecureJoin::Match(DecryptRow(join_x_, attr_sel_, k1_),
                                 DecryptRow(join_y_, attr_sel_, k2_)));
}

TEST_F(MatchCasesTest, Case8DifferentQueriesDifferentJoinSelectionFails) {
  EXPECT_FALSE(SecureJoin::Match(DecryptRow(join_x_, attr_other_, k1_),
                                 DecryptRow(join_y_, attr_other_, k2_)));
}

// --- Scheme-level properties -------------------------------------------------

TEST(SecureJoinTest, TokenPairSharesQueryKey) {
  Rng rng(320);
  auto msk = SecureJoin::Setup({.num_attrs = 1, .max_in_clause = 1}, &rng);
  Fr join = HashToFr("join", std::string("42"));
  Fr attr = HashToFr("attr", std::string("yes"));
  auto [ta, tb] = SecureJoin::GenTokenPair(msk, {{attr}}, {{attr}}, &rng);
  auto ca = SecureJoin::EncryptRow(msk, join, {{attr}}, &rng);
  auto cb = SecureJoin::EncryptRow(msk, join, {{attr}}, &rng);
  // Cross-table match through the shared k.
  EXPECT_TRUE(SecureJoin::Match(SecureJoin::Decrypt(ta, ca),
                                SecureJoin::Decrypt(tb, cb)));
}

TEST(SecureJoinTest, InClauseWithMultipleValues) {
  Rng rng(321);
  auto msk = SecureJoin::Setup({.num_attrs = 1, .max_in_clause = 3}, &rng);
  Fr join = HashToFr("join", std::string("k"));
  Fr v1 = HashToFr("attr", std::string("v1"));
  Fr v2 = HashToFr("attr", std::string("v2"));
  Fr v3 = HashToFr("attr", std::string("v3"));
  Fr v4 = HashToFr("attr", std::string("v4"));
  SjPredicates preds = {{v1, v2, v3}};
  Fr k = rng.NextFrNonZero();
  SjToken token = SecureJoin::GenToken(msk, preds, k, &rng);
  GT reference = SecureJoin::Decrypt(
      token, SecureJoin::EncryptRow(msk, join, {{v1}}, &rng));
  // All values inside the IN clause produce the same D.
  for (const Fr& val : {v2, v3}) {
    GT d = SecureJoin::Decrypt(
        token, SecureJoin::EncryptRow(msk, join, {{val}}, &rng));
    EXPECT_TRUE(SecureJoin::Match(reference, d));
  }
  // A value outside does not.
  GT d4 = SecureJoin::Decrypt(
      token, SecureJoin::EncryptRow(msk, join, {{v4}}, &rng));
  EXPECT_FALSE(SecureJoin::Match(reference, d4));
}

TEST(SecureJoinTest, UnselectedRowsUnlinkableEvenWithEqualAttributes) {
  // Two rows with identical join value and identical (non-matching)
  // attributes decrypt to *different* garbage thanks to gamma2.
  Rng rng(322);
  auto msk = SecureJoin::Setup({.num_attrs = 1, .max_in_clause = 1}, &rng);
  Fr join = HashToFr("join", std::string("j"));
  Fr attr = HashToFr("attr", std::string("not-selected"));
  Fr sel = HashToFr("attr", std::string("selected"));
  Fr k = rng.NextFrNonZero();
  SjToken token = SecureJoin::GenToken(msk, {{sel}}, k, &rng);
  GT d1 = SecureJoin::Decrypt(
      token, SecureJoin::EncryptRow(msk, join, {{attr}}, &rng));
  GT d2 = SecureJoin::Decrypt(
      token, SecureJoin::EncryptRow(msk, join, {{attr}}, &rng));
  EXPECT_FALSE(SecureJoin::Match(d1, d2));
}

TEST(SecureJoinTest, DigestsAgreeWithGtEquality) {
  Rng rng(323);
  auto msk = SecureJoin::Setup({.num_attrs = 1, .max_in_clause = 1}, &rng);
  Fr join = HashToFr("join", std::string("j"));
  Fr sel = HashToFr("attr", std::string("s"));
  Fr k = rng.NextFrNonZero();
  SjToken token = SecureJoin::GenToken(msk, {{sel}}, k, &rng);
  auto c1 = SecureJoin::EncryptRow(msk, join, {{sel}}, &rng);
  auto c2 = SecureJoin::EncryptRow(msk, join, {{sel}}, &rng);
  EXPECT_EQ(SecureJoin::DecryptToDigest(token, c1),
            SecureJoin::DecryptToDigest(token, c2));
}

TEST(SecureJoinTest, ParallelDecryptMatchesSequential) {
  Rng rng(324);
  auto msk = SecureJoin::Setup({.num_attrs = 1, .max_in_clause = 1}, &rng);
  Fr sel = HashToFr("attr", std::string("s"));
  Fr k = rng.NextFrNonZero();
  SjToken token = SecureJoin::GenToken(msk, {{sel}}, k, &rng);
  std::vector<SjRowCiphertext> rows;
  for (int i = 0; i < 6; ++i) {
    Fr join = HashToFr("join", std::to_string(i % 3));
    rows.push_back(SecureJoin::EncryptRow(msk, join, {{sel}}, &rng));
  }
  auto seq = SecureJoin::DecryptRows(token, rows, 1);
  auto par = SecureJoin::DecryptRows(token, rows, 4);
  EXPECT_EQ(seq, par);
}

TEST(SecureJoinTest, BatchDecryptMatchesPerRow) {
  Rng rng(325);
  auto msk = SecureJoin::Setup({.num_attrs = 1, .max_in_clause = 1}, &rng);
  Fr sel = HashToFr("attr", std::string("s"));
  Fr k = rng.NextFrNonZero();
  SjToken token = SecureJoin::GenToken(msk, {{sel}}, k, &rng);
  std::vector<SjRowCiphertext> rows;
  std::vector<SjPreparedRow> prepared;
  for (int i = 0; i < 9; ++i) {  // deliberately not a multiple of the batch
    Fr join = HashToFr("join", std::to_string(i % 4));
    rows.push_back(SecureJoin::EncryptRow(msk, join, {{sel}}, &rng));
    prepared.push_back(SecureJoin::PrepareRow(rows.back()));
  }
  // The per-row paths are the byte-identity oracle for every chunk shape
  // the width sweep cuts 9 rows into (min(8, ceil(9 / width)) rows each):
  // 8 + a trailing partial 1 at width 1, 5 + 4 at width 2, 3 x 3 at width
  // 3, single-row chunks at widths 9 and 64, and the host's width at 0. A
  // 5-row prefix at width 1 is one chunk, narrower than the 8-row batch.
  std::vector<Digest32> expect;
  for (const auto& ct : rows) {
    expect.push_back(SecureJoin::DecryptToDigest(token, ct));
  }
  const std::vector<Digest32> expect_prefix(expect.begin(), expect.begin() + 5);
  for (int width : {1, 2, 3, 9, 64, 0}) {
    EXPECT_EQ(SecureJoin::DecryptRows(token, rows, width), expect)
        << "width=" << width;
  }
  EXPECT_EQ(SecureJoin::DecryptRows(
                token, std::span<const SjRowCiphertext>(rows).first(5), 1),
            expect_prefix);

  std::vector<Digest32> expect_prep;
  for (const auto& row : prepared) {
    expect_prep.push_back(SecureJoin::DecryptToDigestPrepared(token, row));
  }
  EXPECT_EQ(expect_prep, expect);  // preparation never changes the bytes
  for (int width : {1, 2, 3, 9, 64, 0}) {
    EXPECT_EQ(SecureJoin::DecryptRowsPrepared(token, prepared, width), expect)
        << "width=" << width;
  }
  EXPECT_EQ(SecureJoin::DecryptRowsPrepared(
                token, std::span<const SjPreparedRow>(prepared).first(5), 1),
            expect_prefix);
}

TEST(SecureJoinTest, BatchDecryptEmptyInput) {
  Rng rng(326);
  auto msk = SecureJoin::Setup({.num_attrs = 1, .max_in_clause = 1}, &rng);
  Fr sel = HashToFr("attr", std::string("s"));
  SjToken token =
      SecureJoin::GenToken(msk, {{sel}}, rng.NextFrNonZero(), &rng);
  for (int width : {1, 3, 0}) {
    EXPECT_TRUE(SecureJoin::DecryptRows(token, {}, width).empty());
    EXPECT_TRUE(SecureJoin::DecryptRowsPrepared(token, {}, width).empty());
  }
}

// --- Join algorithms over digests --------------------------------------------

Digest32 FakeDigest(uint8_t tag) {
  Digest32 d{};
  d[0] = tag;
  return d;
}

TEST(JoinAlgoTest, HashJoinMatchesNestedLoop) {
  std::vector<Digest32> da = {FakeDigest(1), FakeDigest(2), FakeDigest(1),
                              FakeDigest(3)};
  std::vector<Digest32> db = {FakeDigest(1), FakeDigest(3), FakeDigest(3),
                              FakeDigest(9)};
  auto h = HashJoinDigests(da, db);
  auto n = NestedLoopJoinDigests(da, db);
  std::sort(h.begin(), h.end());
  std::sort(n.begin(), n.end());
  EXPECT_EQ(h, n);
  // 1 matches rows {0,2}x{0}, 3 matches {3}x{1,2} -> 4 pairs.
  EXPECT_EQ(h.size(), 4u);
}

TEST(JoinAlgoTest, EmptyInputs) {
  std::vector<Digest32> empty;
  std::vector<Digest32> da = {FakeDigest(1)};
  EXPECT_TRUE(HashJoinDigests(empty, da).empty());
  EXPECT_TRUE(HashJoinDigests(da, empty).empty());
  EXPECT_TRUE(HashJoinDigests(empty, empty).empty());
}

// --- Leakage tracker ----------------------------------------------------------

TEST(LeakageTest, PairCountWithinGroups) {
  LeakageTracker t;
  std::vector<RowId> g1 = {{0, 1}, {1, 2}};          // pair across tables
  std::vector<RowId> g2 = {{0, 5}, {1, 6}, {1, 7}};  // triangle
  t.ObserveEqualityGroup(g1);
  t.ObserveEqualityGroup(g2);
  EXPECT_EQ(t.RevealedPairCount(), 1u + 3u);
  EXPECT_TRUE(t.Linked({0, 1}, {1, 2}));
  EXPECT_FALSE(t.Linked({0, 1}, {0, 5}));
}

TEST(LeakageTest, TransitiveClosureAcrossQueries) {
  LeakageTracker t;
  // Query 1 links (A,1)-(B,1); query 2 links (B,1)-(A,2).
  std::vector<RowId> q1 = {{0, 1}, {1, 1}};
  std::vector<RowId> q2 = {{1, 1}, {0, 2}};
  t.ObserveEqualityGroup(q1);
  t.ObserveEqualityGroup(q2);
  // Closure: the adversary links (A,1)-(A,2) too: 3 pairs total.
  EXPECT_EQ(t.RevealedPairCount(), 3u);
  EXPECT_TRUE(t.Linked({0, 1}, {0, 2}));
}

TEST(LeakageTest, SingletonGroupsLeakNothing) {
  LeakageTracker t;
  std::vector<RowId> g = {{0, 1}};
  t.ObserveEqualityGroup(g);
  EXPECT_EQ(t.RevealedPairCount(), 0u);
}

TEST(LeakageTest, DuplicateObservationsIdempotent) {
  LeakageTracker t;
  std::vector<RowId> g = {{0, 1}, {1, 2}};
  t.ObserveEqualityGroup(g);
  t.ObserveEqualityGroup(g);
  EXPECT_EQ(t.RevealedPairCount(), 1u);
}

TEST(LeakageTest, EqualityClassesSortedAndComplete) {
  LeakageTracker t;
  std::vector<RowId> g1 = {{1, 9}, {0, 3}};
  std::vector<RowId> g2 = {{0, 3}, {0, 1}};
  t.ObserveEqualityGroup(g1);
  t.ObserveEqualityGroup(g2);
  auto classes = t.EqualityClasses();
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0].size(), 3u);
}

}  // namespace
}  // namespace sjoin
