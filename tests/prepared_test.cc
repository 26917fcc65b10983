// Prepared-ciphertext pipeline: G2Prepared line tables must make the
// Miller loop (after the final exponentiation, which removes the line
// normalization), the IPE decrypt, and SJ.Dec bit-identical to their
// unprepared counterparts, the server's prepared-row cache must honor
// its byte budget with LRU eviction, and the cache-aware kernel every
// decrypt path fans out through must match per-row SJ.Dec at every width.
#include <gtest/gtest.h>

#include <random>
#include <span>
#include <string>
#include <vector>

#include "core/scheme.h"
#include "crypto/rng.h"
#include "db/prepared_cache.h"
#include "pairing/pairing.h"
#include "util/thread_pool.h"

namespace sjoin {
namespace {

class TestRandom {
 public:
  explicit TestRandom(uint64_t seed) : gen_(seed) {}
  Fr NextFr() {
    std::array<uint8_t, 64> b;
    for (auto& x : b) x = static_cast<uint8_t>(gen_());
    return Fr::FromUniformBytes(b.data());
  }

 private:
  std::mt19937_64 gen_;
};

// --- Pairing layer -------------------------------------------------------------

TEST(G2PreparedTest, ScheduleLengthMatchesPreparedTable) {
  G2Prepared prep = G2Prepared::Prepare(G2Generator().ToAffine());
  EXPECT_FALSE(prep.infinity());
  EXPECT_EQ(prep.coeffs().size(), G2Prepared::ScheduleLength());
  EXPECT_GT(prep.MemoryBytes(),
            G2Prepared::ScheduleLength() * sizeof(LineCoeffs));
}

TEST(G2PreparedTest, InfinityPreparesEmpty) {
  G2Prepared prep = G2Prepared::Prepare(G2Affine::Infinity());
  EXPECT_TRUE(prep.infinity());
  EXPECT_TRUE(prep.coeffs().empty());
  EXPECT_TRUE(PairPrepared(G1Generator().ToAffine(), prep).IsOne());
}

TEST(G2PreparedTest, MillerLoopPreparedMatchesUnprepared) {
  TestRandom rng(60);
  for (int i = 0; i < 8; ++i) {
    G1Affine p = G1Generator().ScalarMul(rng.NextFr()).ToAffine();
    G2Affine q = G2Generator().ScalarMul(rng.NextFr()).ToAffine();
    G2Prepared prep = G2Prepared::Prepare(q);
    EXPECT_EQ(FinalExponentiation(MillerLoopPrepared(p, prep)),
              FinalExponentiation(MillerLoop(p, q)))
        << "trial " << i;
  }
}

TEST(G2PreparedTest, PairPreparedMatchesPair) {
  TestRandom rng(61);
  G1Affine p = G1Generator().ScalarMul(rng.NextFr()).ToAffine();
  G2Affine q = G2Generator().ScalarMul(rng.NextFr()).ToAffine();
  EXPECT_EQ(PairPrepared(p, G2Prepared::Prepare(q)), Pair(p, q));
}

TEST(G2PreparedTest, MultiMillerLoopPreparedMatchesUnprepared) {
  TestRandom rng(62);
  std::vector<std::pair<G1Affine, G2Affine>> pairs;
  std::vector<G2Prepared> prepared;
  for (int i = 0; i < 5; ++i) {
    pairs.emplace_back(G1Generator().ScalarMul(rng.NextFr()).ToAffine(),
                       G2Generator().ScalarMul(rng.NextFr()).ToAffine());
    prepared.push_back(G2Prepared::Prepare(pairs.back().second));
  }
  std::vector<std::pair<G1Affine, const G2Prepared*>> prepared_pairs;
  for (int i = 0; i < 5; ++i) {
    prepared_pairs.emplace_back(pairs[i].first, &prepared[i]);
  }
  EXPECT_EQ(FinalExponentiation(MultiMillerLoopPrepared(prepared_pairs)),
            FinalExponentiation(MultiMillerLoop(pairs)));
  EXPECT_EQ(MultiPairPrepared(prepared_pairs), MultiPair(pairs));
}

TEST(G2PreparedTest, MultiPairPreparedSkipsIdentities) {
  TestRandom rng(63);
  G1Affine p = G1Generator().ScalarMul(rng.NextFr()).ToAffine();
  G2Affine q = G2Generator().ScalarMul(rng.NextFr()).ToAffine();
  G2Prepared prep_q = G2Prepared::Prepare(q);
  G2Prepared prep_inf = G2Prepared::Prepare(G2Affine::Infinity());
  std::vector<std::pair<G1Affine, const G2Prepared*>> pairs = {
      {G1Affine::Infinity(), &prep_q},
      {p, &prep_q},
      {p, &prep_inf},
  };
  EXPECT_EQ(MultiPairPrepared(pairs), Pair(p, q));
  EXPECT_TRUE(MultiPairPrepared({}).IsOne());
}

// --- IPE layer -----------------------------------------------------------------

TEST(IpePreparedTest, DecryptPreparedMatchesDecrypt) {
  Rng rng(6100);
  IpeMasterKey msk = IpeMasterKey::Setup(4, &rng);
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<Fr> v, w;
    for (int i = 0; i < 4; ++i) {
      v.push_back(rng.NextFr());
      w.push_back(rng.NextFr());
    }
    auto token = ModifiedIpe::KeyGen(msk, v);
    auto ct = ModifiedIpe::Encrypt(msk, w);
    auto prepared = ModifiedIpe::PrepareCiphertext(ct);
    EXPECT_EQ(ModifiedIpe::DecryptPrepared(token, prepared),
              ModifiedIpe::Decrypt(token, ct))
        << "trial " << trial;
  }
}

// --- Secure Join layer ---------------------------------------------------------

TEST(SjPreparedTest, DecryptRowsPreparedMatchesDecryptRows) {
  Rng rng(6200);
  auto msk = SecureJoin::Setup({.num_attrs = 2, .max_in_clause = 2}, &rng);
  // Random table: 8 rows over 3 distinct join values and random attributes.
  std::vector<Fr> join_hashes = {rng.NextFr(), rng.NextFr(), rng.NextFr()};
  std::vector<SjRowCiphertext> rows;
  std::vector<SjPreparedRow> prepared;
  for (int r = 0; r < 8; ++r) {
    std::vector<Fr> attrs = {rng.NextFr(), rng.NextFr()};
    rows.push_back(
        SecureJoin::EncryptRow(msk, join_hashes[r % 3], attrs, &rng));
    prepared.push_back(SecureJoin::PrepareRow(rows.back()));
  }
  // Two independent tokens: the same prepared rows must serve both.
  for (uint64_t seed : {1u, 2u}) {
    Rng qrng(6300 + seed);
    auto [ta, tb] = SecureJoin::GenTokenPair(msk, {{}, {}}, {{}, {}}, &qrng);
    auto plain = SecureJoin::DecryptRows(ta, rows, 1);
    EXPECT_EQ(SecureJoin::DecryptRowsPrepared(ta, prepared, 1), plain);
    EXPECT_EQ(SecureJoin::DecryptRowsPrepared(ta, prepared, 4), plain);
    EXPECT_EQ(SecureJoin::DecryptPrepared(tb, prepared[0]),
              SecureJoin::Decrypt(tb, rows[0]));
  }
}

/// The paper's dimension (m = 9, t = 1: 21 slots): a row prepared once
/// serves every token, and rows with identity slots -- a ciphertext slot
/// at infinity prepares to the empty table -- still match the cold path.
TEST(SjPreparedTest, DimensionTwentyOneSweepMatchesDecryptToDigest) {
  Rng rng(6250);
  auto msk = SecureJoin::Setup({.num_attrs = 9, .max_in_clause = 1}, &rng);
  ASSERT_EQ(msk.params.Dimension(), 21u);
  std::vector<Fr> join_hashes = {rng.NextFr(), rng.NextFr(), rng.NextFr()};
  std::vector<SjRowCiphertext> rows;
  for (int r = 0; r < 16; ++r) {
    std::vector<Fr> attrs(9);
    for (Fr& a : attrs) a = rng.NextFr();
    rows.push_back(
        SecureJoin::EncryptRow(msk, join_hashes[r % 3], attrs, &rng));
    // Every third row gets identity slots: one, then two, then three.
    for (int k = 0; k < 3 && r % 3 == 0 && k <= r / 6; ++k) {
      rows.back().c[(r + 7 * k) % 21] = G2Affine::Infinity();
    }
  }
  std::vector<SjPreparedRow> prepared;
  for (const SjRowCiphertext& ct : rows) {
    prepared.push_back(SecureJoin::PrepareRow(ct));
  }
  for (uint64_t seed : {1u, 2u}) {
    Rng qrng(6260 + seed);
    SjPredicates preds(9);
    preds[seed].push_back(qrng.NextFr());
    SjToken token = SecureJoin::GenToken(msk, preds, qrng.NextFrNonZero(),
                                         &qrng);
    for (size_t r = 0; r < rows.size(); ++r) {
      EXPECT_EQ(SecureJoin::DecryptToDigestPrepared(token, prepared[r]),
                SecureJoin::DecryptToDigest(token, rows[r]))
          << "token " << seed << ", row " << r;
    }
  }
}

TEST(SjPreparedTest, PreparedRowLayoutAtPaperDimension) {
  // Two Fp2 per line (c1/c0, c2/c0), 88 lines per slot, 21 slots.
  EXPECT_EQ(sizeof(LineCoeffs), 2 * sizeof(Fp2));
  EXPECT_LE(SjPreparedRow::BytesForDim(21), 235u * 1024);
}

TEST(SjPreparedTest, MemoryAccountingMatchesEstimate) {
  Rng rng(6400);
  auto msk = SecureJoin::Setup({.num_attrs = 1, .max_in_clause = 1}, &rng);
  std::vector<Fr> attrs = {rng.NextFr()};
  SjRowCiphertext ct = SecureJoin::EncryptRow(msk, rng.NextFr(), attrs, &rng);
  SjPreparedRow row = SecureJoin::PrepareRow(ct);
  EXPECT_EQ(row.c.size(), msk.params.Dimension());
  // The pre-build estimate must not undershoot the real footprint (the
  // cache rejects-before-building based on it).
  EXPECT_GE(row.MemoryBytes(), SjPreparedRow::BytesForDim(ct.c.size()) -
                                   sizeof(SjPreparedRow));
}

// --- Prepared-row cache --------------------------------------------------------

class PreparedCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rng_ = std::make_unique<Rng>(6500);
    msk_ = SecureJoin::Setup({.num_attrs = 1, .max_in_clause = 1}, rng_.get());
    for (int i = 0; i < 4; ++i) {
      std::vector<Fr> attrs = {rng_->NextFr()};
      cts_.push_back(
          SecureJoin::EncryptRow(msk_, rng_->NextFr(), attrs, rng_.get()));
    }
    row_bytes_ = SecureJoin::PrepareRow(cts_[0]).MemoryBytes();
  }

  std::unique_ptr<Rng> rng_;
  SecureJoin::MasterKey msk_;
  std::vector<SjRowCiphertext> cts_;
  size_t row_bytes_ = 0;
};

TEST_F(PreparedCacheTest, BuildsOnceThenHits) {
  PreparedRowCache cache(4 * row_bytes_);
  bool built = false;
  auto first = cache.Get("T", 0, cts_[0], &built);
  ASSERT_NE(first, nullptr);
  EXPECT_TRUE(built);
  auto again = cache.Get("T", 0, cts_[0], &built);
  EXPECT_FALSE(built);
  EXPECT_EQ(first.get(), again.get());
  auto s = cache.stats();
  EXPECT_EQ(s.built, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, row_bytes_);
}

TEST_F(PreparedCacheTest, EvictsLeastRecentlyUsedAtCapacity) {
  // Room for two rows: inserting a third evicts the least recently used.
  PreparedRowCache cache(2 * row_bytes_);
  bool built;
  cache.Get("T", 0, cts_[0], &built);
  cache.Get("T", 1, cts_[1], &built);
  cache.Get("T", 0, cts_[0], &built);  // touch row 0: row 1 is now LRU
  cache.Get("T", 2, cts_[2], &built);  // evicts row 1
  EXPECT_TRUE(built);
  auto s = cache.stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.evicted, 1u);
  EXPECT_LE(s.bytes, 2 * row_bytes_);
  // Row 0 survived (hit); row 1 must be rebuilt.
  cache.Get("T", 0, cts_[0], &built);
  EXPECT_FALSE(built);
  cache.Get("T", 1, cts_[1], &built);
  EXPECT_TRUE(built);
}

TEST_F(PreparedCacheTest, RejectsRowsLargerThanBudget) {
  PreparedRowCache cache(row_bytes_ / 2);
  bool built = true;
  EXPECT_EQ(cache.Get("T", 0, cts_[0], &built), nullptr);
  EXPECT_FALSE(built);
  auto s = cache.stats();
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.built, 0u);  // refused before building, not after
}

TEST_F(PreparedCacheTest, ShrinkingBudgetEvictsImmediately) {
  PreparedRowCache cache(4 * row_bytes_);
  bool built;
  auto held = cache.Get("T", 0, cts_[0], &built);
  cache.Get("T", 1, cts_[1], &built);
  cache.set_max_bytes(row_bytes_);  // the knob: evicts down to one row
  auto s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_LE(s.bytes, row_bytes_);
  // The evicted entry stays valid for holders: shared ownership.
  EXPECT_EQ(held->c.size(), msk_.params.Dimension());
}

TEST_F(PreparedCacheTest, EraseTableDropsOnlyThatTable) {
  PreparedRowCache cache(4 * row_bytes_);
  bool built;
  cache.Get("A", 0, cts_[0], &built);
  cache.Get("B", 0, cts_[1], &built);
  cache.EraseTable("A");
  EXPECT_EQ(cache.stats().entries, 1u);
  cache.Get("B", 0, cts_[1], &built);
  EXPECT_FALSE(built);  // B survived
  cache.Get("A", 0, cts_[0], &built);
  EXPECT_TRUE(built);  // A was dropped
}

TEST_F(PreparedCacheTest, EraseTableOnInterleavedTablesKeepsLruConsistent) {
  // Entries of the erased table sit between other tables' entries in both
  // the key map and the LRU list; the erase must excise exactly them and
  // leave the survivors' bytes, LRU order and hit behavior intact.
  PreparedRowCache cache(8 * row_bytes_);
  bool built;
  cache.Get("A", 0, cts_[0], &built);
  cache.Get("B", 0, cts_[1], &built);
  cache.Get("A", 1, cts_[2], &built);
  cache.Get("C", 0, cts_[3], &built);
  cache.Get("B", 1, cts_[0], &built);
  ASSERT_EQ(cache.stats().entries, 5u);

  cache.EraseTable("B");
  auto s = cache.stats();
  EXPECT_EQ(s.entries, 3u);
  EXPECT_EQ(s.bytes, 3 * row_bytes_);
  // Survivors hit; the erased table's rows rebuild.
  cache.Get("A", 0, cts_[0], &built);
  EXPECT_FALSE(built);
  cache.Get("A", 1, cts_[2], &built);
  EXPECT_FALSE(built);
  cache.Get("C", 0, cts_[3], &built);
  EXPECT_FALSE(built);
  cache.Get("B", 0, cts_[1], &built);
  EXPECT_TRUE(built);
  // The LRU list survived the mid-list excision: filling to the budget
  // still evicts cleanly (a dangling iterator would crash or corrupt).
  for (size_t i = 0; i < 8; ++i) {
    cache.Get("D", i, cts_[i % cts_.size()], &built);
  }
  EXPECT_LE(cache.stats().bytes, 8 * row_bytes_);
}

TEST_F(PreparedCacheTest, EraseRowDropsExactlyOneEntry) {
  PreparedRowCache cache(4 * row_bytes_);
  bool built;
  cache.Get("T", 7, cts_[0], &built);
  cache.Get("T", 8, cts_[1], &built);
  cache.EraseRow("T", 7);
  cache.EraseRow("T", 99);  // never cached: no-op
  cache.EraseRow("U", 8);   // other table: no-op
  auto s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, row_bytes_);
  cache.Get("T", 8, cts_[1], &built);
  EXPECT_FALSE(built);  // survivor still warm
  cache.Get("T", 7, cts_[0], &built);
  EXPECT_TRUE(built);  // erased row rebuilds
}

TEST_F(PreparedCacheTest, ZeroByteBudgetRejectsWithoutBuilding) {
  // The tentpole's "0 disables the pipeline" path at the cache level: a
  // zero budget must refuse every row up front -- no build, no entry, no
  // crash -- so the caller falls back to cold pairings deterministically.
  PreparedRowCache cache(0);
  bool built = true;
  EXPECT_EQ(cache.Get("T", 0, cts_[0], &built), nullptr);
  EXPECT_FALSE(built);
  auto s = cache.stats();
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_EQ(s.built, 0u);
  EXPECT_EQ(s.entries, 0u);
}

TEST_F(PreparedCacheTest, BudgetShrinkMidSeriesKeepsServingCorrectly) {
  // A budget shrink landing between decryptions of one series: entries
  // already handed out stay valid (shared_ptr), the cache honors the new
  // budget immediately, and later Gets keep working -- first rebuilding,
  // then hitting -- inside the smaller budget.
  PreparedRowCache cache(4 * row_bytes_);
  bool built;
  auto held0 = cache.Get("T", 0, cts_[0], &built);
  auto held1 = cache.Get("T", 1, cts_[1], &built);
  cache.Get("T", 2, cts_[2], &built);
  ASSERT_EQ(cache.stats().entries, 3u);

  cache.set_max_bytes(row_bytes_);  // mid-series shrink: down to one row
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_LE(cache.stats().bytes, row_bytes_);
  // In-flight holders still decrypt against valid data.
  EXPECT_EQ(held0->c.size(), msk_.params.Dimension());
  EXPECT_EQ(held1->c.size(), msk_.params.Dimension());

  // The series continues: row 2 survived as the most recent entry, a
  // re-touch of row 0 rebuilds and evicts it (budget of one).
  cache.Get("T", 2, cts_[2], &built);
  EXPECT_FALSE(built);
  cache.Get("T", 0, cts_[0], &built);
  EXPECT_TRUE(built);
  EXPECT_EQ(cache.stats().entries, 1u);
  // Shrinking to zero mid-series empties the cache and turns every later
  // Get into a clean rejection.
  cache.set_max_bytes(0);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.Get("T", 1, cts_[1], &built), nullptr);
}

// --- The cache-aware kernel ----------------------------------------------------

/// The one SJ.Dec fan-out every decrypt path shares: for every row count,
/// width and pool, and with no cache, an admitting cache (cold pass, then
/// a warm pass that builds nothing) and a cache too small for any row,
/// the digests equal per-row DecryptToDigest and the counters sum to the
/// row count under the SeriesExecStats identities.
TEST(DecryptRowsCachedTest, EveryWidthPoolAndCacheModeMatchesPerRow) {
  Rng rng(6600);
  auto msk = SecureJoin::Setup({.num_attrs = 1, .max_in_clause = 1}, &rng);
  SjToken token = SecureJoin::GenTokenPair(msk, {{}}, {{}}, &rng).first;
  std::vector<Fr> join_hashes = {rng.NextFr(), rng.NextFr(), rng.NextFr()};
  std::vector<SjRowCiphertext> cts;
  std::vector<Digest32> expect;
  for (int r = 0; r < 37; ++r) {
    std::vector<Fr> attrs = {rng.NextFr()};
    cts.push_back(SecureJoin::EncryptRow(msk, join_hashes[r % 3], attrs, &rng));
    expect.push_back(SecureJoin::DecryptToDigest(token, cts.back()));
  }
  std::vector<CachedDecryptRow> all_rows;
  for (size_t r = 0; r < cts.size(); ++r) all_rows.push_back({r, &cts[r]});
  const size_t row_bytes = SjPreparedRow::BytesForDim(msk.params.Dimension());

  ThreadPool private_pool(2);
  for (ThreadPool* pool : {&ThreadPool::Shared(), &private_pool}) {
    for (int width : {1, 2, 3, 64}) {
      for (size_t n : {0, 1, 8, 9, 37}) {
        SCOPED_TRACE(std::string(pool == &private_pool ? "private" : "shared") +
                     " pool, width " + std::to_string(width) + ", rows " +
                     std::to_string(n));
        const std::span<const CachedDecryptRow> rows =
            std::span<const CachedDecryptRow>(all_rows).first(n);
        const std::vector<Digest32> want(expect.begin(), expect.begin() + n);
        // One kernel call; checks the digests and the identities, and
        // returns the counters it added.
        auto run = [&](PreparedRowCache* cache) {
          ShardExecStats s;
          EXPECT_EQ(DecryptRowsCached(token, "T", rows, cache, *pool, width,
                                      &s),
                    want);
          EXPECT_EQ(s.decrypts_performed, n);
          EXPECT_EQ(s.pairings_computed + s.prepared_pairings, n);
          EXPECT_EQ(s.prepared_rows_built + s.prepared_cache_hits,
                    s.prepared_pairings);
          return s;
        };

        EXPECT_EQ(run(nullptr).pairings_computed, n);

        PreparedRowCache admitting;
        ShardExecStats cold = run(&admitting);
        EXPECT_EQ(cold.prepared_rows_built, n);
        ShardExecStats warm = run(&admitting);
        EXPECT_EQ(warm.prepared_cache_hits, n);
        EXPECT_EQ(warm.prepared_rows_built, 0u);
        EXPECT_EQ(admitting.stats().built, n);

        PreparedRowCache too_small(row_bytes / 2);
        EXPECT_EQ(run(&too_small).pairings_computed, n);
        EXPECT_EQ(too_small.stats().rejected, n);
        EXPECT_EQ(too_small.stats().built, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace sjoin
