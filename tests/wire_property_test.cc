// Property tests for the wire codecs (wire v8, the one version): randomized
// messages of every type, every optional field included, must round-trip
// byte-exactly, and corrupted frames -- every strict truncation, random
// single-bit flips -- must come back as Status errors, never as crashes,
// hangs or unbounded allocations. CI runs this suite under ASan/UBSan and
// TSan, so any out-of-bounds read a malformed frame provokes fails the
// build even when it would "work" in production.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <random>
#include <string>
#include <vector>

#include "crypto/rng.h"
#include "db/wire.h"
#include "ec/g1.h"
#include "ec/g2.h"

namespace sjoin {
namespace {

// --- Random message generators -------------------------------------------------

template <size_t N>
void FillRandom(Rng& rng, std::array<uint8_t, N>* out) {
  Bytes b = rng.NextBytes(N);
  std::copy(b.begin(), b.end(), out->begin());
}

G1Affine RandG1(Rng& rng) {
  if (rng.NextUint64Below(8) == 0) return G1Affine::Infinity();
  return G1Generator().ScalarMul(rng.NextFr()).ToAffine();
}

G2Affine RandG2(Rng& rng) {
  if (rng.NextUint64Below(8) == 0) return G2Affine::Infinity();
  return G2Generator().ScalarMul(rng.NextFr()).ToAffine();
}

AeadCiphertext RandAead(Rng& rng) {
  AeadCiphertext ct;
  FillRandom(rng, &ct.nonce);
  ct.body = rng.NextBytes(rng.NextUint64Below(20));
  FillRandom(rng, &ct.tag);
  return ct;
}

EncryptedRow RandRow(Rng& rng, size_t dim) {
  EncryptedRow row;
  for (size_t i = 0; i < dim; ++i) row.sj.c.push_back(RandG2(rng));
  FillRandom(rng, &row.sse.salt);
  size_t ntags = rng.NextUint64Below(3);
  for (size_t i = 0; i < ntags; ++i) {
    SseTag tag;
    FillRandom(rng, &tag);
    row.sse.tags.push_back(tag);
  }
  row.payload = RandAead(rng);
  // Fast-backend encodings: the det tag and the onion (nonce, wrapped
  // tag) each present or absent, so every flag-byte value the codec
  // writes is exercised.
  row.enc.has_det = rng.NextUint64Below(2) != 0;
  if (row.enc.has_det) FillRandom(rng, &row.enc.det_tag);
  row.enc.has_onion = rng.NextUint64Below(2) != 0;
  if (row.enc.has_onion) {
    FillRandom(rng, &row.enc.onion_nonce);
    FillRandom(rng, &row.enc.onion_wrapped);
  }
  return row;
}

EncryptedTable RandTable(Rng& rng) {
  EncryptedTable t;
  t.name = "T" + std::to_string(rng.NextUint64Below(100));
  size_t ncols = 1 + rng.NextUint64Below(3);
  std::vector<Column> cols;
  for (size_t c = 0; c < ncols; ++c) {
    cols.push_back(Column{"c" + std::to_string(c),
                          rng.NextUint64Below(2) ? ValueKind::kInt64
                                                 : ValueKind::kString});
  }
  t.schema = Schema(std::move(cols));
  t.join_column = "c0";
  for (size_t c = 1; c < ncols; ++c) {
    t.attr_columns.push_back("c" + std::to_string(c));
  }
  size_t nrows = rng.NextUint64Below(3);
  size_t dim = 1 + rng.NextUint64Below(2);
  for (size_t r = 0; r < nrows; ++r) t.rows.push_back(RandRow(rng, dim));
  return t;
}

std::vector<SseTokenGroup> RandSseGroups(Rng& rng) {
  std::vector<SseTokenGroup> groups;
  size_t n = rng.NextUint64Below(3);
  for (size_t g = 0; g < n; ++g) {
    SseTokenGroup group;
    group.column_index = rng.NextUint64Below(4);
    size_t ntok = rng.NextUint64Below(3);
    for (size_t i = 0; i < ntok; ++i) {
      SseToken tok;
      FillRandom(rng, &tok);
      group.tokens.push_back(tok);
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

JoinQueryTokens RandQuery(Rng& rng) {
  JoinQueryTokens q;
  q.table_a = "A" + std::to_string(rng.NextUint64Below(10));
  q.table_b = "B" + std::to_string(rng.NextUint64Below(10));
  q.use_sse_prefilter = rng.NextUint64Below(2) != 0;
  size_t dim = 1 + rng.NextUint64Below(2);
  for (size_t i = 0; i < dim; ++i) q.token_a.tk.push_back(RandG1(rng));
  for (size_t i = 0; i < dim; ++i) q.token_b.tk.push_back(RandG1(rng));
  q.sse_a = RandSseGroups(rng);
  q.sse_b = RandSseGroups(rng);
  return q;
}

QuerySeriesTokens RandSeries(Rng& rng) {
  QuerySeriesTokens s;
  size_t n = rng.NextUint64Below(3);
  for (size_t i = 0; i < n; ++i) s.queries.push_back(RandQuery(rng));
  // The codec carries the policy mask verbatim: any 32-bit value.
  s.allowed_backends = static_cast<uint32_t>(rng.NextUint64());
  s.has_onion_key = rng.NextUint64Below(2) != 0;
  if (s.has_onion_key) FillRandom(rng, &s.onion_key);
  return s;
}

EncryptedJoinResult RandJoinResult(Rng& rng) {
  EncryptedJoinResult r;
  size_t n = rng.NextUint64Below(3);
  for (size_t i = 0; i < n; ++i) {
    r.row_pairs.emplace_back(RandAead(rng), RandAead(rng));
    r.matched_row_indices.push_back(
        JoinedRowPair{rng.NextUint64Below(100), rng.NextUint64Below(100)});
  }
  r.stats.rows_total_a = rng.NextUint64Below(1000);
  r.stats.rows_total_b = rng.NextUint64Below(1000);
  r.stats.rows_selected_a = rng.NextUint64Below(1000);
  r.stats.rows_selected_b = rng.NextUint64Below(1000);
  r.stats.result_pairs = n;
  return r;
}

EncryptedSeriesResult RandSeriesResult(Rng& rng) {
  EncryptedSeriesResult r;
  size_t n = rng.NextUint64Below(3);
  for (size_t i = 0; i < n; ++i) r.results.push_back(RandJoinResult(rng));
  r.stats.queries = n;
  r.stats.decrypts_requested = rng.NextUint64Below(1000);
  r.stats.decrypts_performed = rng.NextUint64Below(1000);
  r.stats.digest_cache_hits = rng.NextUint64Below(1000);
  r.stats.pairings_computed = rng.NextUint64Below(1000);
  r.stats.prepared_pairings = rng.NextUint64Below(1000);
  r.stats.prepared_rows_built = rng.NextUint64Below(1000);
  r.stats.prepared_cache_hits = rng.NextUint64Below(1000);
  r.stats.backend_sjoin_queries = rng.NextUint64Below(10);
  r.stats.backend_det_queries = rng.NextUint64Below(10);
  r.stats.backend_onion_queries = rng.NextUint64Below(10);
  r.stats.leakage_charged = rng.NextUint64();
  size_t nbudgets = rng.NextUint64Below(3);
  for (size_t i = 0; i < nbudgets; ++i) {
    SeriesExecStats::TableBudget b;
    b.table = "T" + std::to_string(rng.NextUint64Below(10));
    b.limit = rng.NextUint64();
    b.spent = rng.NextUint64Below(1000);
    b.remaining = rng.NextUint64();
    r.stats.budgets.push_back(std::move(b));
  }
  return r;
}

TableMutation RandMutation(Rng& rng) {
  TableMutation m;
  m.table = "T" + std::to_string(rng.NextUint64Below(10));
  m.base_generation = rng.NextUint64Below(10);
  size_t ndel = rng.NextUint64Below(3);
  for (size_t i = 0; i < ndel; ++i) m.deletes.push_back(rng.NextUint64());
  size_t nins = rng.NextUint64Below(2);
  size_t dim = 1 + rng.NextUint64Below(2);
  for (size_t i = 0; i < nins; ++i) m.inserts.push_back(RandRow(rng, dim));
  return m;
}

MutationResult RandMutationResult(Rng& rng) {
  MutationResult r;
  r.generation = rng.NextUint64();
  size_t n = rng.NextUint64Below(4);
  for (size_t i = 0; i < n; ++i) r.inserted_ids.push_back(rng.NextUint64());
  return r;
}

// Distributed-execution messages (src/dist).

Digest32 RandDigest(Rng& rng) {
  Digest32 d;
  FillRandom(rng, &d);
  return d;
}

ShardAssignment RandShardAssignment(Rng& rng) {
  ShardAssignment a;
  a.table = "T" + std::to_string(rng.NextUint64Below(10));
  a.generation = rng.NextUint64Below(50);
  a.shard = static_cast<uint32_t>(rng.NextUint64Below(16));
  size_t n = rng.NextUint64Below(3);
  size_t dim = 1 + rng.NextUint64Below(2);
  for (size_t i = 0; i < n; ++i) {
    a.row_ids.push_back(rng.NextUint64());
    a.rows.push_back(RandRow(rng, dim));
  }
  return a;
}

ShardAck RandShardAck(Rng& rng) {
  ShardAck ack;
  ack.generation = rng.NextUint64();
  ack.rows_held = rng.NextUint64Below(1000);
  return ack;
}

ShardDecryptRequest RandShardDecryptRequest(Rng& rng) {
  ShardDecryptRequest r;
  r.table = "T" + std::to_string(rng.NextUint64Below(10));
  r.generation = rng.NextUint64Below(50);
  r.shard = static_cast<uint32_t>(rng.NextUint64Below(16));
  size_t dim = 1 + rng.NextUint64Below(2);
  for (size_t i = 0; i < dim; ++i) r.token.tk.push_back(RandG1(rng));
  size_t n = rng.NextUint64Below(4);
  for (size_t i = 0; i < n; ++i) r.rows.push_back(rng.NextUint64());
  return r;
}

ShardDecryptResponse RandShardDecryptResponse(Rng& rng) {
  ShardDecryptResponse r;
  size_t n = rng.NextUint64Below(5);
  for (size_t i = 0; i < n; ++i) {
    uint8_t have = rng.NextUint64Below(2) != 0;
    r.have.push_back(have);
    if (have) r.digests.push_back(RandDigest(rng));
  }
  r.stats.decrypts_performed = rng.NextUint64Below(100);
  r.stats.pairings_computed = rng.NextUint64Below(100);
  r.stats.prepared_pairings = rng.NextUint64Below(100);
  r.stats.prepared_rows_built = rng.NextUint64Below(100);
  r.stats.prepared_cache_hits = rng.NextUint64Below(100);
  return r;
}

ShardMutation RandShardMutation(Rng& rng) {
  ShardMutation m;
  m.table = "T" + std::to_string(rng.NextUint64Below(10));
  m.new_generation = rng.NextUint64Below(50);
  size_t ndel = rng.NextUint64Below(3);
  for (size_t i = 0; i < ndel; ++i) m.deletes.push_back(rng.NextUint64());
  size_t nins = rng.NextUint64Below(2);
  size_t dim = 1 + rng.NextUint64Below(2);
  for (size_t i = 0; i < nins; ++i) {
    m.insert_ids.push_back(rng.NextUint64());
    m.insert_shards.push_back(static_cast<uint32_t>(rng.NextUint64Below(16)));
    m.inserts.push_back(RandRow(rng, dim));
  }
  return m;
}

WorkerHealthInfo RandWorkerHealthInfo(Rng& rng) {
  WorkerHealthInfo h;
  h.tables = rng.NextUint64Below(10);
  h.shards_held = rng.NextUint64Below(100);
  h.rows_held = rng.NextUint64Below(10000);
  h.decrypt_requests = rng.NextUint64Below(10000);
  h.digests_computed = rng.NextUint64Below(10000);
  return h;
}

// --- The property drivers ------------------------------------------------------

/// Round trip: decode(encode(msg)) must succeed and re-encode to the very
/// same bytes (byte equality subsumes field-by-field equality and proves
/// the decoder consumed everything it was given).
template <typename Msg, typename Ser, typename De>
void CheckRoundTrip(const Msg& msg, Ser serialize, De deserialize,
                    const char* what) {
  Bytes wire = serialize(msg);
  auto back = deserialize(wire);
  ASSERT_TRUE(back.ok()) << what << ": " << back.status().ToString();
  EXPECT_EQ(serialize(*back), wire) << what << ": re-encode differs";
}

/// Every strict prefix must decode to an error (all codec fields are
/// required, so a truncated frame can never be complete),
/// and random single-bit flips must never crash -- they may decode (a
/// flipped payload byte is still a valid payload) or error (a flipped
/// point fails on-curve validation), both acceptable; what the sanitizers
/// rule out is reading past the buffer either way.
template <typename De>
void CheckCorruption(const Bytes& wire, De deserialize, uint64_t seed,
                     const char* what) {
  // Truncations: every prefix for small frames, a bounded sample (plus
  // the boundary prefixes) for large ones.
  std::vector<size_t> cuts;
  if (wire.size() <= 256) {
    cuts.resize(wire.size());
    std::iota(cuts.begin(), cuts.end(), 0);
  } else {
    std::mt19937_64 prng(seed);
    cuts = {0, 1, 2, wire.size() - 1};
    for (int i = 0; i < 64; ++i) cuts.push_back(prng() % wire.size());
  }
  for (size_t cut : cuts) {
    Bytes truncated(wire.begin(), wire.begin() + cut);
    auto result = deserialize(truncated);
    EXPECT_FALSE(result.ok())
        << what << ": truncation to " << cut << " of " << wire.size()
        << " bytes decoded successfully";
  }
  // Bit flips.
  std::mt19937_64 prng(seed ^ 0xbf11bf11bf11bf11ull);
  for (int i = 0; i < 48 && !wire.empty(); ++i) {
    Bytes flipped = wire;
    size_t bit = prng() % (wire.size() * 8);
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    auto result = deserialize(flipped);  // must not crash; outcome free
    (void)result;
  }
}

template <typename Msg, typename Ser, typename De>
void CheckMessage(Rng& rng, uint64_t seed, Msg (*make)(Rng&), Ser serialize,
                  De deserialize, const char* what) {
  Msg msg = make(rng);
  CheckRoundTrip(msg, serialize, deserialize, what);
  CheckCorruption(serialize(msg), deserialize, seed, what);
}

constexpr int kIterations = 4;  // EC material makes generation pairing-scale

TEST(WirePropertyTest, EncryptedTableRoundTripAndCorruption) {
  for (int i = 0; i < kIterations; ++i) {
    Rng rng(5000 + i);
    CheckMessage(rng, 5000 + i, RandTable, SerializeEncryptedTable,
                 DeserializeEncryptedTable, "table");
  }
}

TEST(WirePropertyTest, JoinQueryTokensRoundTripAndCorruption) {
  for (int i = 0; i < kIterations; ++i) {
    Rng rng(5100 + i);
    CheckMessage(rng, 5100 + i, RandQuery, SerializeJoinQueryTokens,
                 DeserializeJoinQueryTokens, "query");
  }
}

TEST(WirePropertyTest, QuerySeriesRoundTripAndCorruption) {
  for (int i = 0; i < kIterations; ++i) {
    Rng rng(5200 + i);
    CheckMessage(rng, 5200 + i, RandSeries, SerializeQuerySeries,
                 DeserializeQuerySeries, "series");
  }
}

TEST(WirePropertyTest, JoinResultRoundTripAndCorruption) {
  for (int i = 0; i < kIterations; ++i) {
    Rng rng(5300 + i);
    CheckMessage(rng, 5300 + i, RandJoinResult, SerializeJoinResult,
                 DeserializeJoinResult, "result");
  }
}

TEST(WirePropertyTest, SeriesResultRoundTripAndCorruption) {
  for (int i = 0; i < kIterations; ++i) {
    Rng rng(5400 + i);
    CheckMessage(rng, 5400 + i, RandSeriesResult, SerializeSeriesResult,
                 DeserializeSeriesResult, "series result");
  }
}

TEST(WirePropertyTest, TableMutationRoundTripAndCorruption) {
  for (int i = 0; i < kIterations; ++i) {
    Rng rng(5500 + i);
    CheckMessage(rng, 5500 + i, RandMutation, SerializeTableMutation,
                 DeserializeTableMutation, "mutation");
  }
}

TEST(WirePropertyTest, MutationResultRoundTripAndCorruption) {
  for (int i = 0; i < kIterations; ++i) {
    Rng rng(5600 + i);
    CheckMessage(rng, 5600 + i, RandMutationResult, SerializeMutationResult,
                 DeserializeMutationResult, "mutation result");
  }
}

// Distributed-execution messages: same properties -- byte-exact round
// trips, every strict truncation errors, bit flips never crash.

TEST(WirePropertyTest, ShardAssignmentRoundTripAndCorruption) {
  for (int i = 0; i < kIterations; ++i) {
    Rng rng(5700 + i);
    CheckMessage(rng, 5700 + i, RandShardAssignment, SerializeShardAssignment,
                 DeserializeShardAssignment, "shard assignment");
  }
}

TEST(WirePropertyTest, ShardAckRoundTripAndCorruption) {
  for (int i = 0; i < kIterations; ++i) {
    Rng rng(5800 + i);
    CheckMessage(rng, 5800 + i, RandShardAck, SerializeShardAck,
                 DeserializeShardAck, "shard ack");
  }
}

TEST(WirePropertyTest, ShardDecryptRequestRoundTripAndCorruption) {
  for (int i = 0; i < kIterations; ++i) {
    Rng rng(5900 + i);
    CheckMessage(rng, 5900 + i, RandShardDecryptRequest,
                 SerializeShardDecryptRequest, DeserializeShardDecryptRequest,
                 "shard decrypt request");
  }
}

TEST(WirePropertyTest, ShardDecryptResponseRoundTripAndCorruption) {
  for (int i = 0; i < kIterations; ++i) {
    Rng rng(6000 + i);
    CheckMessage(rng, 6000 + i, RandShardDecryptResponse,
                 SerializeShardDecryptResponse,
                 DeserializeShardDecryptResponse, "shard decrypt response");
  }
}

TEST(WirePropertyTest, ShardMutationRoundTripAndCorruption) {
  for (int i = 0; i < kIterations; ++i) {
    Rng rng(6100 + i);
    CheckMessage(rng, 6100 + i, RandShardMutation, SerializeShardMutation,
                 DeserializeShardMutation, "shard mutation");
  }
}

TEST(WirePropertyTest, WorkerHealthInfoRoundTripAndCorruption) {
  for (int i = 0; i < kIterations; ++i) {
    Rng rng(6200 + i);
    CheckMessage(rng, 6200 + i, RandWorkerHealthInfo,
                 SerializeWorkerHealthInfo, DeserializeWorkerHealthInfo,
                 "worker health");
  }
}

// --- Row encoding flags --------------------------------------------------------

TEST(WirePropertyTest, UnknownRowEncodingFlagIsRejected) {
  // The flag byte after a row's payload names the encodings that follow.
  // A bit the codec does not define (0x04) must be refused, not skipped:
  // skipping would misread every byte after it. A row with no encodings
  // is the last thing in a one-row table or insert-only mutation, so its
  // flag byte is the message's last byte.
  Rng rng(6300);
  EncryptedRow row = RandRow(rng, 1);
  row.enc = {};
  EncryptedTable table = RandTable(rng);
  table.rows = {row};
  TableMutation mutation;
  mutation.table = "T";
  mutation.inserts = {row};
  Bytes table_wire = SerializeEncryptedTable(table);
  Bytes mutation_wire = SerializeTableMutation(mutation);
  for (Bytes* wire : {&table_wire, &mutation_wire}) {
    ASSERT_EQ(wire->back(), 0x00);
    wire->back() = 0x04;
  }
  for (const Status& status :
       {DeserializeEncryptedTable(table_wire).status(),
        DeserializeTableMutation(mutation_wire).status()}) {
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("unknown row encoding flags"),
              std::string::npos)
        << status.ToString();
  }
}

}  // namespace
}  // namespace sjoin
