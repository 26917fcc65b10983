// Wire-format tests: primitive round trips, point validation, full message
// round trips through a real client/server exchange, corruption
// rejection, and the pinned v8 bytes of every message.
#include <gtest/gtest.h>

#include <functional>

#include "crypto/sha256.h"
#include "db/client.h"
#include "db/server.h"
#include "db/wire.h"
#include "ec/g1.h"
#include "ec/g2.h"

namespace sjoin {
namespace {

TEST(WirePrimitiveTest, IntegerRoundTrip) {
  WireWriter w;
  w.U8(0xab);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefull);
  w.Str("hello");
  w.Blob({1, 2, 3});
  Bytes wire = w.Take();
  WireReader r(wire);
  EXPECT_EQ(*r.U8(), 0xab);
  EXPECT_EQ(*r.U32(), 0xdeadbeefu);
  EXPECT_EQ(*r.U64(), 0x0123456789abcdefull);
  EXPECT_EQ(*r.Str(), "hello");
  EXPECT_EQ(*r.Blob(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(WirePrimitiveTest, TruncationDetected) {
  WireWriter w;
  w.U32(7);
  Bytes wire = w.Take();
  wire.pop_back();
  WireReader r(wire);
  EXPECT_FALSE(r.U32().ok());
  // Blob longer than the buffer.
  WireWriter w2;
  w2.U32(100);  // claims 100 bytes follow
  Bytes wire2 = w2.Take();
  WireReader r2(wire2);
  EXPECT_FALSE(r2.Blob().ok());
}

TEST(WirePointTest, G1RoundTripAndValidation) {
  Rng rng(700);
  G1Affine p = G1Generator().ScalarMul(rng.NextFr()).ToAffine();
  WireWriter w;
  WriteG1Point(&w, p);
  WriteG1Point(&w, G1Affine::Infinity());
  Bytes wire = w.Take();
  WireReader r(wire);
  auto back = ReadG1Point(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, p);
  auto inf = ReadG1Point(&r);
  ASSERT_TRUE(inf.ok());
  EXPECT_TRUE(inf->infinity);
  // Corrupt a coordinate: the point leaves the curve and is rejected.
  wire[5] ^= 0x01;
  WireReader r2(wire);
  EXPECT_FALSE(ReadG1Point(&r2).ok());
}

TEST(WirePointTest, G2RoundTripAndValidation) {
  Rng rng(701);
  G2Affine q = G2Generator().ScalarMul(rng.NextFr()).ToAffine();
  WireWriter w;
  WriteG2Point(&w, q);
  Bytes wire = w.Take();
  WireReader r(wire);
  auto back = ReadG2Point(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, q);
  wire[40] ^= 0x01;
  WireReader r2(wire);
  EXPECT_FALSE(ReadG2Point(&r2).ok());
}

class WireEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    client_ = std::make_unique<EncryptedClient>(ClientOptions{
        .num_attrs = 2, .max_in_clause = 2, .rng_seed = 702});
    Table users("Users", Schema({{"uid", ValueKind::kInt64},
                                 {"tier", ValueKind::kString}}));
    ASSERT_TRUE(users.AppendRow({int64_t{1}, "gold"}).ok());
    ASSERT_TRUE(users.AppendRow({int64_t{2}, "silver"}).ok());
    Table events("Events", Schema({{"uid", ValueKind::kInt64},
                                   {"kind", ValueKind::kString}}));
    ASSERT_TRUE(events.AppendRow({int64_t{1}, "login"}).ok());
    ASSERT_TRUE(events.AppendRow({int64_t{2}, "login"}).ok());
    ASSERT_TRUE(events.AppendRow({int64_t{1}, "purchase"}).ok());
    auto enc_u = client_->EncryptTable(users, "uid");
    auto enc_e = client_->EncryptTable(events, "uid");
    ASSERT_TRUE(enc_u.ok() && enc_e.ok());
    enc_users_ = std::move(*enc_u);
    enc_events_ = std::move(*enc_e);
  }

  std::unique_ptr<EncryptedClient> client_;
  EncryptedTable enc_users_, enc_events_;
};

TEST_F(WireEndToEndTest, FullExchangeThroughWireFormat) {
  // Client -> server: tables travel as bytes.
  Bytes table_wire_u = SerializeEncryptedTable(enc_users_);
  Bytes table_wire_e = SerializeEncryptedTable(enc_events_);
  auto u = DeserializeEncryptedTable(table_wire_u);
  auto e = DeserializeEncryptedTable(table_wire_e);
  ASSERT_TRUE(u.ok()) << u.status().ToString();
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(u->name, "Users");
  EXPECT_EQ(u->rows.size(), 2u);
  EXPECT_EQ(u->attr_columns, enc_users_.attr_columns);

  EncryptedServer server;
  ASSERT_TRUE(server.StoreTable(std::move(*u)).ok());
  ASSERT_TRUE(server.StoreTable(std::move(*e)).ok());

  // Query tokens as bytes.
  JoinQuerySpec q;
  q.table_a = "Users";
  q.table_b = "Events";
  q.join_column_a = q.join_column_b = "uid";
  q.selection_a.predicates = {{"tier", {Value("gold")}}};
  q.selection_b.predicates = {{"kind", {Value("login"), Value("purchase")}}};
  auto tokens = client_->BuildQueryTokens(q, enc_users_, enc_events_);
  ASSERT_TRUE(tokens.ok());
  Bytes query_wire = SerializeJoinQueryTokens(*tokens);
  auto tokens2 = DeserializeJoinQueryTokens(query_wire);
  ASSERT_TRUE(tokens2.ok()) << tokens2.status().ToString();

  auto result = server.ExecuteJoin(*tokens2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.result_pairs, 2u);  // gold user 1: login + purchase

  // Result as bytes, decrypted by the client.
  Bytes result_wire = SerializeJoinResult(*result);
  auto result2 = DeserializeJoinResult(result_wire);
  ASSERT_TRUE(result2.ok());
  auto joined = client_->DecryptJoinResult(*result2, enc_users_, enc_events_);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_EQ(joined->NumRows(), 2u);
}

TEST_F(WireEndToEndTest, WrongMessageTagRejected) {
  Bytes table_wire = SerializeEncryptedTable(enc_users_);
  EXPECT_FALSE(DeserializeJoinQueryTokens(table_wire).ok());
  EXPECT_FALSE(DeserializeJoinResult(table_wire).ok());
}

TEST_F(WireEndToEndTest, CorruptedCiphertextPointRejected) {
  Bytes wire = SerializeEncryptedTable(enc_users_);
  // Flip a byte inside the first G2 ciphertext point (past the header and
  // schema strings; locate by searching for the 0x04 tag of the first
  // uncompressed point).
  size_t pos = 0;
  for (size_t i = 16; i + 129 < wire.size(); ++i) {
    if (wire[i] == 0x04) {
      pos = i + 10;
      break;
    }
  }
  ASSERT_GT(pos, 0u);
  wire[pos] ^= 0xff;
  EXPECT_FALSE(DeserializeEncryptedTable(wire).ok());
}

TEST_F(WireEndToEndTest, TruncatedTableRejected) {
  Bytes wire = SerializeEncryptedTable(enc_users_);
  wire.resize(wire.size() / 2);
  EXPECT_FALSE(DeserializeEncryptedTable(wire).ok());
  wire.clear();
  EXPECT_FALSE(DeserializeEncryptedTable(wire).ok());
}

TEST_F(WireEndToEndTest, StorageOverheadAccounting) {
  // Ciphertext expansion: dim G2 points (129 B each) + SSE + AEAD payload.
  Bytes wire = SerializeEncryptedTable(enc_users_);
  size_t per_row = wire.size() / enc_users_.rows.size();
  size_t dim = enc_users_.rows[0].sj.c.size();
  EXPECT_EQ(dim, 2u * 3u + 3u);  // m(t+1)+3 with m=2, t=2
  EXPECT_GT(per_row, dim * 129);
  EXPECT_LT(per_row, dim * 129 + 512);
}


// --- Pinned v8 bytes ---------------------------------------------------------
//
// One deterministic instance of each message, built from a fixed-seed Rng;
// across the set every optional field appears (det and onion row
// encodings, the onion key, budget rows, a presence bitmap with zeros,
// empty lists, points at infinity). The SHA-256 of each encoding is
// pinned, so a layout that drifts the same way in the writer and the
// reader -- which every round-trip test accepts -- fails here. A
// deliberate layout change bumps kWireVersion and these constants.

class GoldenGen {
 public:
  explicit GoldenGen(uint64_t seed) : rng_(seed) {}

  template <size_t N>
  std::array<uint8_t, N> Array() {
    std::array<uint8_t, N> out;
    rng_.Fill(out.data(), N);
    return out;
  }
  uint64_t U64() { return rng_.NextUint64(); }
  G1Affine G1() { return G1Generator().ScalarMul(rng_.NextFr()).ToAffine(); }
  G2Affine G2() { return G2Generator().ScalarMul(rng_.NextFr()).ToAffine(); }

  AeadCiphertext Aead(size_t body_len) {
    AeadCiphertext ct;
    ct.nonce = Array<12>();
    ct.body = rng_.NextBytes(body_len);
    ct.tag = Array<32>();
    return ct;
  }

  EncryptedRow Row(bool det, bool onion) {
    EncryptedRow row;
    row.sj.c = {G2(), G2Affine::Infinity(), G2()};
    row.sse.salt = Array<16>();
    row.sse.tags = {Array<16>(), Array<16>()};
    row.payload = Aead(7);
    row.enc.has_det = det;
    if (det) row.enc.det_tag = Array<16>();
    row.enc.has_onion = onion;
    if (onion) {
      row.enc.onion_nonce = Array<12>();
      row.enc.onion_wrapped = Array<16>();
    }
    return row;
  }

  SjToken Token() { return SjToken{{G1(), G1Affine::Infinity(), G1()}}; }

  JoinQueryTokens Query(bool prefilter) {
    JoinQueryTokens q;
    q.table_a = "Customers";
    q.table_b = "Orders";
    q.use_sse_prefilter = prefilter;
    q.token_a = Token();
    q.token_b = Token();
    q.sse_a = {SseTokenGroup{1, {Array<32>(), Array<32>()}},
               SseTokenGroup{0, {}}};
    return q;  // sse_b stays empty
  }

  EncryptedJoinResult JoinResult() {
    EncryptedJoinResult r;
    r.row_pairs.emplace_back(Aead(3), Aead(0));
    r.row_pairs.emplace_back(Aead(9), Aead(4));
    r.matched_row_indices = {JoinedRowPair{3, 7}, JoinedRowPair{5, 1}};
    r.stats.rows_total_a = 10;
    r.stats.rows_total_b = 20;
    r.stats.rows_selected_a = 6;
    r.stats.rows_selected_b = 9;
    r.stats.result_pairs = 2;
    return r;
  }

 private:
  Rng rng_;
};

/// One pinned message: its encoding, the SHA-256 hex of that encoding at
/// v8, and decode-then-re-encode through the message's own codec pair.
struct GoldenCase {
  const char* what;
  Bytes wire;
  const char* sha256_hex;
  std::function<Result<Bytes>(const Bytes&)> reencode;
};

template <typename M>
GoldenCase Golden(const char* what, const M& msg, Bytes (*ser)(const M&),
                  Result<M> (*de)(const Bytes&), const char* sha256_hex) {
  return {what, ser(msg), sha256_hex,
          [ser, de](const Bytes& wire) -> Result<Bytes> {
            auto back = de(wire);
            if (!back.ok()) return back.status();
            return ser(*back);
          }};
}

TEST(WireGoldenTest, V8BytesArePinned) {
  GoldenGen g(0x5eed08);

  EncryptedTable table;
  table.name = "Orders";
  table.schema = Schema({{"cust_id", ValueKind::kInt64},
                         {"region", ValueKind::kString},
                         {"qty", ValueKind::kInt64}});
  table.join_column = "cust_id";
  table.attr_columns = {"region", "qty"};
  table.rows = {g.Row(true, false), g.Row(false, true), g.Row(false, false)};

  JoinQueryTokens query = g.Query(true);

  QuerySeriesTokens series;
  series.queries = {g.Query(true), g.Query(false)};
  series.allowed_backends = kBackendMaskAll;
  series.has_onion_key = true;
  series.onion_key = g.Array<32>();

  EncryptedJoinResult result = g.JoinResult();

  EncryptedSeriesResult series_result;
  series_result.results = {g.JoinResult(), EncryptedJoinResult{}};
  SeriesExecStats& st = series_result.stats;
  st.queries = 2;
  st.decrypts_requested = 41;
  st.decrypts_performed = 30;
  st.digest_cache_hits = 11;
  st.pairings_computed = 12;
  st.prepared_pairings = 18;
  st.prepared_rows_built = 7;
  st.prepared_cache_hits = 11;
  st.backend_sjoin_queries = 1;
  st.backend_det_queries = 1;
  st.backend_onion_queries = 0;
  st.leakage_charged = 3;
  st.budgets = {{"Customers", LeakageTracker::kUnlimitedBudget, 3,
                 LeakageTracker::kUnlimitedBudget},
                {"Orders", 100, 3, 97}};

  TableMutation mutation;
  mutation.table = "Orders";
  mutation.base_generation = 4;
  mutation.deletes = {g.U64(), 12};
  mutation.inserts = {g.Row(true, true)};

  MutationResult mutation_result;
  mutation_result.generation = 5;
  mutation_result.inserted_ids = {g.U64(), 22};

  ShardAssignment assign;
  assign.table = "Orders";
  assign.generation = 3;
  assign.shard = 2;
  assign.row_ids = {31, g.U64()};
  assign.rows = {g.Row(false, false), g.Row(true, true)};

  ShardAck ack;
  ack.generation = 3;
  ack.rows_held = 40;

  ShardDecryptRequest decrypt;
  decrypt.table = "Customers";
  decrypt.generation = 6;
  decrypt.shard = 1;
  decrypt.token = g.Token();
  decrypt.rows = {1, g.U64(), 3};

  ShardDecryptResponse digests;
  digests.have = {1, 0, 1, 0};
  digests.digests = {g.Array<32>(), g.Array<32>()};
  digests.stats = ShardExecStats{2, 1, 1, 1, 0};

  ShardMutation shard_mutation;
  shard_mutation.table = "Orders";
  shard_mutation.new_generation = 7;
  shard_mutation.insert_ids = {51, g.U64()};
  shard_mutation.insert_shards = {2, 0};
  shard_mutation.inserts = {g.Row(true, false), g.Row(false, true)};
  // deletes stays empty

  WorkerHealthInfo health{2, 5, 123, 17, 456};

  const std::vector<GoldenCase> cases = {
      Golden("table", table, SerializeEncryptedTable, DeserializeEncryptedTable,
             "95be228f673ffaed000e43c6a902a012"
             "665547c5967d0411088c8e68b7f1898e"),
      Golden("query", query, SerializeJoinQueryTokens,
             DeserializeJoinQueryTokens,
             "81c822d3bf72a5da67ebf8292e6bee27"
             "4dccc8548ad6eb2c5ab8266eb7ba9c72"),
      Golden("result", result, SerializeJoinResult, DeserializeJoinResult,
             "7eded70da620ed663b63329c4cecee53"
             "265275b2b6a8bc8c9d285825271f791b"),
      Golden("series", series, SerializeQuerySeries, DeserializeQuerySeries,
             "edd904aa03977b1c1f2769fde6b2729e"
             "bb564f622052fbbef3489fd5f8d0ac89"),
      Golden("series result", series_result, SerializeSeriesResult,
             DeserializeSeriesResult,
             "e92cc8386069d3ad9ba336270cc64578"
             "76c176ed2e7cd254eeb587e2e702fad9"),
      Golden("mutation", mutation, SerializeTableMutation,
             DeserializeTableMutation,
             "b9cf42e5afa7975395860a13de5025b9"
             "7dd0fd116d0a31f0262123ef7ee45721"),
      Golden("mutation result", mutation_result, SerializeMutationResult,
             DeserializeMutationResult,
             "8b74969620e3d2420a0cb81c9eb4db24"
             "d61920a5db3c57bf5d5da11b04b785f9"),
      Golden("shard assignment", assign, SerializeShardAssignment,
             DeserializeShardAssignment,
             "96481c40b3ab7f4c427c378ca85b016b"
             "4e3d90a46aa42120ec3d4a9149cf23b5"),
      Golden("shard ack", ack, SerializeShardAck, DeserializeShardAck,
             "df7c0221ba44e42faf3f372193607b38"
             "b6afbe799f69826da7755b09a8598fd0"),
      Golden("shard decrypt", decrypt, SerializeShardDecryptRequest,
             DeserializeShardDecryptRequest,
             "3bf22918efb3ee7c161d2df734324ade"
             "a77e2a4b3d43e4d875edd8e2875fdcf0"),
      Golden("shard digests", digests, SerializeShardDecryptResponse,
             DeserializeShardDecryptResponse,
             "03cddb56f9a25fe4ed23a3bb857fb012"
             "6129fbe4a3fdb3164f059163a09ae4ed"),
      Golden("shard mutation", shard_mutation, SerializeShardMutation,
             DeserializeShardMutation,
             "072e1915280951548d3f1a3714bc0123"
             "9b2da0fc2f9e97348c7b89979032c8c9"),
      Golden("worker health", health, SerializeWorkerHealthInfo,
             DeserializeWorkerHealthInfo,
             "7a2892ab9286c889bcad31ac34be6e1f"
             "bde0b984a69ecbd87db777ce9b6ce549"),
  };
  for (const GoldenCase& c : cases) {
    Digest32 sha = Sha256::Hash(c.wire);
    EXPECT_EQ(ToHex(sha.data(), sha.size()), c.sha256_hex)
        << c.what << " (" << c.wire.size() << " bytes)";
    auto again = c.reencode(c.wire);
    ASSERT_TRUE(again.ok()) << c.what << ": " << again.status().ToString();
    EXPECT_EQ(*again, c.wire) << c.what << ": re-encode differs";
  }
}

}  // namespace
}  // namespace sjoin
