#include "db/wire.h"

#include <cstring>

namespace sjoin {
namespace {

// Format version, stamped in byte 0 of every message. Every peer
// (TcpClient, TcpServer, Coordinator, ShardWorker) is built from this
// tree, so readers accept exactly this version: a layout change bumps it,
// and a message stamped with any other version is refused with a
// versioned InvalidArgument before a single field is read.
constexpr uint8_t kWireVersion = 8;

// Message type tags catch cross-wiring of messages.
constexpr uint8_t kTagTable = 0x54;           // 'T'
constexpr uint8_t kTagQuery = 0x51;           // 'Q'
constexpr uint8_t kTagResult = 0x52;          // 'R'
constexpr uint8_t kTagQuerySeries = 0x71;     // 'q'
constexpr uint8_t kTagSeriesResult = 0x72;    // 'r'
constexpr uint8_t kTagMutation = 0x4D;        // 'M'
constexpr uint8_t kTagMutationResult = 0x6D;  // 'm'
constexpr uint8_t kTagShardAssign = 0x41;     // 'A'
constexpr uint8_t kTagShardAck = 0x61;        // 'a'
constexpr uint8_t kTagShardDecrypt = 0x44;    // 'D'
constexpr uint8_t kTagShardDigests = 0x64;    // 'd'
constexpr uint8_t kTagShardMutation = 0x58;   // 'X'
constexpr uint8_t kTagWorkerHealth = 0x48;    // 'H'

// Backend-encoding flag bits of the row codec.
constexpr uint8_t kRowFlagDet = 0x01;
constexpr uint8_t kRowFlagOnion = 0x02;

Result<Fp> ReadFp(WireReader* r) {
  uint8_t buf[32];
  SJOIN_RETURN_IF_ERROR(r->Raw(buf, sizeof(buf)));
  return Fp::FromBytesBE(buf);
}

void WriteFp(WireWriter* w, const Fp& x) {
  uint8_t buf[32];
  x.ToBytesBE(buf);
  w->Raw(buf, sizeof(buf));
}

}  // namespace

void WireWriter::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void WireWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void WireWriter::Raw(const uint8_t* data, size_t len) {
  buf_.insert(buf_.end(), data, data + len);
}

void WireWriter::Blob(const Bytes& b) {
  U32(static_cast<uint32_t>(b.size()));
  Raw(b.data(), b.size());
}

void WireWriter::Str(const std::string& s) {
  U32(static_cast<uint32_t>(s.size()));
  Raw(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

Result<uint8_t> WireReader::U8() {
  if (pos_ + 1 > buf_.size()) return Status::OutOfRange("wire: truncated u8");
  return buf_[pos_++];
}

Result<uint32_t> WireReader::U32() {
  if (pos_ + 4 > buf_.size()) return Status::OutOfRange("wire: truncated u32");
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(buf_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

Result<uint64_t> WireReader::U64() {
  if (pos_ + 8 > buf_.size()) return Status::OutOfRange("wire: truncated u64");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(buf_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

Status WireReader::Raw(uint8_t* out, size_t len) {
  if (pos_ + len > buf_.size()) {
    return Status::OutOfRange("wire: truncated raw read");
  }
  std::memcpy(out, buf_.data() + pos_, len);
  pos_ += len;
  return Status::OK();
}

Result<Bytes> WireReader::Blob() {
  auto len = U32();
  SJOIN_RETURN_IF_ERROR(len.status());
  if (pos_ + *len > buf_.size()) {
    return Status::OutOfRange("wire: truncated blob");
  }
  Bytes out(buf_.begin() + pos_, buf_.begin() + pos_ + *len);
  pos_ += *len;
  return out;
}

Result<std::string> WireReader::Str() {
  auto b = Blob();
  SJOIN_RETURN_IF_ERROR(b.status());
  return std::string(b->begin(), b->end());
}

void WriteG1Point(WireWriter* w, const G1Affine& p) {
  if (p.infinity) {
    w->U8(0x00);
    return;
  }
  w->U8(0x04);
  WriteFp(w, p.x);
  WriteFp(w, p.y);
}

Result<G1Affine> ReadG1Point(WireReader* r) {
  auto tag = r->U8();
  SJOIN_RETURN_IF_ERROR(tag.status());
  if (*tag == 0x00) return G1Affine::Infinity();
  if (*tag != 0x04) return Status::InvalidArgument("bad G1 point tag");
  auto x = ReadFp(r);
  SJOIN_RETURN_IF_ERROR(x.status());
  auto y = ReadFp(r);
  SJOIN_RETURN_IF_ERROR(y.status());
  G1Affine p = G1Affine::From(*x, *y);
  if (!G1::FromAffine(p).IsOnCurve()) {
    return Status::InvalidArgument("G1 point not on curve");
  }
  return p;
}

void WriteG2Point(WireWriter* w, const G2Affine& p) {
  if (p.infinity) {
    w->U8(0x00);
    return;
  }
  w->U8(0x04);
  WriteFp(w, p.x.a());
  WriteFp(w, p.x.b());
  WriteFp(w, p.y.a());
  WriteFp(w, p.y.b());
}

Result<G2Affine> ReadG2Point(WireReader* r) {
  auto tag = r->U8();
  SJOIN_RETURN_IF_ERROR(tag.status());
  if (*tag == 0x00) return G2Affine::Infinity();
  if (*tag != 0x04) return Status::InvalidArgument("bad G2 point tag");
  Fp c[4];
  for (auto& x : c) {
    auto v = ReadFp(r);
    SJOIN_RETURN_IF_ERROR(v.status());
    x = *v;
  }
  G2Affine p = G2Affine::From(Fp2(c[0], c[1]), Fp2(c[2], c[3]));
  if (!G2::FromAffine(p).IsOnCurve()) {
    return Status::InvalidArgument("G2 point not on curve");
  }
  return p;
}

// --- Field codec -------------------------------------------------------------
//
// Each message's layout is stated once, as a field template
// `template <typename Io, typename M> Status XFields(Io& io, M& m)` run
// with an Encoder (M const; every op appends and returns OK) or a Decoder
// (M mutable; every op reads and returns the first error). U8/U32/U64
// name the wire width and convert the field to and from it (a bool is
// one 0/1 byte, read as nonzero); Field() codes the types that fix their
// own encoding; List and Aligned put one u32 count before their elements.
// Checks that only a decoded value can fail run under `if constexpr
// (Io::kDecode)`.

namespace {

/// List and Aligned for both adapters: a u32 count, then the elements.
/// Aligned lists share one count and interleave their elements per index.
template <typename Io>
class ListOps {
 public:
  template <typename F, typename V, typename... Rest>
  Status Aligned(F elem, V& first, Rest&... rest) {
    uint32_t n = 0;
    SJOIN_RETURN_IF_ERROR(io().Count(first, n));
    return io().Items(n, elem, first, rest...);
  }
  template <typename V, typename F>
  Status List(V& v, F elem) { return Aligned(elem, v); }
  template <typename V>
  Status List(V& v) {
    return Aligned([this](auto& e) { return io().Field(e); }, v);
  }

 private:
  Io& io() { return static_cast<Io&>(*this); }
};

class Encoder : public ListOps<Encoder> {
 public:
  static constexpr bool kDecode = false;
  explicit Encoder(WireWriter& w) : w_(w) {}

  template <typename... T>
  Status U8(const T&... v) {
    (w_.U8(static_cast<uint8_t>(v)), ...);
    return Status::OK();
  }
  template <typename... T>
  Status U32(const T&... v) {
    (w_.U32(static_cast<uint32_t>(v)), ...);
    return Status::OK();
  }
  template <typename... T>
  Status U64(const T&... v) {
    (w_.U64(static_cast<uint64_t>(v)), ...);
    return Status::OK();
  }
  template <typename... T>
  Status Field(const T&... v) {
    (One(v), ...);
    return Status::OK();
  }

  template <typename V>
  Status Count(const V& v, uint32_t& n) {
    n = static_cast<uint32_t>(v.size());
    return U32(n);
  }
  template <typename F, typename... V>
  Status Items(uint32_t n, F elem, const V&... lists) {
    for (uint32_t i = 0; i < n; ++i) (void)elem(lists[i]...);
    return Status::OK();
  }

 private:
  void One(const std::string& s) { w_.Str(s); }
  void One(const Bytes& b) { w_.Blob(b); }
  template <size_t N>
  void One(const std::array<uint8_t, N>& a) { w_.Raw(a.data(), N); }
  void One(const G1Affine& p) { WriteG1Point(&w_, p); }
  void One(const G2Affine& p) { WriteG2Point(&w_, p); }

  WireWriter& w_;
};

class Decoder : public ListOps<Decoder> {
 public:
  static constexpr bool kDecode = true;
  explicit Decoder(WireReader& r) : r_(r) {}

  template <typename... T>
  Status U8(T&... v) {
    return Each([this](auto& x) { return Take(r_.U8(), x); }, v...);
  }
  template <typename... T>
  Status U32(T&... v) {
    return Each([this](auto& x) { return Take(r_.U32(), x); }, v...);
  }
  template <typename... T>
  Status U64(T&... v) {
    return Each([this](auto& x) { return Take(r_.U64(), x); }, v...);
  }
  template <typename... T>
  Status Field(T&... v) {
    return Each([this](auto& x) { return One(x); }, v...);
  }

  template <typename V>
  Status Count(const V& /*v*/, uint32_t& n) { return U32(n); }
  /// Appends one element per list and index as its bytes are read: the
  /// count is untrusted, so nothing is reserved from it.
  template <typename F, typename... V>
  Status Items(uint32_t n, F elem, V&... lists) {
    for (uint32_t i = 0; i < n; ++i) {
      SJOIN_RETURN_IF_ERROR(elem(lists.emplace_back()...));
    }
    return Status::OK();
  }

 private:
  /// Applies f to each field in order; stops at the first error.
  template <typename F, typename T, typename... Rest>
  static Status Each(F f, T& first, Rest&... rest) {
    Status st = f(first);
    if constexpr (sizeof...(Rest) > 0) {
      if (st.ok()) return Each(f, rest...);
    }
    return st;
  }
  template <typename R, typename T>
  static Status Take(Result<R> r, T& out) {
    SJOIN_RETURN_IF_ERROR(r.status());
    out = std::move(*r);
    return Status::OK();
  }

  Status One(std::string& s) { return Take(r_.Str(), s); }
  Status One(Bytes& b) { return Take(r_.Blob(), b); }
  template <size_t N>
  Status One(std::array<uint8_t, N>& a) { return r_.Raw(a.data(), N); }
  Status One(G1Affine& p) { return Take(ReadG1Point(&r_), p); }
  Status One(G2Affine& p) { return Take(ReadG2Point(&r_), p); }

  WireReader& r_;
};

/// Writes the version/tag header, then the fields. Never fails.
template <typename M>
Bytes Encode(uint8_t tag, const M& m, Status (*fields)(Encoder&, const M&)) {
  WireWriter w;
  Encoder io(w);
  (void)io.U8(kWireVersion, tag);
  (void)fields(io, m);
  return w.Take();
}

/// Checks the version/tag header, decodes the fields, refuses leftovers.
template <typename M>
Result<M> Decode(const Bytes& wire, uint8_t tag, const char* what,
                 Status (*fields)(Decoder&, M&)) {
  WireReader r(wire);
  Decoder io(r);
  uint8_t version = 0, got = 0;
  SJOIN_RETURN_IF_ERROR(io.U8(version));
  if (version != kWireVersion) {
    return Status::InvalidArgument(
        "unsupported wire version " + std::to_string(version) +
        " (expected " + std::to_string(kWireVersion) + ")");
  }
  SJOIN_RETURN_IF_ERROR(io.U8(got));
  if (got != tag) return Status::InvalidArgument("wrong message type tag");
  M m;
  SJOIN_RETURN_IF_ERROR(fields(io, m));
  if (!r.AtEnd()) {
    return Status::InvalidArgument(std::string("trailing bytes after ") + what);
  }
  return m;
}

/// A message carried whole, header included, inside a blob.
template <typename M>
Status Nested(Encoder& io, uint8_t tag, const char* /*what*/, const M& m,
              Status (*fields)(Encoder&, const M&)) {
  return io.Field(Encode(tag, m, fields));
}
template <typename M>
Status Nested(Decoder& io, uint8_t tag, const char* what, M& m,
              Status (*fields)(Decoder&, M&)) {
  Bytes blob;
  SJOIN_RETURN_IF_ERROR(io.Field(blob));
  auto inner = Decode<M>(blob, tag, what, fields);
  SJOIN_RETURN_IF_ERROR(inner.status());
  m = std::move(*inner);
  return Status::OK();
}

// --- Shared field templates --------------------------------------------------

template <typename Io, typename C>
Status AeadFields(Io& io, C& ct) {
  return io.Field(ct.nonce, ct.body, ct.tag);
}

// Row codec shared by the table upload, the mutation insert list and the
// shard messages. A backend-encoding flag byte follows the payload, then
// the optional det tag and onion (nonce, wrapped tag); rows without
// encodings cost one extra zero byte.
template <typename Io, typename R>
Status RowFields(Io& io, R& row) {
  SJOIN_RETURN_IF_ERROR(io.List(row.sj.c));
  SJOIN_RETURN_IF_ERROR(io.Field(row.sse.salt));
  SJOIN_RETURN_IF_ERROR(io.List(row.sse.tags));
  SJOIN_RETURN_IF_ERROR(AeadFields(io, row.payload));
  uint8_t flags = (row.enc.has_det ? kRowFlagDet : 0) |
                  (row.enc.has_onion ? kRowFlagOnion : 0);
  SJOIN_RETURN_IF_ERROR(io.U8(flags));
  if constexpr (Io::kDecode) {
    if ((flags & ~(kRowFlagDet | kRowFlagOnion)) != 0) {
      return Status::InvalidArgument("unknown row encoding flags");
    }
    row.enc.has_det = (flags & kRowFlagDet) != 0;
    row.enc.has_onion = (flags & kRowFlagOnion) != 0;
  }
  if (row.enc.has_det) SJOIN_RETURN_IF_ERROR(io.Field(row.enc.det_tag));
  if (!row.enc.has_onion) return Status::OK();
  return io.Field(row.enc.onion_nonce, row.enc.onion_wrapped);
}

template <typename Io, typename V>
Status SseGroupsFields(Io& io, V& groups) {
  return io.List(groups, [&](auto& g) -> Status {
    SJOIN_RETURN_IF_ERROR(io.U32(g.column_index));
    return io.List(g.tokens);
  });
}

template <typename Io, typename V>
Status IdListFields(Io& io, V& ids) {
  return io.List(ids, [&](auto& id) { return io.U64(id); });
}

// --- Message field templates -------------------------------------------------

template <typename Io, typename M>
Status TableFields(Io& io, M& t) {
  SJOIN_RETURN_IF_ERROR(io.Field(t.name, t.join_column));
  // A Schema is built whole: the encoder walks a copy of its columns, the
  // decoder collects them and builds the schema after the list.
  std::vector<Column> columns = t.schema.columns();
  SJOIN_RETURN_IF_ERROR(io.List(columns, [&](auto& c) -> Status {
    uint8_t kind = static_cast<uint8_t>(c.kind);
    SJOIN_RETURN_IF_ERROR(io.Field(c.name));
    SJOIN_RETURN_IF_ERROR(io.U8(kind));
    if constexpr (Io::kDecode) {
      if (kind > static_cast<uint8_t>(ValueKind::kString)) {
        return Status::InvalidArgument("bad column kind");
      }
      c.kind = static_cast<ValueKind>(kind);
    }
    return Status::OK();
  }));
  if constexpr (Io::kDecode) t.schema = Schema(std::move(columns));
  SJOIN_RETURN_IF_ERROR(io.List(t.attr_columns));
  return io.List(t.rows, [&](auto& row) { return RowFields(io, row); });
}

template <typename Io, typename M>
Status QueryFields(Io& io, M& q) {
  SJOIN_RETURN_IF_ERROR(io.Field(q.table_a, q.table_b));
  SJOIN_RETURN_IF_ERROR(io.U8(q.use_sse_prefilter));
  SJOIN_RETURN_IF_ERROR(io.List(q.token_a.tk));
  SJOIN_RETURN_IF_ERROR(io.List(q.token_b.tk));
  SJOIN_RETURN_IF_ERROR(SseGroupsFields(io, q.sse_a));
  return SseGroupsFields(io, q.sse_b);
}

template <typename Io, typename M>
Status JoinResultFields(Io& io, M& res) {
  SJOIN_RETURN_IF_ERROR(io.List(res.row_pairs, [&](auto& p) -> Status {
    SJOIN_RETURN_IF_ERROR(AeadFields(io, p.first));
    return AeadFields(io, p.second);
  }));
  SJOIN_RETURN_IF_ERROR(io.List(res.matched_row_indices, [&](auto& p) {
    return io.U64(p.row_a, p.row_b);
  }));
  auto& s = res.stats;
  return io.U64(s.rows_total_a, s.rows_total_b, s.rows_selected_a,
                s.rows_selected_b, s.result_pairs);
}

template <typename Io, typename M>
Status SeriesFields(Io& io, M& series) {
  SJOIN_RETURN_IF_ERROR(io.List(series.queries, [&](auto& q) {
    return Nested(io, kTagQuery, "query", q, QueryFields);
  }));
  // Backend policy: the client-side ceiling on server-side dispatch, plus
  // the onion-key release when the policy permits that backend. The
  // session id does not travel: the server executes every request under
  // the session of the connection it arrived on.
  SJOIN_RETURN_IF_ERROR(io.U32(series.allowed_backends));
  SJOIN_RETURN_IF_ERROR(io.U8(series.has_onion_key));
  if (series.has_onion_key) return io.Field(series.onion_key);
  return Status::OK();
}

template <typename Io, typename M>
Status SeriesResultFields(Io& io, M& res) {
  SJOIN_RETURN_IF_ERROR(io.List(res.results, [&](auto& r) {
    return Nested(io, kTagResult, "result", r, JoinResultFields);
  }));
  auto& s = res.stats;
  SJOIN_RETURN_IF_ERROR(
      io.U64(s.queries, s.decrypts_requested, s.decrypts_performed,
             s.digest_cache_hits, s.pairings_computed, s.prepared_pairings,
             s.prepared_rows_built, s.prepared_cache_hits));
  // The adaptive executor's decision trail -- per-backend query counts,
  // total pairs charged, and the budget ledger of every table the batch
  // touched.
  SJOIN_RETURN_IF_ERROR(io.U64(s.backend_sjoin_queries, s.backend_det_queries,
                               s.backend_onion_queries, s.leakage_charged));
  return io.List(s.budgets, [&](auto& b) -> Status {
    SJOIN_RETURN_IF_ERROR(io.Field(b.table));
    return io.U64(b.limit, b.spent, b.remaining);
  });
}

template <typename Io, typename M>
Status MutationFields(Io& io, M& m) {
  SJOIN_RETURN_IF_ERROR(io.Field(m.table));
  SJOIN_RETURN_IF_ERROR(io.U64(m.base_generation));
  SJOIN_RETURN_IF_ERROR(IdListFields(io, m.deletes));
  return io.List(m.inserts, [&](auto& row) { return RowFields(io, row); });
}

template <typename Io, typename M>
Status MutationResultFields(Io& io, M& res) {
  SJOIN_RETURN_IF_ERROR(io.U64(res.generation));
  return IdListFields(io, res.inserted_ids);
}

template <typename Io, typename M>
Status ShardAssignmentFields(Io& io, M& a) {
  SJOIN_RETURN_IF_ERROR(io.Field(a.table));
  SJOIN_RETURN_IF_ERROR(io.U64(a.generation));
  SJOIN_RETURN_IF_ERROR(io.U32(a.shard));
  // (id, row) pairs under one count.
  return io.Aligned(
      [&](auto& id, auto& row) -> Status {
        SJOIN_RETURN_IF_ERROR(io.U64(id));
        return RowFields(io, row);
      },
      a.row_ids, a.rows);
}

template <typename Io, typename M>
Status ShardAckFields(Io& io, M& ack) {
  return io.U64(ack.generation, ack.rows_held);
}

template <typename Io, typename M>
Status ShardDecryptFields(Io& io, M& req) {
  SJOIN_RETURN_IF_ERROR(io.Field(req.table));
  SJOIN_RETURN_IF_ERROR(io.U64(req.generation));
  SJOIN_RETURN_IF_ERROR(io.U32(req.shard));
  SJOIN_RETURN_IF_ERROR(io.List(req.token.tk));
  return IdListFields(io, req.rows);
}

template <typename Io, typename M>
Status ShardDigestsFields(Io& io, M& resp) {
  size_t present = 0;
  SJOIN_RETURN_IF_ERROR(io.List(resp.have, [&](auto& h) -> Status {
    uint8_t bit = h ? 1 : 0;
    SJOIN_RETURN_IF_ERROR(io.U8(bit));
    if constexpr (Io::kDecode) {
      if (bit > 1) {
        return Status::InvalidArgument("shard digest presence byte not 0/1");
      }
      h = bit;
    }
    present += bit;
    return Status::OK();
  }));
  // The digest count is implied by the bitmap; it still travels, and a
  // decoder refuses a count that disagrees before reading any digest.
  uint32_t ndigests = 0;
  SJOIN_RETURN_IF_ERROR(io.Count(resp.digests, ndigests));
  if constexpr (Io::kDecode) {
    if (ndigests != present) {
      return Status::InvalidArgument(
          "shard digest count does not match presence bitmap");
    }
  }
  SJOIN_RETURN_IF_ERROR(io.Items(
      ndigests, [&](auto& d) { return io.Field(d); }, resp.digests));
  auto& s = resp.stats;
  return io.U64(s.decrypts_performed, s.pairings_computed,
                s.prepared_pairings, s.prepared_rows_built,
                s.prepared_cache_hits);
}

template <typename Io, typename M>
Status ShardMutationFields(Io& io, M& m) {
  SJOIN_RETURN_IF_ERROR(io.Field(m.table));
  SJOIN_RETURN_IF_ERROR(io.U64(m.new_generation));
  SJOIN_RETURN_IF_ERROR(IdListFields(io, m.deletes));
  // (id, shard, row) triples under one count.
  return io.Aligned(
      [&](auto& id, auto& shard, auto& row) -> Status {
        SJOIN_RETURN_IF_ERROR(io.U64(id));
        SJOIN_RETURN_IF_ERROR(io.U32(shard));
        return RowFields(io, row);
      },
      m.insert_ids, m.insert_shards, m.inserts);
}

template <typename Io, typename M>
Status WorkerHealthFields(Io& io, M& h) {
  return io.U64(h.tables, h.shards_held, h.rows_held, h.decrypt_requests,
                h.digests_computed);
}

}  // namespace

// --- Message codecs ----------------------------------------------------------

Bytes SerializeEncryptedTable(const EncryptedTable& table) {
  return Encode(kTagTable, table, TableFields);
}
Result<EncryptedTable> DeserializeEncryptedTable(const Bytes& wire) {
  return Decode<EncryptedTable>(wire, kTagTable, "table", TableFields);
}

Bytes SerializeJoinQueryTokens(const JoinQueryTokens& tokens) {
  return Encode(kTagQuery, tokens, QueryFields);
}
Result<JoinQueryTokens> DeserializeJoinQueryTokens(const Bytes& wire) {
  return Decode<JoinQueryTokens>(wire, kTagQuery, "query", QueryFields);
}

Bytes SerializeJoinResult(const EncryptedJoinResult& result) {
  return Encode(kTagResult, result, JoinResultFields);
}
Result<EncryptedJoinResult> DeserializeJoinResult(const Bytes& wire) {
  return Decode<EncryptedJoinResult>(wire, kTagResult, "result",
                                     JoinResultFields);
}

Bytes SerializeQuerySeries(const QuerySeriesTokens& series) {
  return Encode(kTagQuerySeries, series, SeriesFields);
}
Result<QuerySeriesTokens> DeserializeQuerySeries(const Bytes& wire) {
  return Decode<QuerySeriesTokens>(wire, kTagQuerySeries, "series",
                                   SeriesFields);
}

Bytes SerializeSeriesResult(const EncryptedSeriesResult& result) {
  return Encode(kTagSeriesResult, result, SeriesResultFields);
}
Result<EncryptedSeriesResult> DeserializeSeriesResult(const Bytes& wire) {
  return Decode<EncryptedSeriesResult>(wire, kTagSeriesResult,
                                       "series result", SeriesResultFields);
}

Bytes SerializeTableMutation(const TableMutation& mutation) {
  return Encode(kTagMutation, mutation, MutationFields);
}
Result<TableMutation> DeserializeTableMutation(const Bytes& wire) {
  return Decode<TableMutation>(wire, kTagMutation, "mutation", MutationFields);
}

Bytes SerializeMutationResult(const MutationResult& result) {
  return Encode(kTagMutationResult, result, MutationResultFields);
}
Result<MutationResult> DeserializeMutationResult(const Bytes& wire) {
  return Decode<MutationResult>(wire, kTagMutationResult, "mutation result",
                                MutationResultFields);
}

Bytes SerializeShardAssignment(const ShardAssignment& assign) {
  return Encode(kTagShardAssign, assign, ShardAssignmentFields);
}
Result<ShardAssignment> DeserializeShardAssignment(const Bytes& wire) {
  return Decode<ShardAssignment>(wire, kTagShardAssign, "shard assignment",
                                 ShardAssignmentFields);
}

Bytes SerializeShardAck(const ShardAck& ack) {
  return Encode(kTagShardAck, ack, ShardAckFields);
}
Result<ShardAck> DeserializeShardAck(const Bytes& wire) {
  return Decode<ShardAck>(wire, kTagShardAck, "shard ack", ShardAckFields);
}

Bytes SerializeShardDecryptRequest(const ShardDecryptRequest& request) {
  return Encode(kTagShardDecrypt, request, ShardDecryptFields);
}
Result<ShardDecryptRequest> DeserializeShardDecryptRequest(const Bytes& wire) {
  return Decode<ShardDecryptRequest>(wire, kTagShardDecrypt, "shard decrypt",
                                     ShardDecryptFields);
}

Bytes SerializeShardDecryptResponse(const ShardDecryptResponse& response) {
  return Encode(kTagShardDigests, response, ShardDigestsFields);
}
Result<ShardDecryptResponse> DeserializeShardDecryptResponse(
    const Bytes& wire) {
  return Decode<ShardDecryptResponse>(wire, kTagShardDigests, "shard digests",
                                      ShardDigestsFields);
}

Bytes SerializeShardMutation(const ShardMutation& mutation) {
  return Encode(kTagShardMutation, mutation, ShardMutationFields);
}
Result<ShardMutation> DeserializeShardMutation(const Bytes& wire) {
  return Decode<ShardMutation>(wire, kTagShardMutation, "shard mutation",
                               ShardMutationFields);
}

Bytes SerializeWorkerHealthInfo(const WorkerHealthInfo& info) {
  return Encode(kTagWorkerHealth, info, WorkerHealthFields);
}
Result<WorkerHealthInfo> DeserializeWorkerHealthInfo(const Bytes& wire) {
  return Decode<WorkerHealthInfo>(wire, kTagWorkerHealth, "worker health",
                                  WorkerHealthFields);
}

}  // namespace sjoin
