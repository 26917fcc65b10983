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

/// Validates the version/tag header.
Status ExpectHeader(WireReader* r, uint8_t tag) {
  auto version = r->U8();
  SJOIN_RETURN_IF_ERROR(version.status());
  if (*version != kWireVersion) {
    return Status::InvalidArgument(
        "unsupported wire version " + std::to_string(*version) +
        " (expected " + std::to_string(kWireVersion) + ")");
  }
  auto got = r->U8();
  SJOIN_RETURN_IF_ERROR(got.status());
  if (*got != tag) {
    return Status::InvalidArgument("wrong message type tag");
  }
  return Status::OK();
}

void WriteHeader(WireWriter* w, uint8_t tag) {
  w->U8(kWireVersion);
  w->U8(tag);
}

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

void WriteAead(WireWriter* w, const AeadCiphertext& ct) {
  w->Raw(ct.nonce.data(), ct.nonce.size());
  w->Blob(ct.body);
  w->Raw(ct.tag.data(), ct.tag.size());
}

Result<AeadCiphertext> ReadAead(WireReader* r) {
  AeadCiphertext ct;
  SJOIN_RETURN_IF_ERROR(r->Raw(ct.nonce.data(), ct.nonce.size()));
  auto body = r->Blob();
  SJOIN_RETURN_IF_ERROR(body.status());
  ct.body = std::move(*body);
  SJOIN_RETURN_IF_ERROR(r->Raw(ct.tag.data(), ct.tag.size()));
  return ct;
}

void WriteSseGroups(WireWriter* w, const std::vector<SseTokenGroup>& groups) {
  w->U32(static_cast<uint32_t>(groups.size()));
  for (const SseTokenGroup& g : groups) {
    w->U32(static_cast<uint32_t>(g.column_index));
    w->U32(static_cast<uint32_t>(g.tokens.size()));
    for (const SseToken& t : g.tokens) w->Raw(t.data(), t.size());
  }
}

// Backend-encoding flag bits of the row codec.
constexpr uint8_t kRowFlagDet = 0x01;
constexpr uint8_t kRowFlagOnion = 0x02;

// Row codec shared by the table upload, the mutation insert list and the
// shard messages. A backend-encoding flag byte follows the payload, then
// the optional det tag and onion (nonce, wrapped tag); rows without
// encodings cost one extra zero byte.
void WriteEncryptedRow(WireWriter* w, const EncryptedRow& row) {
  w->U32(static_cast<uint32_t>(row.sj.c.size()));
  for (const G2Affine& p : row.sj.c) WriteG2Point(w, p);
  w->Raw(row.sse.salt.data(), row.sse.salt.size());
  w->U32(static_cast<uint32_t>(row.sse.tags.size()));
  for (const SseTag& t : row.sse.tags) w->Raw(t.data(), t.size());
  WriteAead(w, row.payload);
  uint8_t flags = (row.enc.has_det ? kRowFlagDet : 0) |
                  (row.enc.has_onion ? kRowFlagOnion : 0);
  w->U8(flags);
  if (row.enc.has_det) w->Raw(row.enc.det_tag.data(), row.enc.det_tag.size());
  if (row.enc.has_onion) {
    w->Raw(row.enc.onion_nonce.data(), row.enc.onion_nonce.size());
    w->Raw(row.enc.onion_wrapped.data(), row.enc.onion_wrapped.size());
  }
}

Result<EncryptedRow> ReadEncryptedRow(WireReader* r) {
  EncryptedRow row;
  auto dim = r->U32();
  SJOIN_RETURN_IF_ERROR(dim.status());
  for (uint32_t j = 0; j < *dim; ++j) {
    auto p = ReadG2Point(r);
    SJOIN_RETURN_IF_ERROR(p.status());
    row.sj.c.push_back(*p);
  }
  SJOIN_RETURN_IF_ERROR(r->Raw(row.sse.salt.data(), row.sse.salt.size()));
  auto ntags = r->U32();
  SJOIN_RETURN_IF_ERROR(ntags.status());
  for (uint32_t j = 0; j < *ntags; ++j) {
    SseTag tag;
    SJOIN_RETURN_IF_ERROR(r->Raw(tag.data(), tag.size()));
    row.sse.tags.push_back(tag);
  }
  auto payload = ReadAead(r);
  SJOIN_RETURN_IF_ERROR(payload.status());
  row.payload = std::move(*payload);
  auto flags = r->U8();
  SJOIN_RETURN_IF_ERROR(flags.status());
  if ((*flags & ~(kRowFlagDet | kRowFlagOnion)) != 0) {
    return Status::InvalidArgument("unknown row encoding flags");
  }
  if ((*flags & kRowFlagDet) != 0) {
    row.enc.has_det = true;
    SJOIN_RETURN_IF_ERROR(
        r->Raw(row.enc.det_tag.data(), row.enc.det_tag.size()));
  }
  if ((*flags & kRowFlagOnion) != 0) {
    row.enc.has_onion = true;
    SJOIN_RETURN_IF_ERROR(
        r->Raw(row.enc.onion_nonce.data(), row.enc.onion_nonce.size()));
    SJOIN_RETURN_IF_ERROR(
        r->Raw(row.enc.onion_wrapped.data(), row.enc.onion_wrapped.size()));
  }
  return row;
}

Result<std::vector<SseTokenGroup>> ReadSseGroups(WireReader* r) {
  auto count = r->U32();
  SJOIN_RETURN_IF_ERROR(count.status());
  std::vector<SseTokenGroup> groups;
  for (uint32_t i = 0; i < *count; ++i) {
    SseTokenGroup g;
    auto col = r->U32();
    SJOIN_RETURN_IF_ERROR(col.status());
    g.column_index = *col;
    auto ntok = r->U32();
    SJOIN_RETURN_IF_ERROR(ntok.status());
    for (uint32_t j = 0; j < *ntok; ++j) {
      SseToken t;
      SJOIN_RETURN_IF_ERROR(r->Raw(t.data(), t.size()));
      g.tokens.push_back(t);
    }
    groups.push_back(std::move(g));
  }
  return groups;
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

Bytes SerializeEncryptedTable(const EncryptedTable& table) {
  WireWriter w;
  WriteHeader(&w, kTagTable);
  w.Str(table.name);
  w.Str(table.join_column);
  w.U32(static_cast<uint32_t>(table.schema.NumColumns()));
  for (const Column& c : table.schema.columns()) {
    w.Str(c.name);
    w.U8(static_cast<uint8_t>(c.kind));
  }
  w.U32(static_cast<uint32_t>(table.attr_columns.size()));
  for (const std::string& c : table.attr_columns) w.Str(c);
  w.U32(static_cast<uint32_t>(table.rows.size()));
  for (const EncryptedRow& row : table.rows) WriteEncryptedRow(&w, row);
  return w.Take();
}

Result<EncryptedTable> DeserializeEncryptedTable(const Bytes& wire) {
  WireReader r(wire);
  SJOIN_RETURN_IF_ERROR(ExpectHeader(&r, kTagTable));
  EncryptedTable t;
  auto name = r.Str();
  SJOIN_RETURN_IF_ERROR(name.status());
  t.name = *name;
  auto join_col = r.Str();
  SJOIN_RETURN_IF_ERROR(join_col.status());
  t.join_column = *join_col;
  auto ncols = r.U32();
  SJOIN_RETURN_IF_ERROR(ncols.status());
  std::vector<Column> cols;
  for (uint32_t i = 0; i < *ncols; ++i) {
    auto cname = r.Str();
    SJOIN_RETURN_IF_ERROR(cname.status());
    auto kind = r.U8();
    SJOIN_RETURN_IF_ERROR(kind.status());
    if (*kind > static_cast<uint8_t>(ValueKind::kString)) {
      return Status::InvalidArgument("bad column kind");
    }
    cols.push_back(Column{*cname, static_cast<ValueKind>(*kind)});
  }
  t.schema = Schema(std::move(cols));
  auto nattrs = r.U32();
  SJOIN_RETURN_IF_ERROR(nattrs.status());
  for (uint32_t i = 0; i < *nattrs; ++i) {
    auto aname = r.Str();
    SJOIN_RETURN_IF_ERROR(aname.status());
    t.attr_columns.push_back(*aname);
  }
  auto nrows = r.U32();
  SJOIN_RETURN_IF_ERROR(nrows.status());
  for (uint32_t i = 0; i < *nrows; ++i) {
    auto row = ReadEncryptedRow(&r);
    SJOIN_RETURN_IF_ERROR(row.status());
    t.rows.push_back(std::move(*row));
  }
  if (!r.AtEnd()) return Status::InvalidArgument("trailing bytes after table");
  return t;
}

Bytes SerializeJoinQueryTokens(const JoinQueryTokens& tokens) {
  WireWriter w;
  WriteHeader(&w, kTagQuery);
  w.Str(tokens.table_a);
  w.Str(tokens.table_b);
  w.U8(tokens.use_sse_prefilter ? 1 : 0);
  for (const SjToken* tk : {&tokens.token_a, &tokens.token_b}) {
    w.U32(static_cast<uint32_t>(tk->tk.size()));
    for (const G1Affine& p : tk->tk) WriteG1Point(&w, p);
  }
  WriteSseGroups(&w, tokens.sse_a);
  WriteSseGroups(&w, tokens.sse_b);
  return w.Take();
}

Result<JoinQueryTokens> DeserializeJoinQueryTokens(const Bytes& wire) {
  WireReader r(wire);
  SJOIN_RETURN_IF_ERROR(ExpectHeader(&r, kTagQuery));
  JoinQueryTokens out;
  auto ta = r.Str();
  SJOIN_RETURN_IF_ERROR(ta.status());
  out.table_a = *ta;
  auto tb = r.Str();
  SJOIN_RETURN_IF_ERROR(tb.status());
  out.table_b = *tb;
  auto sse = r.U8();
  SJOIN_RETURN_IF_ERROR(sse.status());
  out.use_sse_prefilter = (*sse != 0);
  for (SjToken* tk : {&out.token_a, &out.token_b}) {
    auto dim = r.U32();
    SJOIN_RETURN_IF_ERROR(dim.status());
    for (uint32_t j = 0; j < *dim; ++j) {
      auto p = ReadG1Point(&r);
      SJOIN_RETURN_IF_ERROR(p.status());
      tk->tk.push_back(*p);
    }
  }
  auto ga = ReadSseGroups(&r);
  SJOIN_RETURN_IF_ERROR(ga.status());
  out.sse_a = std::move(*ga);
  auto gb = ReadSseGroups(&r);
  SJOIN_RETURN_IF_ERROR(gb.status());
  out.sse_b = std::move(*gb);
  if (!r.AtEnd()) return Status::InvalidArgument("trailing bytes after query");
  return out;
}

Bytes SerializeJoinResult(const EncryptedJoinResult& result) {
  WireWriter w;
  WriteHeader(&w, kTagResult);
  w.U32(static_cast<uint32_t>(result.row_pairs.size()));
  for (const auto& [a, b] : result.row_pairs) {
    WriteAead(&w, a);
    WriteAead(&w, b);
  }
  w.U32(static_cast<uint32_t>(result.matched_row_indices.size()));
  for (const JoinedRowPair& p : result.matched_row_indices) {
    w.U64(p.row_a);
    w.U64(p.row_b);
  }
  w.U64(result.stats.rows_total_a);
  w.U64(result.stats.rows_total_b);
  w.U64(result.stats.rows_selected_a);
  w.U64(result.stats.rows_selected_b);
  w.U64(result.stats.result_pairs);
  return w.Take();
}

Result<EncryptedJoinResult> DeserializeJoinResult(const Bytes& wire) {
  WireReader r(wire);
  SJOIN_RETURN_IF_ERROR(ExpectHeader(&r, kTagResult));
  EncryptedJoinResult out;
  auto npairs = r.U32();
  SJOIN_RETURN_IF_ERROR(npairs.status());
  for (uint32_t i = 0; i < *npairs; ++i) {
    auto a = ReadAead(&r);
    SJOIN_RETURN_IF_ERROR(a.status());
    auto b = ReadAead(&r);
    SJOIN_RETURN_IF_ERROR(b.status());
    out.row_pairs.emplace_back(std::move(*a), std::move(*b));
  }
  auto nidx = r.U32();
  SJOIN_RETURN_IF_ERROR(nidx.status());
  for (uint32_t i = 0; i < *nidx; ++i) {
    auto a = r.U64();
    SJOIN_RETURN_IF_ERROR(a.status());
    auto b = r.U64();
    SJOIN_RETURN_IF_ERROR(b.status());
    out.matched_row_indices.push_back(
        JoinedRowPair{static_cast<size_t>(*a), static_cast<size_t>(*b)});
  }
  auto read_u64 = [&](size_t* dst) -> Status {
    auto v = r.U64();
    SJOIN_RETURN_IF_ERROR(v.status());
    *dst = static_cast<size_t>(*v);
    return Status::OK();
  };
  SJOIN_RETURN_IF_ERROR(read_u64(&out.stats.rows_total_a));
  SJOIN_RETURN_IF_ERROR(read_u64(&out.stats.rows_total_b));
  SJOIN_RETURN_IF_ERROR(read_u64(&out.stats.rows_selected_a));
  SJOIN_RETURN_IF_ERROR(read_u64(&out.stats.rows_selected_b));
  SJOIN_RETURN_IF_ERROR(read_u64(&out.stats.result_pairs));
  if (!r.AtEnd()) return Status::InvalidArgument("trailing bytes after result");
  return out;
}

Bytes SerializeQuerySeries(const QuerySeriesTokens& series) {
  WireWriter w;
  WriteHeader(&w, kTagQuerySeries);
  w.U32(static_cast<uint32_t>(series.queries.size()));
  for (const JoinQueryTokens& q : series.queries) {
    w.Blob(SerializeJoinQueryTokens(q));
  }
  // Backend policy: the client-side ceiling on server-side dispatch, plus
  // the onion-key release when the policy permits that backend. The
  // session id does not travel: the server executes every request under
  // the session of the connection it arrived on.
  w.U32(series.allowed_backends);
  w.U8(series.has_onion_key ? 1 : 0);
  if (series.has_onion_key) {
    w.Raw(series.onion_key.data(), series.onion_key.size());
  }
  return w.Take();
}

Result<QuerySeriesTokens> DeserializeQuerySeries(const Bytes& wire) {
  WireReader r(wire);
  SJOIN_RETURN_IF_ERROR(ExpectHeader(&r, kTagQuerySeries));
  auto count = r.U32();
  SJOIN_RETURN_IF_ERROR(count.status());
  QuerySeriesTokens out;
  // No reserve(*count): the count is untrusted wire input; growth stays
  // bounded by the bytes actually present.
  for (uint32_t i = 0; i < *count; ++i) {
    auto blob = r.Blob();
    SJOIN_RETURN_IF_ERROR(blob.status());
    auto q = DeserializeJoinQueryTokens(*blob);
    SJOIN_RETURN_IF_ERROR(q.status());
    out.queries.push_back(std::move(*q));
  }
  auto mask = r.U32();
  SJOIN_RETURN_IF_ERROR(mask.status());
  out.allowed_backends = *mask;
  auto has_key = r.U8();
  SJOIN_RETURN_IF_ERROR(has_key.status());
  out.has_onion_key = (*has_key != 0);
  if (out.has_onion_key) {
    SJOIN_RETURN_IF_ERROR(r.Raw(out.onion_key.data(), out.onion_key.size()));
  }
  if (!r.AtEnd()) return Status::InvalidArgument("trailing bytes after series");
  return out;
}

Bytes SerializeSeriesResult(const EncryptedSeriesResult& result) {
  WireWriter w;
  WriteHeader(&w, kTagSeriesResult);
  w.U32(static_cast<uint32_t>(result.results.size()));
  for (const EncryptedJoinResult& res : result.results) {
    w.Blob(SerializeJoinResult(res));
  }
  w.U64(result.stats.queries);
  w.U64(result.stats.decrypts_requested);
  w.U64(result.stats.decrypts_performed);
  w.U64(result.stats.digest_cache_hits);
  w.U64(result.stats.pairings_computed);
  w.U64(result.stats.prepared_pairings);
  w.U64(result.stats.prepared_rows_built);
  w.U64(result.stats.prepared_cache_hits);
  // The adaptive executor's decision trail -- per-backend query counts,
  // total pairs charged, and the budget ledger of every table the batch
  // touched.
  w.U64(result.stats.backend_sjoin_queries);
  w.U64(result.stats.backend_det_queries);
  w.U64(result.stats.backend_onion_queries);
  w.U64(result.stats.leakage_charged);
  w.U32(static_cast<uint32_t>(result.stats.budgets.size()));
  for (const SeriesExecStats::TableBudget& b : result.stats.budgets) {
    w.Str(b.table);
    w.U64(b.limit);
    w.U64(b.spent);
    w.U64(b.remaining);
  }
  return w.Take();
}

Result<EncryptedSeriesResult> DeserializeSeriesResult(const Bytes& wire) {
  WireReader r(wire);
  SJOIN_RETURN_IF_ERROR(ExpectHeader(&r, kTagSeriesResult));
  auto count = r.U32();
  SJOIN_RETURN_IF_ERROR(count.status());
  EncryptedSeriesResult out;
  // No reserve(*count): untrusted count, same as DeserializeQuerySeries.
  for (uint32_t i = 0; i < *count; ++i) {
    auto blob = r.Blob();
    SJOIN_RETURN_IF_ERROR(blob.status());
    auto res = DeserializeJoinResult(*blob);
    SJOIN_RETURN_IF_ERROR(res.status());
    out.results.push_back(std::move(*res));
  }
  auto read_u64 = [&](size_t* dst) -> Status {
    auto v = r.U64();
    SJOIN_RETURN_IF_ERROR(v.status());
    *dst = static_cast<size_t>(*v);
    return Status::OK();
  };
  SJOIN_RETURN_IF_ERROR(read_u64(&out.stats.queries));
  SJOIN_RETURN_IF_ERROR(read_u64(&out.stats.decrypts_requested));
  SJOIN_RETURN_IF_ERROR(read_u64(&out.stats.decrypts_performed));
  SJOIN_RETURN_IF_ERROR(read_u64(&out.stats.digest_cache_hits));
  SJOIN_RETURN_IF_ERROR(read_u64(&out.stats.pairings_computed));
  SJOIN_RETURN_IF_ERROR(read_u64(&out.stats.prepared_pairings));
  SJOIN_RETURN_IF_ERROR(read_u64(&out.stats.prepared_rows_built));
  SJOIN_RETURN_IF_ERROR(read_u64(&out.stats.prepared_cache_hits));
  SJOIN_RETURN_IF_ERROR(read_u64(&out.stats.backend_sjoin_queries));
  SJOIN_RETURN_IF_ERROR(read_u64(&out.stats.backend_det_queries));
  SJOIN_RETURN_IF_ERROR(read_u64(&out.stats.backend_onion_queries));
  auto charged = r.U64();
  SJOIN_RETURN_IF_ERROR(charged.status());
  out.stats.leakage_charged = *charged;
  auto nbudgets = r.U32();
  SJOIN_RETURN_IF_ERROR(nbudgets.status());
  // No reserve(*nbudgets): untrusted count, same as the results above.
  for (uint32_t i = 0; i < *nbudgets; ++i) {
    SeriesExecStats::TableBudget b;
    auto tname = r.Str();
    SJOIN_RETURN_IF_ERROR(tname.status());
    b.table = std::move(*tname);
    auto limit = r.U64();
    SJOIN_RETURN_IF_ERROR(limit.status());
    b.limit = *limit;
    auto spent = r.U64();
    SJOIN_RETURN_IF_ERROR(spent.status());
    b.spent = *spent;
    auto remaining = r.U64();
    SJOIN_RETURN_IF_ERROR(remaining.status());
    b.remaining = *remaining;
    out.stats.budgets.push_back(std::move(b));
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after series result");
  }
  return out;
}

Bytes SerializeTableMutation(const TableMutation& mutation) {
  WireWriter w;
  WriteHeader(&w, kTagMutation);
  w.Str(mutation.table);
  w.U64(mutation.base_generation);
  w.U32(static_cast<uint32_t>(mutation.deletes.size()));
  for (StableRowId id : mutation.deletes) w.U64(id);
  w.U32(static_cast<uint32_t>(mutation.inserts.size()));
  for (const EncryptedRow& row : mutation.inserts) WriteEncryptedRow(&w, row);
  return w.Take();
}

Result<TableMutation> DeserializeTableMutation(const Bytes& wire) {
  WireReader r(wire);
  SJOIN_RETURN_IF_ERROR(ExpectHeader(&r, kTagMutation));
  TableMutation out;
  auto name = r.Str();
  SJOIN_RETURN_IF_ERROR(name.status());
  out.table = *name;
  auto base = r.U64();
  SJOIN_RETURN_IF_ERROR(base.status());
  out.base_generation = *base;
  auto ndel = r.U32();
  SJOIN_RETURN_IF_ERROR(ndel.status());
  // No reserve(*ndel): untrusted count, same as DeserializeQuerySeries.
  for (uint32_t i = 0; i < *ndel; ++i) {
    auto id = r.U64();
    SJOIN_RETURN_IF_ERROR(id.status());
    out.deletes.push_back(*id);
  }
  auto nins = r.U32();
  SJOIN_RETURN_IF_ERROR(nins.status());
  for (uint32_t i = 0; i < *nins; ++i) {
    auto row = ReadEncryptedRow(&r);
    SJOIN_RETURN_IF_ERROR(row.status());
    out.inserts.push_back(std::move(*row));
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after mutation");
  }
  return out;
}

Bytes SerializeMutationResult(const MutationResult& result) {
  WireWriter w;
  WriteHeader(&w, kTagMutationResult);
  w.U64(result.generation);
  w.U32(static_cast<uint32_t>(result.inserted_ids.size()));
  for (StableRowId id : result.inserted_ids) w.U64(id);
  return w.Take();
}

Result<MutationResult> DeserializeMutationResult(const Bytes& wire) {
  WireReader r(wire);
  SJOIN_RETURN_IF_ERROR(ExpectHeader(&r, kTagMutationResult));
  MutationResult out;
  auto gen = r.U64();
  SJOIN_RETURN_IF_ERROR(gen.status());
  out.generation = *gen;
  auto count = r.U32();
  SJOIN_RETURN_IF_ERROR(count.status());
  for (uint32_t i = 0; i < *count; ++i) {
    auto id = r.U64();
    SJOIN_RETURN_IF_ERROR(id.status());
    out.inserted_ids.push_back(*id);
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after mutation result");
  }
  return out;
}

// --- Distributed-execution messages ------------------------------------------

namespace {

void WriteSjToken(WireWriter* w, const SjToken& token) {
  w->U32(static_cast<uint32_t>(token.tk.size()));
  for (const G1Affine& p : token.tk) WriteG1Point(w, p);
}

Result<SjToken> ReadSjToken(WireReader* r) {
  auto dim = r->U32();
  SJOIN_RETURN_IF_ERROR(dim.status());
  SjToken token;
  // No reserve(*dim): untrusted count, same as DeserializeQuerySeries.
  for (uint32_t i = 0; i < *dim; ++i) {
    auto p = ReadG1Point(r);
    SJOIN_RETURN_IF_ERROR(p.status());
    token.tk.push_back(*p);
  }
  return token;
}

Result<std::vector<StableRowId>> ReadIdList(WireReader* r) {
  auto count = r->U32();
  SJOIN_RETURN_IF_ERROR(count.status());
  std::vector<StableRowId> ids;
  for (uint32_t i = 0; i < *count; ++i) {
    auto id = r->U64();
    SJOIN_RETURN_IF_ERROR(id.status());
    ids.push_back(*id);
  }
  return ids;
}

void WriteIdList(WireWriter* w, const std::vector<StableRowId>& ids) {
  w->U32(static_cast<uint32_t>(ids.size()));
  for (StableRowId id : ids) w->U64(id);
}

}  // namespace

Bytes SerializeShardAssignment(const ShardAssignment& assign) {
  WireWriter w;
  WriteHeader(&w, kTagShardAssign);
  w.Str(assign.table);
  w.U64(assign.generation);
  w.U32(assign.shard);
  // One count governs both aligned lists: (id, row) pairs interleaved, so
  // a truncated payload can never desynchronize them.
  w.U32(static_cast<uint32_t>(assign.rows.size()));
  for (size_t i = 0; i < assign.rows.size(); ++i) {
    w.U64(assign.row_ids[i]);
    WriteEncryptedRow(&w, assign.rows[i]);
  }
  return w.Take();
}

Result<ShardAssignment> DeserializeShardAssignment(const Bytes& wire) {
  WireReader r(wire);
  SJOIN_RETURN_IF_ERROR(ExpectHeader(&r, kTagShardAssign));
  ShardAssignment out;
  auto name = r.Str();
  SJOIN_RETURN_IF_ERROR(name.status());
  out.table = std::move(*name);
  auto gen = r.U64();
  SJOIN_RETURN_IF_ERROR(gen.status());
  out.generation = *gen;
  auto shard = r.U32();
  SJOIN_RETURN_IF_ERROR(shard.status());
  out.shard = *shard;
  auto count = r.U32();
  SJOIN_RETURN_IF_ERROR(count.status());
  // No reserve(*count): untrusted count, same as DeserializeQuerySeries.
  for (uint32_t i = 0; i < *count; ++i) {
    auto id = r.U64();
    SJOIN_RETURN_IF_ERROR(id.status());
    out.row_ids.push_back(*id);
    auto row = ReadEncryptedRow(&r);
    SJOIN_RETURN_IF_ERROR(row.status());
    out.rows.push_back(std::move(*row));
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after shard assignment");
  }
  return out;
}

Bytes SerializeShardAck(const ShardAck& ack) {
  WireWriter w;
  WriteHeader(&w, kTagShardAck);
  w.U64(ack.generation);
  w.U64(ack.rows_held);
  return w.Take();
}

Result<ShardAck> DeserializeShardAck(const Bytes& wire) {
  WireReader r(wire);
  SJOIN_RETURN_IF_ERROR(ExpectHeader(&r, kTagShardAck));
  ShardAck out;
  auto gen = r.U64();
  SJOIN_RETURN_IF_ERROR(gen.status());
  out.generation = *gen;
  auto rows = r.U64();
  SJOIN_RETURN_IF_ERROR(rows.status());
  out.rows_held = *rows;
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after shard ack");
  }
  return out;
}

Bytes SerializeShardDecryptRequest(const ShardDecryptRequest& request) {
  WireWriter w;
  WriteHeader(&w, kTagShardDecrypt);
  w.Str(request.table);
  w.U64(request.generation);
  w.U32(request.shard);
  WriteSjToken(&w, request.token);
  WriteIdList(&w, request.rows);
  return w.Take();
}

Result<ShardDecryptRequest> DeserializeShardDecryptRequest(const Bytes& wire) {
  WireReader r(wire);
  SJOIN_RETURN_IF_ERROR(ExpectHeader(&r, kTagShardDecrypt));
  ShardDecryptRequest out;
  auto name = r.Str();
  SJOIN_RETURN_IF_ERROR(name.status());
  out.table = std::move(*name);
  auto gen = r.U64();
  SJOIN_RETURN_IF_ERROR(gen.status());
  out.generation = *gen;
  auto shard = r.U32();
  SJOIN_RETURN_IF_ERROR(shard.status());
  out.shard = *shard;
  auto token = ReadSjToken(&r);
  SJOIN_RETURN_IF_ERROR(token.status());
  out.token = std::move(*token);
  auto rows = ReadIdList(&r);
  SJOIN_RETURN_IF_ERROR(rows.status());
  out.rows = std::move(*rows);
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after shard decrypt");
  }
  return out;
}

Bytes SerializeShardDecryptResponse(const ShardDecryptResponse& response) {
  WireWriter w;
  WriteHeader(&w, kTagShardDigests);
  w.U32(static_cast<uint32_t>(response.have.size()));
  for (uint8_t h : response.have) w.U8(h ? 1 : 0);
  w.U32(static_cast<uint32_t>(response.digests.size()));
  for (const Digest32& d : response.digests) w.Raw(d.data(), d.size());
  w.U64(response.stats.decrypts_performed);
  w.U64(response.stats.pairings_computed);
  w.U64(response.stats.prepared_pairings);
  w.U64(response.stats.prepared_rows_built);
  w.U64(response.stats.prepared_cache_hits);
  return w.Take();
}

Result<ShardDecryptResponse> DeserializeShardDecryptResponse(
    const Bytes& wire) {
  WireReader r(wire);
  SJOIN_RETURN_IF_ERROR(ExpectHeader(&r, kTagShardDigests));
  ShardDecryptResponse out;
  auto nhave = r.U32();
  SJOIN_RETURN_IF_ERROR(nhave.status());
  size_t present = 0;
  for (uint32_t i = 0; i < *nhave; ++i) {
    auto h = r.U8();
    SJOIN_RETURN_IF_ERROR(h.status());
    if (*h > 1) {
      return Status::InvalidArgument("shard digest presence byte not 0/1");
    }
    present += *h;
    out.have.push_back(*h);
  }
  auto ndigests = r.U32();
  SJOIN_RETURN_IF_ERROR(ndigests.status());
  if (*ndigests != present) {
    return Status::InvalidArgument(
        "shard digest count does not match presence bitmap");
  }
  for (uint32_t i = 0; i < *ndigests; ++i) {
    Digest32 d;
    SJOIN_RETURN_IF_ERROR(r.Raw(d.data(), d.size()));
    out.digests.push_back(d);
  }
  auto read_u64 = [&](size_t* dst) -> Status {
    auto v = r.U64();
    SJOIN_RETURN_IF_ERROR(v.status());
    *dst = static_cast<size_t>(*v);
    return Status::OK();
  };
  SJOIN_RETURN_IF_ERROR(read_u64(&out.stats.decrypts_performed));
  SJOIN_RETURN_IF_ERROR(read_u64(&out.stats.pairings_computed));
  SJOIN_RETURN_IF_ERROR(read_u64(&out.stats.prepared_pairings));
  SJOIN_RETURN_IF_ERROR(read_u64(&out.stats.prepared_rows_built));
  SJOIN_RETURN_IF_ERROR(read_u64(&out.stats.prepared_cache_hits));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after shard digests");
  }
  return out;
}

Bytes SerializeShardMutation(const ShardMutation& mutation) {
  WireWriter w;
  WriteHeader(&w, kTagShardMutation);
  w.Str(mutation.table);
  w.U64(mutation.new_generation);
  WriteIdList(&w, mutation.deletes);
  // One count governs the three aligned insert lists (interleaved).
  w.U32(static_cast<uint32_t>(mutation.inserts.size()));
  for (size_t i = 0; i < mutation.inserts.size(); ++i) {
    w.U64(mutation.insert_ids[i]);
    w.U32(mutation.insert_shards[i]);
    WriteEncryptedRow(&w, mutation.inserts[i]);
  }
  return w.Take();
}

Result<ShardMutation> DeserializeShardMutation(const Bytes& wire) {
  WireReader r(wire);
  SJOIN_RETURN_IF_ERROR(ExpectHeader(&r, kTagShardMutation));
  ShardMutation out;
  auto name = r.Str();
  SJOIN_RETURN_IF_ERROR(name.status());
  out.table = std::move(*name);
  auto gen = r.U64();
  SJOIN_RETURN_IF_ERROR(gen.status());
  out.new_generation = *gen;
  auto deletes = ReadIdList(&r);
  SJOIN_RETURN_IF_ERROR(deletes.status());
  out.deletes = std::move(*deletes);
  auto nins = r.U32();
  SJOIN_RETURN_IF_ERROR(nins.status());
  for (uint32_t i = 0; i < *nins; ++i) {
    auto id = r.U64();
    SJOIN_RETURN_IF_ERROR(id.status());
    out.insert_ids.push_back(*id);
    auto shard = r.U32();
    SJOIN_RETURN_IF_ERROR(shard.status());
    out.insert_shards.push_back(*shard);
    auto row = ReadEncryptedRow(&r);
    SJOIN_RETURN_IF_ERROR(row.status());
    out.inserts.push_back(std::move(*row));
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after shard mutation");
  }
  return out;
}

Bytes SerializeWorkerHealthInfo(const WorkerHealthInfo& info) {
  WireWriter w;
  WriteHeader(&w, kTagWorkerHealth);
  w.U64(info.tables);
  w.U64(info.shards_held);
  w.U64(info.rows_held);
  w.U64(info.decrypt_requests);
  w.U64(info.digests_computed);
  return w.Take();
}

Result<WorkerHealthInfo> DeserializeWorkerHealthInfo(const Bytes& wire) {
  WireReader r(wire);
  SJOIN_RETURN_IF_ERROR(ExpectHeader(&r, kTagWorkerHealth));
  WorkerHealthInfo out;
  auto read = [&](uint64_t* dst) -> Status {
    auto v = r.U64();
    SJOIN_RETURN_IF_ERROR(v.status());
    *dst = *v;
    return Status::OK();
  };
  SJOIN_RETURN_IF_ERROR(read(&out.tables));
  SJOIN_RETURN_IF_ERROR(read(&out.shards_held));
  SJOIN_RETURN_IF_ERROR(read(&out.rows_held));
  SJOIN_RETURN_IF_ERROR(read(&out.decrypt_requests));
  SJOIN_RETURN_IF_ERROR(read(&out.digests_computed));
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after worker health");
  }
  return out;
}

}  // namespace sjoin
