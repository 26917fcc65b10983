#include "db/backend.h"

#include <algorithm>

#include "crypto/chacha20.h"
#include "crypto/sha256.h"

namespace sjoin {
namespace {

/// Digest a fast backend joins on: equal tags -> equal digests, and the
/// domain prefix keeps them disjoint from pairing digests (SJ.Dec output
/// is a hash of a GT element; these never need to collide with it, since
/// one query is served wholly by one backend).
Digest32 TagDigest(const DetTag& tag) {
  Bytes buf;
  const char* domain = "sjoin/backend-tag";
  buf.insert(buf.end(), domain, domain + 17);
  buf.insert(buf.end(), tag.begin(), tag.end());
  return Sha256::Hash(buf);
}

DetTag UnwrapOnion(const std::array<uint8_t, 32>& key,
                   const BackendRowEncoding& enc) {
  DetTag tag = enc.onion_wrapped;
  ChaCha20Xor(key.data(), 0, enc.onion_nonce.data(), tag.data(), tag.size());
  return tag;
}

}  // namespace

bool TagJoinBackend::CanExecute(const BackendQueryView& q) const {
  if (kind_ == BackendKind::kCryptDbOnion && q.onion_key == nullptr) {
    return false;
  }
  for (const EncryptedTable* t : {q.a, q.b}) {
    for (const EncryptedRow& row : t->rows) {
      bool encoded = kind_ == BackendKind::kDetJoin ? row.enc.has_det
                                                    : row.enc.has_onion;
      if (!encoded) return false;
    }
  }
  return true;
}

std::vector<DetTag> TagJoinBackend::TagsOf(const BackendQueryView& q,
                                           const EncryptedTable& t) const {
  std::vector<DetTag> tags;
  tags.reserve(t.rows.size());
  for (const EncryptedRow& row : t.rows) {
    tags.push_back(kind_ == BackendKind::kDetJoin
                       ? row.enc.det_tag
                       : UnwrapOnion(*q.onion_key, row.enc));
  }
  return tags;
}

double TagJoinBackend::EstimatedCostMs(const BackendQueryView& q) const {
  double cost = static_cast<double>(q.sel_a->size() + q.sel_b->size()) *
                BackendCostModel::kTagJoinMsPerRow;
  if (kind_ == BackendKind::kCryptDbOnion) {
    // Strip cost for every row not yet unwrapped (strip-once).
    size_t unstripped = 0;
    std::lock_guard<std::mutex> lock(mu_);
    auto count = [&](const EncryptedTable& t, int table_id,
                     const std::vector<StableRowId>& ids) {
      auto it = revealed_.find(table_id);
      for (size_t r = 0; r < t.rows.size(); ++r) {
        if (it == revealed_.end() || !it->second.contains(ids[r])) {
          ++unstripped;
        }
      }
    };
    count(*q.a, q.table_id_a, *q.ids_a);
    count(*q.b, q.table_id_b, *q.ids_b);
    cost += static_cast<double>(unstripped) *
            BackendCostModel::kOnionStripMsPerRow;
  }
  return cost;
}

std::map<int, uint64_t> TagJoinBackend::PairsPerTable(
    const std::map<int, std::map<StableRowId, DetTag>>& revealed) {
  // tag -> (table -> member count): equal tags group across every
  // revealed table, one DET key spans them all.
  std::map<DetTag, std::map<int, uint64_t>> groups;
  for (const auto& [table, rows] : revealed) {
    for (const auto& [id, tag] : rows) ++groups[tag][table];
  }
  std::map<int, uint64_t> pairs;
  for (const auto& [tag, per_table] : groups) {
    uint64_t total = 0;
    for (const auto& [table, n] : per_table) total += n;
    if (total < 2) continue;
    for (const auto& [table, n] : per_table) {
      pairs[table] += n * (n - 1) / 2 + n * (total - n);
    }
  }
  return pairs;
}

std::map<int, std::map<StableRowId, DetTag>> TagJoinBackend::RevealedAfter(
    const BackendQueryView& q) const {
  std::map<int, std::map<StableRowId, DetTag>> after = revealed_;
  auto add = [&](const EncryptedTable& t, int table_id,
                 const std::vector<StableRowId>& ids) {
    std::map<StableRowId, DetTag>& rows = after[table_id];
    std::vector<DetTag> tags = TagsOf(q, t);
    for (size_t r = 0; r < t.rows.size(); ++r) {
      rows.emplace(ids[r], tags[r]);  // keeps an existing (older) entry
    }
  };
  add(*q.a, q.table_id_a, *q.ids_a);
  add(*q.b, q.table_id_b, *q.ids_b);
  return after;
}

bool TagJoinBackend::TryAuthorize(const BackendQueryView& q,
                                  LeakageTracker* tracker,
                                  uint64_t* charged) {
  // One critical section across project + charge + record: a concurrent
  // session authorizing the same tables either sees this reveal already
  // recorded (charge 0 for it) or waits here -- the same pairs are never
  // charged twice, and a failed charge records nothing.
  std::lock_guard<std::mutex> lock(mu_);
  std::map<int, uint64_t> before = PairsPerTable(revealed_);
  auto after_map = RevealedAfter(q);
  std::map<int, uint64_t> after = PairsPerTable(after_map);
  std::vector<LeakageTracker::Charge> charges;
  uint64_t total = 0;
  for (const auto& [table, pairs] : after) {
    auto it = before.find(table);
    uint64_t prior = it == before.end() ? 0 : it->second;
    if (pairs > prior) {
      charges.emplace_back(table, pairs - prior);
      total += pairs - prior;
    }
  }
  if (!tracker->TryCharge(charges)) return false;
  if (charged != nullptr) *charged = total;

  // The reveal is now permanent: remember the exposed tags and feed the
  // full equality pattern into the closure under stable ids (idempotent;
  // re-observing known groups changes nothing).
  revealed_ = std::move(after_map);
  std::map<DetTag, std::vector<RowId>> groups;
  for (const auto& [table, rows] : revealed_) {
    for (const auto& [id, tag] : rows) {
      groups[tag].push_back(RowId{table, static_cast<size_t>(id)});
    }
  }
  for (const auto& [tag, members] : groups) {
    if (members.size() >= 2) tracker->ObserveEqualityGroup(members);
  }
  return true;
}

void TagJoinBackend::ComputeDigests(const BackendQueryView& q,
                                    std::vector<Digest32>* da,
                                    std::vector<Digest32>* db) const {
  auto side = [&](const EncryptedTable& t, const std::vector<size_t>& sel,
                  std::vector<Digest32>* out) {
    std::vector<DetTag> tags = TagsOf(q, t);
    out->clear();
    out->reserve(sel.size());
    for (size_t r : sel) out->push_back(TagDigest(tags[r]));
  };
  side(*q.a, *q.sel_a, da);
  side(*q.b, *q.sel_b, db);
}

BackendDecision AdaptiveExecutor::Dispatch(const BackendQueryView& q,
                                           uint32_t allowed_mask) {
  // The sjoin yardstick assumes the warm prepared path for every selected
  // row -- the most favorable case for the pairing pipeline. A fast
  // backend must beat it AND fit the budgets to win.
  double sjoin_cost = static_cast<double>(q.sel_a->size() + q.sel_b->size()) *
                      BackendCostModel::kPairingPreparedMsPerRow;

  std::vector<TagJoinBackend*> candidates;
  for (TagJoinBackend* b : {&det_, &onion_}) {
    if ((allowed_mask & BackendBit(b->kind())) == 0) continue;
    if (!b->CanExecute(q)) continue;
    if (b->EstimatedCostMs(q) >= sjoin_cost) continue;
    candidates.push_back(b);
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&](TagJoinBackend* x, TagJoinBackend* y) {
                     return x->EstimatedCostMs(q) < y->EstimatedCostMs(q);
                   });
  for (TagJoinBackend* b : candidates) {
    uint64_t charged = 0;
    if (b->TryAuthorize(q, tracker_, &charged)) {
      return BackendDecision{b->kind(), b, charged};
    }
  }
  return BackendDecision{};  // the pairing path: free, always authorized
}

}  // namespace sjoin
