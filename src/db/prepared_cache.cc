#include "db/prepared_cache.h"

#include <functional>

#include "util/thread_pool.h"

namespace sjoin {

PreparedRowCache::PreparedRowCache(size_t max_bytes, size_t lock_shards)
    : max_bytes_(max_bytes) {
  if (lock_shards < 1) lock_shards = 1;
  shards_.reserve(lock_shards);
  for (size_t s = 0; s < lock_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  ApplyBudget();
}

PreparedRowCache::Shard& PreparedRowCache::ShardFor(const Key& key) {
  if (shards_.size() == 1) return *shards_[0];
  size_t h = std::hash<std::string>{}(key.first) ^
             (key.second * 0x9e3779b97f4a7c15ull);
  return *shards_[h % shards_.size()];
}

void PreparedRowCache::ApplyBudget() {
  size_t total = max_bytes_.load();
  size_t per_shard = total / shards_.size();
  size_t remainder = total % shards_.size();
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.max_bytes = per_shard + (s == 0 ? remainder : 0);
    EvictFor(shard, 0);
  }
}

void PreparedRowCache::set_max_bytes(size_t max_bytes) {
  // The server applies the knob on every series call; skip the all-stripe
  // sweep when nothing changed (the common warm path).
  if (max_bytes_.exchange(max_bytes) == max_bytes) return;
  ApplyBudget();
}

void PreparedRowCache::EvictFor(Shard& shard, size_t incoming) {
  while (shard.bytes + incoming > shard.max_bytes && !shard.lru.empty()) {
    auto it = shard.entries.find(shard.lru.back());
    shard.bytes -= it->second.bytes;
    bytes_.fetch_sub(it->second.bytes);
    entries_.fetch_sub(1);
    shard.entries.erase(it);
    shard.lru.pop_back();
    evicted_.fetch_add(1);
  }
}

std::shared_ptr<const SjPreparedRow> PreparedRowCache::Get(
    const std::string& table, uint64_t row_id, const SjRowCiphertext& ct,
    bool* built) {
  *built = false;
  Key key{table, row_id};
  Shard& shard = ShardFor(key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
      hits_.fetch_add(1);
      return it->second.row;
    }
    // Size is known before building: refuse rows that could never fit so
    // the expensive preparation is not wasted on a one-shot use.
    if (SjPreparedRow::BytesForDim(ct.c.size()) > shard.max_bytes) {
      rejected_.fetch_add(1);
      return nullptr;
    }
  }

  auto prepared =
      std::make_shared<const SjPreparedRow>(SecureJoin::PrepareRow(ct));
  size_t bytes = prepared->MemoryBytes();

  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {  // lost a build race; first insert wins
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
    hits_.fetch_add(1);
    return it->second.row;
  }
  if (bytes > shard.max_bytes) {  // estimate undershot; refuse, don't thrash
    rejected_.fetch_add(1);
    return nullptr;
  }
  EvictFor(shard, bytes);
  shard.lru.push_front(key);
  shard.entries[key] = Entry{prepared, bytes, shard.lru.begin()};
  shard.bytes += bytes;
  bytes_.fetch_add(bytes);
  entries_.fetch_add(1);
  built_.fetch_add(1);
  *built = true;
  return prepared;
}

void PreparedRowCache::EraseRow(const std::string& table, uint64_t row_id) {
  Key key{table, row_id};
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) return;
  shard.bytes -= it->second.bytes;
  bytes_.fetch_sub(it->second.bytes);
  entries_.fetch_sub(1);
  shard.lru.erase(it->second.lru_pos);
  shard.entries.erase(it);
}

void PreparedRowCache::EraseTable(const std::string& table) {
  // A table's keys hash across every stripe; sweep them all.
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.entries.begin(); it != shard.entries.end();) {
      if (it->first.first == table) {
        shard.bytes -= it->second.bytes;
        bytes_.fetch_sub(it->second.bytes);
        entries_.fetch_sub(1);
        shard.lru.erase(it->second.lru_pos);
        it = shard.entries.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void PreparedRowCache::Clear() {
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mu);
    bytes_.fetch_sub(shard.bytes);
    entries_.fetch_sub(shard.entries.size());
    shard.entries.clear();
    shard.lru.clear();
    shard.bytes = 0;
  }
}

PreparedRowCache::Stats PreparedRowCache::stats() const {
  Stats s;
  s.entries = entries_.load();
  s.bytes = bytes_.load();
  s.hits = hits_.load();
  s.built = built_.load();
  s.evicted = evicted_.load();
  s.rejected = rejected_.load();
  return s;
}

std::vector<Digest32> DecryptRowsCached(const SjToken& token,
                                        const std::string& table,
                                        std::span<const CachedDecryptRow> rows,
                                        PreparedRowCache* cache,
                                        ThreadPool& pool, int width,
                                        ShardExecStats* stats) {
  // Rows decrypt on several threads at once, so the counters are atomics,
  // each bumped on its own so the identities below can catch a row that
  // ran twice or not at all.
  std::atomic<size_t> performed{0}, cold{0}, prepared{0}, built{0}, hits{0};
  auto bump = [](std::atomic<size_t>& n) {
    n.fetch_add(1, std::memory_order_relaxed);
  };
  std::vector<Digest32> digests(rows.size());
  SecureJoin::DigestRowsBatched(pool, width, digests, [&](size_t i) {
    const CachedDecryptRow& row = rows[i];
    bump(performed);
    bool was_built = false;
    std::shared_ptr<const SjPreparedRow> prep =
        cache ? cache->Get(table, row.id, *row.ct, &was_built) : nullptr;
    if (!prep) {
      bump(cold);
      return SecureJoin::DecryptRowMiller(token, *row.ct);
    }
    bump(prepared);
    bump(was_built ? built : hits);
    return SecureJoin::DecryptRowMillerPrepared(token, *prep);
  });
  const ShardExecStats s{performed, cold, prepared, built, hits};
  SJOIN_CHECK(s.decrypts_performed == rows.size());
  SJOIN_CHECK(s.pairings_computed + s.prepared_pairings ==
              s.decrypts_performed);
  SJOIN_CHECK(s.prepared_rows_built + s.prepared_cache_hits ==
              s.prepared_pairings);
  AddShardStats(stats, s);
  return digests;
}

}  // namespace sjoin
