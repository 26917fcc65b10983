#include "dist/worker.h"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

namespace sjoin {

ShardWorker::ShardWorker(ShardWorkerOptions opts)
    : opts_(opts),
      cache_(opts.prepared_cache_bytes > 0 ? opts.prepared_cache_bytes : 1),
      pool_(opts.num_threads) {}

void ShardWorker::Handle(FrameType request, Bytes payload, Respond respond) {
  // Off the event loop immediately: a decrypt slice is pairing work
  // (milliseconds per row), and even assignments copy whole shards.
  bool submitted = pool_.Submit(
      [this, request, payload = std::move(payload),
       respond = std::move(respond)]() mutable {
        respond(Process(request, payload));
      });
  if (!submitted) {
    respond(Status::FailedPrecondition("worker is shutting down"));
  }
}

Result<Frame> ShardWorker::Process(FrameType request, const Bytes& payload) {
  switch (request) {
    case FrameType::kShardAssign: {
      auto assign = DeserializeShardAssignment(payload);
      SJOIN_RETURN_IF_ERROR(assign.status());
      auto ack = ApplyAssignment(*assign);
      SJOIN_RETURN_IF_ERROR(ack.status());
      return Frame{FrameType::kShardAck, SerializeShardAck(*ack)};
    }
    case FrameType::kShardMutation: {
      auto mutation = DeserializeShardMutation(payload);
      SJOIN_RETURN_IF_ERROR(mutation.status());
      auto ack = ApplyShardMutation(*mutation);
      SJOIN_RETURN_IF_ERROR(ack.status());
      return Frame{FrameType::kShardAck, SerializeShardAck(*ack)};
    }
    case FrameType::kShardDecrypt: {
      auto request_msg = DeserializeShardDecryptRequest(payload);
      SJOIN_RETURN_IF_ERROR(request_msg.status());
      return Frame{FrameType::kShardDigests,
                   SerializeShardDecryptResponse(Decrypt(*request_msg))};
    }
    case FrameType::kWorkerHealth:
      return Frame{FrameType::kWorkerHealthResult,
                   SerializeWorkerHealthInfo(Health())};
    default:
      return Status::InvalidArgument(
          "frame type " + std::to_string(static_cast<int>(request)) +
          " is not a shard request");
  }
}

Result<ShardAck> ShardWorker::ApplyAssignment(const ShardAssignment& assign) {
  if (assign.row_ids.size() != assign.rows.size()) {
    return Status::InvalidArgument(
        "shard assignment id/row count mismatch for table '" + assign.table +
        "'");
  }
  std::lock_guard<std::mutex> lock(mu_);
  Holding& h = tables_[assign.table];
  // The holding of (table, shard) becomes exactly the assigned rows: an
  // empty assignment drops the shard (it moved to another worker). Only
  // ids NOT in the incoming assignment are evicted -- a re-upload after
  // a coordinator heal keeps the surviving rows' prepared-line cache
  // entries warm (stable ids never change ciphertext content, so a
  // cached entry for a re-sent id is still valid).
  std::set<StableRowId> incoming(assign.row_ids.begin(), assign.row_ids.end());
  std::vector<StableRowId> stale;
  for (const auto& [id, shard] : h.shard_of) {
    if (shard == assign.shard && !incoming.count(id)) stale.push_back(id);
  }
  for (StableRowId id : stale) {
    h.rows.erase(id);
    h.shard_of.erase(id);
    cache_.EraseRow(assign.table, id);
  }
  for (size_t i = 0; i < assign.row_ids.size(); ++i) {
    h.rows[assign.row_ids[i]] = assign.rows[i];
    h.shard_of[assign.row_ids[i]] = assign.shard;
  }
  h.generation = std::max(h.generation, assign.generation);
  return ShardAck{h.generation, h.rows.size()};
}

Result<ShardAck> ShardWorker::ApplyShardMutation(const ShardMutation& m) {
  if (m.insert_ids.size() != m.inserts.size() ||
      m.insert_shards.size() != m.inserts.size()) {
    return Status::InvalidArgument(
        "shard mutation insert alignment mismatch for table '" + m.table +
        "'");
  }
  std::lock_guard<std::mutex> lock(mu_);
  // A mutation slice may CREATE the holding: a worker that owned no shard
  // of the table yet can still own the placement shard of a fresh insert.
  Holding& h = tables_[m.table];
  for (StableRowId id : m.deletes) {
    auto it = h.shard_of.find(id);
    // A delete for a row this worker does not hold is benign: the
    // coordinator routes by its own map, but an assignment racing the
    // mutation may already have moved the row.
    if (it == h.shard_of.end()) continue;
    h.shard_of.erase(it);
    h.rows.erase(id);
    cache_.EraseRow(m.table, id);
  }
  for (size_t i = 0; i < m.inserts.size(); ++i) {
    h.rows[m.insert_ids[i]] = m.inserts[i];
    h.shard_of[m.insert_ids[i]] = m.insert_shards[i];
  }
  h.generation = std::max(h.generation, m.new_generation);
  return ShardAck{h.generation, h.rows.size()};
}

ShardDecryptResponse ShardWorker::Decrypt(const ShardDecryptRequest& req) {
  decrypt_requests_.fetch_add(1, std::memory_order_relaxed);
  // Snapshot the requested ciphertexts under the lock (a concurrent
  // assignment may drop rows mid-request), then pair outside it.
  std::vector<std::pair<StableRowId, SjRowCiphertext>> held;
  ShardDecryptResponse resp;
  resp.have.assign(req.rows.size(), 0);
  int table_id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tables_.find(req.table);
    for (size_t i = 0; i < req.rows.size(); ++i) {
      if (it == tables_.end()) break;
      auto row = it->second.rows.find(req.rows[i]);
      if (row == it->second.rows.end()) continue;
      resp.have[i] = 1;
      held.emplace_back(req.rows[i], row->second.sj);
    }
    table_id = TableIdFor(req.table);
  }
  std::vector<CachedDecryptRow> pending;
  pending.reserve(held.size());
  for (const auto& [id, ct] : held) pending.push_back({id, &ct});

  // One request fans out over the private pool. This runs on a pool thread
  // already, so the width is the pool's worker count (the kernel's nested
  // ParallelFor steals queued work while it waits). SJ.Dec depends only
  // on (ciphertext, token), so the digests do not depend on the width.
  resp.digests = DecryptRowsCached(
      req.token, req.table, pending,
      opts_.prepared_cache_bytes > 0 ? &cache_ : nullptr, pool_,
      pool_.concurrency() - 1, &resp.stats);
  digests_computed_.fetch_add(held.size(), std::memory_order_relaxed);

  // This worker's ledger slice: the equality groups among the digests it
  // just computed are exactly what its host learned from this request.
  std::map<Digest32, std::vector<RowId>> groups;
  for (size_t i = 0; i < held.size(); ++i) {
    groups[resp.digests[i]].push_back(
        RowId{table_id, static_cast<size_t>(held[i].first)});
  }
  for (const auto& [digest, rows] : groups) {
    if (rows.size() >= 2) leakage_.ObserveEqualityGroup(rows);
  }
  return resp;
}

WorkerHealthInfo ShardWorker::Health() const {
  WorkerHealthInfo info;
  std::lock_guard<std::mutex> lock(mu_);
  info.tables = tables_.size();
  for (const auto& [name, h] : tables_) {
    std::set<uint32_t> shards;
    for (const auto& [id, shard] : h.shard_of) shards.insert(shard);
    info.shards_held += shards.size();
    info.rows_held += h.rows.size();
  }
  info.decrypt_requests = decrypt_requests_.load(std::memory_order_relaxed);
  info.digests_computed = digests_computed_.load(std::memory_order_relaxed);
  return info;
}

uint64_t ShardWorker::RowsHeld(const std::string& table,
                               uint32_t shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return 0;
  uint64_t rows = 0;
  for (const auto& [id, s] : it->second.shard_of) {
    if (s == shard) ++rows;
  }
  return rows;
}

int ShardWorker::TableIdFor(const std::string& name) {
  // Caller holds mu_.
  auto it = table_ids_.find(name);
  if (it != table_ids_.end()) return it->second;
  int id = static_cast<int>(table_ids_.size());
  table_ids_[name] = id;
  return id;
}

}  // namespace sjoin
