#include "dist/coordinator.h"

#include <algorithm>
#include <utility>

#include "crypto/sha256.h"

namespace sjoin {

namespace {

/// Rendezvous weight of (shard, worker): the top-R owners are the R
/// workers with the highest weights. Hash-derived, so ownership is
/// deterministic across coordinators and stable under membership change
/// -- a worker joining or leaving only moves the shard copies whose
/// top-R argmax set it enters or leaves.
uint64_t RendezvousScore(uint32_t shard, const std::string& worker_id) {
  WireWriter w;
  w.U32(shard);
  w.Str(worker_id);
  Digest32 d = Sha256::Hash(w.bytes());
  uint64_t score = 0;
  for (int i = 0; i < 8; ++i) score = (score << 8) | d[i];
  return score;
}

}  // namespace

Coordinator::Coordinator(CoordinatorOptions opts)
    : num_shards_(std::min<size_t>(std::max<size_t>(opts.num_shards, 1),
                                   ShardedTable::kMaxShards)),
      replication_(std::min<size_t>(std::max<size_t>(opts.replication, 1),
                                    ShardedTable::kMaxShards)),
      opts_(std::move(opts)),
      rng_(std::random_device{}()) {
  if (opts_.auto_reconnect) {
    reconnect_thread_ = std::thread([this] { ReconnectLoop(); });
  }
}

Coordinator::~Coordinator() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  reconnect_cv_.notify_all();
  if (reconnect_thread_.joinable()) reconnect_thread_.join();
}

std::vector<std::shared_ptr<Coordinator::Worker>> Coordinator::OwnersAmong(
    uint32_t shard,
    const std::map<std::string, std::shared_ptr<Worker>>& workers,
    size_t replication) {
  // Ascending map order + strict '>' sort stability: a score tie
  // resolves to the lexicographically smallest id, deterministically.
  std::vector<std::pair<uint64_t, std::shared_ptr<Worker>>> scored;
  scored.reserve(workers.size());
  for (const auto& [id, w] : workers) {
    scored.emplace_back(RendezvousScore(shard, id), w);
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  size_t r = std::min(replication, scored.size());
  std::vector<std::shared_ptr<Worker>> owners;
  owners.reserve(r);
  for (size_t i = 0; i < r; ++i) owners.push_back(scored[i].second);
  return owners;
}

bool Coordinator::Among(const std::vector<std::shared_ptr<Worker>>& owners,
                        const std::shared_ptr<Worker>& w) {
  return std::find(owners.begin(), owners.end(), w) != owners.end();
}

void Coordinator::MarkUnhealthy(Worker& w) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!w.healthy.exchange(false)) return;  // already out of rotation
  ++stats_.workers_marked_unhealthy;
  w.backoff_ms = std::max(opts_.reconnect_initial_backoff_ms, 1);
  w.next_attempt = Clock::now() + JitteredLocked(w.backoff_ms);
  reconnect_cv_.notify_all();
}

void Coordinator::QueueDirty(Worker& w, const std::string& table,
                             uint32_t shard) {
  std::lock_guard<std::mutex> lock(mu_);
  if (w.dirty.emplace(table, shard).second) ++stats_.shards_queued;
}

Coordinator::Clock::duration Coordinator::JitteredLocked(int ms) {
  std::uniform_int_distribution<int> half(ms - ms / 2, ms);
  return std::chrono::milliseconds(half(rng_));
}

Result<Bytes> Coordinator::WorkerRpc(Worker& w, FrameType request,
                                     const Bytes& payload,
                                     FrameType expected) {
  std::lock_guard<std::mutex> lock(w.mu);
  if (!w.client || !w.client->connected()) {
    MarkUnhealthy(w);
    return Status::Unavailable("worker '" + w.id + "' is not connected");
  }
  Status sent = w.client->SendFrame(request, payload);
  if (!sent.ok()) {
    w.client->Close();
    MarkUnhealthy(w);
    return Status::Unavailable("worker '" + w.id + "': " + sent.message());
  }
  auto frame = w.client->ReadFrame();
  if (!frame.ok()) {
    // The connection is desynchronized either way (a late response would
    // answer the wrong request); close it so later RPCs fail fast until
    // the reconnect loop re-dials the worker.
    w.client->Close();
    MarkUnhealthy(w);
    if (frame.status().code() == StatusCode::kDeadlineExceeded) {
      return Status::DeadlineExceeded("worker '" + w.id + "': " +
                                      frame.status().message());
    }
    return Status::Unavailable("worker '" + w.id + "': " +
                               frame.status().message());
  }
  if (frame->type == FrameType::kError) {
    return DecodeErrorPayload(frame->payload);
  }
  if (frame->type != expected) {
    w.client->Close();
    MarkUnhealthy(w);
    return Status::Unavailable(
        "worker '" + w.id + "' answered with unexpected frame type " +
        std::to_string(static_cast<int>(frame->type)));
  }
  return std::move(frame->payload);
}

Status Coordinator::SendShard(Worker& w, const std::string& table,
                              uint32_t shard, bool skip_empty, bool force) {
  if (!force && !w.healthy.load(std::memory_order_relaxed)) {
    // Down worker: defer to the reconnect heal instead of burning a
    // doomed RPC. Deferral is not failure -- replicas / local fallback
    // cover the reads meanwhile.
    QueueDirty(w, table, shard);
    return Status::OK();
  }
  auto snap = engine_.table_store().Get(table);
  SJOIN_RETURN_IF_ERROR(snap.status());
  ShardAssignment a;
  a.table = table;
  a.generation = snap->generation;
  a.num_shards = static_cast<uint32_t>(num_shards_);
  a.shard = shard;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto& shards = row_shard_[table];
    for (size_t p = 0; p < snap->table->rows.size(); ++p) {
      StableRowId id = (*snap->row_ids)[p];
      auto it = shards.find(id);
      if (it != shards.end() && it->second == shard) {
        a.row_ids.push_back(id);
        a.rows.push_back(snap->table->rows[p]);
      }
    }
  }
  // An empty shard needs no upload on the fresh path: a worker holding
  // nothing of it answers decrypt requests with an all-zero presence
  // bitmap anyway. The heal path sends it regardless -- the worker may
  // hold rows deleted while it was down.
  if (a.rows.empty() && skip_empty) return Status::OK();
  auto resp = WorkerRpc(w, FrameType::kShardAssign, SerializeShardAssignment(a),
                        FrameType::kShardAck);
  if (resp.ok()) {
    auto ack = DeserializeShardAck(*resp);
    if (ack.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      if (a.rows.empty()) {
        ++stats_.shard_drops;
      } else {
        ++stats_.shard_uploads;
        stats_.rows_uploaded += a.rows.size();
      }
      return Status::OK();
    }
    resp = ack.status();
  }
  // Transport failure (WorkerRpc already marked the worker unhealthy) or
  // a worker-side refusal: either way the copy is missing -- queue it
  // for the heal. A live worker that refuses assignments is as diverged
  // as a dead one.
  MarkUnhealthy(w);
  QueueDirty(w, table, shard);
  return resp.status();
}

Status Coordinator::UploadShard(Worker& w, const std::string& table,
                                uint32_t shard) {
  return SendShard(w, table, shard, /*skip_empty=*/true, /*force=*/false);
}

Status Coordinator::DropShard(Worker& w, const std::string& table,
                              uint32_t shard) {
  bool held = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = row_shard_.find(table);
    if (it != row_shard_.end()) {
      for (const auto& [id, s] : it->second) {
        if (s == shard) {
          held = true;
          break;
        }
      }
    }
  }
  if (!held) return Status::OK();  // the previous owner held nothing
  if (!w.healthy.load(std::memory_order_relaxed)) {
    // The heal path re-checks ownership per dirty entry and sends the
    // drop over the fresh connection.
    QueueDirty(w, table, shard);
    return Status::OK();
  }
  ShardAssignment a;
  a.table = table;
  a.num_shards = static_cast<uint32_t>(num_shards_);
  a.shard = shard;
  auto snap = engine_.table_store().Get(table);
  if (snap.ok()) a.generation = snap->generation;
  auto resp = WorkerRpc(w, FrameType::kShardAssign, SerializeShardAssignment(a),
                        FrameType::kShardAck);
  if (!resp.ok()) {
    QueueDirty(w, table, shard);
    return resp.status();
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.shard_drops;
  return Status::OK();
}

Status Coordinator::StoreTable(EncryptedTable table) {
  std::lock_guard<std::mutex> data(data_mu_);
  const std::string name = table.name;
  SJOIN_RETURN_IF_ERROR(engine_.StoreTable(std::move(table)));
  auto snap = engine_.table_store().Get(name);
  SJOIN_RETURN_IF_ERROR(snap.status());
  std::map<StableRowId, uint32_t> shards;
  for (size_t p = 0; p < snap->table->rows.size(); ++p) {
    shards[(*snap->row_ids)[p]] = static_cast<uint32_t>(
        ShardedTable::ShardOfDigest(
            ShardedTable::RowDigest(snap->table->rows[p]), num_shards_));
  }
  std::map<std::string, std::shared_ptr<Worker>> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    row_shard_[name] = std::move(shards);
    workers = workers_;
  }
  // Every replica of every shard; a down or failing owner queues its
  // copy for the heal instead of failing the store (the local engine is
  // authoritative regardless).
  for (uint32_t s = 0; s < num_shards_ && !workers.empty(); ++s) {
    for (const auto& owner : OwnersAmong(s, workers, replication_)) {
      (void)UploadShard(*owner, name, s);
    }
  }
  return Status::OK();
}

Status Coordinator::AddWorker(const std::string& id, const std::string& host,
                              uint16_t port) {
  auto client = TcpClient::Connect(host, port, opts_.client);
  SJOIN_RETURN_IF_ERROR(client.status());
  std::lock_guard<std::mutex> data(data_mu_);
  auto w = std::make_shared<Worker>();
  w->id = id;
  w->host = host;
  w->port = port;
  w->client = std::make_unique<TcpClient>(std::move(*client));
  std::map<std::string, std::shared_ptr<Worker>> before, after;
  std::vector<std::string> tables;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (workers_.count(id)) {
      return Status::AlreadyExists("worker '" + id + "' already registered");
    }
    before = workers_;
    workers_[id] = w;
    after = workers_;
    for (const auto& [t, shards] : row_shard_) tables.push_back(t);
  }
  // Rebalance: exactly the shard copies whose top-R rendezvous set the
  // new worker enters move to it; the owners it displaces drop them. An
  // upload failure queues the copy for the heal -- the worker stays
  // registered either way (never a half-rebalanced cluster: reads are
  // covered by replicas or local fallback until the heal lands).
  for (uint32_t s = 0; s < num_shards_; ++s) {
    auto owners_after = OwnersAmong(s, after, replication_);
    if (!Among(owners_after, w)) continue;
    auto owners_before = OwnersAmong(s, before, replication_);
    for (const std::string& t : tables) {
      (void)UploadShard(*w, t, s);
      for (const auto& old : owners_before) {
        if (!Among(owners_after, old)) (void)DropShard(*old, t, s);
      }
    }
  }
  return Status::OK();
}

Status Coordinator::RemoveWorker(const std::string& id) {
  std::lock_guard<std::mutex> data(data_mu_);
  std::shared_ptr<Worker> w;
  std::map<std::string, std::shared_ptr<Worker>> before, after;
  std::vector<std::string> tables;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = workers_.find(id);
    if (it == workers_.end()) {
      return Status::NotFound("worker '" + id + "' is not registered");
    }
    w = it->second;
    before = workers_;
    workers_.erase(it);
    after = workers_;
    for (const auto& [t, shards] : row_shard_) tables.push_back(t);
  }
  {
    // An in-flight RPC on another thread finishes (or fails) first; then
    // the socket closes for good. No drops are sent to a removed worker,
    // and the reconnect loop stops considering it.
    std::lock_guard<std::mutex> wl(w->mu);
    if (w->client) w->client->Close();
  }
  // Re-home exactly the shard copies the removed worker owned: the
  // worker entering each affected top-R set receives an upload.
  for (uint32_t s = 0; s < num_shards_ && !after.empty(); ++s) {
    auto owners_before = OwnersAmong(s, before, replication_);
    if (!Among(owners_before, w)) continue;
    for (const auto& entrant : OwnersAmong(s, after, replication_)) {
      if (Among(owners_before, entrant)) continue;
      for (const std::string& t : tables) {
        (void)UploadShard(*entrant, t, s);
      }
    }
  }
  return Status::OK();
}

std::vector<std::string> Coordinator::worker_ids() const {
  std::vector<std::string> ids;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [id, w] : workers_) ids.push_back(id);
  return ids;
}

Result<WorkerHealthInfo> Coordinator::WorkerHealth(const std::string& id) {
  std::shared_ptr<Worker> w;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = workers_.find(id);
    if (it == workers_.end()) {
      return Status::NotFound("worker '" + id + "' is not registered");
    }
    w = it->second;
  }
  auto resp = WorkerRpc(*w, FrameType::kWorkerHealth, Bytes{},
                        FrameType::kWorkerHealthResult);
  SJOIN_RETURN_IF_ERROR(resp.status());
  return DeserializeWorkerHealthInfo(*resp);
}

Result<bool> Coordinator::WorkerIsHealthy(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = workers_.find(id);
  if (it == workers_.end()) {
    return Status::NotFound("worker '" + id + "' is not registered");
  }
  return it->second->healthy.load();
}

Result<MutationResult> Coordinator::ApplyMutation(
    const TableMutation& mutation) {
  std::lock_guard<std::mutex> serial(data_mu_);
  auto result = engine_.ApplyMutation(mutation);
  SJOIN_RETURN_IF_ERROR(result.status());

  // Placement of the inserted rows, aligned with result->inserted_ids.
  std::vector<uint32_t> insert_shards(mutation.inserts.size());
  for (size_t i = 0; i < mutation.inserts.size(); ++i) {
    insert_shards[i] = static_cast<uint32_t>(ShardedTable::ShardOfDigest(
        ShardedTable::RowDigest(mutation.inserts[i]), num_shards_));
  }

  // Update the authoritative row -> shard map and slice the batch by
  // owning worker: every replica of a shard receives exactly the deletes
  // and inserts that land on it, nothing else.
  struct Slice {
    ShardMutation m;
    std::set<uint32_t> shards;  // for dirty-marking on failure
  };
  std::map<std::shared_ptr<Worker>, Slice> slices;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto& shards = row_shard_[mutation.table];
    for (StableRowId id : mutation.deletes) {
      auto it = shards.find(id);
      if (it == shards.end()) continue;
      uint32_t s = it->second;
      shards.erase(it);
      for (const auto& owner : OwnersAmong(s, workers_, replication_)) {
        Slice& slice = slices[owner];
        slice.m.deletes.push_back(id);
        slice.shards.insert(s);
      }
    }
    for (size_t i = 0; i < mutation.inserts.size(); ++i) {
      StableRowId id = result->inserted_ids[i];
      shards[id] = insert_shards[i];
      for (const auto& owner :
           OwnersAmong(insert_shards[i], workers_, replication_)) {
        Slice& slice = slices[owner];
        slice.m.insert_ids.push_back(id);
        slice.m.insert_shards.push_back(insert_shards[i]);
        slice.m.inserts.push_back(mutation.inserts[i]);
        slice.shards.insert(insert_shards[i]);
      }
    }
  }
  // The local engine is authoritative; worker slices are durability for
  // the read path only. A slice that cannot be delivered (worker down)
  // or fails mid-RPC queues its shards for the reconnect heal -- until
  // healed, the worker answers have[i] = 0 for rows it missed and the
  // coordinator falls back to local decrypts for exactly those rows.
  for (auto& [w, slice] : slices) {
    slice.m.table = mutation.table;
    slice.m.new_generation = result->generation;
    if (!w->healthy.load(std::memory_order_relaxed)) {
      for (uint32_t s : slice.shards) QueueDirty(*w, mutation.table, s);
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.mutation_slices_queued;
      continue;
    }
    auto resp = WorkerRpc(*w, FrameType::kShardMutation,
                          SerializeShardMutation(slice.m),
                          FrameType::kShardAck);
    if (resp.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.mutation_rpcs;
    } else {
      // WorkerRpc marked the worker unhealthy; the whole (table, shard)
      // assignments are re-sent on heal, which supersedes the slice.
      for (uint32_t s : slice.shards) QueueDirty(*w, mutation.table, s);
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.mutation_rpc_failures;
    }
  }
  return result;
}

Result<EncryptedSeriesResult> Coordinator::ExecuteSeries(
    const QuerySeriesTokens& series) {
  return engine_.ExecuteJoinSeriesDelegated(
      series, opts_.exec, num_shards_,
      [this](const ShardDecryptRequest& req) -> Result<ShardDecryptResponse> {
        std::vector<std::shared_ptr<Worker>> owners;
        {
          std::lock_guard<std::mutex> lock(mu_);
          owners = OwnersAmong(req.shard, workers_, replication_);
        }
        const Bytes payload = SerializeShardDecryptRequest(req);
        for (size_t i = 0; i < owners.size(); ++i) {
          Worker& w = *owners[i];
          // A worker already out of rotation is skipped without an RPC
          // (and without counting one -- the rpc counters only move when
          // bytes do).
          if (!w.healthy.load(std::memory_order_relaxed)) continue;
          {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.decrypt_rpcs;
          }
          auto resp = WorkerRpc(w, FrameType::kShardDecrypt, payload,
                                FrameType::kShardDigests);
          if (resp.ok()) {
            auto decoded = DeserializeShardDecryptResponse(*resp);
            if (decoded.ok()) {
              if (i > 0) {
                std::lock_guard<std::mutex> lock(mu_);
                ++stats_.failover_decrypts;
              }
              return decoded;
            }
            MarkUnhealthy(w);  // undecodable answer: as diverged as dead
            resp = decoded.status();
          }
          {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.decrypt_rpc_failures;
          }
          // Slow is not dead: a stall past the io timeout is the
          // slow-worker detector firing, and silently absorbing it into
          // a (slower still) local decrypt would hide the sizing problem
          // -- fail the series loudly instead (docs/TUNING.md).
          if (resp.status().code() == StatusCode::kDeadlineExceeded) {
            return resp.status();
          }
          // Unavailable: fall through to the next replica in rendezvous
          // order.
        }
        // Every replica of the shard is down, or the cluster has no
        // workers at all: decrypt the slice coordinator-locally from the
        // pinned snapshot. An all-zero presence bitmap routes every row
        // to the delegated executor's local-fallback path --
        // byte-identical by construction, the series never fails over a
        // dead worker.
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.local_fallback_units;
          stats_.local_fallback_rows += req.rows.size();
        }
        ShardDecryptResponse none;
        none.have.assign(req.rows.size(), 0);
        return none;
      });
}

Result<uint32_t> Coordinator::ShardOfRow(const std::string& table,
                                         StableRowId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto t = row_shard_.find(table);
  if (t == row_shard_.end()) {
    return Status::NotFound("table '" + table + "' not stored");
  }
  auto r = t->second.find(id);
  if (r == t->second.end()) {
    return Status::NotFound("table '" + table + "' has no row " +
                            std::to_string(id));
  }
  return r->second;
}

Result<std::string> Coordinator::OwnerOfShard(uint32_t shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto owners = OwnersAmong(shard, workers_, 1);
  if (owners.empty()) return Status::NotFound("no workers registered");
  return owners.front()->id;
}

Result<std::vector<std::string>> Coordinator::OwnersOfShard(
    uint32_t shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto owners = OwnersAmong(shard, workers_, replication_);
  if (owners.empty()) return Status::NotFound("no workers registered");
  std::vector<std::string> ids;
  ids.reserve(owners.size());
  for (const auto& w : owners) ids.push_back(w->id);
  return ids;
}

Coordinator::Stats Coordinator::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void Coordinator::ReconnectLoop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (!stopping_) {
    auto now = Clock::now();
    std::shared_ptr<Worker> due;
    auto earliest = Clock::time_point::max();
    for (const auto& [id, w] : workers_) {
      if (w->healthy.load(std::memory_order_relaxed)) continue;
      if (w->next_attempt <= now) {
        due = w;
        break;
      }
      earliest = std::min(earliest, w->next_attempt);
    }
    if (due) {
      lk.unlock();
      TryReconnect(due);
      lk.lock();
      continue;
    }
    if (earliest == Clock::time_point::max()) {
      reconnect_cv_.wait(lk);
    } else {
      reconnect_cv_.wait_until(lk, earliest);
    }
  }
}

void Coordinator::TryReconnect(const std::shared_ptr<Worker>& w) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.reconnect_attempts;
  }
  auto client = TcpClient::Connect(w->host, w->port, opts_.client);
  auto backoff = [&] {
    std::lock_guard<std::mutex> lock(mu_);
    w->backoff_ms = std::min(
        w->backoff_ms * 2, std::max(opts_.reconnect_max_backoff_ms, 1));
    w->next_attempt = Clock::now() + JitteredLocked(w->backoff_ms);
  };
  if (!client.ok()) {
    backoff();
    return;
  }
  // The heal observes a frozen data plane: no mutation, store, or
  // rebalance can interleave with the re-uploads, so nothing the worker
  // "missed while healing" can slip between the dirty sweep and the
  // healthy flip -- later writes go over the healed connection.
  std::lock_guard<std::mutex> data(data_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Abandon the heal if the worker was RemoveWorker'd (or replaced)
    // while we dialed.
    auto it = workers_.find(w->id);
    if (it == workers_.end() || it->second != w) return;
  }
  {
    std::lock_guard<std::mutex> wl(w->mu);
    w->client = std::make_unique<TcpClient>(std::move(*client));
  }
  // Re-send everything the worker missed while down. A full (table,
  // shard) assignment supersedes any number of missed mutation slices,
  // and the ownership re-check turns copies that moved away while the
  // worker was down into drops.
  std::set<std::pair<std::string, uint32_t>> dirty;
  {
    std::lock_guard<std::mutex> lock(mu_);
    dirty.swap(w->dirty);
  }
  for (const auto& [table, shard] : dirty) {
    bool owned;
    {
      std::lock_guard<std::mutex> lock(mu_);
      owned = Among(OwnersAmong(shard, workers_, replication_), w);
    }
    Status st = owned ? SendShard(*w, table, shard, /*skip_empty=*/false,
                                  /*force=*/true)
                      : DropShard(*w, table, shard);
    if (!st.ok()) {
      // The fresh connection failed too (SendShard re-queued this entry;
      // re-queue the rest) -- back off and try again later.
      {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto& remaining : dirty) w->dirty.insert(remaining);
      }
      backoff();
      return;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  w->backoff_ms = 0;
  w->healthy.store(true);
  ++stats_.reconnects;
}

}  // namespace sjoin
