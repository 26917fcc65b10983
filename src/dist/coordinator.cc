#include "dist/coordinator.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <set>
#include <utility>

#include "crypto/sha256.h"

namespace sjoin {

namespace {

/// Rendezvous weight of (shard, worker): the tie-breaker of every owner
/// table decision below. Hash-derived, so equal membership histories
/// build equal tables.
uint64_t RendezvousScore(uint32_t shard, const std::string& worker_id) {
  WireWriter w;
  w.U32(shard);
  w.Str(worker_id);
  Digest32 d = Sha256::Hash(w.bytes());
  uint64_t score = 0;
  for (int i = 0; i < 8; ++i) score = (score << 8) | d[i];
  return score;
}

/// Entry s: placement shard s's failover chain of worker ids, primary
/// first, at most R long.
using OwnerTable = std::vector<std::vector<std::string>>;

bool Holds(const std::vector<std::string>& chain, const std::string& id) {
  return std::find(chain.begin(), chain.end(), id) != chain.end();
}

/// Shard copies each of `workers` holds in `table` (0 for none).
std::map<std::string, size_t> CopyCounts(
    const OwnerTable& table, const std::vector<std::string>& workers) {
  std::map<std::string, size_t> copies;
  for (const std::string& id : workers) copies[id] = 0;
  for (const auto& chain : table) {
    for (const std::string& id : chain) {
      auto it = copies.find(id);
      if (it != copies.end()) ++it->second;
    }
  }
  return copies;
}

/// Shards each of `workers` is the primary of in `table` (0 for none).
std::map<std::string, size_t> PrimaryCounts(
    const OwnerTable& table, const std::vector<std::string>& workers) {
  std::map<std::string, size_t> primaries;
  for (const std::string& id : workers) primaries[id] = 0;
  for (const auto& chain : table) {
    if (!chain.empty()) ++primaries[chain.front()];
  }
  return primaries;
}

/// Re-picks the primaries of the `touched` shards so that per-worker
/// primary counts come out as even as those shards allow. While some
/// worker reaches, through touched shards, a worker with at least two
/// primaries fewer, every primary along that path moves one hop: the
/// source loses one, the end gains one, the workers between keep their
/// count. With no such path left, no reassignment of the touched
/// primaries is more even (Harvey, Ladner, Lovasz and Tamir,
/// "Semi-matchings for bipartite graphs and load balancing", 2006). The
/// search runs in worker-id and shard order, so it is deterministic. A
/// new primary moves to the front of its chain; the rest keep their order.
void RebalancePrimaries(OwnerTable* table, const std::vector<uint32_t>& touched,
                        const std::vector<std::string>& workers) {
  std::map<std::string, size_t> primaries = PrimaryCounts(*table, workers);
  std::map<std::string, size_t> copies = CopyCounts(*table, workers);
  size_t most = 0;
  for (const auto& [w, c] : copies) most = std::max(most, c);
  // First moves that even the counts out; then, with the counts as even
  // as they get, swaps that hand a surplus primary from a worker short
  // of copies to one with the most copies. Those keep the counts but
  // align the two surpluses, so the next newcomer, which takes copies
  // from the most-loaded workers, also finds the surplus primaries.
  for (const bool align : {false, true}) {
    auto wanted = [&](const std::string& from, const std::string& to) {
      if (!align) return primaries[to] + 2 <= primaries[from];
      return primaries[to] + 1 == primaries[from] && copies[from] < most &&
             copies[to] == most;
    };
    for (bool moved = true; moved;) {
      moved = false;
      std::vector<std::string> sources = workers;
      std::stable_sort(sources.begin(), sources.end(),
                       [&](const std::string& a, const std::string& b) {
                         return primaries[a] > primaries[b];
                       });
      for (const std::string& source : sources) {
        // Breadth-first over "x is the primary of touched shard s and y
        // also holds s", recording via[y] = (x, s).
        std::map<std::string, std::pair<std::string, uint32_t>> via;
        via.emplace(source, std::make_pair(source, 0u));
        std::deque<std::string> frontier{source};
        std::string end;
        while (!frontier.empty() && end.empty()) {
          const std::string x = frontier.front();
          frontier.pop_front();
          for (uint32_t s : touched) {
            const std::vector<std::string>& chain = (*table)[s];
            if (chain.empty() || chain.front() != x) continue;
            for (const std::string& y : chain) {
              if (!via.emplace(y, std::make_pair(x, s)).second) continue;
              if (wanted(source, y)) {
                end = y;
                break;
              }
              frontier.push_back(y);
            }
            if (!end.empty()) break;
          }
        }
        if (end.empty()) continue;
        for (std::string y = end; y != source;) {
          const auto [x, s] = via.at(y);
          std::vector<std::string>& chain = (*table)[s];
          auto it = std::find(chain.begin(), chain.end(), y);
          std::rotate(chain.begin(), it, it + 1);
          y = x;
        }
        --primaries[source];
        ++primaries[end];
        moved = true;
        break;
      }
    }
  }
}

/// Places newcomer `id` (already counted in `workers`) with
/// floor(K * min(R, W) / W) copies: free replica slots first (while
/// W <= R that is every shard), then one copy at a time from a
/// most-loaded worker, in a shard the newcomer does not hold yet, taking
/// over that worker's slot. Only the newcomer gains copies, and only the
/// shards it joins change; their primaries are re-picked
/// (RebalancePrimaries). Returns the shards the newcomer joined.
///
/// Which slot to take next: first a slot at a chain position where the
/// victim holds more than its fair share and the newcomer less than its
/// cap; then the shard whose primary holds the most primaries (joining
/// it opens a path for that surplus); then the shard the newcomer's
/// rendezvous score ranks first; then the earlier chain position. Each
/// of the first two preferences, like RebalancePrimaries' align pass,
/// keeps primaries within one in some add-only R = 2 history of
/// tests/dist_test.cc that ends two apart without it. At R = 1 only the
/// copy counts matter, and they come out within one.
std::vector<uint32_t> PlaceNewcomer(OwnerTable* table,
                                    const std::vector<std::string>& workers,
                                    const std::string& id, size_t replication) {
  const size_t k = table->size();
  const size_t target =
      k * std::min(replication, workers.size()) / workers.size();
  const size_t fair = k / workers.size();
  const size_t cap = (k + workers.size() - 1) / workers.size();
  std::vector<uint64_t> score(k);
  for (uint32_t s = 0; s < k; ++s) score[s] = RendezvousScore(s, id);
  std::vector<uint32_t> order(k);
  for (uint32_t s = 0; s < k; ++s) order[s] = s;
  std::stable_sort(order.begin(), order.end(),
                   [&](uint32_t a, uint32_t b) { return score[a] > score[b]; });
  std::map<std::string, size_t> copies = CopyCounts(*table, workers);
  for (uint32_t s : order) {
    if (copies[id] == target) break;
    if ((*table)[s].size() < replication) {
      (*table)[s].push_back(id);
      ++copies[id];
    }
  }
  // layer[j][w]: shards in which worker w sits at chain position j.
  std::vector<std::map<std::string, size_t>> layer(replication);
  for (const auto& chain : *table) {
    for (size_t j = 0; j < chain.size(); ++j) ++layer[j][chain[j]];
  }
  while (copies[id] < target) {
    size_t most = 0;
    for (const auto& [w, c] : copies) {
      if (w != id) most = std::max(most, c);
    }
    std::string* slot = nullptr;
    size_t pos = 0;
    std::pair<bool, size_t> best;
    for (uint32_t s : order) {
      std::vector<std::string>& chain = (*table)[s];
      if (Holds(chain, id)) continue;
      for (size_t j = 0; j < chain.size(); ++j) {
        if (copies[chain[j]] != most) continue;
        const std::pair<bool, size_t> rank = {
            layer[j][chain[j]] > fair && layer[j][id] < cap,
            layer[0][chain.front()]};
        if (slot == nullptr || rank > best) {
          slot = &chain[j];
          pos = j;
          best = rank;
        }
      }
    }
    if (slot == nullptr) break;
    --copies[*slot];
    --layer[pos][*slot];
    *slot = id;
    ++copies[id];
    ++layer[pos][id];
  }
  std::vector<uint32_t> joined;
  for (uint32_t s = 0; s < k; ++s) {
    if (Holds((*table)[s], id)) joined.push_back(s);
  }
  RebalancePrimaries(table, joined, workers);
  return joined;
}

/// Hands each copy `leaver` held to a least-loaded worker of `workers`
/// (the leaver no longer among them) that lacks that shard, in the
/// leaver's slot; with no such worker the chain just shrinks. Only the
/// leaver's shards change; their primaries are then re-picked.
void ReplaceLeaver(OwnerTable* table, const std::vector<std::string>& workers,
                   const std::string& leaver) {
  std::map<std::string, size_t> copies = CopyCounts(*table, workers);
  std::vector<uint32_t> touched;
  for (uint32_t s = 0; s < table->size(); ++s) {
    std::vector<std::string>& chain = (*table)[s];
    auto slot = std::find(chain.begin(), chain.end(), leaver);
    if (slot == chain.end()) continue;
    touched.push_back(s);
    const std::string* heir = nullptr;
    uint64_t heir_score = 0;
    for (const std::string& w : workers) {
      if (Holds(chain, w)) continue;
      const uint64_t score = RendezvousScore(s, w);
      if (heir == nullptr || copies[w] < copies[*heir] ||
          (copies[w] == copies[*heir] && score > heir_score)) {
        heir = &w;
        heir_score = score;
      }
    }
    if (heir == nullptr) {
      chain.erase(slot);
    } else {
      *slot = *heir;
      ++copies[*heir];
    }
  }
  RebalancePrimaries(table, touched, workers);
}

}  // namespace

Coordinator::Coordinator(CoordinatorOptions opts)
    : num_shards_(std::min<size_t>(std::max<size_t>(opts.num_shards, 1),
                                   ShardedTable::kMaxShards)),
      replication_(std::min<size_t>(std::max<size_t>(opts.replication, 1),
                                    ShardedTable::kMaxShards)),
      opts_(std::move(opts)),
      owners_(num_shards_),
      rng_(std::random_device{}()) {
  reconnect_thread_ = std::thread([this] { ReconnectLoop(); });
}

Coordinator::~Coordinator() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  reconnect_cv_.notify_all();
  reconnect_thread_.join();
}

std::vector<std::shared_ptr<Coordinator::Worker>> Coordinator::ChainLocked(
    uint32_t shard) const {
  std::vector<std::shared_ptr<Worker>> chain;
  for (const std::string& id : owners_[shard]) chain.push_back(workers_.at(id));
  return chain;
}

std::vector<std::string> Coordinator::WorkerIdsLocked() const {
  std::vector<std::string> ids;
  ids.reserve(workers_.size());
  for (const auto& [id, w] : workers_) ids.push_back(id);
  return ids;
}

void Coordinator::MarkUnhealthy(Worker& w) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!w.healthy.exchange(false)) return;  // already out of rotation
  ++stats_.workers_marked_unhealthy;
  w.backoff_ms = std::max(opts_.reconnect_initial_backoff_ms, 1);
  w.next_attempt = Clock::now() + JitteredLocked(w.backoff_ms);
  reconnect_cv_.notify_all();
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

uint32_t Coordinator::ShardOf(const EncryptedRow& row) const {
  return static_cast<uint32_t>(ShardedTable::ShardOfDigest(
      ShardedTable::RowDigest(row), num_shards_));
}

Coordinator::Placed Coordinator::Place(const std::string& table) const {
  auto snap = engine_.table_store().Get(table);
  SJOIN_CHECK(snap.ok());  // stored tables are never removed
  Placed placed{*snap, std::vector<std::vector<size_t>>(num_shards_)};
  for (size_t p = 0; p < snap->table->rows.size(); ++p) {
    placed.shards[ShardOf(snap->table->rows[p])].push_back(p);
  }
  return placed;
}

Status Coordinator::Assign(Worker& w, const TableStore::Snapshot& snap,
                           uint32_t shard, const std::vector<size_t>& positions,
                           bool heal) {
  // A down worker is skipped without a doomed RPC: the heal re-sends
  // every shard anyway, and replicas or local fallback cover the reads
  // meanwhile.
  Status st = Status::Unavailable("worker '" + w.id + "' is out of rotation");
  if (heal || w.healthy.load(std::memory_order_relaxed)) {
    ShardAssignment a;
    a.table = snap.table->name;
    a.generation = snap.generation;
    a.shard = shard;
    for (size_t p : positions) {
      a.row_ids.push_back((*snap.row_ids)[p]);
      a.rows.push_back(snap.table->rows[p]);
    }
    auto resp = WorkerRpc(w, FrameType::kShardAssign,
                          SerializeShardAssignment(a), FrameType::kShardAck);
    st = resp.ok() ? DeserializeShardAck(*resp).status() : resp.status();
  }
  // A live worker that refuses an assignment is as diverged as a dead
  // one: out of rotation until the heal re-syncs it.
  if (!st.ok()) MarkUnhealthy(w);
  std::lock_guard<std::mutex> lock(mu_);
  if (!st.ok()) {
    ++stats_.shards_queued;
  } else if (positions.empty()) {
    ++stats_.shard_drops;
  } else {
    ++stats_.shard_uploads;
    stats_.rows_uploaded += positions.size();
  }
  return st;
}

Status Coordinator::StoreTable(EncryptedTable table) {
  std::lock_guard<std::mutex> data(data_mu_);
  const std::string name = table.name;
  SJOIN_RETURN_IF_ERROR(engine_.StoreTable(std::move(table)));
  tables_.push_back(name);
  const Placed placed = Place(name);
  std::vector<std::vector<std::shared_ptr<Worker>>> chains;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (uint32_t s = 0; s < num_shards_; ++s) chains.push_back(ChainLocked(s));
  }
  // Every replica of every non-empty shard (a worker holding nothing of a
  // shard answers its decrypts with an all-zero bitmap anyway); a down or
  // failing owner leaves its copy to the heal instead of failing the store
  // (the local engine is authoritative regardless).
  for (uint32_t s = 0; s < num_shards_; ++s) {
    if (placed.shards[s].empty()) continue;
    for (const auto& owner : chains[s]) {
      (void)Assign(*owner, placed.snap, s, placed.shards[s]);
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
  // data_mu_ serializes every writer of workers_ and owners_, so the
  // placement runs on a copy without mu_ (series keep counting their
  // RPCs meanwhile) and is installed in one step.
  OwnerTable owners;
  std::vector<std::string> ids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (workers_.count(id)) {
      return Status::AlreadyExists("worker '" + id + "' already registered");
    }
    owners = owners_;
    ids = WorkerIdsLocked();
  }
  ids.insert(std::lower_bound(ids.begin(), ids.end(), id), id);
  const std::vector<uint32_t> joined =
      PlaceNewcomer(&owners, ids, id, replication_);
  // (shard the newcomer joined, the owners it displaced there)
  std::vector<std::pair<uint32_t, std::vector<std::shared_ptr<Worker>>>> moves;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (uint32_t s : joined) {
      std::vector<std::shared_ptr<Worker>> displaced;
      for (const std::string& old : owners_[s]) {
        if (!Holds(owners[s], old)) displaced.push_back(workers_.at(old));
      }
      moves.emplace_back(s, std::move(displaced));
    }
    workers_[id] = w;
    owners_ = std::move(owners);
  }
  // Rebalance: exactly the non-empty shard copies the owner table gave
  // the new worker move to it; the owners it displaced drop them. A failed
  // upload is left to the heal -- the worker stays registered either way
  // (never a half-rebalanced cluster: reads are covered by replicas or
  // local fallback until the heal lands).
  for (const std::string& t : tables_) {
    const Placed placed = Place(t);
    for (const auto& [s, displaced] : moves) {
      if (placed.shards[s].empty()) continue;
      (void)Assign(*w, placed.snap, s, placed.shards[s]);
      for (const auto& old : displaced) (void)Assign(*old, placed.snap, s, {});
    }
  }
  return Status::OK();
}

Status Coordinator::RemoveWorker(const std::string& id) {
  std::lock_guard<std::mutex> data(data_mu_);
  std::shared_ptr<Worker> w;
  // As in AddWorker: the placement runs on a copy, outside mu_.
  OwnerTable owners;
  std::vector<std::string> ids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = workers_.find(id);
    if (it == workers_.end()) {
      return Status::NotFound("worker '" + id + "' is not registered");
    }
    w = it->second;
    owners = owners_;
    ids = WorkerIdsLocked();
  }
  ids.erase(std::find(ids.begin(), ids.end(), id));
  ReplaceLeaver(&owners, ids, id);
  // (shard the removed worker held, the owners that took its copy)
  std::vector<std::pair<uint32_t, std::vector<std::shared_ptr<Worker>>>> moves;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (uint32_t s = 0; s < num_shards_; ++s) {
      if (!Holds(owners_[s], id)) continue;
      std::vector<std::shared_ptr<Worker>> heirs;
      for (const std::string& owner : owners[s]) {
        if (!Holds(owners_[s], owner)) heirs.push_back(workers_.at(owner));
      }
      moves.emplace_back(s, std::move(heirs));
    }
    workers_.erase(id);
    owners_ = std::move(owners);
  }
  {
    // An in-flight RPC on another thread finishes (or fails) first; then
    // the socket closes for good. No drops are sent to a removed worker,
    // and the reconnect loop stops considering it.
    std::lock_guard<std::mutex> wl(w->mu);
    if (w->client) w->client->Close();
  }
  // Re-home exactly the non-empty shard copies the removed worker owned:
  // the worker that took each copy receives an upload.
  for (const std::string& t : tables_) {
    const Placed placed = Place(t);
    for (const auto& [s, heirs] : moves) {
      if (placed.shards[s].empty()) continue;
      for (const auto& heir : heirs) {
        (void)Assign(*heir, placed.snap, s, placed.shards[s]);
      }
    }
  }
  return Status::OK();
}

std::vector<std::string> Coordinator::worker_ids() const {
  std::lock_guard<std::mutex> lock(mu_);
  return WorkerIdsLocked();
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
  // Under data_mu_ this is exactly the generation the batch applies to:
  // the deleted rows' shards are read off it.
  auto before = engine_.table_store().Get(mutation.table);
  SJOIN_RETURN_IF_ERROR(before.status());
  auto result = engine_.ApplyMutation(mutation);
  SJOIN_RETURN_IF_ERROR(result.status());

  // Placement of the deleted rows (by stable id; one pass over the
  // snapshot, as the copy-on-write apply itself) and of the inserted rows
  // (aligned with result->inserted_ids).
  std::vector<std::pair<StableRowId, uint32_t>> deleted;
  const std::set<StableRowId> deletes(mutation.deletes.begin(),
                                      mutation.deletes.end());
  for (size_t p = 0; p < before->row_ids->size(); ++p) {
    const StableRowId id = (*before->row_ids)[p];
    if (deletes.count(id)) {
      deleted.emplace_back(id, ShardOf(before->table->rows[p]));
    }
  }
  std::vector<uint32_t> insert_shards(mutation.inserts.size());
  for (size_t i = 0; i < mutation.inserts.size(); ++i) {
    insert_shards[i] = ShardOf(mutation.inserts[i]);
  }

  // Slice the batch by owning worker: every replica of a shard receives
  // exactly the deletes and inserts that land on it, nothing else.
  struct Slice {
    ShardMutation m;
    std::set<uint32_t> shards;  // left to the heal if not delivered
  };
  std::map<std::shared_ptr<Worker>, Slice> slices;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [id, s] : deleted) {
      for (const auto& owner : ChainLocked(s)) {
        Slice& slice = slices[owner];
        slice.m.deletes.push_back(id);
        slice.shards.insert(s);
      }
    }
    for (size_t i = 0; i < mutation.inserts.size(); ++i) {
      for (const auto& owner : ChainLocked(insert_shards[i])) {
        Slice& slice = slices[owner];
        slice.m.insert_ids.push_back(result->inserted_ids[i]);
        slice.m.insert_shards.push_back(insert_shards[i]);
        slice.m.inserts.push_back(mutation.inserts[i]);
        slice.shards.insert(insert_shards[i]);
      }
    }
  }
  // The local engine is authoritative; worker slices are durability for
  // the read path only. A slice to a worker out of rotation is skipped,
  // and one that fails -- at the transport or by the worker's refusal --
  // takes the worker out: either way the heal re-sends its shards whole.
  // Until healed, the worker answers have[i] = 0 for rows it missed and
  // the coordinator falls back to local decrypts for exactly those rows.
  for (auto& [w, slice] : slices) {
    slice.m.table = mutation.table;
    slice.m.new_generation = result->generation;
    if (!w->healthy.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.mutation_slices_queued;
      stats_.shards_queued += slice.shards.size();
      continue;
    }
    auto resp = WorkerRpc(*w, FrameType::kShardMutation,
                          SerializeShardMutation(slice.m),
                          FrameType::kShardAck);
    if (!resp.ok()) MarkUnhealthy(*w);
    std::lock_guard<std::mutex> lock(mu_);
    if (resp.ok()) {
      ++stats_.mutation_rpcs;
    } else {
      ++stats_.mutation_rpc_failures;
      stats_.shards_queued += slice.shards.size();
    }
  }
  return result;
}

Result<EncryptedSeriesResult> Coordinator::ExecuteSeries(
    const QuerySeriesTokens& series) {
  // One snapshot of every shard's failover chain for the whole series.
  // Shards with the same chain form one request group: every row of a
  // decrypt unit whose shard has that chain travels in one request, so
  // at R = 1 a unit costs one RPC per worker, not one per shard.
  std::vector<std::vector<std::shared_ptr<Worker>>> chains;
  std::vector<size_t> chain_of(num_shards_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::vector<std::string>, size_t> index;
    for (uint32_t s = 0; s < num_shards_; ++s) {
      auto [it, fresh] = index.emplace(owners_[s], chains.size());
      if (fresh) chains.push_back(ChainLocked(s));
      chain_of[s] = it->second;
    }
  }
  return engine_.ExecuteJoinSeriesDelegated(
      series, opts_.exec, chains.size(),
      [&](const EncryptedRow& row) { return chain_of[ShardOf(row)]; },
      [&](const ShardDecryptRequest& req) -> Result<ShardDecryptResponse> {
        const std::vector<std::shared_ptr<Worker>>& owners = chains[req.shard];
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
              std::lock_guard<std::mutex> lock(mu_);
              stats_.worker_missing_rows +=
                  std::count(decoded->have.begin(), decoded->have.end(), 0);
              if (i > 0) ++stats_.failover_decrypts;
              return decoded;
            }
            resp = decoded.status();
          }
          // A refused (kError) or undecodable answer leaves the worker as
          // diverged as a dead one: out of rotation until the heal
          // re-syncs it, so later units stop sending it doomed RPCs.
          MarkUnhealthy(w);
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
          // Unavailable: fall through to the next replica of the chain.
        }
        // Every replica of the chain is down, or the cluster has no
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
  auto snap = engine_.table_store().Get(table);
  SJOIN_RETURN_IF_ERROR(snap.status());
  const std::vector<StableRowId>& ids = *snap->row_ids;
  auto it = std::find(ids.begin(), ids.end(), id);
  if (it == ids.end()) {
    return Status::NotFound("table '" + table + "' has no row " +
                            std::to_string(id));
  }
  return ShardOf(snap->table->rows[it - ids.begin()]);
}

Result<std::string> Coordinator::OwnerOfShard(uint32_t shard) const {
  auto owners = OwnersOfShard(shard);
  SJOIN_RETURN_IF_ERROR(owners.status());
  return owners->front();
}

Result<std::vector<std::string>> Coordinator::OwnersOfShard(
    uint32_t shard) const {
  if (shard >= num_shards_) {
    return Status::OutOfRange("shard " + std::to_string(shard) +
                              " is outside the " +
                              std::to_string(num_shards_) +
                              " placement shards");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (owners_[shard].empty()) return Status::NotFound("no workers registered");
  return owners_[shard];
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
  // "missed while healing" can slip between the re-sync and the healthy
  // flip -- later writes go over the healed connection.
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
  // Re-sync every shard of every stored table. Each copy the owner table
  // gives the worker goes out whole -- a restarted process holds none of
  // them, and an empty one clears rows deleted while the worker was down
  // -- and every other non-empty shard is dropped, since its copy may have
  // moved away meanwhile. A full assignment supersedes any number of
  // missed mutation slices, and ShardWorker keeps the prepared entries of
  // re-sent ids, so a worker whose process survived stays warm.
  std::vector<bool> owned(num_shards_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (uint32_t s = 0; s < num_shards_; ++s) {
      owned[s] = Holds(owners_[s], w->id);
    }
  }
  const std::vector<size_t> drop;
  for (const std::string& t : tables_) {
    const Placed placed = Place(t);
    for (uint32_t s = 0; s < num_shards_; ++s) {
      if (!owned[s] && placed.shards[s].empty()) continue;
      const Status st = Assign(*w, placed.snap, s,
                               owned[s] ? placed.shards[s] : drop,
                               /*heal=*/true);
      if (!st.ok()) {
        backoff();  // the fresh connection failed too: retry in full
        return;
      }
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  w->backoff_ms = 0;
  w->healthy.store(true);
  ++stats_.reconnects;
}

}  // namespace sjoin
