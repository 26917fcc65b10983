#include "db/server.h"

#include <algorithm>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <utility>

#include "db/wire.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace sjoin {
namespace {

/// Rows passing a query side's SSE pre-filter (all rows if disabled).
std::vector<size_t> SelectRows(const EncryptedTable& t,
                               const std::vector<SseTokenGroup>& groups,
                               bool use_sse_prefilter) {
  if (!use_sse_prefilter || groups.empty()) {
    std::vector<size_t> all(t.rows.size());
    std::iota(all.begin(), all.end(), 0);
    return all;
  }
  std::vector<size_t> selected;
  for (size_t r = 0; r < t.rows.size(); ++r) {
    if (SseRowMatches(t.rows[r].sse, groups)) selected.push_back(r);
  }
  return selected;
}

/// Content-addressed token identity: two JoinQueryTokens sides hold "the
/// same token" iff their serialized G1 points agree. This is what keys the
/// series digest cache -- a client that reuses a token (multi-way chain
/// with a shared query key, repeated query) gets each row decrypted once.
Digest32 TokenFingerprint(const SjToken& token) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(token.tk.size()));
  for (const G1Affine& p : token.tk) WriteG1Point(&w, p);
  return Sha256::Hash(w.bytes());
}

/// Rejects a delegate's answer that does not fit its request: one presence
/// bit per requested row, one digest per set bit, and counters that agree
/// with the bitmap (the SeriesExecStats identities, per slice) -- the
/// counters come off the network and are merged into the series totals.
Status CheckShardResponse(const ShardDecryptRequest& req,
                          const ShardDecryptResponse& resp) {
  const size_t present =
      resp.have.size() - std::count(resp.have.begin(), resp.have.end(), 0);
  const ShardExecStats& s = resp.stats;
  std::string problem;
  if (resp.have.size() != req.rows.size()) {
    problem = "answers " + std::to_string(resp.have.size()) +
              " rows, requested " + std::to_string(req.rows.size());
  } else if (resp.digests.size() != present) {
    problem = std::string("has ") +
              (resp.digests.size() < present ? "fewer" : "more") +
              " digests than its presence bitmap claims";
  } else if (s.decrypts_performed != present ||
             s.pairings_computed + s.prepared_pairings != present ||
             s.prepared_rows_built + s.prepared_cache_hits !=
                 s.prepared_pairings) {
    problem = "reports counters that disagree with its presence bitmap";
  }
  if (problem.empty()) return Status::OK();
  return Status::Internal("shard decrypt response for table '" + req.table +
                          "' " + problem);
}

/// The one scheduling path behind every Submit*Async: enqueues
/// `run(request)` under the request's session and hands `done` the result
/// -- or, inline, the admission error when the scheduler refuses.
template <typename Request, typename Run, typename Done>
void Schedule(RequestScheduler& scheduler, RequestScheduler::Kind kind,
              std::string table, Request request, Run run, Done done) {
  SessionId session = request.session_id;
  auto req = std::make_shared<Request>(std::move(request));
  auto cb = std::make_shared<Done>(std::move(done));
  Status admitted = scheduler.Enqueue(session, kind, std::move(table),
                                      [req, run, cb] { (*cb)(run(*req)); });
  if (!admitted.ok()) (*cb)(admitted);
}

/// The promise adapter behind the future-returning Submit*: `submit` runs
/// one Submit*Async with the completion it is given.
template <typename T, typename Submit>
std::future<Result<T>> ToFuture(Submit submit) {
  auto prom = std::make_shared<std::promise<Result<T>>>();
  std::future<Result<T>> fut = prom->get_future();
  submit([prom](Result<T> r) { prom->set_value(std::move(r)); });
  return fut;
}

}  // namespace

/// Execution state of one series (RunSeries): resolved per-query plans and
/// the deduplicated (table, token) decrypt units with their pending rows.
/// Only the SJ.Dec pass (step 3) depends on the placement and decrypt
/// sink; everything before and after is common.
///
/// Snapshot consistency: step 0 resolves at most ONE TableStore snapshot
/// per referenced table name, and every plan/unit points into it -- the
/// whole batch observes one generation per table, and the held shared_ptrs
/// keep that generation alive even across a concurrent mutation (the
/// store never mutates a published snapshot). Positions are therefore
/// stable for the duration of the call; stable ids translate them into
/// mutation-proof cache keys and leakage identities. The state is local
/// to one Execute* call -- concurrent series share nothing through it.
struct EncryptedServer::SeriesPlanState {
  /// One (table, token) decryption unit of a series: the lazily filled
  /// digest vector, indexed by row position within the snapshot.
  struct Unit {
    const EncryptedTable* table = nullptr;
    const std::vector<StableRowId>* row_ids = nullptr;
    uint64_t generation = 0;  ///< of the pinned snapshot
    const SjToken* token = nullptr;
    std::vector<std::optional<Digest32>> digests;

    /// SJ.Dec of the rows at `positions` through the cache-aware kernel,
    /// on up to `num_threads` threads of the shared pool.
    std::vector<Digest32> Decrypt(const std::vector<size_t>& positions,
                                  PreparedRowCache* cache, int num_threads,
                                  ShardExecStats* stats) const {
      std::vector<CachedDecryptRow> rows;
      rows.reserve(positions.size());
      for (size_t r : positions) {
        rows.push_back({(*row_ids)[r], &table->rows[r].sj});
      }
      return DecryptRowsCached(*token, table->name, rows, cache,
                               ThreadPool::Shared(), num_threads, stats);
    }
  };
  struct QueryPlan {
    const EncryptedTable* a = nullptr;
    const EncryptedTable* b = nullptr;
    const std::vector<StableRowId>* ids_a = nullptr;
    const std::vector<StableRowId>* ids_b = nullptr;
    std::vector<size_t> sel_a, sel_b;
    Unit* unit_a = nullptr;
    Unit* unit_b = nullptr;
    /// Which backend answers this query (adaptive dispatch). On a fast
    /// backend the digests below are filled at plan time and the query
    /// registers no decrypt units -- it costs no pairings at all.
    BackendKind backend = BackendKind::kSjoin;
    std::vector<Digest32> fast_da, fast_db;
  };

  /// One generation per table name for the whole batch.
  std::map<std::string, TableStore::Snapshot> snapshots;
  std::vector<QueryPlan> plans;
  std::map<std::pair<std::string, Digest32>, std::unique_ptr<Unit>> units;
  /// Every (unit, row position) the batch must decrypt, dedup applied.
  std::vector<std::pair<Unit*, size_t>> pending;
};

/// One (decrypt-unit x shard) slice of the batched SJ.Dec pass: the
/// pending rows of one unit that hash to one shard. The local paths hand
/// each to the kernel whole; the delegated path ships each as one worker
/// RPC.
struct EncryptedServer::ShardWorkUnit {
  SeriesPlanState::Unit* unit = nullptr;
  size_t shard = 0;
  std::vector<size_t> rows;  ///< positions within the unit's snapshot
};

std::vector<EncryptedServer::ShardWorkUnit> EncryptedServer::BuildShardUnits(
    const SeriesPlanState& state, const Placement& placement) {
  std::vector<ShardWorkUnit> groups;
  std::map<std::pair<const SeriesPlanState::Unit*, size_t>, size_t> index;
  for (const auto& [unit, row] : state.pending) {
    size_t shard =
        placement.shard_of ? placement.shard_of(unit->table, row) : 0;
    auto key =
        std::make_pair(static_cast<const SeriesPlanState::Unit*>(unit), shard);
    auto it = index.find(key);
    if (it == index.end()) {
      it = index.emplace(key, groups.size()).first;
      groups.push_back(ShardWorkUnit{unit, shard, {}});
    }
    groups[it->second].rows.push_back(row);
  }
  return groups;
}

Status EncryptedServer::StoreTable(EncryptedTable table) {
  TableIdFor(table.name);
  return store_.Store(std::move(table));
}

Result<const EncryptedTable*> EncryptedServer::GetTable(
    const std::string& name) const {
  auto snap = store_.Get(name);
  SJOIN_RETURN_IF_ERROR(snap.status());
  return snap->table.get();
}

Result<MutationResult> EncryptedServer::ApplyMutation(
    const TableMutation& mutation) {
  auto applied = store_.Apply(mutation);
  SJOIN_RETURN_IF_ERROR(applied.status());

  // Row-granular cache invalidation: exactly the deleted rows' prepared
  // entries drop -- surviving rows stay warm (inserts have fresh ids and
  // were never cached). A series running concurrently against an older
  // generation may re-insert a deleted row's entry afterwards; that entry
  // is merely unreachable garbage (ids are never reused, so nothing will
  // query it) bounded by LRU, never wrong.
  for (StableRowId id : applied->removed_ids) {
    prepared_cache_.EraseRow(mutation.table, id);
  }

  // Leakage: nothing to do, by design. The tracker's RowIds are stable
  // ids, so the deleted rows' equality groups remain in the transitive
  // closure -- observations already made cannot be unlearned, and no
  // future row can collide with them (ids are never reused).
  return std::move(applied->result);
}

int EncryptedServer::TableIdFor(const std::string& name) {
  std::lock_guard<std::mutex> lock(ids_mu_);
  auto it = table_ids_.find(name);
  if (it != table_ids_.end()) return it->second;
  int id = static_cast<int>(table_ids_.size());
  table_ids_[name] = id;
  return id;
}

EncryptedJoinResult EncryptedServer::MatchAndAccount(
    const EncryptedTable& a, const EncryptedTable& b,
    const std::vector<StableRowId>& ids_a, const std::vector<StableRowId>& ids_b,
    const std::vector<size_t>& sel_a, const std::vector<size_t>& sel_b,
    const std::vector<Digest32>& da, const std::vector<Digest32>& db) {
  EncryptedJoinResult out;
  out.stats.rows_total_a = a.rows.size();
  out.stats.rows_total_b = b.rows.size();
  out.stats.rows_selected_a = sel_a.size();
  out.stats.rows_selected_b = sel_b.size();

  // SJ.Match: join on digests.
  Stopwatch match_watch;
  std::vector<JoinedRowPair> pairs = HashJoinDigests(da, db);
  out.stats.match_seconds = match_watch.Seconds();
  out.stats.result_pairs = pairs.size();

  // Leakage accounting: the adversary sees equality groups of D digests
  // across all decrypted rows of this query (both tables). Rows enter the
  // tracker under their STABLE ids, so the observation survives any later
  // delete without aliasing onto a row that reuses the position. The
  // tracker itself is thread-safe; group observations from concurrent
  // sessions commute inside the transitive closure.
  {
    std::map<Digest32, std::vector<RowId>> groups;
    int id_a = TableIdFor(a.name);
    int id_b = TableIdFor(b.name);
    for (size_t i = 0; i < sel_a.size(); ++i) {
      groups[da[i]].push_back(
          RowId{id_a, static_cast<size_t>(ids_a[sel_a[i]])});
    }
    for (size_t j = 0; j < sel_b.size(); ++j) {
      groups[db[j]].push_back(
          RowId{id_b, static_cast<size_t>(ids_b[sel_b[j]])});
    }
    for (const auto& [digest, members] : groups) {
      if (members.size() >= 2) leakage_.ObserveEqualityGroup(members);
    }
  }

  // Result payloads.
  out.row_pairs.reserve(pairs.size());
  out.matched_row_indices.reserve(pairs.size());
  for (const JoinedRowPair& p : pairs) {
    out.row_pairs.emplace_back(a.rows[sel_a[p.row_a]].payload,
                               b.rows[sel_b[p.row_b]].payload);
    out.matched_row_indices.push_back(
        JoinedRowPair{sel_a[p.row_a], sel_b[p.row_b]});
  }
  return out;
}

Result<EncryptedJoinResult> EncryptedServer::ExecuteJoin(
    const JoinQueryTokens& query, const ServerExecOptions& opts) {
  QuerySeriesTokens series;
  series.queries.push_back(query);
  auto r = ExecuteJoinSeries(series, opts);
  SJOIN_RETURN_IF_ERROR(r.status());
  EncryptedJoinResult out = std::move(r->results[0]);
  out.stats.prefilter_seconds = r->stats.prefilter_seconds;
  out.stats.decrypt_seconds = r->stats.decrypt_seconds;
  return out;
}

Status EncryptedServer::BuildSeriesPlan(const QuerySeriesTokens& series,
                                        const ServerExecOptions& opts,
                                        SeriesExecStats* stats,
                                        SeriesPlanState* state) {
  // 0. Resolve every table up front -- a series fails before any crypto
  // work rather than after a partial batch -- and pin ONE snapshot per
  // table name: every query of the batch reads the same generation.
  auto resolve = [&](const std::string& name)
      -> Result<const TableStore::Snapshot*> {
    auto it = state->snapshots.find(name);
    if (it == state->snapshots.end()) {
      auto snap = store_.Get(name);
      SJOIN_RETURN_IF_ERROR(snap.status());
      it = state->snapshots.emplace(name, std::move(*snap)).first;
    }
    return &it->second;
  };
  state->plans.resize(series.queries.size());
  for (size_t q = 0; q < series.queries.size(); ++q) {
    auto sa = resolve(series.queries[q].table_a);
    SJOIN_RETURN_IF_ERROR(sa.status());
    auto sb = resolve(series.queries[q].table_b);
    SJOIN_RETURN_IF_ERROR(sb.status());
    state->plans[q].a = (*sa)->table.get();
    state->plans[q].b = (*sb)->table.get();
    state->plans[q].ids_a = (*sa)->row_ids.get();
    state->plans[q].ids_b = (*sb)->row_ids.get();
  }

  // 1. SSE pre-filters for the whole batch.
  Stopwatch prefilter_watch;
  for (size_t q = 0; q < series.queries.size(); ++q) {
    const JoinQueryTokens& query = series.queries[q];
    state->plans[q].sel_a =
        SelectRows(*state->plans[q].a, query.sse_a, query.use_sse_prefilter);
    state->plans[q].sel_b =
        SelectRows(*state->plans[q].b, query.sse_b, query.use_sse_prefilter);
  }
  stats->prefilter_seconds = prefilter_watch.Seconds();

  // 1.5. Adaptive backend dispatch (db/backend.h): per query, the
  // executor may route to a fast tag-join backend when the client's
  // series policy and the server's policy both allow it AND the
  // projected reveal fits every involved table's leakage budget (charged
  // atomically at decision time -- concurrent sessions race on one
  // ledger, so the spend is recorded before any work happens and can
  // never overshoot). A fast query's digests are computed here, over the
  // same SSE selections the pairing path would use, and the query never
  // enters the SJ.Dec plan below. With the default sjoin-only client
  // mask this loop dispatches nothing and the plan is byte-for-byte the
  // pre-adaptive one.
  const uint32_t allowed = series.allowed_backends & opts.allowed_backends;
  for (SeriesPlanState::QueryPlan& plan : state->plans) {
    if ((allowed & ~kBackendMaskSjoinOnly) != 0) {
      BackendQueryView view;
      view.a = plan.a;
      view.b = plan.b;
      view.ids_a = plan.ids_a;
      view.ids_b = plan.ids_b;
      view.sel_a = &plan.sel_a;
      view.sel_b = &plan.sel_b;
      view.table_id_a = TableIdFor(plan.a->name);
      view.table_id_b = TableIdFor(plan.b->name);
      view.onion_key = series.has_onion_key ? &series.onion_key : nullptr;
      BackendDecision decision = executor_.Dispatch(view, allowed);
      plan.backend = decision.kind;
      if (decision.backend != nullptr) {
        decision.backend->ComputeDigests(view, &plan.fast_da, &plan.fast_db);
        stats->leakage_charged += decision.charged;
      }
    }
    switch (plan.backend) {
      case BackendKind::kSjoin:
        ++stats->backend_sjoin_queries;
        break;
      case BackendKind::kDetJoin:
        ++stats->backend_det_queries;
        break;
      case BackendKind::kCryptDbOnion:
        ++stats->backend_onion_queries;
        break;
    }
  }

  // 2. Deduplicate SJ.Dec work through the per-(table, token) digest cache
  // and collect the batch's pending decryptions. The cache lives for this
  // call only and its units point into the step-0 snapshots, so its row
  // positions can never mix generations.
  auto unit_for = [&](const SeriesPlanState::QueryPlan& plan, bool side_a,
                      const SjToken& token) -> SeriesPlanState::Unit* {
    const EncryptedTable& t = side_a ? *plan.a : *plan.b;
    auto key = std::make_pair(t.name, TokenFingerprint(token));
    auto it = state->units.find(key);
    if (it == state->units.end()) {
      auto unit = std::make_unique<SeriesPlanState::Unit>();
      unit->table = &t;
      unit->row_ids = side_a ? plan.ids_a : plan.ids_b;
      unit->generation = state->snapshots.at(t.name).generation;
      unit->token = &token;
      unit->digests.resize(t.rows.size());
      it = state->units.emplace(std::move(key), std::move(unit)).first;
    }
    return it->second.get();
  };
  // Marks `sel` rows of a unit for decryption; already-marked rows are
  // cache hits (the digest is computed once for the whole series).
  std::map<const SeriesPlanState::Unit*, std::vector<char>> scheduled;
  auto request_rows = [&](SeriesPlanState::Unit* unit,
                          const std::vector<size_t>& sel) {
    std::vector<char>& marks = scheduled[unit];
    marks.resize(unit->digests.size());
    for (size_t r : sel) {
      ++stats->decrypts_requested;
      if (marks[r]) {
        ++stats->digest_cache_hits;
        continue;
      }
      marks[r] = 1;
      state->pending.emplace_back(unit, r);
    }
  };
  for (size_t q = 0; q < series.queries.size(); ++q) {
    // Fast-backend queries are already answered; they request no decrypts
    // (and deliberately stay out of the cross-query digest pass, whose
    // information their full-pattern reveal strictly subsumes).
    if (state->plans[q].backend != BackendKind::kSjoin) continue;
    state->plans[q].unit_a =
        unit_for(state->plans[q], true, series.queries[q].token_a);
    state->plans[q].unit_b =
        unit_for(state->plans[q], false, series.queries[q].token_b);
    request_rows(state->plans[q].unit_a, state->plans[q].sel_a);
    request_rows(state->plans[q].unit_b, state->plans[q].sel_b);
  }
  stats->decrypts_performed = state->pending.size();
  return Status::OK();
}

void EncryptedServer::FinishSeries(SeriesPlanState& state,
                                   EncryptedSeriesResult* out) {
  // 4. Per-query SJ.Match, leakage accounting and payload assembly, in
  // series order (leakage order matters for reproducibility, not for the
  // transitive closure itself).
  Stopwatch match_watch;
  // Digests of `sel` rows out of a fully computed unit, in selection order.
  auto gather = [](const SeriesPlanState::Unit& unit,
                   const std::vector<size_t>& sel) {
    std::vector<Digest32> digests;
    digests.reserve(sel.size());
    for (size_t r : sel) digests.push_back(*unit.digests[r]);
    return digests;
  };
  out->results.reserve(state.plans.size());
  for (SeriesPlanState::QueryPlan& plan : state.plans) {
    // A fast-backend query joins on its tag digests; equal join values
    // produce equal digests either way, so SJ.Match, leakage grouping and
    // payload assembly below are one shared path and the results are
    // byte-identical to the pairing pipeline's (asserted by
    // tests/backend_test.cc).
    const bool fast = plan.backend != BackendKind::kSjoin;
    std::vector<Digest32> da =
        fast ? std::move(plan.fast_da) : gather(*plan.unit_a, plan.sel_a);
    std::vector<Digest32> db =
        fast ? std::move(plan.fast_db) : gather(*plan.unit_b, plan.sel_b);
    out->results.push_back(MatchAndAccount(*plan.a, *plan.b, *plan.ids_a,
                                           *plan.ids_b, plan.sel_a,
                                           plan.sel_b, da, db));
  }
  out->stats.match_seconds = match_watch.Seconds();

  // 5. Cross-query leakage: the adversary compares digests across the
  // WHOLE series, not just within one query. With fresh per-query keys
  // digests never collide across queries (this adds nothing beyond step
  // 4); when a client opted into a shared-key chain, rows with equal join
  // values collide across the chain's queries even without a connecting
  // middle row, and that observation belongs in the tracker too. Note the
  // pass cannot be skipped just because no unit is shared between
  // queries: shared-key collisions also happen across DISTINCT units
  // (e.g. a chain's end tables), and the server cannot see query keys.
  // Its cost mirrors the per-query digest maps of step 4 and is dwarfed
  // by the pairings of step 3.
  if (state.plans.size() > 1) {
    std::map<Digest32, std::vector<RowId>> groups;
    for (const auto& [key, unit] : state.units) {
      int table_id = TableIdFor(unit->table->name);
      for (size_t r = 0; r < unit->digests.size(); ++r) {
        if (!unit->digests[r].has_value()) continue;
        std::vector<RowId>& members = groups[*unit->digests[r]];
        RowId id{table_id, static_cast<size_t>((*unit->row_ids)[r])};
        // Two same-key tokens over one table yield duplicate members.
        if (std::find(members.begin(), members.end(), id) == members.end()) {
          members.push_back(id);
        }
      }
    }
    for (const auto& [digest, members] : groups) {
      if (members.size() >= 2) leakage_.ObserveEqualityGroup(members);
    }
  }

  // The snapshot-isolation receipt: which generation every referenced
  // table was pinned at (what a serial replay must load to reproduce the
  // results bit for bit).
  out->pinned_generations.reserve(state.snapshots.size());
  for (const auto& [name, snap] : state.snapshots) {
    out->pinned_generations.emplace_back(name, snap.generation);
  }

  // The budget-ledger receipt: where every referenced table's
  // leakage budget stands after this batch. A concurrent session may
  // spend between our charges and this read, so the snapshot is
  // best-effort monotone -- spent can only be >= what this batch saw.
  out->stats.budgets.reserve(state.snapshots.size());
  for (const auto& [name, snap] : state.snapshots) {
    int table_id = TableIdFor(name);
    SeriesExecStats::TableBudget b;
    b.table = name;
    b.limit = leakage_.BudgetLimit(table_id);
    b.spent = leakage_.BudgetSpent(table_id);
    b.remaining = leakage_.BudgetRemaining(table_id);
    out->stats.budgets.push_back(std::move(b));
  }
}

Result<EncryptedSeriesResult> EncryptedServer::RunSeries(
    const QuerySeriesTokens& series, const ServerExecOptions& opts,
    const std::function<Placement(const SeriesPlanState&)>& place,
    const DecryptSink& decrypt) {
  EncryptedSeriesResult out;
  out.stats.queries = series.queries.size();
  SeriesPlanState state;
  SJOIN_RETURN_IF_ERROR(BuildSeriesPlan(series, opts, &out.stats, &state));
  const Placement placement = place(state);

  // 3. One batched SJ.Dec pass: the pending rows of every query, grouped
  // into (unit x shard) work units, run through the sink on the shared
  // pool. A local sink fans each unit out again inside the kernel, so a
  // thread that finishes its unit helps with a sibling's chunks. The
  // first failing unit fails the series.
  Stopwatch decrypt_watch;
  std::vector<ShardWorkUnit> work = BuildShardUnits(state, placement);
  std::vector<ShardExecStats> per_shard(std::max<size_t>(placement.shards, 1));
  std::mutex merge_mu;
  Status first_error;
  ThreadPool::Shared().ParallelFor(
      work.size(), opts.num_threads, [&](size_t wi) {
        {
          std::lock_guard<std::mutex> lock(merge_mu);
          if (!first_error.ok()) return;  // a sibling unit already failed
        }
        const ShardWorkUnit& wu = work[wi];
        ShardExecStats local;
        Result<std::vector<Digest32>> digests = decrypt(wu, &local);
        if (digests.ok()) {
          // Merge back by original row position -- what makes every
          // placement byte-identical to unsharded. Work units partition
          // the pending rows, so sibling merges never overlap.
          SJOIN_CHECK(digests->size() == wu.rows.size());
          for (size_t i = 0; i < wu.rows.size(); ++i) {
            wu.unit->digests[wu.rows[i]] = (*digests)[i];
          }
        }
        std::lock_guard<std::mutex> lock(merge_mu);
        if (!digests.ok()) {
          if (first_error.ok()) first_error = digests.status();
          return;
        }
        AddShardStats(&per_shard[wu.shard], local);
      });
  if (!first_error.ok()) return first_error;

  // The series totals are the per-shard sums; the SeriesExecStats
  // identities are checked here, where the counters are produced (a
  // delegate's counters were already checked against its bitmap).
  SeriesExecStats& s = out.stats;
  const size_t planned = s.decrypts_performed;
  s.decrypts_performed = 0;
  for (const ShardExecStats& shard : per_shard) AddShardStats(&s, shard);
  SJOIN_CHECK(s.decrypts_performed == planned);
  SJOIN_CHECK(s.decrypts_requested ==
              s.decrypts_performed + s.digest_cache_hits);
  SJOIN_CHECK(s.decrypts_performed ==
              s.pairings_computed + s.prepared_pairings);
  SJOIN_CHECK(s.prepared_pairings ==
              s.prepared_rows_built + s.prepared_cache_hits);
  if (placement.shards > 0) {
    s.shards = placement.shards;
    s.shard_stats = std::move(per_shard);
  }
  s.decrypt_seconds = decrypt_watch.Seconds();

  FinishSeries(state, &out);
  return out;
}

PreparedRowCache* EncryptedServer::SharedCache(const ServerExecOptions& opts) {
  if (opts.prepared_cache_bytes == 0) return nullptr;
  prepared_cache_.set_max_bytes(opts.prepared_cache_bytes);
  return &prepared_cache_;
}

EncryptedServer::DecryptSink EncryptedServer::LocalSink(
    PreparedRowCache* cache, int num_threads) {
  return [cache, num_threads](const ShardWorkUnit& wu, ShardExecStats* stats) {
    return wu.unit->Decrypt(wu.rows, cache, num_threads, stats);
  };
}

Result<EncryptedSeriesResult> EncryptedServer::ExecuteJoinSeries(
    const QuerySeriesTokens& series, const ServerExecOptions& opts) {
  // One implicit shard, reported as unsharded (shards = 0), decrypting
  // through the shared prepared-row cache: a row touched before -- under
  // any token, by any series, in any generation it survived into (keys
  // are STABLE row ids) -- decrypts via line evaluation alone.
  return RunSeries(
      series, opts,
      [](const SeriesPlanState&) { return Placement{}; },
      LocalSink(SharedCache(opts), opts.num_threads));
}

Result<EncryptedSeriesResult> EncryptedServer::ExecuteJoinSeriesSharded(
    const QuerySeriesTokens& series, const ServerExecOptions& opts) {
  // Effective K: the server option, clamped to the largest referenced
  // table, so no empty shard gets a pool task. Each table routes under its
  // own clamp (smaller tables land on the low shard ids). An empty series
  // has no shards; any other has at least one (there is still a merge to
  // report). Routing is a pure function of the row's ciphertext, so the
  // cache -- keyed by stable row id -- is the same one every path uses.
  const size_t requested = static_cast<size_t>(std::max(opts.num_shards, 1));
  auto place = [&](const SeriesPlanState& state) {
    size_t max_rows = 1;
    for (const auto& [key, unit] : state.units) {
      max_rows = std::max(max_rows, unit->table->rows.size());
    }
    const size_t k = series.queries.empty()
                         ? 0
                         : ShardedTable::ClampShardCount(max_rows, requested);
    return Placement{k,
                     [k](const EncryptedTable* t, size_t row) {
                       return ShardedTable::ShardOfDigest(
                           ShardedTable::RowDigest(t->rows[row]),
                           ShardedTable::ClampShardCount(t->rows.size(), k));
                     }};
  };
  return RunSeries(series, opts, place,
                   LocalSink(SharedCache(opts), opts.num_threads));
}

Result<EncryptedSeriesResult> EncryptedServer::ExecuteJoinSeriesDelegated(
    const QuerySeriesTokens& series, const ServerExecOptions& opts,
    size_t groups, const RequestGroupFn& group_of,
    const ShardDecryptFn& decrypt) {
  // One call per (unit x group): fewer, bigger requests amortize the
  // round trip.
  PreparedRowCache* fallback_cache = SharedCache(opts);
  return RunSeries(
      series, opts,
      [&](const SeriesPlanState&) {
        return Placement{series.queries.empty() ? 0 : groups,
                         [&](const EncryptedTable* t, size_t row) {
                           const size_t group = group_of(t->rows[row]);
                           SJOIN_CHECK(group < groups);
                           return group;
                         }};
      },
      [&](const ShardWorkUnit& wu,
          ShardExecStats* stats) -> Result<std::vector<Digest32>> {
        const SeriesPlanState::Unit& unit = *wu.unit;
        ShardDecryptRequest req;
        req.table = unit.table->name;
        req.generation = unit.generation;
        req.shard = static_cast<uint32_t>(wu.shard);
        req.token = *unit.token;
        req.rows.reserve(wu.rows.size());
        for (size_t row : wu.rows) req.rows.push_back((*unit.row_ids)[row]);
        Result<ShardDecryptResponse> resp = decrypt(req);
        SJOIN_RETURN_IF_ERROR(resp.status());
        SJOIN_RETURN_IF_ERROR(CheckShardResponse(req, *resp));
        *stats = resp->stats;

        // Rows the worker does not hold (a mutation slice it missed while
        // down; an all-zero bitmap when every replica is unreachable)
        // decrypt from the pinned snapshot through the kernel on the
        // shared cache: SJ.Dec sees only (ciphertext, token), so the
        // digests are what the worker would have answered. A request
        // carries its group's whole share of the unit, so the kernel fans
        // the fallback out over the pool rather than this one thread.
        std::vector<size_t> missing;
        for (size_t i = 0; i < wu.rows.size(); ++i) {
          if (!resp->have[i]) missing.push_back(wu.rows[i]);
        }
        std::vector<Digest32> local =
            unit.Decrypt(missing, fallback_cache, opts.num_threads, stats);
        std::vector<Digest32> digests;
        digests.reserve(wu.rows.size());
        for (size_t i = 0, remote = 0, fallback = 0; i < wu.rows.size(); ++i) {
          digests.push_back(resp->have[i] ? resp->digests[remote++]
                                          : local[fallback++]);
        }
        return digests;
      });
}

void EncryptedServer::SubmitJoinSeriesAsync(
    QuerySeriesTokens series, ServerExecOptions opts,
    std::function<void(Result<EncryptedSeriesResult>)> done) {
  Schedule(
      scheduler_, RequestScheduler::Kind::kRead, "", std::move(series),
      [this, opts](const QuerySeriesTokens& s) {
        return ExecuteJoinSeries(s, opts);
      },
      std::move(done));
}

void EncryptedServer::SubmitMutationAsync(
    TableMutation mutation, std::function<void(Result<MutationResult>)> done) {
  std::string table = mutation.table;
  Schedule(
      scheduler_, RequestScheduler::Kind::kMutation, std::move(table),
      std::move(mutation),
      [this](const TableMutation& m) { return ApplyMutation(m); },
      std::move(done));
}

std::future<Result<EncryptedSeriesResult>> EncryptedServer::SubmitJoinSeries(
    QuerySeriesTokens series, ServerExecOptions opts) {
  return ToFuture<EncryptedSeriesResult>([&](auto done) {
    SubmitJoinSeriesAsync(std::move(series), opts, std::move(done));
  });
}

std::future<Result<MutationResult>> EncryptedServer::SubmitMutation(
    TableMutation mutation) {
  return ToFuture<MutationResult>([&](auto done) {
    SubmitMutationAsync(std::move(mutation), std::move(done));
  });
}

}  // namespace sjoin
