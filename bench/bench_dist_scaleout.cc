// Distributed scale-out: coordinator + W loopback workers vs the
// single-node sharded executor on the same warm series workload.
//
//   $ ./build/bench/bench_dist_scaleout
//
// Phase 1 (baseline): one caller loops ExecuteJoinSeriesSharded on a
// local engine. The per-series digest cache means every series re-runs
// the full SJ.Dec pass -- exactly the work the coordinator delegates.
//
// Phase 2 (scale-out): for W in {1, 2, 4} at R=1, plus W=2 at R=2 (every
// shard on both workers: the fault-tolerant layout), a Coordinator with W
// in-process ShardWorkers behind real loopback TcpServers runs the same
// series in a loop: planning and merge stay local, the batched decrypt
// requests travel the framed wire protocol to the owning workers, one per
// (decrypt unit x failover chain) -- at R=1, one per unit and worker.
// Replication costs upload-time copies, not decrypt-time work -- each
// request still goes to one (primary) replica, so R=2 throughput should
// track W=2 R=1 closely.
//
// Reported: series/s per configuration, the ratio to the single-node
// baseline, and each worker's digests_computed over the run with their
// max/mean (1.00 = the owner table split the work evenly). Acceptance
// (exit 1 on failure): W=1 -- where delegation buys nothing and costs
// one wire round-trip per decrypt unit -- must stay >= 70% of
// single-node throughput. Env knobs: SJOIN_BENCH_FULL=1
// for a larger table and longer wall budget; SJOIN_BENCH_DIST_SECONDS
// for the per-phase budget.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "db/client.h"
#include "db/server.h"
#include "dist/coordinator.h"
#include "dist/worker.h"
#include "net/tcp_server.h"

using namespace sjoin;  // NOLINT: benchmark harness

namespace {

Table MakeTable(const std::string& name, size_t rows, size_t distinct_keys) {
  Table t(name, Schema({{"k", ValueKind::kInt64},
                        {"payload", ValueKind::kString}}));
  for (size_t i = 0; i < rows; ++i) {
    int64_t key = static_cast<int64_t>(i % distinct_keys);
    SJOIN_CHECK(t.AppendRow({key, name + "#" + std::to_string(i)}).ok());
  }
  return t;
}

JoinQuerySpec Spec(const std::string& a, const std::string& b) {
  JoinQuerySpec q;
  q.table_a = a;
  q.table_b = b;
  q.join_column_a = q.join_column_b = "k";
  return q;
}

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoi(v) : fallback;
}

using Clock = std::chrono::steady_clock;

/// Runs `series` in a loop for `seconds` of wall time (one warm-up call
/// first) and returns series per second.
template <typename Fn>
double MeasureQps(double seconds, Fn&& run_once) {
  run_once();  // warm-up: prepared-row caches, connections
  uint64_t done = 0;
  auto t0 = Clock::now();
  auto deadline = t0 + std::chrono::duration<double>(seconds);
  do {
    run_once();
    ++done;
  } while (Clock::now() < deadline);
  double elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  return static_cast<double>(done) / elapsed;
}

}  // namespace

int main() {
  const bool full = benchutil::FullMode();
  const size_t rows = full ? 96 : 16;
  const double seconds = EnvInt("SJOIN_BENCH_DIST_SECONDS", full ? 10 : 2);

  std::printf("== Distributed scale-out (coordinator + loopback workers) ==\n");
  std::printf("rows/table %zu, %.0fs per configuration%s\n\n", rows, seconds,
              full ? " (full)" : " (quick)");

  EncryptedClient client({.num_attrs = 1, .max_in_clause = 1, .rng_seed = 17});
  auto enc_x = client.EncryptTable(MakeTable("X", rows, rows / 4), "k");
  auto enc_y = client.EncryptTable(MakeTable("Y", rows, rows / 4), "k");
  SJOIN_CHECK(enc_x.ok() && enc_y.ok());
  auto series = client.PrepareSeries({Spec("X", "Y"), Spec("Y", "X")},
                                     {&*enc_x, &*enc_y});
  SJOIN_CHECK(series.ok());

  // --- Phase 1: single-node sharded baseline --------------------------------
  double baseline_qps = 0;
  {
    EncryptedServer engine;
    SJOIN_CHECK(engine.StoreTable(*enc_x).ok());
    SJOIN_CHECK(engine.StoreTable(*enc_y).ok());
    baseline_qps = MeasureQps(seconds, [&] {
      SJOIN_CHECK(engine.ExecuteJoinSeriesSharded(*series, {}).ok());
    });
    std::printf("single-node            %10.1f series/s\n", baseline_qps);
  }

  // --- Phase 2: coordinator + W loopback workers ----------------------------
  struct WorkerProc {
    EncryptedServer engine;
    ShardWorker handler;
    std::optional<TcpServer> server;
  };
  struct Config {
    int workers;
    size_t replication;
  };
  const std::vector<Config> configs = {{1, 1}, {2, 1}, {4, 1}, {2, 2}};
  double w1_qps = 0;
  for (const Config& cfg : configs) {
    Coordinator coord({.num_shards = 8, .replication = cfg.replication});
    std::deque<WorkerProc> workers;
    for (int w = 0; w < cfg.workers; ++w) {
      WorkerProc& proc = workers.emplace_back();
      TcpServerOptions opts;
      opts.shard_handler = &proc.handler;
      proc.server.emplace(&proc.engine, opts);
      SJOIN_CHECK(proc.server->Start().ok());
      SJOIN_CHECK(coord.AddWorker("w" + std::to_string(w + 1), "127.0.0.1",
                                  proc.server->port())
                      .ok());
    }
    SJOIN_CHECK(coord.StoreTable(*enc_x).ok());
    SJOIN_CHECK(coord.StoreTable(*enc_y).ok());
    auto digests_computed = [&] {
      std::vector<uint64_t> digests;
      for (const std::string& id : coord.worker_ids()) {
        auto health = coord.WorkerHealth(id);
        SJOIN_CHECK(health.ok());
        digests.push_back(health->digests_computed);
      }
      return digests;
    };
    const std::vector<uint64_t> digests_before = digests_computed();
    double qps = MeasureQps(seconds, [&] {
      SJOIN_CHECK(coord.ExecuteSeries(*series).ok());
    });
    std::vector<uint64_t> digests = digests_computed();
    uint64_t most = 0, total = 0;
    for (size_t w = 0; w < digests.size(); ++w) {
      digests[w] -= digests_before[w];
      most = std::max(most, digests[w]);
      total += digests[w];
    }
    Coordinator::Stats st = coord.stats();
    SJOIN_CHECK(st.decrypt_rpcs > 0);   // the loop really delegated
    SJOIN_CHECK(st.local_fallback_units == 0);  // and nothing fell back
    std::printf("coordinator W=%d R=%zu    %10.1f series/s   (%3.0f%% of "
                "single-node, %llu decrypt rpcs)\n",
                cfg.workers, cfg.replication, qps, 100.0 * qps / baseline_qps,
                static_cast<unsigned long long>(st.decrypt_rpcs));
    std::printf("    digests per worker:");
    for (uint64_t d : digests) {
      std::printf(" %llu", static_cast<unsigned long long>(d));
    }
    std::printf("   (max/mean %.2f)\n",
                total > 0 ? static_cast<double>(most) * digests.size() /
                                static_cast<double>(total)
                          : 0.0);
    if (cfg.workers == 1 && cfg.replication == 1) w1_qps = qps;
  }

  const double ratio = baseline_qps > 0 ? w1_qps / baseline_qps : 0;
  std::printf("\nW=1 vs single-node: %.0f%% (target >= 70%%)\n",
              100.0 * ratio);
  if (ratio < 0.7) {
    std::printf("BELOW TARGET: one-worker delegation is adding more than "
                "30%% overhead over local sharded execution\n");
    return 1;
  }
  return 0;
}
