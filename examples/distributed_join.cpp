// Distributed deployment in one file: a Coordinator fanning the SJ.Dec
// pass of a join series out to two ShardWorker TcpServers on loopback,
// with live membership changes and mutation routing.
//
//   $ ./build/examples/distributed_join
//
// What this demonstrates (src/dist/, docs/ARCHITECTURE.md "Distributed
// execution"):
//  - placement: rows hash to K placement shards, and the coordinator's
//    owner table spreads the shards evenly over the workers -- adding a
//    worker moves (and re-uploads) only the shards it now owns;
//  - delegation: planning, SSE pre-filters, SJ.Match and the leakage
//    ledger stay on the coordinator; workers see only (ciphertext,
//    token) decrypt slices, and the merged results are byte-identical
//    to single-node execution;
//  - mutation routing: a delete/insert batch applies locally first,
//    then exactly the owning workers receive their slices;
//  - recovery: removing a worker re-homes its shards and the next
//    series works again.
#include <cstdio>
#include <string>

#include "db/client.h"
#include "db/server.h"
#include "dist/coordinator.h"
#include "dist/worker.h"
#include "net/tcp_server.h"

using namespace sjoin;  // NOLINT: example code

namespace {

Table MakeTable(const std::string& name, size_t rows, size_t distinct) {
  Table t(name, Schema({{"k", ValueKind::kInt64},
                        {"payload", ValueKind::kString}}));
  for (size_t i = 0; i < rows; ++i) {
    SJOIN_CHECK(t.AppendRow({static_cast<int64_t>(i % distinct),
                             name + "#" + std::to_string(i)})
                    .ok());
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

/// One worker process, in-process: engine (unused by shard traffic),
/// shard handler, TCP front-end.
struct Worker {
  EncryptedServer engine;
  ShardWorker handler;
  TcpServer server;

  Worker() : server(&engine, WithHandler()) { SJOIN_CHECK(server.Start().ok()); }
  TcpServerOptions WithHandler() {
    TcpServerOptions opts;
    opts.shard_handler = &handler;
    return opts;
  }
};

}  // namespace

int main() {
  // --- Cluster: a coordinator and two workers ------------------------------
  Coordinator coord({.num_shards = 16});
  Worker w1, w2;
  SJOIN_CHECK(coord.AddWorker("w1", "127.0.0.1", w1.server.port()).ok());
  SJOIN_CHECK(coord.AddWorker("w2", "127.0.0.1", w2.server.port()).ok());
  std::printf("cluster: w1 on :%u, w2 on :%u, %zu placement shards\n\n",
              w1.server.port(), w2.server.port(), coord.num_shards());

  // --- Upload: each shard lands on its owner (8 of the 16 on each) ---------
  EncryptedClient client({.num_attrs = 1, .max_in_clause = 1, .rng_seed = 11});
  auto orders = client.EncryptTable(MakeTable("Orders", 12, 4), "k");
  auto customers = client.EncryptTable(MakeTable("Customers", 9, 4), "k");
  SJOIN_CHECK(orders.ok() && customers.ok());
  SJOIN_CHECK(coord.StoreTable(*orders).ok());
  SJOIN_CHECK(coord.StoreTable(*customers).ok());
  auto health1 = coord.WorkerHealth("w1");
  auto health2 = coord.WorkerHealth("w2");
  SJOIN_CHECK(health1.ok() && health2.ok());
  std::printf("uploaded: w1 holds %llu rows, w2 holds %llu rows\n",
              static_cast<unsigned long long>(health1->rows_held),
              static_cast<unsigned long long>(health2->rows_held));

  // --- A series: decrypt slices fan out, results merge locally -------------
  auto series = client.PrepareSeries({Spec("Orders", "Customers")},
                                     {&*orders, &*customers});
  SJOIN_CHECK(series.ok());
  auto result = coord.ExecuteSeries(*series);
  SJOIN_CHECK(result.ok());
  std::printf("distributed series: %zu matched pairs, %llu decrypt rpcs\n\n",
              result->results[0].row_pairs.size(),
              static_cast<unsigned long long>(coord.stats().decrypt_rpcs));

  // --- A mutation: slices go to exactly the owning workers -----------------
  auto ins = client.PrepareInsert(*orders, MakeTable("Orders", 2, 2));
  SJOIN_CHECK(ins.ok());
  auto ack = coord.ApplyMutation(*ins);
  SJOIN_CHECK(ack.ok());
  auto again = coord.ExecuteSeries(*series);
  SJOIN_CHECK(again.ok());
  std::printf("after insert (generation %llu): %zu matched pairs\n\n",
              static_cast<unsigned long long>(ack->generation),
              again->results[0].row_pairs.size());

  // --- Membership: a third worker joins, only moved shards re-upload ------
  Coordinator::Stats before = coord.stats();
  Worker w3;
  SJOIN_CHECK(coord.AddWorker("w3", "127.0.0.1", w3.server.port()).ok());
  Coordinator::Stats after = coord.stats();
  std::printf("w3 joined: %llu shard uploads (%llu rows) moved to it\n",
              static_cast<unsigned long long>(after.shard_uploads -
                                              before.shard_uploads),
              static_cast<unsigned long long>(after.rows_uploaded -
                                              before.rows_uploaded));

  // --- Recovery: drop a worker, its shards re-home, series still work ------
  SJOIN_CHECK(coord.RemoveWorker("w1").ok());
  auto healed = coord.ExecuteSeries(*series);
  SJOIN_CHECK(healed.ok());
  std::printf("w1 removed: series still returns %zu matched pairs\n",
              healed->results[0].row_pairs.size());
  return 0;
}
