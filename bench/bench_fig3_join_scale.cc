// Figure 3 reproduction: server-side join runtime (SJ.Dec + SJ.Match) over
// the encrypted TPC-H Customers/Orders tables as the scale factor varies
// from 0.01 to 0.1, for selectivities s in {1/100, 1/50, 1/25, 1/12.5} and a
// single-value IN clause (t = 1).
//
// The paper's runtime is (selected rows) x (per-row SJ.Dec cost) -- the
// selection pre-filter and the digest hash join are negligible next to the
// pairings. Quick mode measures the per-row cost on real ciphertexts plus
// one fully real miniature join to validate the model, then derives the
// full-scale series; SJOIN_BENCH_FULL=1 encrypts and joins everything.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "db/client.h"
#include "db/plaintext_exec.h"
#include "db/server.h"
#include "tpch/tpch.h"

namespace sjoin {
namespace {

JoinQuerySpec SelectivityQuery(double s) {
  JoinQuerySpec q;
  q.table_a = "Customers";
  q.table_b = "Orders";
  q.join_column_a = "custkey";
  q.join_column_b = "custkey";
  q.selection_a.predicates = {{"selectivity", {Value(SelectivityLabel(s))}}};
  q.selection_b.predicates = {{"selectivity", {Value(SelectivityLabel(s))}}};
  return q;
}

double PaperEstimate(double sf, double s) {
  // The paper reports anchors at s = 1/100 for SF 0.01 and 0.1 and linear
  // behaviour in both SF and s.
  double at_s100 =
      benchutil::Interp(sf, 0.01, benchutil::kPaperFig3Sf001S100, 0.1,
                        benchutil::kPaperFig3Sf01S100);
  return at_s100 * (s * 100.0);
}

// Measures per-row SJ.Dec cost (t = 1, m = 9) on real ciphertexts.
double MeasurePerRowDecSeconds() {
  EncryptedClient client({.num_attrs = benchutil::kPaperNumAttrs,
                          .max_in_clause = 1,
                          .rng_seed = 8001});
  Table customers = GenerateCustomers({.scale_factor = 0.0004});  // 60 rows
  auto enc = client.EncryptTable(customers, "custkey");
  SJOIN_CHECK(enc.ok());
  JoinQuerySpec q = SelectivityQuery(1 / 12.5);
  q.table_b = "Customers";  // self-join shape: only token_a is used below
  // Token for side A only; decrypt all sample rows with it.
  auto tokens = client.BuildQueryTokens(q, *enc, *enc);
  SJOIN_CHECK(tokens.ok());
  std::vector<SjRowCiphertext> cts;
  for (const auto& r : enc->rows) cts.push_back(r.sj);
  double per_batch = benchutil::TimePerCall(
      [&] { SecureJoin::DecryptRows(tokens->token_a, cts, 1); }, 1, 0.5);
  return per_batch / static_cast<double>(cts.size());
}

// One fully real miniature join (SF 0.001) to validate the per-row model.
void ValidateModel(double per_row_sec) {
  const double sf = 0.001;
  const double s = 1 / 12.5;
  EncryptedClient client({.num_attrs = benchutil::kPaperNumAttrs,
                          .max_in_clause = 1,
                          .rng_seed = 8002});
  EncryptedServer server;
  Table customers = GenerateCustomers({.scale_factor = sf});
  Table orders = GenerateOrders({.scale_factor = sf});
  auto enc_c = client.EncryptTable(customers, "custkey");
  auto enc_o = client.EncryptTable(orders, "custkey");
  SJOIN_CHECK(enc_c.ok() && enc_o.ok());
  SJOIN_CHECK(server.StoreTable(*enc_c).ok());
  SJOIN_CHECK(server.StoreTable(*enc_o).ok());
  JoinQuerySpec q = SelectivityQuery(s);
  auto tokens = client.BuildQueryTokens(q, *enc_c, *enc_o);
  SJOIN_CHECK(tokens.ok());
  auto result = server.ExecuteJoin(*tokens, {.prepared_cache_bytes = 0});
  SJOIN_CHECK(result.ok());
  auto expect = PlaintextHashJoin(customers, orders, q);
  SJOIN_CHECK(expect.ok());
  SJOIN_CHECK(result->stats.result_pairs == expect->size());
  size_t selected =
      result->stats.rows_selected_a + result->stats.rows_selected_b;
  double measured = result->stats.decrypt_seconds + result->stats.match_seconds;
  double modeled = per_row_sec * static_cast<double>(selected);
  std::printf(
      "model validation (real join, SF %.3f, s=1/12.5): %zu selected rows, "
      "measured %.2fs,\n  per-row model predicts %.2fs (%.0f%% of measured); "
      "%zu result pairs == plaintext ground truth\n\n",
      sf, selected, measured, modeled, 100.0 * modeled / measured,
      result->stats.result_pairs);
}

void RunQuick() {
  double per_row = MeasurePerRowDecSeconds();
  std::printf("measured per-row SJ.Dec cost (t=1, m=9, dim=21): %.2f ms\n\n",
              per_row * 1e3);
  ValidateModel(per_row);

  std::printf("%6s  %9s  %13s  %14s  %15s\n", "SF", "s", "selected rows",
              "this impl (s)", "paper (s)");
  for (int i = 1; i <= 10; ++i) {
    double sf = 0.01 * i;
    size_t n_c = static_cast<size_t>(kTpchCustomersBaseRows * sf);
    size_t n_o = static_cast<size_t>(kTpchOrdersBaseRows * sf);
    for (double s : {1 / 100.0, 1 / 50.0, 1 / 25.0, 1 / 12.5}) {
      size_t selected = static_cast<size_t>(n_c * s + n_o * s);
      double est = per_row * static_cast<double>(selected);
      std::printf("%6.2f  %9s  %13zu  %14.2f  %15.2f\n", sf,
                  SelectivityLabel(s).c_str(), selected, est,
                  PaperEstimate(sf, s));
    }
  }
  std::printf(
      "\npaper anchors: (SF 0.01, s=1/100) %.2fs, (SF 0.1, s=1/100) %.2fs,\n"
      "               (SF 0.01, s=1/12.5) %.2fs, (SF 0.1, s=1/12.5) %.2fs\n",
      benchutil::kPaperFig3Sf001S100, benchutil::kPaperFig3Sf01S100,
      benchutil::kPaperFig3Sf001S125, benchutil::kPaperFig3Sf01S125);
  std::printf(
      "expected shape: linear in SF for every s; ~8x between s=1/100 and "
      "s=1/12.5 at fixed SF.\n");
}

void RunFull() {
  std::printf("%6s  %9s  %13s  %14s  %15s\n", "SF", "s", "selected rows",
              "this impl (s)", "paper (s)");
  for (int i = 1; i <= 10; ++i) {
    double sf = 0.01 * i;
    EncryptedClient client({.num_attrs = benchutil::kPaperNumAttrs,
                            .max_in_clause = 1,
                            .rng_seed = 8100 + static_cast<uint64_t>(i)});
    EncryptedServer server;
    Table customers = GenerateCustomers({.scale_factor = sf});
    Table orders = GenerateOrders({.scale_factor = sf});
    auto enc_c = client.EncryptTable(customers, "custkey");
    auto enc_o = client.EncryptTable(orders, "custkey");
    SJOIN_CHECK(enc_c.ok() && enc_o.ok());
    SJOIN_CHECK(server.StoreTable(*enc_c).ok());
    SJOIN_CHECK(server.StoreTable(*enc_o).ok());
    for (double s : {1 / 100.0, 1 / 50.0, 1 / 25.0, 1 / 12.5}) {
      JoinQuerySpec q = SelectivityQuery(s);
      auto tokens = client.BuildQueryTokens(q, *enc_c, *enc_o);
      SJOIN_CHECK(tokens.ok());
      auto result = server.ExecuteJoin(*tokens, {.prepared_cache_bytes = 0});
      SJOIN_CHECK(result.ok());
      double secs =
          result->stats.decrypt_seconds + result->stats.match_seconds;
      std::printf("%6.2f  %9s  %13zu  %14.2f  %15.2f\n", sf,
                  SelectivityLabel(s).c_str(),
                  result->stats.rows_selected_a +
                      result->stats.rows_selected_b,
                  secs, PaperEstimate(sf, s));
      std::fflush(stdout);
    }
  }
}

}  // namespace
}  // namespace sjoin

int main() {
  sjoin::benchutil::PrintHeader(
      "Figure 3: join runtime vs TPC-H scale factor (t=1)");
  if (sjoin::benchutil::FullMode()) {
    sjoin::RunFull();
  } else {
    sjoin::RunQuick();
  }
  return 0;
}
