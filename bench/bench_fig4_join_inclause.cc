// Figure 4 reproduction: server-side join runtime (SJ.Dec + SJ.Match) at
// scale factor 0.01 as the IN-clause size t varies from 1 to 10, for
// selectivities s in {1/100, 1/50, 1/25, 1/12.5}.
//
// The per-row SJ.Dec cost grows linearly in t (vector dimension m(t+1)+3);
// the selected-row count is fixed by SF and s. Quick mode measures the
// per-row cost for every t on real ciphertexts and derives the series;
// SJOIN_BENCH_FULL=1 runs every (t, s) join for real.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "db/client.h"
#include "db/server.h"
#include "tpch/tpch.h"

namespace sjoin {
namespace {

constexpr double kScaleFactor = 0.01;

JoinQuerySpec SelectivityQuery(double s, size_t in_clause_size) {
  JoinQuerySpec q;
  q.table_a = "Customers";
  q.table_b = "Orders";
  q.join_column_a = "custkey";
  q.join_column_b = "custkey";
  // IN clause of size t: the target selectivity value plus t-1 fillers that
  // match no row (the paper varies the clause size at fixed selectivity).
  std::vector<Value> values = {Value(SelectivityLabel(s))};
  for (size_t i = 1; i < in_clause_size; ++i) {
    values.push_back(Value("filler-" + std::to_string(i)));
  }
  q.selection_a.predicates = {{"selectivity", values}};
  q.selection_b.predicates = {{"selectivity", values}};
  return q;
}

double PaperEstimate(size_t t, double s) {
  double at_s100 =
      benchutil::Interp(static_cast<double>(t), 1, benchutil::kPaperFig4T1S100,
                        10, benchutil::kPaperFig4T10S100);
  return at_s100 * (s * 100.0);
}

// Per-row SJ.Dec cost for a given t, measured on real ciphertexts.
double MeasurePerRowDecSeconds(size_t t) {
  EncryptedClient client({.num_attrs = benchutil::kPaperNumAttrs,
                          .max_in_clause = t,
                          .rng_seed = 8200 + t});
  Table customers = GenerateCustomers({.scale_factor = 0.0001});  // 15 rows
  auto enc = client.EncryptTable(customers, "custkey");
  SJOIN_CHECK(enc.ok());
  JoinQuerySpec q = SelectivityQuery(1 / 12.5, t);
  q.table_b = "Customers";  // self-join shape: only token_a is used below
  auto tokens = client.BuildQueryTokens(q, *enc, *enc);
  SJOIN_CHECK(tokens.ok());
  std::vector<SjRowCiphertext> cts;
  for (const auto& r : enc->rows) cts.push_back(r.sj);
  double per_batch = benchutil::TimePerCall(
      [&] { SecureJoin::DecryptRows(tokens->token_a, cts, 1); }, 1, 0.3);
  return per_batch / static_cast<double>(cts.size());
}

void RunQuick() {
  size_t n_c = static_cast<size_t>(kTpchCustomersBaseRows * kScaleFactor);
  size_t n_o = static_cast<size_t>(kTpchOrdersBaseRows * kScaleFactor);

  std::printf("%3s  %14s  %9s  %13s  %14s  %15s\n", "t", "per-row Dec(ms)",
              "s", "selected rows", "this impl (s)", "paper (s)");
  for (size_t t = 1; t <= 10; ++t) {
    double per_row = MeasurePerRowDecSeconds(t);
    for (double s : {1 / 100.0, 1 / 50.0, 1 / 25.0, 1 / 12.5}) {
      size_t selected = static_cast<size_t>(n_c * s + n_o * s);
      double est = per_row * static_cast<double>(selected);
      std::printf("%3zu  %14.2f  %9s  %13zu  %14.2f  %15.2f\n", t,
                  per_row * 1e3, SelectivityLabel(s).c_str(), selected, est,
                  PaperEstimate(t, s));
    }
    std::fflush(stdout);
  }
  std::printf(
      "\npaper anchors (SF 0.01): (t=1, s=1/100) %.2fs, (t=10, s=1/100) "
      "%.2fs,\n                         (t=1, s=1/12.5) %.2fs, (t=10, "
      "s=1/12.5) %.2fs\n",
      benchutil::kPaperFig4T1S100, benchutil::kPaperFig4T10S100,
      benchutil::kPaperFig4T1S125, benchutil::kPaperFig4T10S125);
  std::printf(
      "expected shape: linear growth in t for every s; larger s amplifies "
      "the slope.\n");
}

void RunFull() {
  Table customers = GenerateCustomers({.scale_factor = kScaleFactor});
  Table orders = GenerateOrders({.scale_factor = kScaleFactor});
  std::printf("%3s  %9s  %13s  %14s  %15s\n", "t", "s", "selected rows",
              "this impl (s)", "paper (s)");
  for (size_t t = 1; t <= 10; ++t) {
    EncryptedClient client({.num_attrs = benchutil::kPaperNumAttrs,
                            .max_in_clause = t,
                            .rng_seed = 8300 + t});
    EncryptedServer server;
    auto enc_c = client.EncryptTable(customers, "custkey");
    auto enc_o = client.EncryptTable(orders, "custkey");
    SJOIN_CHECK(enc_c.ok() && enc_o.ok());
    SJOIN_CHECK(server.StoreTable(*enc_c).ok());
    SJOIN_CHECK(server.StoreTable(*enc_o).ok());
    for (double s : {1 / 100.0, 1 / 50.0, 1 / 25.0, 1 / 12.5}) {
      auto tokens =
          client.BuildQueryTokens(SelectivityQuery(s, t), *enc_c, *enc_o);
      SJOIN_CHECK(tokens.ok());
      auto result = server.ExecuteJoin(*tokens, {.prepared_cache_bytes = 0});
      SJOIN_CHECK(result.ok());
      double secs =
          result->stats.decrypt_seconds + result->stats.match_seconds;
      std::printf("%3zu  %9s  %13zu  %14.2f  %15.2f\n", t,
                  SelectivityLabel(s).c_str(),
                  result->stats.rows_selected_a +
                      result->stats.rows_selected_b,
                  secs, PaperEstimate(t, s));
      std::fflush(stdout);
    }
  }
}

}  // namespace
}  // namespace sjoin

int main() {
  sjoin::benchutil::PrintHeader(
      "Figure 4: join runtime vs IN-clause size (SF 0.01)");
  if (sjoin::benchutil::FullMode()) {
    sjoin::RunFull();
  } else {
    sjoin::RunQuick();
  }
  return 0;
}
