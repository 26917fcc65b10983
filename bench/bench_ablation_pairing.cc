// Ablation A1 (DESIGN.md): costs of the pairing substrate primitives,
// multi-pairing vs. naive per-slot pairings, and -- since the batch-optimized
// core landed -- each optimization measured against the in-process reference
// it must beat:
//
//   lazy-reduction tower        vs. Fp2/Fp12 MulReference (schoolbook)
//   xi-multiply (one 9x + y reduction) vs. the two-MulSmall(9) form
//   Granger-Scott cyclotomic    vs. generic Fp12 squaring
//   GLV two-dimensional         vs. generic width-4 wNAF (ScalarMulWnaf)
//   batched final exponentiation vs. per-element FinalExponentiation
//   batched SJ.Dec kernel       vs. per-row DecryptToDigest
//   prepared SJ.Dec (normalized lines) vs. cold SJ.Dec, both batched
//
// Self-contained (no Google Benchmark). `--json` emits one machine-readable
// object and enforces conservative speedup floors on the ratios above,
// exiting non-zero on a miss -- CI runs this as the perf smoke test, so a
// dispatch or kernel regression fails the build instead of shipping.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <random>
#include <vector>

#include "bench/bench_util.h"
#include "core/scheme.h"
#include "crypto/rng.h"
#include "ec/fixed_base.h"
#include "ec/glv.h"
#include "field/mont_accel.h"
#include "pairing/pairing.h"

namespace sjoin {
namespace {

// Prevents dead-code elimination of a benchmark result.
volatile uint64_t g_sink;
template <typename T>
void Sink(const T& v) {
  g_sink = g_sink + reinterpret_cast<const volatile unsigned char*>(&v)[0];
}

Fr RandomFr(std::mt19937_64* gen) {
  std::array<uint8_t, 64> b;
  for (auto& x : b) x = static_cast<uint8_t>((*gen)());
  return Fr::FromUniformBytes(b.data());
}

Fp2 RandomFp2(std::mt19937_64* gen) {
  std::array<uint8_t, 64> b;
  for (auto& x : b) x = static_cast<uint8_t>((*gen)());
  Fp a = Fp::FromUniformBytes(b.data());
  for (auto& x : b) x = static_cast<uint8_t>((*gen)());
  return Fp2(a, Fp::FromUniformBytes(b.data()));
}

/// ns per op for a tight field-arithmetic loop: `op` maps acc -> acc so the
/// chain has a data dependency the compiler cannot collapse.
template <typename T, typename Op>
double NanosPerOp(T acc, Op&& op, int iters = 20000) {
  // Warm-up plus one timed block, repeated until the block is long enough
  // to swamp timer overhead.
  for (int i = 0; i < 100; ++i) acc = op(acc);
  Stopwatch w;
  for (int i = 0; i < iters; ++i) acc = op(acc);
  double ns = 1e9 * w.Seconds() / iters;
  Sink(acc);
  return ns;
}

constexpr double kUnmeasured = 1e300;

struct Timings {
  // Field primitives (ns).
  double fp_mul = kUnmeasured, fp2_mul = kUnmeasured,
         fp2_mul_ref = kUnmeasured, fp12_mul = kUnmeasured,
         fp12_mul_ref = kUnmeasured;
  double fp2_xi = kUnmeasured, fp2_xi_ref = kUnmeasured;
  double fp12_sqr = kUnmeasured, cyclo_sqr = kUnmeasured;
  // Scalar multiplication (us).
  double g1_glv = kUnmeasured, g1_wnaf = kUnmeasured,
         g1_fixed_base = kUnmeasured, g2_wnaf = kUnmeasured;
  // Pairing stages (ms).
  double miller = kUnmeasured, final_exp = kUnmeasured,
         final_exp_batch = kUnmeasured, pairing = kUnmeasured;
  // SJ.Dec (ms per row), m = 9 attrs, t = 1.
  double dec_cold_per_row = kUnmeasured, dec_cold_batch = kUnmeasured;
  double dec_prep_per_row = kUnmeasured, dec_prep_batch = kUnmeasured;
  // Cold / prepared batched SJ.Dec: median over rounds of the ratio of two
  // back-to-back measurements, so host drift between rounds cancels.
  double prepared_vs_cold = 0;
};

constexpr size_t kFeBatch = 32;
constexpr size_t kDecRows = 16;
constexpr int kRounds = 5;

// Every quantity is the MINIMUM over kRounds interleaved measurement rounds.
// Sequential A-then-B timing on a busy 1-vCPU host mistakes frequency drift
// for a real difference (observed swings of +-15% on identical work);
// interleaving the whole schedule and taking minima cancels the drift, and
// noise only ever adds time, so the minimum estimates the true cost.
Timings Measure() {
  Timings t;
  std::mt19937_64 gen(1);

  Fp2 x2 = RandomFp2(&gen), y2 = RandomFp2(&gen);
  Fp12 f = MillerLoop(G1Generator().ToAffine(), G2Generator().ToAffine());
  const Fp12 u = FinalExponentiation(f);  // cyclotomic-subgroup element
  Fr k = RandomFr(&gen);
  U256 kc = k.ToCanonical();
  const G1& g1 = G1Generator();
  G1FixedBase table(g1);
  G1Affine p = g1.ToAffine();
  G2Affine q = G2Generator().ToAffine();
  std::vector<Fp12> fe_in(kFeBatch);
  Fp12 w = u;
  for (size_t i = 0; i < kFeBatch; ++i) {
    fe_in[i] = f * w;
    w = w.CyclotomicSquare();
  }

  // SJ.Dec at the paper's m = 9, t = 1 (vector dimension m(t+1)+3 = 21).
  Rng rng(9901);
  SecureJoin::MasterKey msk = SecureJoin::Setup(
      {.num_attrs = benchutil::kPaperNumAttrs, .max_in_clause = 1}, &rng);
  SjPredicates preds(benchutil::kPaperNumAttrs);
  preds.back().push_back(rng.NextFrNonZero());
  SjToken token = SecureJoin::GenToken(msk, preds, rng.NextFrNonZero(), &rng);
  std::vector<SjRowCiphertext> cts;
  std::vector<SjPreparedRow> prepared;
  std::vector<Fr> attrs(benchutil::kPaperNumAttrs);
  for (size_t i = 0; i < kDecRows; ++i) {
    cts.push_back(
        SecureJoin::EncryptRow(msk, rng.NextFrNonZero(), attrs, &rng));
    prepared.push_back(SecureJoin::PrepareRow(cts.back()));
  }
  const double rows = static_cast<double>(kDecRows);

  auto mn = [](double* slot, double v) { *slot = std::min(*slot, v); };
  std::vector<double> dec_ratios;
  for (int round = 0; round < kRounds; ++round) {
    mn(&t.fp_mul, NanosPerOp(x2.a(), [&](const Fp& a) { return a * y2.a(); }));
    mn(&t.fp2_mul, NanosPerOp(x2, [&](const Fp2& a) { return a * y2; }));
    mn(&t.fp2_mul_ref,
       NanosPerOp(x2, [&](const Fp2& a) { return a.MulReference(y2); }));
    mn(&t.fp2_xi, NanosPerOp(x2, [&](const Fp2& a) { return a.MulByXi(); }));
    // The xi-multiply as it was written before the 9x + y kernel: two
    // MulSmall(9) doubling chains and a canonical add/sub per coefficient.
    mn(&t.fp2_xi_ref, NanosPerOp(x2, [&](const Fp2& a) {
         return Fp2(a.a().MulSmall(9) - a.b(), a.a() + a.b().MulSmall(9));
       }));
    mn(&t.fp12_mul,
       NanosPerOp(f, [&](const Fp12& a) { return a * u; }, 4000));
    mn(&t.fp12_mul_ref,
       NanosPerOp(f, [&](const Fp12& a) { return a.MulReference(u); }, 4000));
    mn(&t.fp12_sqr,
       NanosPerOp(u, [&](const Fp12& a) { return a.Square(); }, 4000));
    mn(&t.cyclo_sqr,
       NanosPerOp(u, [&](const Fp12& a) { return a.CyclotomicSquare(); },
                  4000));

    mn(&t.g1_glv,
       1e6 * benchutil::TimePerCall([&] { Sink(g1.ScalarMul(kc)); }));
    mn(&t.g1_wnaf,
       1e6 * benchutil::TimePerCall([&] { Sink(g1.ScalarMulWnaf(kc)); }));
    mn(&t.g1_fixed_base,
       1e6 * benchutil::TimePerCall([&] { Sink(table.Mul(k)); }));
    mn(&t.g2_wnaf,
       1e6 *
           benchutil::TimePerCall([&] { Sink(G2Generator().ScalarMul(k)); }));

    mn(&t.miller,
       1e3 * benchutil::TimePerCall([&] { Sink(MillerLoop(p, q)); }));
    mn(&t.final_exp,
       1e3 * benchutil::TimePerCall([&] { Sink(FinalExponentiation(f)); }));
    mn(&t.final_exp_batch,
       1e3 *
           benchutil::TimePerCall(
               [&] { Sink(FinalExponentiationBatch(fe_in)); }) /
           static_cast<double>(kFeBatch));
    mn(&t.pairing, 1e3 * benchutil::TimePerCall([&] { Sink(Pair(p, q)); }));

    mn(&t.dec_cold_per_row, 1e3 *
                                benchutil::TimePerCall(
                                    [&] {
                                      for (const auto& ct : cts)
                                        Sink(SecureJoin::DecryptToDigest(token,
                                                                         ct));
                                    },
                                    1, 0.0) /
                                rows);
    mn(&t.dec_prep_per_row,
       1e3 *
           benchutil::TimePerCall(
               [&] {
                 for (const auto& row : prepared)
                   Sink(SecureJoin::DecryptToDigestPrepared(token, row));
               },
               1, 0.0) /
           rows);
    const double cold_batch =
        1e3 *
        benchutil::TimePerCall(
            [&] { Sink(SecureJoin::DecryptRows(token, cts, 1)); }, 1, 0.0) /
        rows;
    const double prep_batch =
        1e3 *
        benchutil::TimePerCall(
            [&] { Sink(SecureJoin::DecryptRowsPrepared(token, prepared, 1)); },
            1, 0.0) /
        rows;
    mn(&t.dec_cold_batch, cold_batch);
    mn(&t.dec_prep_batch, prep_batch);
    dec_ratios.push_back(cold_batch / prep_batch);
  }
  std::sort(dec_ratios.begin(), dec_ratios.end());
  t.prepared_vs_cold = dec_ratios[dec_ratios.size() / 2];
  return t;
}

// --- Speedup floors (--json / CI) ---------------------------------------------

struct Check {
  const char* name;
  double speedup;  // reference time / optimized time
  double floor;
};

/// Conservative floors: each optimized path vs. its reference, measured
/// interleaved in one process. Set well below typical measurements
/// (lazy Fp12 ~1.2x, xi-multiply ~3x, cyclotomic ~1.5x, GLV ~1.3x,
/// prepared vs cold SJ.Dec ~1.8x) so only a real regression -- not
/// scheduler noise -- trips them. The batch floors are no-regression
/// guards, not speedup claims: the shared easy-part inversion is a few
/// percent of a row (its value is bounded working sets + chunk
/// parallelism at identical bytes), and this host's measurement noise
/// exceeds that margin.
std::vector<Check> Checks(const Timings& t) {
  return {
      {"fp12_lazy_mul", t.fp12_mul_ref / t.fp12_mul, 1.02},
      {"fp2_mul_by_xi", t.fp2_xi_ref / t.fp2_xi, 1.3},
      {"cyclotomic_sqr", t.fp12_sqr / t.cyclo_sqr, 1.10},
      {"g1_glv", t.g1_wnaf / t.g1_glv, 1.05},
      {"batch_final_exp", t.final_exp / t.final_exp_batch, 0.85},
      {"batch_dec_cold", t.dec_cold_per_row / t.dec_cold_batch, 0.85},
      {"batch_dec_prepared", t.dec_prep_per_row / t.dec_prep_batch, 0.85},
      {"prepared_vs_cold", t.prepared_vs_cold, 1.3},
  };
}

int JsonSummary() {
  Timings t = Measure();
  std::printf("{\n  \"bench\": \"ablation_pairing\",\n");
  std::printf("  \"mont_accel\": %s,\n", mont_accel::kEnabled ? "true"
                                                              : "false");
  std::printf(
      "  \"primitives_ns\": {\n"
      "    \"fp_mul\": %.1f,\n"
      "    \"fp2_mul\": %.1f,\n    \"fp2_mul_reference\": %.1f,\n"
      "    \"fp2_mul_by_xi\": %.1f,\n    \"fp2_mul_by_xi_reference\": %.1f,\n"
      "    \"fp12_mul\": %.1f,\n    \"fp12_mul_reference\": %.1f,\n"
      "    \"fp12_sqr\": %.1f,\n    \"cyclotomic_sqr\": %.1f\n  },\n",
      t.fp_mul, t.fp2_mul, t.fp2_mul_ref, t.fp2_xi, t.fp2_xi_ref, t.fp12_mul,
      t.fp12_mul_ref, t.fp12_sqr, t.cyclo_sqr);
  std::printf(
      "  \"scalar_mul_us\": {\n"
      "    \"g1_glv\": %.1f,\n    \"g1_wnaf\": %.1f,\n"
      "    \"g1_fixed_base\": %.1f,\n    \"g2_wnaf\": %.1f\n  },\n",
      t.g1_glv, t.g1_wnaf, t.g1_fixed_base, t.g2_wnaf);
  std::printf(
      "  \"pairing_ms\": {\n"
      "    \"miller_loop\": %.3f,\n    \"final_exp\": %.3f,\n"
      "    \"final_exp_batch%zu_per_element\": %.3f,\n"
      "    \"single_pairing\": %.3f\n  },\n",
      t.miller, t.final_exp, kFeBatch, t.final_exp_batch, t.pairing);
  std::printf(
      "  \"sj_dec_ms_per_row\": {\n"
      "    \"cold_per_row\": %.3f,\n    \"cold_batch\": %.3f,\n"
      "    \"prepared_per_row\": %.3f,\n    \"prepared_batch\": %.3f\n  },\n",
      t.dec_cold_per_row, t.dec_cold_batch, t.dec_prep_per_row,
      t.dec_prep_batch);
  bool ok = true;
  std::printf("  \"speedups\": {");
  bool first = true;
  for (const Check& c : Checks(t)) {
    std::printf("%s\n    \"%s\": {\"measured\": %.3f, \"floor\": %.2f}",
                first ? "" : ",", c.name, c.speedup, c.floor);
    first = false;
    if (c.speedup < c.floor) ok = false;
  }
  std::printf("\n  },\n  \"ok\": %s\n}\n", ok ? "true" : "false");
  if (!ok) {
    std::fprintf(stderr, "speedup floor missed (see \"speedups\" above)\n");
    return 1;
  }
  return 0;
}

// --- Human-readable report ----------------------------------------------------

void MultiPairingScan() {
  std::mt19937_64 gen(7);
  std::printf("\nmulti-pairing (one shared squaring chain + one final exp)"
              " vs naive product of full pairings:\n");
  std::printf("%5s  %14s  %14s  %8s\n", "n", "multi(ms)", "naive(ms)",
              "ratio");
  for (size_t n : {size_t{1}, size_t{8}, size_t{19}, size_t{35}}) {
    std::vector<std::pair<G1Affine, G2Affine>> pairs;
    for (size_t i = 0; i < n; ++i) {
      pairs.emplace_back(G1Generator().ScalarMul(RandomFr(&gen)).ToAffine(),
                         G2Generator().ScalarMul(RandomFr(&gen)).ToAffine());
    }
    double multi =
        1e3 * benchutil::TimePerCall([&] { Sink(MultiPair(pairs)); });
    double naive = 1e3 * benchutil::TimePerCall([&] {
      GT acc = GT::One();
      for (const auto& [p, q] : pairs) acc *= Pair(p, q);
      Sink(acc);
    });
    std::printf("%5zu  %14.3f  %14.3f  %7.2fx\n", n, multi, naive,
                naive / multi);
  }
}

void Report() {
  benchutil::PrintHeader("Ablation A1: pairing substrate primitives");
  std::printf("montgomery backend: %s\n\n",
              mont_accel::kEnabled ? "bmi2/adx (runtime-dispatched)"
                                   : "scalar");
  Timings t = Measure();
  std::printf("%-28s %12s %12s %8s\n", "primitive", "optimized", "reference",
              "speedup");
  auto row = [](const char* name, double opt, double ref, const char* unit) {
    if (ref > 0) {
      std::printf("%-28s %9.1f %s %9.1f %s %7.2fx\n", name, opt, unit, ref,
                  unit, ref / opt);
    } else {
      std::printf("%-28s %9.1f %s %12s\n", name, opt, unit, "-");
    }
  };
  row("Fp mul", t.fp_mul, 0, "ns");
  row("Fp2 mul (lazy)", t.fp2_mul, t.fp2_mul_ref, "ns");
  row("Fp2 mul by xi", t.fp2_xi, t.fp2_xi_ref, "ns");
  row("Fp12 mul (lazy)", t.fp12_mul, t.fp12_mul_ref, "ns");
  row("Fp12 cyclotomic sqr", t.cyclo_sqr, t.fp12_sqr, "ns");
  row("G1 scalar mul (GLV)", t.g1_glv, t.g1_wnaf, "us");
  row("G1 fixed-base mul", t.g1_fixed_base, 0, "us");
  row("G2 scalar mul (wNAF)", t.g2_wnaf, 0, "us");
  std::printf("\n%-28s %12s\n", "pairing stage", "ms");
  std::printf("%-28s %12.3f\n", "Miller loop", t.miller);
  std::printf("%-28s %12.3f\n", "final exponentiation", t.final_exp);
  std::printf("%-28s %12.3f\n", "  batched (per element)", t.final_exp_batch);
  std::printf("%-28s %12.3f\n", "full pairing", t.pairing);
  std::printf("\nSJ.Dec, m = 9 attrs, t = 1 (ms per row, %zu rows):\n",
              kDecRows);
  std::printf("%-28s %12.3f\n", "cold, per-row", t.dec_cold_per_row);
  std::printf("%-28s %12.3f\n", "cold, batched", t.dec_cold_batch);
  std::printf("%-28s %12.3f\n", "prepared, per-row", t.dec_prep_per_row);
  std::printf("%-28s %12.3f\n", "prepared, batched", t.dec_prep_batch);
  MultiPairingScan();
}

}  // namespace
}  // namespace sjoin

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--json") == 0) {
    return sjoin::JsonSummary();
  }
  sjoin::Report();
  return 0;
}
