// Tests for the Montgomery prime fields and the Fp2/Fp6/Fp12 tower:
// parameter re-derivation against BigInt, field axioms on pseudo-random
// values, and structural identities of the tower (w^6 == xi, etc).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "bigint/bigint.h"
#include "field/bn254.h"
#include "field/fp12.h"
#include "field/mont_accel.h"

namespace sjoin {
namespace {

// Deterministic byte source for reproducible "random" field elements.
class TestRandom {
 public:
  explicit TestRandom(uint64_t seed) : gen_(seed) {}

  Fp NextFp() { return Fp::FromUniformBytes(NextBytes().data()); }
  Fr NextFr() { return Fr::FromUniformBytes(NextBytes().data()); }
  Fp2 NextFp2() { return Fp2(NextFp(), NextFp()); }
  Fp6 NextFp6() { return Fp6(NextFp2(), NextFp2(), NextFp2()); }
  Fp12 NextFp12() { return Fp12(NextFp6(), NextFp6()); }

  std::array<uint8_t, 64> NextBytes() {
    std::array<uint8_t, 64> b;
    for (auto& x : b) x = static_cast<uint8_t>(gen_());
    return b;
  }

 private:
  std::mt19937_64 gen_;
};

BigInt ModulusAsBigInt(const MontParams& P) {
  BigInt r;
  for (int i = 3; i >= 0; --i) r = (r << 64) + BigInt(P.p.w[i]);
  return r;
}

BigInt FpToBigInt(const Fp& x) { return x.ToBigInt(); }

// --- Montgomery parameter derivation ---------------------------------------

TEST(MontParamsTest, ModulusMatchesDecimalString) {
  EXPECT_EQ(ModulusAsBigInt(kBn254FpParams),
            BigInt::FromDecimal(kBn254PDecimal));
  EXPECT_EQ(ModulusAsBigInt(kBn254FrParams),
            BigInt::FromDecimal(kBn254RDecimal));
}

TEST(MontParamsTest, InvIsNegativeInverseMod2e64) {
  for (const MontParams* P : {&kBn254FpParams, &kBn254FrParams}) {
    // p * (-inv) == 1 mod 2^64  <=>  p*inv + 1 == 0 mod 2^64
    uint64_t prod = P->p.w[0] * P->inv;
    EXPECT_EQ(prod + 1, 0u);
  }
}

TEST(MontParamsTest, OneAndR2MatchBigIntDerivation) {
  for (const MontParams* P : {&kBn254FpParams, &kBn254FrParams}) {
    BigInt p = ModulusAsBigInt(*P);
    BigInt R = BigInt(1) << 256;
    BigInt one = R % p;
    BigInt r2 = (R * R) % p;
    BigInt got_one, got_r2;
    for (int i = 3; i >= 0; --i) {
      got_one = (got_one << 64) + BigInt(P->one.w[i]);
      got_r2 = (got_r2 << 64) + BigInt(P->r2.w[i]);
    }
    EXPECT_EQ(got_one, one);
    EXPECT_EQ(got_r2, r2);
  }
}

TEST(MontParamsTest, FieldPrimesAre254Bits) {
  EXPECT_EQ(kBn254FpParams.p.BitLength(), 254u);
  EXPECT_EQ(kBn254FrParams.p.BitLength(), 254u);
}

// --- Base field Fp ----------------------------------------------------------

TEST(FpTest, ZeroAndOneBehave) {
  EXPECT_TRUE(Fp::Zero().IsZero());
  EXPECT_FALSE(Fp::One().IsZero());
  EXPECT_EQ(Fp::One() * Fp::One(), Fp::One());
  EXPECT_EQ(Fp::One() + Fp::Zero(), Fp::One());
  EXPECT_EQ(Fp::One() - Fp::One(), Fp::Zero());
  EXPECT_EQ(Fp::FromUint64(0), Fp::Zero());
  EXPECT_EQ(Fp::FromUint64(1), Fp::One());
}

TEST(FpTest, SmallArithmeticMatchesIntegers) {
  Fp a = Fp::FromUint64(123456789);
  Fp b = Fp::FromUint64(987654321);
  EXPECT_EQ(a + b, Fp::FromUint64(123456789 + 987654321));
  EXPECT_EQ(a * b, Fp::FromUint64(123456789ull * 987654321ull));
  EXPECT_EQ(b - a, Fp::FromUint64(987654321 - 123456789));
}

TEST(FpTest, ArithmeticMatchesBigIntModular) {
  TestRandom rng(1);
  BigInt p = BigInt::FromDecimal(kBn254PDecimal);
  for (int i = 0; i < 100; ++i) {
    Fp a = rng.NextFp();
    Fp b = rng.NextFp();
    BigInt ab = FpToBigInt(a);
    BigInt bb = FpToBigInt(b);
    EXPECT_EQ(FpToBigInt(a + b), (ab + bb) % p);
    EXPECT_EQ(FpToBigInt(a * b), (ab * bb) % p);
    EXPECT_EQ(FpToBigInt(a - b), ((ab + p) - bb) % p);
    EXPECT_EQ(FpToBigInt(-a), (p - ab) % p);
  }
}

TEST(FpTest, InverseAndFermat) {
  TestRandom rng(2);
  for (int i = 0; i < 25; ++i) {
    Fp a = rng.NextFp();
    if (a.IsZero()) continue;
    EXPECT_EQ(a * a.Inverse(), Fp::One());
    // Fermat: a^(p-1) = 1.
    U256 pm1{};
    U256 one{{1, 0, 0, 0}};
    U256SubWithBorrow(kBn254FpParams.p, one, &pm1);
    EXPECT_EQ(a.Pow(pm1), Fp::One());
  }
  EXPECT_TRUE(Fp::Zero().Inverse().IsZero());
}

TEST(FpTest, MulSmallMatchesRepeatedAdd) {
  TestRandom rng(3);
  Fp a = rng.NextFp();
  Fp acc = Fp::Zero();
  for (uint64_t k = 0; k < 20; ++k) {
    EXPECT_EQ(a.MulSmall(k), acc) << "k=" << k;
    acc += a;
  }
}

TEST(FpTest, BytesRoundTrip) {
  TestRandom rng(4);
  for (int i = 0; i < 20; ++i) {
    Fp a = rng.NextFp();
    uint8_t buf[32];
    a.ToBytesBE(buf);
    auto back = Fp::FromBytesBE(buf);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, a);
  }
}

TEST(FpTest, FromBytesRejectsNonCanonical) {
  uint8_t buf[32];
  for (auto& b : buf) b = 0xff;  // 2^256-1 >= p
  EXPECT_FALSE(Fp::FromBytesBE(buf).ok());
}

TEST(FpTest, FromUniformBytesMatchesBigIntReduction) {
  TestRandom rng(5);
  BigInt p = BigInt::FromDecimal(kBn254PDecimal);
  for (int i = 0; i < 50; ++i) {
    auto bytes = rng.NextBytes();
    Fp a = Fp::FromUniformBytes(bytes.data());
    BigInt expect = BigInt::FromBytesBE(bytes.data(), 64) % p;
    EXPECT_EQ(a.ToBigInt(), expect);
  }
}

TEST(FrTest, DistinctModulusFromFp) {
  // Same input reduces differently in the two fields.
  uint8_t bytes[64];
  for (int i = 0; i < 64; ++i) bytes[i] = 0xab;
  EXPECT_NE(Fp::FromUniformBytes(bytes).ToDecimal(),
            Fr::FromUniformBytes(bytes).ToDecimal());
}

TEST(FrTest, ArithmeticMatchesBigIntModular) {
  TestRandom rng(6);
  BigInt r = BigInt::FromDecimal(kBn254RDecimal);
  for (int i = 0; i < 50; ++i) {
    Fr a = rng.NextFr();
    Fr b = rng.NextFr();
    EXPECT_EQ((a * b).ToBigInt(), (a.ToBigInt() * b.ToBigInt()) % r);
  }
}

// --- Tower ------------------------------------------------------------------

TEST(Fp2Test, ComplexMultiplication) {
  // (1 + u)(1 - u) = 1 - u^2 = 2.
  Fp2 x(Fp::One(), Fp::One());
  Fp2 y(Fp::One(), -Fp::One());
  EXPECT_EQ(x * y, Fp2::FromFp(Fp::FromUint64(2)));
  // u^2 = -1
  Fp2 u(Fp::Zero(), Fp::One());
  EXPECT_EQ(u.Square(), -Fp2::One());
}

TEST(Fp2Test, FieldAxiomsRandomized) {
  TestRandom rng(7);
  for (int i = 0; i < 50; ++i) {
    Fp2 a = rng.NextFp2(), b = rng.NextFp2(), c = rng.NextFp2();
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ(a.Square(), a * a);
    if (!a.IsZero()) { EXPECT_EQ(a * a.Inverse(), Fp2::One()); }
  }
}

TEST(Fp2Test, MulByXiMatchesGenericMul) {
  // Edge grid: MulByXi reduces 9x + (p - y) and 9y + x by conditional
  // subtractions of 8p, 4p, 2p and p, so the interesting inputs put 9x
  // next to a multiple of p. The kernel works on Montgomery limbs, so each
  // value is used both as the element's integer and as its Montgomery form.
  const BigInt p = BigInt::FromDecimal(kBn254PDecimal);
  const BigInt nine(9);
  const std::vector<BigInt> edges = {
      BigInt(0),
      BigInt(1),
      BigInt(2),
      p - BigInt(1),
      p - BigInt(2),
      p / nine,
      p / nine + BigInt(1),  // ceil(p/9): 9 does not divide the prime p
      (p * BigInt(8)) / nine,
  };
  std::vector<Fp> grid;
  for (const BigInt& e : edges) {
    grid.push_back(Fp::FromBigInt(e));
    grid.push_back(Fp::FromMontgomery(grid.back().ToCanonical()));
  }
  for (const Fp& x : grid) {
    for (const Fp& y : grid) {
      Fp2 a(x, y);
      EXPECT_EQ(a.MulByXi(), a * Fp2::Xi())
          << x.ToDecimal() << " + " << y.ToDecimal() << " u";
    }
  }

  TestRandom rng(8);
  for (int i = 0; i < 10000; ++i) {
    Fp2 a = rng.NextFp2();
    ASSERT_EQ(a.MulByXi(), a * Fp2::Xi()) << "trial " << i;
  }
}

TEST(Fp2Test, ConjugateIsFrobenius) {
  TestRandom rng(9);
  for (int i = 0; i < 10; ++i) {
    Fp2 a = rng.NextFp2();
    EXPECT_EQ(a.Conjugate(), a.Pow(kBn254FpParams.p));
  }
}

TEST(Fp6Test, FieldAxiomsRandomized) {
  TestRandom rng(10);
  for (int i = 0; i < 25; ++i) {
    Fp6 a = rng.NextFp6(), b = rng.NextFp6(), c = rng.NextFp6();
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a * b, b * a);
    if (!a.IsZero()) { EXPECT_EQ(a * a.Inverse(), Fp6::One()); }
  }
}

TEST(Fp6Test, VCubeIsXi) {
  Fp6 v(Fp2::Zero(), Fp2::One(), Fp2::Zero());
  EXPECT_EQ(v * v * v, Fp6::FromFp2(Fp2::Xi()));
}

TEST(Fp6Test, MulByVMatchesGenericMul) {
  TestRandom rng(11);
  Fp6 v(Fp2::Zero(), Fp2::One(), Fp2::Zero());
  for (int i = 0; i < 20; ++i) {
    Fp6 a = rng.NextFp6();
    EXPECT_EQ(a.MulByV(), a * v);
  }
}

TEST(Fp6Test, SparseMulsMatchGenericMul) {
  TestRandom rng(12);
  for (int i = 0; i < 20; ++i) {
    Fp6 a = rng.NextFp6();
    Fp2 s0 = rng.NextFp2(), s1 = rng.NextFp2();
    EXPECT_EQ(a.MulBy0(s0), a * Fp6(s0, Fp2::Zero(), Fp2::Zero()));
    EXPECT_EQ(a.MulBy01(s0, s1), a * Fp6(s0, s1, Fp2::Zero()));
  }
}

TEST(Fp12Test, FieldAxiomsRandomized) {
  TestRandom rng(13);
  for (int i = 0; i < 15; ++i) {
    Fp12 a = rng.NextFp12(), b = rng.NextFp12(), c = rng.NextFp12();
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a.Square(), a * a);
    if (!a.IsZero()) { EXPECT_EQ(a * a.Inverse(), Fp12::One()); }
  }
}

TEST(Fp12Test, WSquareIsVAndWSixthIsXi) {
  Fp12 w(Fp6::Zero(), Fp6::One());
  Fp6 v(Fp2::Zero(), Fp2::One(), Fp2::Zero());
  EXPECT_EQ(w.Square(), Fp12(v, Fp6::Zero()));
  Fp12 w6 = w.Square() * w.Square() * w.Square();
  EXPECT_EQ(w6, Fp12(Fp6::FromFp2(Fp2::Xi()), Fp6::Zero()));
}

TEST(Fp12Test, MulByLineMatchesGenericMul) {
  TestRandom rng(14);
  for (int i = 0; i < 20; ++i) {
    Fp12 f = rng.NextFp12();
    Fp2 a0 = rng.NextFp2(), b0 = rng.NextFp2(), b1 = rng.NextFp2();
    Fp12 line(Fp6(a0, Fp2::Zero(), Fp2::Zero()), Fp6(b0, b1, Fp2::Zero()));
    EXPECT_EQ(f.MulByLine(a0, b0, b1), f * line);
  }
}

TEST(Fp12Test, PowMatchesBigIntPow) {
  TestRandom rng(15);
  Fp12 a = rng.NextFp12();
  BigInt e = BigInt::FromDecimal("123456789123456789123456789");
  U256 e256 = U256FromDecimal("123456789123456789123456789");
  EXPECT_EQ(a.Pow(e), a.Pow(e256));
  // a^(x+y) == a^x * a^y
  BigInt x = BigInt::FromDecimal("987654321987654321");
  BigInt y = BigInt::FromDecimal("111111111111111111");
  EXPECT_EQ(a.Pow(x + y), a.Pow(x) * a.Pow(y));
}

TEST(Fp12Test, SerializationDistinguishesElements) {
  TestRandom rng(16);
  Fp12 a = rng.NextFp12();
  Fp12 b = rng.NextFp12();
  uint8_t ba[384], bb[384];
  a.ToBytesBE(ba);
  b.ToBytesBE(bb);
  EXPECT_NE(memcmp(ba, bb, sizeof ba), 0);
  uint8_t ba2[384];
  a.ToBytesBE(ba2);
  EXPECT_EQ(memcmp(ba, ba2, sizeof ba), 0);
}

// --- Lazy-reduction tower vs schoolbook references ----------------------------
// Elements are kept canonical, so the lazy (delayed-reduction) products must
// be byte-identical to the schoolbook MulReference path, not merely equal as
// field elements; operator== compares the raw Montgomery words.

TEST(Fp2Test, LazyMulMatchesReference) {
  TestRandom rng(20);
  for (int i = 0; i < 50; ++i) {
    Fp2 a = rng.NextFp2(), b = rng.NextFp2();
    EXPECT_EQ(a * b, a.MulReference(b));
    EXPECT_EQ(a.Square(), a.SquareReference());
    EXPECT_EQ(a.Square(), a * a);
  }
}

TEST(Fp2Test, LazyMulExtremeValues) {
  // p-1 in every coordinate produces the widest intermediate sums the
  // delayed-reduction bound has to absorb.
  Fp max = -Fp::One();
  const Fp2 cases[] = {Fp2(max, max), Fp2(max, Fp::Zero()),
                       Fp2(Fp::Zero(), max), Fp2::Zero(), Fp2::One()};
  for (const Fp2& a : cases) {
    for (const Fp2& b : cases) {
      EXPECT_EQ(a * b, a.MulReference(b));
    }
    EXPECT_EQ(a.Square(), a.SquareReference());
  }
}

TEST(Fp6Test, LazyMulMatchesReference) {
  TestRandom rng(21);
  for (int i = 0; i < 25; ++i) {
    Fp6 a = rng.NextFp6(), b = rng.NextFp6();
    EXPECT_EQ(a * b, a.MulReference(b));
    EXPECT_EQ(a.Square(), a.MulReference(a));
  }
  Fp max = -Fp::One();
  Fp2 m2(max, max);
  Fp6 m(m2, m2, m2);
  EXPECT_EQ(m * m, m.MulReference(m));
}

TEST(Fp12Test, LazyMulMatchesReference) {
  TestRandom rng(22);
  for (int i = 0; i < 15; ++i) {
    Fp12 a = rng.NextFp12(), b = rng.NextFp12();
    EXPECT_EQ(a * b, a.MulReference(b));
    EXPECT_EQ(a.Square(), a.MulReference(a));
  }
  Fp max = -Fp::One();
  Fp2 m2(max, max);
  Fp6 m6(m2, m2, m2);
  Fp12 m(m6, m6);
  EXPECT_EQ(m * m, m.MulReference(m));
}

// The lazy-vs-reference tests above double as the dispatch-identity suite:
// under the BMI2/ADX arm, operator* runs the accelerated whole-Fp2 kernels
// while MulReference stays scalar, so equality pins the two backends to the
// same bytes. Here, additionally pin that the force-scalar escape hatch is
// honored (CI runs the full suite once with SJOIN_FORCE_SCALAR=1).
TEST(MontAccelTest, ForceScalarOverrideRespected) {
  const char* force = std::getenv("SJOIN_FORCE_SCALAR");
  if (force != nullptr && std::string(force) == "1") {
    EXPECT_FALSE(mont_accel::kEnabled);
  }
}

}  // namespace
}  // namespace sjoin
