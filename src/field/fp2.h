// Quadratic extension Fp2 = Fp[u] / (u^2 + 1), plus the wide (lazy-reduction)
// arithmetic layer used by the whole tower.
//
// Lazy reduction: a product of Montgomery residues is a 512-bit integer
// < p^2. Sums and differences of such products can be accumulated in the
// U512 domain (u512.h) and Montgomery-reduced ONCE per output coefficient,
// replacing per-multiplication reductions and canonical (branchy) add/subs
// with raw limb adds. Two rules keep this sound:
//
//   1. Subtraction never underflows: to form x - y for wide y < k*p^2, add
//      the constant k*p^2 first (a multiple of p, so the residue class mod p
//      is unchanged; Montgomery reduction only needs the input's class).
//   2. RedcWide needs its input < p * 2^256 (about 5.29 p^2 for BN254);
//      Fp2Redc subtracts p * 2^256 (upper limbs only) until the bound holds.
//      Accumulations must stay < 2^512 (about 28 p^2) -- every call site
//      keeps a written bound well under that.
#ifndef SJOIN_FIELD_FP2_H_
#define SJOIN_FIELD_FP2_H_

#include <array>

#include "field/bn254.h"
#include "field/mont_accel.h"

namespace sjoin {

// --- Wide helpers over the BN254 base field ---------------------------------

namespace fpw {

inline constexpr U512 kP2 = MulWide(kBn254FpParams.p, kBn254FpParams.p);
inline constexpr U512 kP2x2 = U512Double(kP2);
inline constexpr U512 kP2x4 = U512Double(kP2x2);
inline constexpr U512 kP2x8 = U512Double(kP2x4);

/// Raw integer sum of two canonical residues (< 2p < 2^255; no carry).
inline U256 RawAdd(const U256& x, const U256& y) {
  U256 r{};
  U256AddWithCarry(x, y, &r);
  return r;
}

/// Raw integer x + (p - y) for canonical x, y: congruent to x - y, < 2p.
inline U256 RawSubViaP(const U256& x, const U256& y) {
  U256 py{};
  U256SubWithBorrow(kBn254FpParams.p, y, &py);
  return RawAdd(x, py);
}

/// Reduces a wide accumulator to a canonical residue. Handles any input
/// (subtracts p * 2^256 until RedcWide's precondition holds; one compare
/// when the caller's bound is already < p * 2^256).
inline U256 Reduce(U512 v) {
  while (U512GreaterEqShifted(v, kBn254FpParams.p)) {
    ReduceWideOnce(&v, kBn254FpParams.p);
  }
  return RedcWide(v, kBn254FpParams);
}

/// 2^k * p as a five-limb integer (p < 2^254, so 8p < 2^257 fits).
constexpr std::array<uint64_t, 5> ShiftedP(int k) {
  const U256& p = kBn254FpParams.p;
  std::array<uint64_t, 5> r{};
  for (int i = 0; i < 4; ++i) {
    r[i] |= p.w[i] << k;
    r[i + 1] = k == 0 ? 0 : p.w[i] >> (64 - k);
  }
  return r;
}
/// 8p, 4p, 2p and p, in the order NineXPlusY subtracts them.
inline constexpr std::array<uint64_t, 5> kPMultiples[4] = {
    ShiftedP(3), ShiftedP(2), ShiftedP(1), ShiftedP(0)};

/// Canonical residue of 9x + y for x < p, y <= p. The five-limb sum is
/// below 10p; conditional subtractions of 8p, 4p, 2p and p leave it below
/// 8p, 4p, 2p and finally p. Montgomery form is linear, so this is also
/// the Montgomery form of 9x + y.
inline U256 NineXPlusY(const U256& x, const U256& y) {
  uint64_t v[5];
  uint128_t acc = 0;
  for (int i = 0; i < 4; ++i) {
    acc += static_cast<uint128_t>(x.w[i]) * 9 + y.w[i];
    v[i] = static_cast<uint64_t>(acc);
    acc >>= 64;
  }
  v[4] = static_cast<uint64_t>(acc);
  for (const std::array<uint64_t, 5>& kp : kPMultiples) {
    uint64_t t[5];
    uint64_t borrow = 0;
    for (int i = 0; i < 5; ++i) {
      uint128_t cur = static_cast<uint128_t>(v[i]) - kp[i] - borrow;
      t[i] = static_cast<uint64_t>(cur);
      borrow = static_cast<uint64_t>(cur >> 64) & 1;
    }
    const uint64_t keep = 0 - borrow;  // all ones when v < kp
    for (int i = 0; i < 5; ++i) v[i] = (v[i] & keep) | (t[i] & ~keep);
  }
  return U256{{v[0], v[1], v[2], v[3]}};
}

}  // namespace fpw

class Fp2;

/// Wide (unreduced) Fp2 element: each coefficient is a U512 accumulator.
/// Bounds are tracked by the producing call sites (comments give them as
/// multiples of p^2).
struct Fp2Wide {
  U512 a, b;

  Fp2Wide operator+(const Fp2Wide& o) const {
    Fp2Wide r;
    U512AddWithCarry(a, o.a, &r.a);
    U512AddWithCarry(b, o.b, &r.b);
    return r;
  }
  Fp2Wide operator-(const Fp2Wide& o) const {
    Fp2Wide r;
    U512SubWithBorrow(a, o.a, &r.a);
    U512SubWithBorrow(b, o.b, &r.b);
    return r;
  }
  /// Adds the correction constant k*p^2 to both coefficients; callers use it
  /// immediately before subtracting values bounded by k*p^2 (rule 1 above).
  Fp2Wide Offset(const U512& corr) const {
    Fp2Wide r;
    U512AddWithCarry(a, corr, &r.a);
    U512AddWithCarry(b, corr, &r.b);
    return r;
  }
  Fp2Wide Double() const {
    Fp2Wide r;
    r.a = U512Double(a);
    r.b = U512Double(b);
    return r;
  }
};

/// Element a + b*u with u^2 = -1.
class Fp2 {
 public:
  constexpr Fp2() = default;
  Fp2(const Fp& a, const Fp& b) : a_(a), b_(b) {}

  static Fp2 Zero() { return Fp2(); }
  static Fp2 One() { return Fp2(Fp::One(), Fp::Zero()); }
  static Fp2 FromFp(const Fp& a) { return Fp2(a, Fp::Zero()); }
  /// The sextic non-residue xi = 9 + u used by the Fp6/Fp12 tower.
  static Fp2 Xi() { return Fp2(Fp::FromUint64(9), Fp::One()); }

  const Fp& a() const { return a_; }
  const Fp& b() const { return b_; }

  bool IsZero() const { return a_.IsZero() && b_.IsZero(); }
  bool operator==(const Fp2& o) const { return a_ == o.a_ && b_ == o.b_; }
  bool operator!=(const Fp2& o) const { return !(*this == o); }

  Fp2 operator+(const Fp2& o) const { return Fp2(a_ + o.a_, b_ + o.b_); }
  Fp2 operator-(const Fp2& o) const { return Fp2(a_ - o.a_, b_ - o.b_); }
  Fp2 operator-() const { return Fp2(-a_, -b_); }
  Fp2& operator+=(const Fp2& o) { return *this = *this + o; }
  Fp2& operator-=(const Fp2& o) { return *this = *this - o; }

  /// Karatsuba product in the wide domain: 3 MulWide, no reduction.
  /// Output bounds: a < 2p^2, b < 2p^2.
  Fp2Wide MulWideLazy(const Fp2& o) const {
    U512 t0 = MulWideRt(a_.Montgomery(), o.a_.Montgomery());  // < p^2
    U512 t1 = MulWideRt(b_.Montgomery(), o.b_.Montgomery());  // < p^2
    U512 t2 = MulWideRt(fpw::RawAdd(a_.Montgomery(), b_.Montgomery()),
                        fpw::RawAdd(o.a_.Montgomery(), o.b_.Montgomery()));
    Fp2Wide r;
    // a = t0 + (p^2 - t1): congruent to a*a' - b*b', < 2p^2.
    U512 corr{};
    U512SubWithBorrow(fpw::kP2, t1, &corr);
    U512AddWithCarry(t0, corr, &r.a);
    // b = t2 - t0 - t1 = a*b' + b*a' exactly (t2 is the raw-sum product,
    // so the integer identity holds and the difference is nonnegative).
    U512SubWithBorrow(t2, t0, &r.b);
    U512SubWithBorrow(r.b, t1, &r.b);
    return r;
  }

  /// Complex squaring in the wide domain: 2 MulWide, no reduction.
  /// Output bounds: a < 4p^2, b < 2p^2.
  Fp2Wide SquareWideLazy() const {
    // (a + b)(a + p - b) === a^2 - b^2 (mod p); both factors < 2p.
    U512 t0 = MulWideRt(fpw::RawAdd(a_.Montgomery(), b_.Montgomery()),
                        fpw::RawSubViaP(a_.Montgomery(), b_.Montgomery()));
    U512 t1 = MulWideRt(a_.Montgomery(), b_.Montgomery());
    Fp2Wide r;
    r.a = t0;
    r.b = U512Double(t1);
    return r;
  }

  /// Reduces a wide Fp2 accumulator to canonical form (2 RedcWide).
  static Fp2 Redc(const Fp2Wide& w) {
    return Fp2(Fp::FromMontgomery(fpw::Reduce(w.a)),
               Fp::FromMontgomery(fpw::Reduce(w.b)));
  }

  /// Lazy-reduction multiplication: 3 MulWide + 2 RedcWide. Dispatches to
  /// the BMI2/ADX backend (byte-identical; see mont_accel.h) when present.
  Fp2 operator*(const Fp2& o) const {
    if (mont_accel::kEnabled) {
      const U256 x[2] = {a_.Montgomery(), b_.Montgomery()};
      const U256 y[2] = {o.a_.Montgomery(), o.b_.Montgomery()};
      U256 r[2];
      mont_accel::Fp2Mul(x, y, r);
      return Fp2(Fp::FromMontgomery(r[0]), Fp::FromMontgomery(r[1]));
    }
    return Redc(MulWideLazy(o));
  }
  Fp2& operator*=(const Fp2& o) { return *this = *this * o; }

  /// Lazy-reduction squaring: 2 MulWide + 2 RedcWide (same dispatch).
  Fp2 Square() const {
    if (mont_accel::kEnabled) {
      const U256 x[2] = {a_.Montgomery(), b_.Montgomery()};
      U256 r[2];
      mont_accel::Fp2Sqr(x, r);
      return Fp2(Fp::FromMontgomery(r[0]), Fp::FromMontgomery(r[1]));
    }
    return Redc(SquareWideLazy());
  }

  /// Schoolbook Karatsuba multiplication with per-product reduction; the
  /// reference the lazy path is property-tested against.
  Fp2 MulReference(const Fp2& o) const {
    Fp t0 = a_ * o.a_;
    Fp t1 = b_ * o.b_;
    Fp t2 = (a_ + b_) * (o.a_ + o.b_);
    return Fp2(t0 - t1, t2 - t0 - t1);
  }

  /// Reference complex squaring (2 reduced Fp multiplications).
  Fp2 SquareReference() const {
    Fp t0 = (a_ + b_) * (a_ - b_);  // a^2 - b^2
    Fp t1 = a_ * b_;
    return Fp2(t0, t1.Double());
  }

  Fp2 Double() const { return Fp2(a_.Double(), b_.Double()); }
  Fp2 MulByFp(const Fp& s) const { return Fp2(a_ * s, b_ * s); }
  Fp2 MulSmall(uint64_t k) const { return Fp2(a_.MulSmall(k), b_.MulSmall(k)); }

  /// Conjugate a - b*u (the Frobenius map x -> x^p on Fp2).
  Fp2 Conjugate() const { return Fp2(a_, -b_); }

  /// Multiplication by xi = 9 + u: (9a - b) + (a + 9b) u, each coefficient
  /// one small-multiple reduction (9a - b is computed as 9a + (p - b)).
  Fp2 MulByXi() const {
    U256 p_minus_b{};
    U256SubWithBorrow(kBn254FpParams.p, b_.Montgomery(), &p_minus_b);
    return Fp2(
        Fp::FromMontgomery(fpw::NineXPlusY(a_.Montgomery(), p_minus_b)),
        Fp::FromMontgomery(fpw::NineXPlusY(b_.Montgomery(), a_.Montgomery())));
  }

  /// (a + bu)^-1 = (a - bu) / (a^2 + b^2); inverse of zero is zero.
  Fp2 Inverse() const {
    Fp norm = a_.Square() + b_.Square();
    Fp inv = norm.Inverse();
    return Fp2(a_ * inv, -(b_ * inv));
  }

  /// this^e for a raw 256-bit exponent.
  Fp2 Pow(const U256& e) const {
    Fp2 result = One();
    for (size_t i = e.BitLength(); i > 0; --i) {
      result = result.Square();
      if (e.Bit(i - 1)) result = result * *this;
    }
    return result;
  }

  /// this^e for an arbitrary-precision exponent (cold path: Frobenius
  /// constant derivation).
  Fp2 Pow(const BigInt& e) const {
    Fp2 result = One();
    for (size_t i = e.BitLength(); i > 0; --i) {
      result = result.Square();
      if (e.Bit(i - 1)) result = result * *this;
    }
    return result;
  }

 private:
  Fp a_;
  Fp b_;
};

}  // namespace sjoin

#endif  // SJOIN_FIELD_FP2_H_
