#include "pairing/pairing.h"

#include <array>
#include <span>
#include <utility>

#include "bigint/bigint.h"
#include "pairing/frobenius.h"
#include "util/status.h"

namespace sjoin {
namespace {

// ---------------------------------------------------------------------------
// Line functions.
//
// With the D-type twist, the untwisting map is psi(x', y') = (x' w^2, y' w^3)
// where w^6 = xi. The line through points of E(Fp12) evaluated at
// P = (xP, yP) in E(Fp), anchored at an affine twist point and scaled by the
// slope denominator, has the sparse form
//     l = a0 + b0 * w + b1 * w^3,   a0, b0, b1 in Fp2.
// Derivations (T = (X,Y,Z) Jacobian on the twist, x1 = X/Z^2, y1 = Y/Z^3):
//
// Tangent at T, scaled by 2*y1*Z^6:
//     a0 = 2 Y Z^3 * yP,  b0 = -3 X^2 Z^2 * xP,  b1 = 3 X^3 - 2 Y^2.
//
// Chord through T and affine Q=(x2,y2), scaled by 2*Z*(x2 Z^2 - X):
//     a0 = Z3 * yP,   b0 = -rr * xP,   b1 = rr * x2 - Z3 * y2,
// where rr = 2(y2 Z^3 - Y) and Z3 = 2 Z (x2 Z^2 - X) is exactly the new Z
// produced by the mixed-addition formulas, so both are free.
//
// Scaling the line by nonzero Fp2 constants is harmless: Fp2 lies inside
// Fp6, whose elements are annihilated by the (p^6-1) easy part of the final
// exponentiation. So is dropping a line with a0 = 0 (a vertical chord or a
// step at the identity, which an order-r Q never takes but an on-curve
// twist point outside G2 can): it is w times an Fp6 element,
// w^(p^6-1) = xi^((p^6-1)/6) = -1, and the easy part's (p^2+1) factor is
// even.
//
// Both step functions factor the G1 point out of the line: they emit the
// P-independent triple (c0, c1, c2) of JacobianLine, and the cold loop
// multiplies in (xP, yP) at evaluation time. G2Prepared::PrepareBatch runs
// the same step functions and stores each line divided by its c0 (see
// "Prepared lines" below), so the plain and prepared Miller loops share
// one set of formulas and agree after the final exponentiation.
//
// The point update is fused with the line derivation: the tangent formulas
// already need X^2, Y^2 and Y*Z, which are exactly the squarings dbl-2009-l
// starts from, and the chord formulas share Z^2 and rr with madd-2007-bl.
// Fusing removes 2-3 Fp2 squarings/multiplications per step that the
// G2::Double / G2::AddMixed entry points would recompute. Field elements
// are canonical, so computing the same coordinate values yields the same
// bytes as the unfused G2 methods (tests pin T against G2 arithmetic).
// ---------------------------------------------------------------------------

// Running Jacobian point on the twist; (X, Y, Z) ~ (X/Z^2, Y/Z^3), Z == 0
// is the identity (coordinates (1, 1, 0), matching Point<G2Curve>()).
struct G2Jacobian {
  Fp2 X, Y, Z;
};

// One derived line with the G1 point factored out:
//     l(P) = c0 * yP  +  (c1 * xP) w  +  c2 w^3.
struct JacobianLine {
  Fp2 c0;  // w^0 slot, scaled by yP at evaluation time
  Fp2 c1;  // w^1 slot, scaled by xP at evaluation time
  Fp2 c2;  // w^3 slot, independent of P
};

const G2Jacobian kG2JacobianInfinity = {Fp2::One(), Fp2::One(), Fp2::Zero()};

// Plain dbl-2009-l doubling (degenerate chord case only; the hot doubling
// path is fused into DoublingStep below). Coordinates match G2::Double().
void JacobianDouble(G2Jacobian* t) {
  if (t->Z.IsZero() || t->Y.IsZero()) {
    *t = kG2JacobianInfinity;
    return;
  }
  const Fp2 X = t->X, Y = t->Y, Z = t->Z;
  Fp2 A = X.Square();
  Fp2 B = Y.Square();
  Fp2 C = B.Square();
  Fp2 D = ((X + B).Square() - A - C).Double();
  Fp2 E = A.Double() + A;  // 3 X^2
  Fp2 Fq = E.Square();
  t->X = Fq - D.Double();
  t->Y = E * (D - t->X) - C.Double().Double().Double();  // 8C
  t->Z = (Y * Z).Double();
}

// Doubling step: consumes T (Jacobian on the twist), outputs 2T and the
// tangent-line coefficients at T. X^2, Y^2, 3X^2 and Y*Z feed both the
// line and the dbl-2009-l update.
void DoublingStep(G2Jacobian* t, JacobianLine* line) {
  const Fp2 X = t->X, Y = t->Y, Z = t->Z;
  Fp2 A = X.Square();            // X^2
  Fp2 B = Y.Square();            // Y^2
  Fp2 ZZ = Z.Square();
  Fp2 E = A.Double() + A;        // 3 X^2
  Fp2 YZ = Y * Z;

  line->c0 = (YZ * ZZ).Double();  // 2 Y Z^3
  line->c1 = -(E * ZZ);           // -3 X^2 Z^2
  line->c2 = E * X - B.Double();  // 3 X^3 - 2 Y^2

  if (Z.IsZero() || Y.IsZero()) {
    *t = kG2JacobianInfinity;
    return;
  }
  Fp2 C = B.Square();
  Fp2 D = ((X + B).Square() - A - C).Double();
  Fp2 Fq = E.Square();
  t->X = Fq - D.Double();
  t->Y = E * (D - t->X) - C.Double().Double().Double();  // 8C
  t->Z = YZ.Double();
}

// Addition step: consumes T and affine Q, outputs T+Q and the chord-line
// coefficients through them. Z^2 and rr feed both the line and the
// madd-2007-bl update.
void AdditionStep(G2Jacobian* t, const G2Affine& q, JacobianLine* line) {
  const Fp2 X = t->X, Y = t->Y, Z = t->Z;
  Fp2 ZZ = Z.Square();
  Fp2 rr = (q.y * Z * ZZ - Y).Double();  // 2 (y2 Z^3 - Y)

  if (q.infinity) {
    // T unchanged (identity addend); matches AddMixed's early return.
  } else if (Z.IsZero()) {
    t->X = q.x;
    t->Y = q.y;
    t->Z = Fp2::One();
  } else {
    Fp2 u2 = q.x * ZZ;
    Fp2 h = u2 - X;
    if (h.IsZero()) {
      // Degenerate chord (never produced by Miller loops over valid
      // order-r points); matches AddMixed's fallbacks.
      if (rr.IsZero()) {
        JacobianDouble(t);
      } else {
        *t = kG2JacobianInfinity;
      }
    } else {
      Fp2 hh = h.Square();
      Fp2 i = hh.Double().Double();
      Fp2 j = h * i;
      Fp2 v = X * i;
      Fp2 x3 = rr.Square() - j - v.Double();
      t->Y = rr * (v - x3) - (Y * j).Double();
      t->Z = (Z + h).Square() - ZZ - hh;  // 2 Z (x2 Z^2 - X)
      t->X = x3;
    }
  }

  line->c0 = t->Z;
  line->c1 = -rr;
  line->c2 = rr * q.x - t->Z * q.y;
}

// A line with the G1 point multiplied in: a0 + b0*w + b1*w^3.
struct EvalLine {
  Fp2 a0, b0, b1;
};

EvalLine Evaluate(const JacobianLine& line, const Fp& xp, const Fp& yp) {
  return EvalLine{line.c0.MulByFp(yp), line.c1.MulByFp(xp), line.c2};
}

// A prepared line evaluated at the token point: 1 + b0*w + b1*w^3.
struct UnitLine {
  Fp2 b0, b1;
};

// u = xP/yP and v = 1/yP: a normalized line c1, c2 evaluates to
// 1 + (c1 u) w + (c2 v) w^3, i.e. the Jacobian line divided by c0 * yP.
UnitLine Evaluate(const LineCoeffs& line, const Fp& u, const Fp& v) {
  return UnitLine{line.c1.MulByFp(u), line.c2.MulByFp(v)};
}

// Product of two evaluated lines: slots w^0..w^4 (w^3 * w^3 = w^6 = xi wraps
// into slot 0). Six lazy Fp2 products via Karatsuba cross terms.
void MergeLines(const EvalLine& l, const EvalLine& m, Fp2 s[5]) {
  Fp2Wide taa = l.a0.MulWideLazy(m.a0);  // every product here is (2, 2) p^2
  Fp2Wide tbb = l.b0.MulWideLazy(m.b0);
  Fp2Wide tcc = l.b1.MulWideLazy(m.b1);
  s[0] = Fp2::Redc(taa) + Fp2::Redc(tcc).MulByXi();
  s[2] = Fp2::Redc(tbb);
  // Cross terms x*y' + y*x' = (x+y)(x'+y') - xx' - yy'; offset 4p^2 covers
  // the two subtrahends, totals stay < 8p^2.
  s[1] = Fp2::Redc(
      (l.a0 + l.b0).MulWideLazy(m.a0 + m.b0).Offset(fpw::kP2x4) - taa - tbb);
  s[3] = Fp2::Redc(
      (l.a0 + l.b1).MulWideLazy(m.a0 + m.b1).Offset(fpw::kP2x4) - taa - tcc);
  s[4] = Fp2::Redc(
      (l.b0 + l.b1).MulWideLazy(m.b0 + m.b1).Offset(fpw::kP2x4) - tbb - tcc);
}

// Product of two unit lines: 1 + xi*b1b1' in slot 0, b0b0' in slot 2 and
// the cross term b0b1' + b1b0' in slot 4 -- three lazy Fp2 products.
void MergeLines(const UnitLine& l, const UnitLine& m, Fp2 s[5]) {
  Fp2Wide tbb = l.b0.MulWideLazy(m.b0);  // (2, 2) p^2
  Fp2Wide tcc = l.b1.MulWideLazy(m.b1);
  s[0] = Fp2::One() + Fp2::Redc(tcc).MulByXi();
  s[1] = l.b0 + m.b0;
  s[2] = Fp2::Redc(tbb);
  s[3] = l.b1 + m.b1;
  // Same bound as MergeLines above: < 6p^2.
  s[4] = Fp2::Redc(
      (l.b0 + l.b1).MulWideLazy(m.b0 + m.b1).Offset(fpw::kP2x4) - tbb - tcc);
}

Fp12 MulByOneLine(const Fp12& f, const EvalLine& l) {
  return f.MulByLine(l.a0, l.b0, l.b1);
}

// f * (1 + (b0 + b1 v) w) = (c0 + c1 B v) + (c0 B + c1) w for B = b0 + b1 v:
// two sparse Fp6 products, against three for a general line.
Fp12 MulByOneLine(const Fp12& f, const UnitLine& l) {
  Fp6 t0 = f.c0().MulBy01(l.b0, l.b1);
  Fp6 t1 = f.c1().MulBy01(l.b0, l.b1);
  return Fp12(f.c0() + t1.MulByV(), t0 + f.c1());
}

// Multiplies the round's collected lines into f, pairwise-merged: each merged
// product costs ~11.5 Fp2 muls per line against 13 for MulByLine (~10 for
// unit lines), and field associativity makes any grouping produce the same
// canonical element, so the accumulator stays byte-identical to the
// line-at-a-time schedule.
template <typename Line>
Fp12 FoldLines(Fp12 f, const std::vector<Line>& lines) {
  size_t i = 0;
  Fp2 s[5];
  for (; i + 1 < lines.size(); i += 2) {
    MergeLines(lines[i], lines[i + 1], s);
    f = f.MulBySparse5(s[0], s[1], s[2], s[3], s[4]);
  }
  if (i < lines.size()) f = MulByOneLine(f, lines[i]);
  return f;
}

// NAF digits of 6x+2 (65 bits), most significant first.
const std::vector<int8_t>& AteLoopNaf() {
  static const std::vector<int8_t>* kNaf = [] {
    uint128_t s = static_cast<uint128_t>(6) * kBnX + 2;
    std::vector<int8_t> digits;  // least significant first while building
    while (s != 0) {
      int8_t d = 0;
      if (s & 1) {
        uint64_t mod4 = static_cast<uint64_t>(s & 3);
        d = (mod4 == 3) ? -1 : 1;
        if (d > 0) {
          s -= 1;
        } else {
          s += 1;
        }
      }
      digits.push_back(d);
      s >>= 1;
    }
    return new std::vector<int8_t>(digits.rbegin(), digits.rend());
  }();
  return *kNaf;
}

// The ate tail points pi_p(Q) and -pi_{p^2}(Q) of the two closing additions.
std::pair<G2Affine, G2Affine> TailPoints(const G2Affine& q) {
  G2Affine q1 =
      G2Affine::From(TwistFrobeniusX(q.x, 1), TwistFrobeniusY(q.y, 1));
  G2Affine q2_neg =
      G2Affine::From(TwistFrobeniusX(q.x, 2), -TwistFrobeniusY(q.y, 2));
  return {q1, q2_neg};
}

struct PairState {
  Fp xp, yp;      // G1 point (affine)
  G2Affine q;     // G2 point (affine)
  G2Affine negq;  // -Q
  G2Jacobian t;   // running Jacobian point
};

Fp12 MultiMillerLoopImpl(std::vector<PairState>* states) {
  const std::vector<int8_t>& naf = AteLoopNaf();
  Fp12 f = Fp12::One();
  JacobianLine line;
  std::vector<EvalLine> round;
  round.reserve(states->size() * 2);
  // Skip the leading digit (always 1): f starts at 1 and T at Q.
  for (size_t i = 1; i < naf.size(); ++i) {
    f = f.Square();
    round.clear();
    for (PairState& s : *states) {
      DoublingStep(&s.t, &line);
      round.push_back(Evaluate(line, s.xp, s.yp));
    }
    int8_t d = naf[i];
    if (d != 0) {
      for (PairState& s : *states) {
        AdditionStep(&s.t, d > 0 ? s.q : s.negq, &line);
        round.push_back(Evaluate(line, s.xp, s.yp));
      }
    }
    f = FoldLines(f, round);
  }
  // Optimal ate tail: lines through pi_p(Q) and -pi_{p^2}(Q).
  round.clear();
  for (PairState& s : *states) {
    auto [q1, q2_neg] = TailPoints(s.q);
    AdditionStep(&s.t, q1, &line);
    round.push_back(Evaluate(line, s.xp, s.yp));
    AdditionStep(&s.t, q2_neg, &line);
    round.push_back(Evaluate(line, s.xp, s.yp));
  }
  return FoldLines(f, round);
}

std::vector<PairState> BuildStates(
    std::span<const std::pair<G1Affine, G2Affine>> pairs) {
  std::vector<PairState> states;
  states.reserve(pairs.size());
  for (const auto& [p, q] : pairs) {
    if (p.infinity || q.infinity) continue;  // contributes factor 1
    PairState s;
    s.xp = p.x;
    s.yp = p.y;
    s.q = q;
    s.negq = q.Negate();
    s.t = G2Jacobian{q.x, q.y, Fp2::One()};
    states.push_back(s);
  }
  return states;
}

// ---------------------------------------------------------------------------
// Prepared lines.
//
// Q (the row ciphertext) is fixed across queries and P (the token) is shared
// by every row of a table: the fixed-argument case of Costello and Stebila
// (LATINCRYPT 2010). A prepared line is stored divided by its c0, as
// (c1/c0, c2/c0), and the token point becomes u = xP/yP, v = 1/yP once per
// loop; every evaluated line is then 1 + (c1 u) w + (c2 v) w^3, the
// Jacobian line scaled by 1/(c0 yP), and two of them merge with three Fp2
// products instead of six. A line with c0 = 0 cannot be divided; it is
// stored as (0, 0), the line 1, which the final exponentiation cannot tell
// from it (see above). Batched inversions keep the divisions cheap: one
// Fp2 inversion per PrepareBatch call, one Fp inversion per prepared loop.
// ---------------------------------------------------------------------------

// Montgomery's trick: replaces every nonzero element of `xs` by its inverse
// with one field inversion; zeros stay zero. Inverses are unique, so each
// result equals x.Inverse() exactly.
template <typename F>
void BatchInvert(std::span<F> xs) {
  std::vector<F> prefix(xs.size());  // product of the nonzero xs[0..i)
  F acc = F::One();
  for (size_t i = 0; i < xs.size(); ++i) {
    prefix[i] = acc;
    if (!xs[i].IsZero()) acc = acc * xs[i];
  }
  F inv = acc.Inverse();
  for (size_t i = xs.size(); i-- > 0;) {
    if (xs[i].IsZero()) continue;
    const F x = xs[i];
    xs[i] = inv * prefix[i];
    inv = inv * x;
  }
}

struct PreparedPairState {
  Fp u, v;  // xP/yP and 1/yP of the G1 point
  const std::vector<LineCoeffs>* coeffs;
};

// Same schedule as MultiMillerLoopImpl, with every line read from the
// prepared tables instead of derived: `idx` advances once per step, and all
// tables hold their step-idx line at position idx because PrepareBatch
// records them in loop order.
Fp12 MultiMillerLoopPreparedImpl(const std::vector<PreparedPairState>& states) {
  const std::vector<int8_t>& naf = AteLoopNaf();
  Fp12 f = Fp12::One();
  size_t idx = 0;
  std::vector<UnitLine> round;
  round.reserve(states.size() * 2);
  for (size_t i = 1; i < naf.size(); ++i) {
    f = f.Square();
    round.clear();
    for (const PreparedPairState& s : states) {
      round.push_back(Evaluate((*s.coeffs)[idx], s.u, s.v));
    }
    ++idx;
    if (naf[i] != 0) {
      for (const PreparedPairState& s : states) {
        round.push_back(Evaluate((*s.coeffs)[idx], s.u, s.v));
      }
      ++idx;
    }
    f = FoldLines(f, round);
  }
  round.clear();
  for (const PreparedPairState& s : states) {
    round.push_back(Evaluate((*s.coeffs)[idx], s.u, s.v));
    round.push_back(Evaluate((*s.coeffs)[idx + 1], s.u, s.v));
  }
  return FoldLines(f, round);
}

// NAF digits of the BN parameter x, most significant first.
const std::vector<int8_t>& BnXNaf() {
  static const std::vector<int8_t>* kNaf = [] {
    uint128_t s = kBnX;
    std::vector<int8_t> digits;
    while (s != 0) {
      int8_t d = 0;
      if (s & 1) {
        d = ((s & 3) == 3) ? -1 : 1;
        if (d > 0) {
          s -= 1;
        } else {
          s += 1;
        }
      }
      digits.push_back(d);
      s >>= 1;
    }
    return new std::vector<int8_t>(digits.rbegin(), digits.rend());
  }();
  return *kNaf;
}

// f^x for the BN parameter, valid only on the cyclotomic subgroup: NAF
// square-and-multiply with Granger-Scott squarings and the conjugate as the
// inverse. Computes exactly f^x, so it is byte-identical to the generic
// f.Pow(x) it replaced (tests/pairing_test.cc pins this).
Fp12 PowX(const Fp12& f) {
  const std::vector<int8_t>& naf = BnXNaf();
  Fp12 finv = f.Conjugate();
  Fp12 r = f;  // leading digit is always 1
  for (size_t i = 1; i < naf.size(); ++i) {
    r = r.CyclotomicSquare();
    if (naf[i] > 0) {
      r = r * f;
    } else if (naf[i] < 0) {
      r = r * finv;
    }
  }
  return r;
}

}  // namespace

size_t G2Prepared::ScheduleLength() {
  static const size_t kLength = [] {
    const std::vector<int8_t>& naf = AteLoopNaf();
    size_t n = naf.size() - 1;  // one doubling line per digit after the first
    for (size_t i = 1; i < naf.size(); ++i) {
      if (naf[i] != 0) ++n;  // one addition line per nonzero digit
    }
    return n + 2;  // ate tail: two closing addition lines
  }();
  return kLength;
}

G2Prepared G2Prepared::Prepare(const G2Affine& q) {
  return std::move(PrepareBatch(std::span<const G2Affine>(&q, 1)).front());
}

std::vector<G2Prepared> G2Prepared::PrepareBatch(
    std::span<const G2Affine> qs) {
  std::vector<G2Prepared> out(qs.size());
  // Every line's c0, in table order across the batch.
  std::vector<Fp2> c0s;
  c0s.reserve(qs.size() * ScheduleLength());
  const std::vector<int8_t>& naf = AteLoopNaf();
  JacobianLine line;
  for (size_t k = 0; k < qs.size(); ++k) {
    const G2Affine& q = qs[k];
    if (q.infinity) continue;
    G2Prepared& prep = out[k];
    prep.infinity_ = false;
    prep.coeffs_.reserve(ScheduleLength());
    auto record = [&] {
      prep.coeffs_.push_back(LineCoeffs{line.c1, line.c2});
      c0s.push_back(line.c0);
    };
    G2Affine negq = q.Negate();
    G2Jacobian t = {q.x, q.y, Fp2::One()};
    for (size_t i = 1; i < naf.size(); ++i) {
      DoublingStep(&t, &line);
      record();
      if (naf[i] != 0) {
        AdditionStep(&t, naf[i] > 0 ? q : negq, &line);
        record();
      }
    }
    auto [q1, q2_neg] = TailPoints(q);
    AdditionStep(&t, q1, &line);
    record();
    AdditionStep(&t, q2_neg, &line);
    record();
    SJOIN_CHECK(prep.coeffs_.size() == ScheduleLength());
  }
  // A zero c0 keeps a zero "inverse", which stores the line as (0, 0).
  BatchInvert<Fp2>(c0s);
  size_t j = 0;
  for (G2Prepared& prep : out) {
    for (LineCoeffs& l : prep.coeffs_) {
      const Fp2& inv = c0s[j++];
      l = LineCoeffs{l.c1 * inv, l.c2 * inv};
    }
  }
  return out;
}

Fp12 MillerLoop(const G1Affine& p, const G2Affine& q) {
  std::array<std::pair<G1Affine, G2Affine>, 1> one = {{{p, q}}};
  return MultiMillerLoop(one);
}

Fp12 MultiMillerLoop(std::span<const std::pair<G1Affine, G2Affine>> pairs) {
  std::vector<PairState> states = BuildStates(pairs);
  if (states.empty()) return Fp12::One();
  return MultiMillerLoopImpl(&states);
}

Fp12 MillerLoopPrepared(const G1Affine& p, const G2Prepared& q) {
  std::array<std::pair<G1Affine, const G2Prepared*>, 1> one = {{{p, &q}}};
  return MultiMillerLoopPrepared(one);
}

Fp12 MultiMillerLoopPrepared(
    std::span<const std::pair<G1Affine, const G2Prepared*>> pairs) {
  std::vector<PreparedPairState> states;
  std::vector<Fp> inv_y;
  states.reserve(pairs.size());
  inv_y.reserve(pairs.size());
  for (const auto& [p, q] : pairs) {
    SJOIN_CHECK(q != nullptr);
    if (p.infinity || q->infinity()) continue;  // contributes factor 1
    // A non-identity table must match this loop's schedule exactly.
    SJOIN_CHECK(q->coeffs().size() == G2Prepared::ScheduleLength());
    // u holds xP until the batched inversion below turns it into xP/yP.
    states.push_back(PreparedPairState{p.x, Fp(), &q->coeffs()});
    inv_y.push_back(p.y);
  }
  if (states.empty()) return Fp12::One();
  // No point of G1 has y = 0 (E(Fp) has odd prime order); an off-curve
  // input with y = 0 keeps u = v = 0, and its lines evaluate to 1.
  BatchInvert<Fp>(inv_y);
  for (size_t k = 0; k < states.size(); ++k) {
    states[k].v = inv_y[k];
    states[k].u = states[k].u * inv_y[k];
  }
  return MultiMillerLoopPreparedImpl(states);
}

namespace {

// Easy part f^((p^6 - 1)(p^2 + 1)) with the Fp12 inversion of f passed in,
// so the batch entry point can amortize inversions across rows. The result
// lands in the cyclotomic subgroup, where the hard part's Granger-Scott
// squarings are valid.
Fp12 FinalExpEasy(const Fp12& f, const Fp12& finv) {
  Fp12 m = f.Conjugate() * finv;  // f^(p^6 - 1)
  return Frobenius(m, 2) * m;     // ^(p^2 + 1)
}

// Hard part (Beuchat et al., "High-speed software implementation of the
// optimal ate pairing over BN curves"): m^((p^4 - p^2 + 1)/r) for m in the
// cyclotomic subgroup. All squarings are cyclotomic (the subgroup is closed
// under products, conjugation and Frobenius).
Fp12 FinalExpHard(const Fp12& m) {
  Fp12 ft1 = PowX(m);
  Fp12 ft2 = PowX(ft1);
  Fp12 ft3 = PowX(ft2);
  Fp12 y0 = Frobenius(m, 1) * Frobenius(m, 2) * Frobenius(m, 3);
  Fp12 y1 = m.Conjugate();
  Fp12 y2 = Frobenius(ft2, 2);
  Fp12 y3 = Frobenius(ft1, 1).Conjugate();
  Fp12 y4 = (ft1 * Frobenius(ft2, 1)).Conjugate();
  Fp12 y5 = ft2.Conjugate();
  Fp12 y6 = (ft3 * Frobenius(ft3, 1)).Conjugate();
  Fp12 t0 = y6.CyclotomicSquare() * y4 * y5;
  Fp12 t1 = y3 * y5 * t0;
  t0 = t0 * y2;
  t1 = (t1.CyclotomicSquare() * t0).CyclotomicSquare();
  t0 = t1 * y1;
  t1 = t1 * y0;
  t0 = t0.CyclotomicSquare();
  return t1 * t0;
}

}  // namespace

Fp12 FinalExponentiation(const Fp12& f) {
  if (f.IsZero()) return f;  // degenerate; never produced by Miller loops
  return FinalExpHard(FinalExpEasy(f, f.Inverse()));
}

std::vector<Fp12> FinalExponentiationBatch(std::span<const Fp12> fs) {
  // One Fp12 inversion for the batch; each recovered inverse is the exact
  // element f.Inverse() computes, so the per-row path stays byte-identical.
  std::vector<Fp12> out(fs.begin(), fs.end());
  BatchInvert<Fp12>(out);
  for (size_t i = 0; i < fs.size(); ++i) {
    // Degenerate (zero) rows pass through as zero.
    if (!fs[i].IsZero()) out[i] = FinalExpHard(FinalExpEasy(fs[i], out[i]));
  }
  return out;
}

Fp12 FinalExponentiationReference(const Fp12& f) {
  if (f.IsZero()) return f;
  Fp12 m = f.Conjugate() * f.Inverse();
  m = Frobenius(m, 2) * m;
  BigInt p = BigInt::FromDecimal(kBn254PDecimal);
  BigInt r = BigInt::FromDecimal(kBn254RDecimal);
  BigInt p2 = p * p;
  BigInt p4 = p2 * p2;
  auto [hard, rem] = (p4 - p2 + BigInt(1)).DivMod(r);
  SJOIN_CHECK(rem.IsZero());
  return m.Pow(hard);
}

GT Pair(const G1Affine& p, const G2Affine& q) {
  return GT(FinalExponentiation(MillerLoop(p, q)));
}

GT Pair(const G1& p, const G2& q) {
  return Pair(p.ToAffine(), q.ToAffine());
}

GT MultiPair(std::span<const std::pair<G1Affine, G2Affine>> pairs) {
  return GT(FinalExponentiation(MultiMillerLoop(pairs)));
}

GT PairPrepared(const G1Affine& p, const G2Prepared& q) {
  return GT(FinalExponentiation(MillerLoopPrepared(p, q)));
}

GT MultiPairPrepared(
    std::span<const std::pair<G1Affine, const G2Prepared*>> pairs) {
  return GT(FinalExponentiation(MultiMillerLoopPrepared(pairs)));
}

}  // namespace sjoin
