// Optimal ate pairing e : G1 x G2 -> GT on BN254.
//
// The Miller loop runs over the NAF digits of 6x+2 (x = kBnX) with line
// functions evaluated at the G1 point; after the loop two extra line
// additions with pi_p(Q) and -pi_{p^2}(Q) complete the optimal ate formula.
// Line functions are derived in Jacobian coordinates (see pairing.cc) and
// are scaled by arbitrary nonzero Fp2 constants, which the final
// exponentiation eliminates. The plain and prepared loops scale their lines
// differently (a prepared line is divided by its w^0 coefficient), so their
// Miller outputs differ by such factors and agree after the final
// exponentiation.
//
// Cost model (what dominates, and what each entry point amortizes):
//
//   A full pairing e(P, Q) = FinalExponentiation(MillerLoop(P, Q)) splits
//   into three cost classes:
//
//   1. Shared squaring chain: one Fp12 squaring per NAF digit (~65),
//      independent of the number of pairs. MultiMillerLoop shares this
//      chain across all pairs, so a product of n pairings costs one chain,
//      not n -- this is what makes SJ.Dec cost ~n sparse multiplications
//      instead of n full pairings for vector dimension n.
//
//   2. Per-pair, per-step work, two components:
//        (a) G2 line derivation: a Jacobian doubling or mixed addition on
//            the twist plus the line-coefficient formulas, ~10 Fp2
//            multiplications per step. Depends only on Q.
//        (b) Line evaluation + accumulation: two Fp2-by-Fp scalings per
//            line, then lines merged in pairs and multiplied into the
//            accumulator with one sparse Fp12 product per pair
//            (MulBySparse5). Depends on P and the running accumulator.
//      G2Prepared caches (a) once per Q, normalized so every line has
//      w^0 coefficient 1: a pair of prepared lines merges with 3 Fp2
//      products instead of 6. The *Prepared overloads pay only (b). At
//      the paper's dimension 21 a prepared loop costs ~0.46x a cold one
//      (~5.0 vs ~10.8 ms per row on a 4-vCPU Xeon container). (a) is
//      ~40% of a cold loop; normalizing adds ~35% to it (one batched Fp2
//      inversion plus 5 Fp2 products per line), which the cheaper loop
//      repays within three warm decrypts of the row.
//
//   3. Final exponentiation: fixed ~(3 PowX + Frobenius/multiply chain)
//      per *output*, shared by all pairs of a multi-pairing and unaffected
//      by preparation. One multi-pairing therefore always beats a product
//      of single pairings, prepared or not.
#ifndef SJOIN_PAIRING_PAIRING_H_
#define SJOIN_PAIRING_PAIRING_H_

#include <span>
#include <utility>
#include <vector>

#include "ec/g1.h"
#include "ec/g2.h"
#include "pairing/g2_prepared.h"
#include "pairing/gt.h"

namespace sjoin {

/// Miller loop only (no final exponentiation).
Fp12 MillerLoop(const G1Affine& p, const G2Affine& q);

/// Product of Miller loops with one shared squaring chain.
Fp12 MultiMillerLoop(std::span<const std::pair<G1Affine, G2Affine>> pairs);

/// Miller loop consuming a prepared Q: line evaluation + sparse
/// multiplication only, no G2 arithmetic (cost class 2(b) above).
/// FinalExponentiation of it equals FinalExponentiation(MillerLoop(p, q))
/// for prepared = G2Prepared::Prepare(q); the raw outputs differ by line
/// scalings.
Fp12 MillerLoopPrepared(const G1Affine& p, const G2Prepared& q);

/// Prepared product with one shared squaring chain. The token points
/// become (xP/yP, 1/yP) with one batched Fp inversion per call. The
/// pointed-to G2Prepared values must outlive the call; pairs with an
/// identity on either side contribute factor 1.
Fp12 MultiMillerLoopPrepared(
    std::span<const std::pair<G1Affine, const G2Prepared*>> pairs);

/// Final exponentiation f^((p^12-1)/r): easy part + Beuchat et al. hard part.
Fp12 FinalExponentiation(const Fp12& f);

/// Reference final exponentiation: the hard part computed by naive
/// square-and-multiply with the BigInt exponent (p^4 - p^2 + 1)/r.
/// Slow; used by tests to validate the fast chain.
Fp12 FinalExponentiationReference(const Fp12& f);

/// Final exponentiation of a batch of Miller-loop outputs: one shared Fp12
/// inversion (Montgomery trick) serves every row's easy part. Entry i of
/// the result equals FinalExponentiation(fs[i]) byte-for-byte -- inverses
/// are unique, so the amortization cannot change any output; zero inputs
/// pass through as zero. A batch of one degrades to the per-row cost.
std::vector<Fp12> FinalExponentiationBatch(std::span<const Fp12> fs);

/// e(P, Q). Returns GT::One() if either input is the identity.
GT Pair(const G1& p, const G2& q);
GT Pair(const G1Affine& p, const G2Affine& q);

/// prod_i e(P_i, Q_i) with a single final exponentiation.
GT MultiPair(std::span<const std::pair<G1Affine, G2Affine>> pairs);

/// e(P, Q) from a prepared Q.
GT PairPrepared(const G1Affine& p, const G2Prepared& q);

/// prod_i e(P_i, Q_i) from prepared Q_i with a single final exponentiation.
GT MultiPairPrepared(
    std::span<const std::pair<G1Affine, const G2Prepared*>> pairs);

}  // namespace sjoin

#endif  // SJOIN_PAIRING_PAIRING_H_
