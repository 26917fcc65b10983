// Prepared G2 points: the G2-side work of the Miller loop, done once.
//
// Every Miller loop over a fixed Q walks the same NAF schedule of 6x+2 and
// derives the same doubling/addition lines -- only the evaluation at the G1
// point P differs. The loop derives each line as c0 yP + (c1 xP) w + c2 w^3
// (c0, c1, c2 in Fp2); a G2Prepared stores it divided by c0, as the pair
//     (c1/c0, c2/c0),   evaluated as   1 + (c1/c0 xP/yP) w + (c2/c0 1/yP) w^3,
// in exactly the order MillerLoopPrepared consumes them (one per doubling
// step, one per addition step, two for the optimal-ate tail). The division
// scales each line by an Fp2 constant, which the final exponentiation
// removes (pairing.cc). Consuming a prepared point costs two Fp2-by-Fp
// scalings per line, and two lines merge with three Fp2 products before
// one sparse Fp12 multiplication; all Jacobian G2 arithmetic and line
// derivation is skipped. A line is 128 bytes, 88 per point.
//
// This is the server-side amortization lever for a series of queries: row
// ciphertexts live in G2 and are fixed across queries, while tokens (G1)
// are fresh per query but shared by every row of a table, so preparing a
// row once pays off on every query after the first.
#ifndef SJOIN_PAIRING_G2_PREPARED_H_
#define SJOIN_PAIRING_G2_PREPARED_H_

#include <cstddef>
#include <span>
#include <vector>

#include "ec/g2.h"

namespace sjoin {

/// One Miller-loop line divided by its w^0 coefficient (see above). A line
/// whose w^0 coefficient is zero (only degenerate steps of points outside
/// G2 produce one) is stored as (0, 0), the line 1.
struct LineCoeffs {
  Fp2 c1;  // w^1 slot, scaled by xP/yP at evaluation time
  Fp2 c2;  // w^3 slot, scaled by 1/yP at evaluation time
};

/// A G2 point with every Miller-loop line precomputed. Immutable after
/// Prepare; safe to share across threads. Prepare costs one Miller loop's
/// worth of G2 arithmetic plus the normalization (built in pairing.cc
/// alongside the loop whose schedule it mirrors).
class G2Prepared {
 public:
  /// Default-constructed: the prepared identity (empty line table).
  G2Prepared() = default;

  /// Derives the full line table of `q`.
  static G2Prepared Prepare(const G2Affine& q);

  /// Prepares several points with one Fp2 inversion shared by all their
  /// lines (Montgomery's trick); entry i equals Prepare(qs[i]).
  static std::vector<G2Prepared> PrepareBatch(std::span<const G2Affine> qs);

  /// Number of lines per non-identity point; every G2Prepared holds either
  /// exactly this many coefficients or none (identity).
  static size_t ScheduleLength();

  bool infinity() const { return infinity_; }
  const std::vector<LineCoeffs>& coeffs() const { return coeffs_; }

  /// Heap + object footprint, used by the server's prepared-row cache to
  /// enforce its memory bound.
  size_t MemoryBytes() const {
    return sizeof(*this) + coeffs_.capacity() * sizeof(LineCoeffs);
  }

 private:
  bool infinity_ = true;
  std::vector<LineCoeffs> coeffs_;
};

}  // namespace sjoin

#endif  // SJOIN_PAIRING_G2_PREPARED_H_
