// Secure Join (paper Section 4.3): the five algorithms
// (SJ.Setup, SJ.Enc, SJ.TokenGen, SJ.Dec, SJ.Match).
//
// Row encoding (SJ.Enc), dimension n = m(t+1) + 3:
//   w = ( H(a_0), g2_r*a_1^0..a_1^t, ..., g2_r*a_m^0..a_m^t, g1_r, 0 )
// where g1_r, g2_r are fresh per-row randomizers (the paper's gamma_{r,1},
// gamma_{r,2}).
//
// Token encoding (SJ.TokenGen) for the query key k and per-attribute
// predicate polynomials P_i:
//   v = ( k, p_{1,0..t}, ..., p_{m,0..t}, 0, delta ).
//
// Decryption gives D = e(g1,g2)^{det(B) (k H(a_0) + g2_r * sum_i P_i(a_i))}:
// when every selection polynomial vanishes on the row's attributes, D
// depends only on (k, H(a_0)) -- equal join values collide within one query
// and only within one query, because k is fresh per query.
#ifndef SJOIN_CORE_SCHEME_H_
#define SJOIN_CORE_SCHEME_H_

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/poly.h"
#include "crypto/hash_to_field.h"
#include "crypto/sha256.h"
#include "ipe/ipe.h"
#include "util/status.h"

namespace sjoin {

class ThreadPool;

/// Public dimensioning parameters: m attributes, IN clauses of size <= t.
struct SecureJoinParams {
  size_t num_attrs = 1;      // m
  size_t max_in_clause = 1;  // t

  size_t Dimension() const { return num_attrs * (max_in_clause + 1) + 3; }
};

/// SJ ciphertext of one row.
struct SjRowCiphertext {
  std::vector<G2Affine> c;
};

/// Prepared form of one row's SJ ciphertext: per-slot Miller-loop line
/// tables (G2Prepared), normalized with one batched Fp2 inversion per
/// row. Building one costs a single SJ.Dec's worth of G2 arithmetic plus
/// the normalization (~0.5x a cold SJ.Dec Miller loop at dimension 21);
/// every later SJ.Dec against the row -- under ANY token -- then skips
/// all G2 line derivation. Much larger than the ciphertext
/// (ScheduleLength() = 88 lines of 128 bytes per slot, ~232 KB per row at
/// dimension 21), hence the server's memory-bounded cache rather than
/// unconditional preparation.
struct SjPreparedRow {
  std::vector<G2Prepared> c;

  /// Heap + object footprint (cache accounting).
  size_t MemoryBytes() const;
  /// Footprint a prepared row of `dim` non-identity slots will have,
  /// before paying for the preparation.
  static size_t BytesForDim(size_t dim);
};

/// SJ token for one table within one query.
struct SjToken {
  std::vector<G1Affine> tk;
};

/// Selection predicates for one table: predicates[i] is the IN set for
/// attribute i (empty = attribute unrestricted). |predicates| == m,
/// |predicates[i]| <= t.
using SjPredicates = std::vector<std::vector<Fr>>;

class SecureJoin {
 public:
  struct MasterKey {
    SecureJoinParams params;
    IpeMasterKey ipe;
  };

  /// SJ.Setup (client, upload phase).
  static MasterKey Setup(const SecureJoinParams& params, Rng* rng);

  /// SJ.Enc (client, upload phase). `join_value_hash` is H(a_0); `attrs`
  /// are the m attribute values embedded in Z_q.
  static SjRowCiphertext EncryptRow(const MasterKey& msk,
                                    const Fr& join_value_hash,
                                    std::span<const Fr> attrs, Rng* rng);

  /// SJ.TokenGen (client, query phase) for one table, under query key `k`.
  /// `k` must be shared by the two tokens of one join query and fresh across
  /// queries (use GenTokenPair).
  static SjToken GenToken(const MasterKey& msk, const SjPredicates& predicates,
                          const Fr& k, Rng* rng);

  /// Generates the (token_A, token_B) pair of one join query with a fresh
  /// symmetric query key k <- Z_q \ {0}.
  static std::pair<SjToken, SjToken> GenTokenPair(const MasterKey& msk,
                                                  const SjPredicates& preds_a,
                                                  const SjPredicates& preds_b,
                                                  Rng* rng);

  /// SJ.Dec (server, query phase): D = e(Tk, C).
  static GT Decrypt(const SjToken& token, const SjRowCiphertext& ct);

  /// Digest of D used for hash joins and leakage accounting.
  static Digest32 DecryptToDigest(const SjToken& token,
                                  const SjRowCiphertext& ct);

  /// Row-batch width of the batched decrypt kernel: at 8 rows the shared
  /// Fp12 inversion of the batched final exponentiation is already ~1/8
  /// of the per-row inversion bill (diminishing returns beyond).
  static constexpr size_t kDefaultDecryptBatchRows = 8;

  /// Parallel bulk decryption (num_threads <= 0 means hardware concurrency)
  /// through DigestRowsBatched on ThreadPool::Shared(); element-wise
  /// byte-identical to per-row DecryptToDigest for every width.
  static std::vector<Digest32> DecryptRows(
      const SjToken& token, std::span<const SjRowCiphertext> rows,
      int num_threads = 1);

  /// Hoists the G2-side Miller-loop work of one row out of SJ.Dec (see
  /// SjPreparedRow). Token-independent: one prepared row serves every
  /// query of a series.
  static SjPreparedRow PrepareRow(const SjRowCiphertext& ct);

  /// SJ.Dec from a prepared row; same D as Decrypt on the source row.
  static GT DecryptPrepared(const SjToken& token, const SjPreparedRow& row);
  static Digest32 DecryptToDigestPrepared(const SjToken& token,
                                          const SjPreparedRow& row);

  /// Parallel bulk decryption over prepared rows; element-wise equal to
  /// DecryptRows over the rows the preparations came from.
  static std::vector<Digest32> DecryptRowsPrepared(
      const SjToken& token, std::span<const SjPreparedRow> rows,
      int num_threads = 1);

  /// Miller-loop half of SJ.Dec for one row (pre-final-exponentiation
  /// accumulator). Building blocks for callers whose rows mix cold and
  /// prepared paths (db/prepared_cache.h's DecryptRowsCached): produce one
  /// Fp12 per row from either variant inside DigestRowsBatched.
  static Fp12 DecryptRowMiller(const SjToken& token,
                               const SjRowCiphertext& ct);
  static Fp12 DecryptRowMillerPrepared(const SjToken& token,
                                       const SjPreparedRow& row);

  /// Batched final exponentiation + digest over collected Miller outputs:
  /// element i equals the DecryptToDigest/DecryptToDigestPrepared output
  /// of the row that produced millers[i], byte for byte.
  static std::vector<Digest32> DigestMillerBatch(std::span<const Fp12> millers);

  /// The one SJ.Dec fan-out: out[i] becomes the digest of miller(i), which
  /// runs exactly once per row. Rows are cut into contiguous chunks of
  /// min(kDefaultDecryptBatchRows, ceil(rows / width)) -- so a short row
  /// list still reaches every thread, and width 1 is the sequential
  /// 8-row loop -- and the chunks (each its Miller loops, then one
  /// DigestMillerBatch) run on up to `width` executors of `pool` (<= 0:
  /// pool.concurrency()). Chunking only groups final exponentiations, so
  /// the digests are byte-identical to per-row decryption for any width.
  /// Safe to call from a task already running on `pool`.
  static void DigestRowsBatched(ThreadPool& pool, int width,
                                std::span<Digest32> out,
                                const std::function<Fp12(size_t)>& miller);

  /// SJ.Match (server, query result).
  static bool Match(const GT& da, const GT& db) { return da == db; }
};

/// Output pair (row_a, row_b) of a hash join over decrypted digests.
struct JoinedRowPair {
  size_t row_a;
  size_t row_b;
  bool operator==(const JoinedRowPair& o) const {
    return row_a == o.row_a && row_b == o.row_b;
  }
  bool operator<(const JoinedRowPair& o) const {
    return row_a != o.row_a ? row_a < o.row_a : row_b < o.row_b;
  }
};

/// Expected-O(n) hash join: builds a table over `da`, probes with `db`.
std::vector<JoinedRowPair> HashJoinDigests(std::span<const Digest32> da,
                                           std::span<const Digest32> db);

/// O(n^2) nested-loop join over the same digests (the baseline join
/// algorithm of Hahn et al.; used by the ablation benchmark).
std::vector<JoinedRowPair> NestedLoopJoinDigests(std::span<const Digest32> da,
                                                 std::span<const Digest32> db);

}  // namespace sjoin

#endif  // SJOIN_CORE_SCHEME_H_
