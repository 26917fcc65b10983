#include "core/scheme.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "util/thread_pool.h"

namespace sjoin {

SecureJoin::MasterKey SecureJoin::Setup(const SecureJoinParams& params,
                                        Rng* rng) {
  SJOIN_CHECK(params.num_attrs >= 1);
  SJOIN_CHECK(params.max_in_clause >= 1);
  MasterKey msk;
  msk.params = params;
  msk.ipe = IpeMasterKey::Setup(params.Dimension(), rng);
  return msk;
}

SjRowCiphertext SecureJoin::EncryptRow(const MasterKey& msk,
                                       const Fr& join_value_hash,
                                       std::span<const Fr> attrs, Rng* rng) {
  const size_t m = msk.params.num_attrs;
  const size_t t = msk.params.max_in_clause;
  SJOIN_CHECK(attrs.size() == m);

  Fr gamma1 = rng->NextFr();
  Fr gamma2 = rng->NextFrNonZero();

  std::vector<Fr> w;
  w.reserve(msk.params.Dimension());
  w.push_back(join_value_hash);
  for (size_t i = 0; i < m; ++i) {
    // gamma2 * attrs[i]^j for j = 0..t.
    Fr power = Fr::One();
    for (size_t j = 0; j <= t; ++j) {
      w.push_back(gamma2 * power);
      power *= attrs[i];
    }
  }
  w.push_back(gamma1);
  w.push_back(Fr::Zero());

  SjRowCiphertext ct;
  ct.c = ModifiedIpe::Encrypt(msk.ipe, w);
  return ct;
}

SjToken SecureJoin::GenToken(const MasterKey& msk,
                             const SjPredicates& predicates, const Fr& k,
                             Rng* rng) {
  const size_t m = msk.params.num_attrs;
  const size_t t = msk.params.max_in_clause;
  SJOIN_CHECK(predicates.size() == m);
  SJOIN_CHECK(!k.IsZero());

  Fr delta = rng->NextFr();

  std::vector<Fr> v;
  v.reserve(msk.params.Dimension());
  v.push_back(k);
  for (size_t i = 0; i < m; ++i) {
    SJOIN_CHECK(predicates[i].size() <= t);
    std::vector<Fr> coeffs =
        predicates[i].empty()
            ? ZeroPolynomial(t)
            : RandomizedPolynomialFromRoots(predicates[i], t, rng);
    v.insert(v.end(), coeffs.begin(), coeffs.end());
  }
  v.push_back(Fr::Zero());
  v.push_back(delta);

  SjToken token;
  token.tk = ModifiedIpe::KeyGen(msk.ipe, v);
  return token;
}

std::pair<SjToken, SjToken> SecureJoin::GenTokenPair(
    const MasterKey& msk, const SjPredicates& preds_a,
    const SjPredicates& preds_b, Rng* rng) {
  Fr k = rng->NextFrNonZero();
  return {GenToken(msk, preds_a, k, rng), GenToken(msk, preds_b, k, rng)};
}

size_t SjPreparedRow::MemoryBytes() const {
  size_t bytes = sizeof(*this) + c.capacity() * sizeof(G2Prepared);
  for (const G2Prepared& p : c) bytes += p.coeffs().capacity() * sizeof(LineCoeffs);
  return bytes;
}

size_t SjPreparedRow::BytesForDim(size_t dim) {
  return sizeof(SjPreparedRow) +
         dim * (sizeof(G2Prepared) +
                G2Prepared::ScheduleLength() * sizeof(LineCoeffs));
}

GT SecureJoin::Decrypt(const SjToken& token, const SjRowCiphertext& ct) {
  return ModifiedIpe::Decrypt(token.tk, ct.c);
}

SjPreparedRow SecureJoin::PrepareRow(const SjRowCiphertext& ct) {
  return SjPreparedRow{ModifiedIpe::PrepareCiphertext(ct.c)};
}

GT SecureJoin::DecryptPrepared(const SjToken& token, const SjPreparedRow& row) {
  return ModifiedIpe::DecryptPrepared(token.tk, row.c);
}

Digest32 SecureJoin::DecryptToDigestPrepared(const SjToken& token,
                                             const SjPreparedRow& row) {
  auto bytes = DecryptPrepared(token, row).ToBytes();
  return Sha256::Hash(bytes.data(), bytes.size());
}

Digest32 SecureJoin::DecryptToDigest(const SjToken& token,
                                     const SjRowCiphertext& ct) {
  auto bytes = Decrypt(token, ct).ToBytes();
  return Sha256::Hash(bytes.data(), bytes.size());
}

namespace {

Digest32 DigestOfGt(const GT& g) {
  auto bytes = g.ToBytes();
  return Sha256::Hash(bytes.data(), bytes.size());
}

}  // namespace

Fp12 SecureJoin::DecryptRowMiller(const SjToken& token,
                                  const SjRowCiphertext& ct) {
  return ModifiedIpe::DecryptMiller(token.tk, ct.c);
}

Fp12 SecureJoin::DecryptRowMillerPrepared(const SjToken& token,
                                          const SjPreparedRow& row) {
  return ModifiedIpe::DecryptMillerPrepared(token.tk, row.c);
}

std::vector<Digest32> SecureJoin::DigestMillerBatch(
    std::span<const Fp12> millers) {
  std::vector<Fp12> exp = FinalExponentiationBatch(millers);
  std::vector<Digest32> out;
  out.reserve(exp.size());
  for (const Fp12& e : exp) out.push_back(DigestOfGt(GT(e)));
  return out;
}

void SecureJoin::DigestRowsBatched(ThreadPool& pool, int width,
                                   std::span<Digest32> out,
                                   const std::function<Fp12(size_t)>& miller) {
  const size_t threads =
      static_cast<size_t>(width > 0 ? width : pool.concurrency());
  const size_t chunk =
      std::min(kDefaultDecryptBatchRows, (out.size() + threads - 1) / threads);
  if (chunk == 0) return;
  const size_t num_chunks = (out.size() + chunk - 1) / chunk;
  // ParallelFor clamps the width to the pool and the chunk count, and runs
  // a lone executor inline.
  pool.ParallelFor(num_chunks, static_cast<int>(threads), [&](size_t c) {
    const size_t lo = c * chunk;
    const size_t hi = std::min(lo + chunk, out.size());
    std::vector<Fp12> millers;
    millers.reserve(hi - lo);
    for (size_t i = lo; i < hi; ++i) millers.push_back(miller(i));
    std::vector<Digest32> digests = DigestMillerBatch(millers);
    std::copy(digests.begin(), digests.end(), out.begin() + lo);
  });
}

std::vector<Digest32> SecureJoin::DecryptRows(
    const SjToken& token, std::span<const SjRowCiphertext> rows,
    int num_threads) {
  std::vector<Digest32> out(rows.size());
  DigestRowsBatched(ThreadPool::Shared(), num_threads, out, [&](size_t i) {
    return ModifiedIpe::DecryptMiller(token.tk, rows[i].c);
  });
  return out;
}

std::vector<Digest32> SecureJoin::DecryptRowsPrepared(
    const SjToken& token, std::span<const SjPreparedRow> rows,
    int num_threads) {
  std::vector<Digest32> out(rows.size());
  DigestRowsBatched(ThreadPool::Shared(), num_threads, out, [&](size_t i) {
    return ModifiedIpe::DecryptMillerPrepared(token.tk, rows[i].c);
  });
  return out;
}

namespace {

struct DigestKey {
  Digest32 d;
  bool operator==(const DigestKey& o) const { return d == o.d; }
};

struct DigestKeyHash {
  size_t operator()(const DigestKey& k) const {
    size_t h;
    std::memcpy(&h, k.d.data(), sizeof(h));
    return h;
  }
};

}  // namespace

std::vector<JoinedRowPair> HashJoinDigests(std::span<const Digest32> da,
                                           std::span<const Digest32> db) {
  std::unordered_multimap<DigestKey, size_t, DigestKeyHash> build;
  build.reserve(da.size());
  for (size_t i = 0; i < da.size(); ++i) {
    build.emplace(DigestKey{da[i]}, i);
  }
  std::vector<JoinedRowPair> out;
  for (size_t j = 0; j < db.size(); ++j) {
    auto [lo, hi] = build.equal_range(DigestKey{db[j]});
    for (auto it = lo; it != hi; ++it) {
      out.push_back(JoinedRowPair{it->second, j});
    }
  }
  return out;
}

std::vector<JoinedRowPair> NestedLoopJoinDigests(std::span<const Digest32> da,
                                                 std::span<const Digest32> db) {
  std::vector<JoinedRowPair> out;
  for (size_t i = 0; i < da.size(); ++i) {
    for (size_t j = 0; j < db.size(); ++j) {
      if (da[i] == db[j]) out.push_back(JoinedRowPair{i, j});
    }
  }
  return out;
}

}  // namespace sjoin
