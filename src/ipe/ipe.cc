#include "ipe/ipe.h"

namespace sjoin {
namespace {

std::vector<G1Affine> G1Exponents(std::span<const Fr> exps) {
  std::vector<G1> jac;
  jac.reserve(exps.size());
  const G1FixedBase& table = G1GeneratorTable();
  for (const Fr& e : exps) jac.push_back(table.Mul(e));
  return BatchToAffine<G1Curve>(jac);
}

std::vector<G2Affine> G2Exponents(std::span<const Fr> exps) {
  std::vector<G2> jac;
  jac.reserve(exps.size());
  const G2FixedBase& table = G2GeneratorTable();
  for (const Fr& e : exps) jac.push_back(table.Mul(e));
  return BatchToAffine<G2Curve>(jac);
}

}  // namespace

IpeMasterKey IpeMasterKey::Setup(size_t dim, Rng* rng) {
  IpeMasterKey msk;
  msk.dim = dim;
  msk.b = FrMatrix::RandomInvertible(dim, rng);
  auto inv = msk.b.InverseAndDet();
  SJOIN_CHECK(inv.ok());  // RandomInvertible guarantees invertibility
  msk.det = inv->second;
  msk.b_star = inv->first.Transpose().ScalarMul(msk.det);
  return msk;
}

IpeSecretKey Ipe::KeyGen(const IpeMasterKey& msk, std::span<const Fr> v,
                         Rng* rng) {
  SJOIN_CHECK(v.size() == msk.dim);
  Fr alpha = rng->NextFr();
  std::vector<Fr> vb = msk.b.RowVecMul(v);  // v * B
  for (Fr& x : vb) x *= alpha;
  IpeSecretKey sk;
  sk.k1 = G1GeneratorTable().Mul(alpha * msk.det).ToAffine();
  sk.k2 = G1Exponents(vb);
  return sk;
}

IpeCiphertext Ipe::Encrypt(const IpeMasterKey& msk, std::span<const Fr> w,
                           Rng* rng) {
  SJOIN_CHECK(w.size() == msk.dim);
  Fr beta = rng->NextFr();
  std::vector<Fr> wb = msk.b_star.RowVecMul(w);  // w * B*
  for (Fr& x : wb) x *= beta;
  IpeCiphertext ct;
  ct.c1 = G2GeneratorTable().Mul(beta).ToAffine();
  ct.c2 = G2Exponents(wb);
  return ct;
}

Result<int64_t> Ipe::DecryptRange(const IpeSecretKey& sk,
                                  const IpeCiphertext& ct, int64_t range_lo,
                                  int64_t range_hi) {
  SJOIN_CHECK(sk.k2.size() == ct.c2.size());
  SJOIN_CHECK(range_lo <= range_hi);
  GT d1 = Pair(sk.k1, ct.c1);
  std::vector<std::pair<G1Affine, G2Affine>> pairs;
  pairs.reserve(sk.k2.size());
  for (size_t i = 0; i < sk.k2.size(); ++i) {
    pairs.emplace_back(sk.k2[i], ct.c2[i]);
  }
  GT d2 = MultiPair(pairs);
  // Walk S = [lo, hi] incrementally: candidate = D1^z.
  auto signed_pow = [&](int64_t z) {
    U256 mag{{static_cast<uint64_t>(z < 0 ? -z : z), 0, 0, 0}};
    GT p = d1.Pow(mag);
    return z < 0 ? p.Inverse() : p;
  };
  GT candidate = signed_pow(range_lo);
  for (int64_t z = range_lo; z <= range_hi; ++z) {
    if (candidate == d2) return z;
    candidate *= d1;
  }
  return Status::NotFound("inner product outside decryption range S");
}

std::vector<G1Affine> ModifiedIpe::KeyGen(const IpeMasterKey& msk,
                                          std::span<const Fr> v) {
  SJOIN_CHECK(v.size() == msk.dim);
  std::vector<Fr> vb = msk.b.RowVecMul(v);  // v * B
  return G1Exponents(vb);
}

std::vector<G2Affine> ModifiedIpe::Encrypt(const IpeMasterKey& msk,
                                           std::span<const Fr> w) {
  SJOIN_CHECK(w.size() == msk.dim);
  std::vector<Fr> wb = msk.b_star.RowVecMul(w);  // w * B*
  return G2Exponents(wb);
}

GT ModifiedIpe::Decrypt(std::span<const G1Affine> token,
                        std::span<const G2Affine> ct) {
  return GT(FinalExponentiation(DecryptMiller(token, ct)));
}

Fp12 ModifiedIpe::DecryptMiller(std::span<const G1Affine> token,
                                std::span<const G2Affine> ct) {
  SJOIN_CHECK(token.size() == ct.size());
  std::vector<std::pair<G1Affine, G2Affine>> pairs;
  pairs.reserve(token.size());
  for (size_t i = 0; i < token.size(); ++i) {
    pairs.emplace_back(token[i], ct[i]);
  }
  return MultiMillerLoop(pairs);
}

std::vector<G2Prepared> ModifiedIpe::PrepareCiphertext(
    std::span<const G2Affine> ct) {
  return G2Prepared::PrepareBatch(ct);
}

GT ModifiedIpe::DecryptPrepared(std::span<const G1Affine> token,
                                std::span<const G2Prepared> ct) {
  return GT(FinalExponentiation(DecryptMillerPrepared(token, ct)));
}

Fp12 ModifiedIpe::DecryptMillerPrepared(std::span<const G1Affine> token,
                                        std::span<const G2Prepared> ct) {
  SJOIN_CHECK(token.size() == ct.size());
  std::vector<std::pair<G1Affine, const G2Prepared*>> pairs;
  pairs.reserve(token.size());
  for (size_t i = 0; i < token.size(); ++i) {
    pairs.emplace_back(token[i], &ct[i]);
  }
  return MultiMillerLoopPrepared(pairs);
}

}  // namespace sjoin
