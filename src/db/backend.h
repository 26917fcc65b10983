// Server-side join backends and the adaptive hybrid executor.
//
// The paper's pairing pipeline (EncryptedServer::ExecuteJoinSeries) is the
// default `sjoin` backend: always available, minimum leakage, but every
// cold row costs a full Miller loop. The Section 6.5 comparison schemes
// (deterministic join tags, CryptDB's RND-wrapped onion over them) are
// re-homed here as fast low-security backends that join on the per-row
// BackendRowEncoding the client may have uploaded. They answer
// the SAME queries over the SAME SSE selections and produce digests the
// server joins through the SAME SJ.Match path, so their results are
// byte-identical to the pairing pipeline's -- only the leakage differs:
// a fast backend reveals the full join-tag equality pattern of the
// tables it touches.
//
// That reveal is what the AdaptiveExecutor prices. Per query it asks each
// client-and-server-allowed fast backend for its projected cost and its
// projected NEW revealed pairs, and dispatches to the cheapest backend
// whose projection the LeakageTracker's per-table budget ledger accepts
// (all-or-nothing across the involved tables). The charge is recorded
// permanently -- budgets are monotone, mirroring "cannot unlearn" -- and
// the pairing path remains the free fallback when every budget is
// exhausted. The cost-model constants are calibrated from
// `bench_sec65_comparison --json` (see docs/TUNING.md).
#ifndef SJOIN_DB_BACKEND_H_
#define SJOIN_DB_BACKEND_H_

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "core/leakage.h"
#include "db/encrypted_table.h"
#include "db/table_store.h"

namespace sjoin {

/// Per-row wall-cost constants (milliseconds) the executor compares
/// backends with, calibrated from `bench_sec65_comparison --json`
/// ("calibration" object) on the reference container; absolute accuracy
/// does not matter, only the orders of magnitude separating a pairing
/// from a tag comparison (see docs/TUNING.md, "Cost model calibration").
struct BackendCostModel {
  /// SJ.Dec through a warm prepared row (line evaluation only) at the
  /// paper's dimension (m = 9, t = 1; measured ~6.9 ms, median of nine
  /// runs). The sjoin estimate uses this optimistic bound, biasing
  /// dispatch toward sjoin.
  static constexpr double kPairingPreparedMsPerRow = 7.0;
  /// DET tag hash-join work per selected row (measured ~0.0002 ms; the
  /// constant keeps a 5x safety margin).
  static constexpr double kTagJoinMsPerRow = 0.001;
  /// One ChaCha20 RND unwrap, charged per not-yet-stripped row (measured
  /// ~0.0002 ms; same margin).
  static constexpr double kOnionStripMsPerRow = 0.002;
};

/// Everything a backend needs to consider one query of a series: the two
/// pinned snapshot tables, their stable-id maps, the SSE selections, the
/// server's table ids (leakage identities), and -- when the client
/// released it with the series -- the onion key. Pointers borrow from the
/// caller's SeriesPlanState and stay valid for the Execute* call.
struct BackendQueryView {
  const EncryptedTable* a = nullptr;
  const EncryptedTable* b = nullptr;
  const std::vector<StableRowId>* ids_a = nullptr;
  const std::vector<StableRowId>* ids_b = nullptr;
  const std::vector<size_t>* sel_a = nullptr;
  const std::vector<size_t>* sel_b = nullptr;
  int table_id_a = 0;
  int table_id_b = 0;
  const std::array<uint8_t, 32>* onion_key = nullptr;
};

/// The two tag-joining fast backends the adaptive executor can dispatch
/// to share this one class: `det` reads the at-rest DetTag directly,
/// `onion` unwraps the RND layer with the series-released key first
/// (strip-once: unwrapped tags are kept by stable id, CryptDB's
/// irreversible downgrade). Both model the scheme's full-pattern reveal
/// -- executing a query exposes the join-tag column of BOTH snapshot
/// tables, not just the selected rows -- which is what TryAuthorize
/// prices and records. Thread-safe: concurrent sessions authorize and
/// execute through one shared instance per server.
class TagJoinBackend {
 public:
  explicit TagJoinBackend(BackendKind kind) : kind_(kind) {}

  BackendKind kind() const { return kind_; }

  /// Whether this backend can answer `q` at all: every row of both
  /// snapshot tables must carry the encoding, and required key material
  /// (the onion key) must have been released.
  bool CanExecute(const BackendQueryView& q) const;

  /// Projected wall cost of executing `q` here (BackendCostModel).
  double EstimatedCostMs(const BackendQueryView& q) const;

  /// Atomically authorizes `q`: charges the NEW revealed pairs executing
  /// it would add, per involved table, against every involved table's
  /// budget (all-or-nothing via LeakageTracker::TryCharge), and on
  /// success permanently marks the reveal and feeds the observed equality
  /// groups into the tracker. Returns false -- charging nothing -- when
  /// any budget cannot absorb its share; `charged` (optional) receives
  /// the total pairs charged.
  bool TryAuthorize(const BackendQueryView& q, LeakageTracker* tracker,
                    uint64_t* charged);

  /// Join digests for the selected rows of both sides, in selection
  /// order: equal join values yield equal digests, exactly the equality
  /// structure SJ.Dec produces -- so the server's one SJ.Match + payload
  /// assembly path serves every backend and results stay byte-identical.
  /// Only valid after a successful TryAuthorize.
  void ComputeDigests(const BackendQueryView& q, std::vector<Digest32>* da,
                      std::vector<Digest32>* db) const;

 private:
  /// Tag column of one snapshot table (det: read, onion: unwrap).
  std::vector<DetTag> TagsOf(const BackendQueryView& q,
                             const EncryptedTable& t) const;
  /// Pairs per table over a revealed (table -> stable id -> tag) map:
  /// equal tags group globally (one DET key), a table is charged for
  /// in-table pairs plus its cross-table links.
  static std::map<int, uint64_t> PairsPerTable(
      const std::map<int, std::map<StableRowId, DetTag>>& revealed);
  /// The revealed map after executing `q` (copy of revealed_ plus every
  /// row of both snapshot tables). Caller holds mu_.
  std::map<int, std::map<StableRowId, DetTag>> RevealedAfter(
      const BackendQueryView& q) const;

  BackendKind kind_;
  /// Tags this backend has exposed so far, by stable id -- deletes never
  /// remove entries (the server cannot unlearn a tag it read), inserts
  /// arrive as new ids. Guarded by mu_; TryAuthorize holds mu_ across
  /// project + charge + record so concurrent sessions never double-charge
  /// the same reveal.
  mutable std::mutex mu_;
  std::map<int, std::map<StableRowId, DetTag>> revealed_;
};

/// One dispatch decision of the adaptive executor.
struct BackendDecision {
  BackendKind kind = BackendKind::kSjoin;
  /// The fast backend to compute digests with; nullptr on the sjoin path.
  TagJoinBackend* backend = nullptr;
  /// Revealed pairs charged against the budget ledger for this dispatch.
  uint64_t charged = 0;
};

/// Per-query backend selection: cheapest allowed fast backend whose
/// projected reveal every involved budget accepts; sjoin otherwise.
/// Stateless beyond the backends it owns; one instance per server, shared
/// by every session (the ledger and the backends synchronize internally).
class AdaptiveExecutor {
 public:
  explicit AdaptiveExecutor(LeakageTracker* tracker) : tracker_(tracker) {}

  /// `allowed_mask` is the intersection of the client's series policy and
  /// the server's ServerExecOptions::allowed_backends; kSjoin is always
  /// implicitly allowed (the fallback).
  BackendDecision Dispatch(const BackendQueryView& q, uint32_t allowed_mask);

 private:
  LeakageTracker* tracker_;
  TagJoinBackend det_{BackendKind::kDetJoin};
  TagJoinBackend onion_{BackendKind::kCryptDbOnion};
};

}  // namespace sjoin

#endif  // SJOIN_DB_BACKEND_H_
