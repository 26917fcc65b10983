// Client sessions of the concurrent server. A session is the unit of
// request ordering and admission control: the RequestScheduler executes
// each session's requests strictly FIFO (one in flight per session) while
// different sessions run in parallel, and per-session queue bounds stop a
// runaway client from starving the rest -- the serving-layer concern the
// paper's series model leaves to the system builder (cf. Enc2DB's
// adaptive serving layer in PAPERS.md).
//
// Sessions carry no cryptographic material: tokens, tables and mutations
// are session-agnostic, and the session id never rides the wire -- the
// TCP transport binds one session per connection. Session 0 is the
// implicit default session -- always open, never closable -- so
// single-client in-process callers need no handshake.
#ifndef SJOIN_DB_SESSION_H_
#define SJOIN_DB_SESSION_H_

#include <cstdint>
#include <mutex>
#include <set>

#include "util/status.h"

namespace sjoin {

/// Identifies one client session. 0 = the implicit default session.
using SessionId = uint64_t;

constexpr SessionId kDefaultSession = 0;

/// Registry of open sessions. Thread-safe; ids are never reused, so a
/// stale id can never alias a later client (same reasoning as stable row
/// ids in TableStore).
class SessionManager {
 public:
  /// Opens a fresh session; ids start at 1 (0 is the implicit default).
  SessionId Open();

  /// Closes a session: later submissions under this id are refused;
  /// requests already queued still drain. Closing the default session or
  /// an unknown/already-closed id is an error.
  Status Close(SessionId id);

  /// True for the default session and every currently open id.
  bool IsOpen(SessionId id) const;

  /// Explicitly opened sessions currently open (the default session is
  /// not counted).
  size_t open_count() const;

 private:
  mutable std::mutex mu_;
  SessionId next_ = 1;
  std::set<SessionId> open_;
};

}  // namespace sjoin

#endif  // SJOIN_DB_SESSION_H_
