// Admission control + dispatch for the concurrent server: turns many
// sessions' submissions into a fair stream of tasks on the shared
// ThreadPool.
//
// Scheduling policy (asserted by tests/concurrency_test.cc):
//
//  - Per-session FIFO: a session has at most one request executing at a
//    time, and its queued requests start in submission order. Cross-
//    session order is NOT defined -- snapshot isolation (TableStore) makes
//    any interleaving of reads and mutations linearizable per table.
//  - Mutations serialize per table: at most one mutation request whose
//    target table matches is in flight at once; mutations on different
//    tables -- and every read -- proceed in parallel. (TableStore::Apply
//    would serialize racing writers anyway; doing it here keeps a blocked
//    writer from occupying one of the in-flight slots.)
//  - Global cap: at most max_in_flight requests execute concurrently;
//    the rest wait queued. Dispatch scans sessions round-robin from the
//    one after the last dispatch, so a chatty session cannot starve the
//    others ("fairness").
//  - Admission: a session may hold at most max_queued_per_session waiting
//    requests; beyond that Enqueue refuses (the caller sheds load instead
//    of growing an unbounded queue).
//
// Deadlock-freedom against intra-request parallelism: a dispatched
// request runs as ONE pool task and never blocks on another request; the
// fan-out inside it (ExecuteJoinSeries' ParallelFor) steals queued pool
// work while waiting, so request tasks and their helper tasks share the
// pool without circular waits (see util/thread_pool.h).
#ifndef SJOIN_DB_SCHEDULER_H_
#define SJOIN_DB_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "db/session.h"
#include "util/status.h"

namespace sjoin {

struct SchedulerOptions {
  /// Requests executing concurrently across all sessions (<= 0: 1). See
  /// docs/TUNING.md -- more in-flight requests than pool threads only add
  /// queueing inside the pool.
  int max_in_flight = 4;
  /// Waiting requests one session may hold before Enqueue refuses.
  size_t max_queued_per_session = 256;
};

class RequestScheduler {
 public:
  /// What a request does to shared state; drives the serialization rule.
  enum class Kind {
    kRead,      // series: snapshot reads, always parallel
    kMutation,  // ApplyMutation: serialized per target table
  };

  /// `sessions` (not owned, must outlive the scheduler) answers "is this
  /// session open" at admission time.
  explicit RequestScheduler(SessionManager* sessions,
                            SchedulerOptions opts = {});
  /// Drains: blocks until every admitted request has completed.
  ~RequestScheduler();

  RequestScheduler(const RequestScheduler&) = delete;
  RequestScheduler& operator=(const RequestScheduler&) = delete;

  /// Admits one request: `fn` will run on the shared ThreadPool under the
  /// policy above. `table` is the mutation's target (ignored for kRead).
  /// Fails -- without queueing -- for a closed/unknown session, a full
  /// session queue, or a shut-down scheduler; the caller owns reporting
  /// the error to the client.
  Status Enqueue(SessionId session, Kind kind, std::string table,
                 std::function<void()> fn);

  /// Blocks until every admitted request has completed.
  void Drain();

  /// Stops admission, then drains. Every later Enqueue fails with a
  /// FailedPrecondition -- a transport thread racing the server's
  /// teardown gets a clean error to put on the wire instead of a request
  /// silently admitted into (or dropped by) a dying scheduler. Idempotent;
  /// safe to call while other threads are mid-Enqueue: they either
  /// admitted before the cutoff (and are drained here) or fail cleanly.
  void Shutdown();

  /// True once Shutdown began; Enqueue will refuse.
  bool stopped() const;

  struct Stats {
    uint64_t admitted = 0;
    uint64_t rejected = 0;   // admission refusals (session/queue limits)
    uint64_t completed = 0;
    int in_flight = 0;       // executing right now
    size_t queued = 0;       // admitted, waiting for a slot
  };
  Stats stats() const;

 private:
  struct Request {
    Kind kind;
    std::string table;
    std::function<void()> fn;
  };
  struct SessionQueue {
    std::deque<Request> waiting;
    bool active = false;  // one request of this session is executing
  };

  /// Dispatches every runnable request while slots remain. Caller holds
  /// mu_; pool submission happens inside (Submit only takes the pool's
  /// own lock -- no ordering cycle with mu_).
  void DispatchLocked();
  void OnRequestDone(SessionId session, Kind kind, const std::string& table);

  SessionManager* const sessions_;
  const SchedulerOptions opts_;

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  std::map<SessionId, SessionQueue> queues_;
  /// Round-robin cursor: dispatch scans session ids strictly above it
  /// first, so the session served last yields to the others.
  SessionId rr_cursor_ = 0;
  std::set<std::string> mutating_tables_;
  bool stopped_ = false;  // Shutdown began; admission refused
  int in_flight_ = 0;
  size_t queued_ = 0;
  uint64_t admitted_ = 0;
  uint64_t rejected_ = 0;
  uint64_t completed_ = 0;
};

}  // namespace sjoin

#endif  // SJOIN_DB_SCHEDULER_H_
