// net::Batcher — admission control and request coalescing between the
// epoll transport (net/server.h) and api::Engine. This is where the TCP
// front end gets its two load properties (ROADMAP item 1):
//
//  * BOUNDED QUEUEING. Every parsed request is admitted into a per-dataset
//    lane with a fixed depth cap. A full lane refuses admission (Submit
//    returns false) and the transport answers `Overloaded` immediately —
//    overload turns into explicit, cheap load-shedding responses instead
//    of unbounded memory growth and collapsing tail latency. Shedding is
//    deterministic in arrival order: the requests beyond the cap are the
//    ones refused, never an arbitrary victim.
//
//  * COALESCED DISPATCH. A coordinator thread drains lanes into
//    Engine::ExecuteBatch windows of up to `batch_max` requests and hands
//    each window to a bounded executor pool as soon as one is free, so
//    windows fill with the requests that arrived while every executor was
//    busy — batching emerges under load, not from a wait. Lanes are
//    round-robined and windows never mix datasets, so one dataset's slow
//    minseed occupies one executor while other lanes keep flowing — it
//    cannot starve another dataset's topk traffic.
//
// Ordering semantics match the stdin path's batch window exactly: query
// requests are independent (answers are bit-identical however they are
// grouped or interleaved — the engine's determinism contract), and ADMIN
// requests (load/unload/list/stats) are GLOBAL BARRIERS: an admin request
// admitted at global sequence S executes only after every request admitted
// before S has completed, and no request admitted after S starts until it
// finishes. Per-connection response order is the transport's job (the
// server reorders by per-connection sequence number); the batcher only
// promises one delivery per admitted ticket — except after Stop(), which
// drains in-flight windows but drops still-queued tickets (the server
// only stops when its connections are already gone).
//
// Thread-safety: Submit may be called from any thread; delivery callbacks
// fire on executor threads (queries) or the coordinator thread (admins)
// and must be thread-safe.
#ifndef VOTEOPT_NET_BATCHER_H_
#define VOTEOPT_NET_BATCHER_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "obs/metrics.h"
#include "util/thread_annotations.h"

namespace voteopt::net {

struct BatcherOptions {
  /// Admission cap per dataset lane (and for the admin lane). Requests
  /// arriving at a full lane are refused — the transport sheds them with
  /// an `Overloaded` response.
  size_t queue_depth = 256;

  /// Largest Engine::ExecuteBatch window assembled from one lane.
  size_t batch_max = 64;

  /// Engine batches in flight at once (>= 1). Each occupies one executor
  /// thread for the duration of its window; the engine's own worker pool
  /// parallelizes queries within a window.
  uint32_t num_executors = 2;

  /// Metrics sink (queue-depth gauges, batch occupancy, queue-wait
  /// histograms). Null disables instrumentation; answers are identical
  /// either way.
  obs::Registry* metrics = nullptr;

  /// Fault-injection seam for the abuse tests: runs on the executor
  /// thread after a window is claimed and before Engine::ExecuteBatch. A
  /// blocking hook freezes dispatch at a deterministic point, which is
  /// how serve_net_fault_test pins down admission-overflow shedding
  /// without racing a slow query. Never set in production.
  std::function<void(const std::string& dataset, size_t window)>
      batch_started_hook;
};

class Batcher {
 public:
  /// One admitted request. (conn_id, seq) is the transport's writeback
  /// address — opaque to the batcher and echoed into the delivery.
  struct Ticket {
    uint64_t conn_id = 0;
    uint64_t seq = 0;
    api::Request request;
  };

  /// Delivery of one response, already rendered to its wire line.
  using Delivery =
      std::function<void(uint64_t conn_id, uint64_t seq, std::string line)>;

  Batcher(api::Engine* engine, const BatcherOptions& options,
          Delivery deliver);
  ~Batcher();

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// Admits one request into its dataset's lane (admin requests into the
  /// barrier lane). Returns false when the lane is at queue_depth — the
  /// caller owns the shed response. Thread-safe.
  bool Submit(Ticket ticket);

  /// Stops the coordinator: in-flight windows complete (and deliver),
  /// still-queued tickets are dropped. Idempotent.
  void Stop();

  /// Queued (admitted, not yet dispatched) requests for one dataset lane.
  size_t QueueDepth(const std::string& dataset) const;

  /// Windows currently executing on the pool.
  size_t InFlight() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Item {
    Ticket ticket;
    uint64_t global_seq = 0;
    Clock::time_point admitted_at;
  };

  struct Lane {
    std::deque<Item> queue;
    obs::Gauge* depth_gauge = nullptr;  // net_queue_depth{dataset=...}
  };

  void CoordinatorLoop();
  /// Dispatches up to batch_max items from `lane` (only items admitted
  /// before `barrier_seq`) onto the executor pool.
  void DispatchWindow(const std::string& name, Lane& lane,
                      uint64_t barrier_seq) REQUIRES(mutex_);
  void RunWindow(std::string dataset, std::vector<Item> window);
  /// Executes one admin request as a global barrier (mutex_ held on entry
  /// and exit; released around the engine call).
  void RunAdmin() REQUIRES(mutex_);

  api::Engine* const engine_;
  const BatcherOptions options_;
  const Delivery deliver_;

  mutable Mutex mutex_;
  CondVar cv_;
  std::map<std::string, Lane> lanes_ GUARDED_BY(mutex_);
  std::deque<Item> admin_queue_ GUARDED_BY(mutex_);
  uint64_t next_global_seq_ GUARDED_BY(mutex_) = 0;
  size_t inflight_ GUARDED_BY(mutex_) = 0;
  bool stopping_ GUARDED_BY(mutex_) = false;
  /// Round-robin cursor over lane names.
  std::string last_lane_ GUARDED_BY(mutex_);

  obs::Histogram* m_batch_requests_ = nullptr;
  obs::Histogram* m_queue_wait_seconds_ = nullptr;
  obs::Gauge* m_inflight_ = nullptr;
  obs::Counter* m_admin_barriers_ = nullptr;

  std::unique_ptr<ThreadPool> executors_;
  std::thread coordinator_;
};

}  // namespace voteopt::net

#endif  // VOTEOPT_NET_BATCHER_H_
