// Per-query mutable state, pooled per worker. The frozen sketch of a
// DatasetEntry is shared read-only across every thread; everything a query
// actually mutates lives in a QueryState:
//
//  * a working WalkSet that aliases the frozen walk arrays (zero-copy,
//    WalkSet::ShareFrozen) but owns its dynamic truncation state — the
//    per-walk values / effective lengths / per-node sums that ResetValues
//    derives once, Truncate consumes and UndoTruncations restores — and
//  * the per-voting-rule ScoreEvaluator LRU (each evaluator caches the
//    competitors' propagated horizon opinions — the expensive part of its
//    construction).
//
// A query checks a state out of the StatePool, runs on it with no locking
// at all, and checks it back in via the RAII lease. The pool grows to at
// most one state per concurrently executing query of a dataset, and states
// are generation-tagged: when a dataset is unloaded (Evict) or re-loaded
// under the same name, stale pooled states are discarded instead of
// answering from dead data.
#ifndef VOTEOPT_API_STATE_POOL_H_
#define VOTEOPT_API_STATE_POOL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/walk_set.h"
#include "api/lru_cache.h"
#include "api/registry.h"
#include "obs/metrics.h"
#include "util/thread_annotations.h"
#include "util/timer.h"
#include "voting/evaluator.h"

namespace voteopt::api {

/// One worker's mutable state for one dataset generation.
struct QueryState {
  QueryState(std::shared_ptr<const DatasetEntry> entry,
             uint32_t evaluator_cache_capacity);

  /// Cached evaluator for a spec; builds and inserts on miss — except for
  /// the entry's retained build evaluator, which is adopted instead of
  /// rebuilt. Sets `*cache_hit` accordingly (an adoption counts as a hit:
  /// nothing was constructed). The returned pointer stays valid until the
  /// LRU evicts the entry (i.e. for the duration of the current query).
  /// Repeated queries under one rule skip the string-keyed LRU entirely
  /// via a last-used memo — the common serving pattern and the reason the
  /// engine's dispatch overhead stays in the noise.
  const voting::ScoreEvaluator* EvaluatorFor(const voting::ScoreSpec& spec,
                                             bool* cache_hit);

  /// Pins the model / campaign state / frozen sketch the members below
  /// reference, even past an Unload of the dataset.
  std::shared_ptr<const DatasetEntry> entry;
  /// Shares the entry's frozen walk data; owns the dynamic state.
  std::unique_ptr<core::WalkSet> walks;
  /// True once `walks` holds the entry's reset values: later selections
  /// undo their predecessor's cuts instead of resetting again.
  bool walks_reset = false;
  /// shared_ptr values: evaluators are immutable after construction, so
  /// the entry's build evaluator can sit in every worker's LRU at once.
  LruCache<std::shared_ptr<const voting::ScoreEvaluator>> evaluators;

 private:
  /// Last-used memo: the spec and evaluator of the previous EvaluatorFor
  /// call. The pointer stays valid as long as the LRU holds the entry;
  /// the memo is invalidated whenever an insertion may have evicted it.
  voting::ScoreSpec last_spec_;
  const voting::ScoreEvaluator* last_evaluator_ = nullptr;
};

class StatePool {
 public:
  explicit StatePool(uint32_t evaluator_cache_capacity)
      : evaluator_cache_capacity_(evaluator_cache_capacity) {}

  /// RAII check-out handle; returns the state to the pool on destruction.
  class Lease {
   public:
    Lease(StatePool* pool, std::unique_ptr<QueryState> state)
        : pool_(pool), state_(std::move(state)) {}
    ~Lease() {
      if (state_ != nullptr) pool_->Release(std::move(state_));
    }
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), state_(std::move(other.state_)) {}
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    QueryState* operator->() const { return state_.get(); }
    QueryState& operator*() const { return *state_; }

   private:
    StatePool* pool_;
    std::unique_ptr<QueryState> state_;
  };

  /// Checks out a state bound to `entry`: reuses an idle one of the same
  /// generation, discards stale ones, builds a fresh one otherwise.
  Lease Acquire(std::shared_ptr<const DatasetEntry> entry);

  /// Retires every pooled (and future checked-in) state of `name` with
  /// generation <= `upto_generation`. Called on unload; in-flight leases
  /// are unaffected and their states are discarded on check-in.
  void Evict(const std::string& name, uint64_t upto_generation);

  /// Idle (checked-in) states currently pooled for `name`.
  size_t IdleStates(const std::string& name) const;
  /// Total QueryStates ever constructed (telemetry: worker-state churn).
  uint64_t states_created() const;

  /// Wires lease metrics (acquire-wait histogram, state-churn counter)
  /// into `metrics`, which must outlive the pool. Null disables (the
  /// default). Set before concurrent use (api::Engine wires it at Open).
  void set_metrics(obs::Registry* metrics);

 private:
  void Release(std::unique_ptr<QueryState> state);

  const uint32_t evaluator_cache_capacity_;
  /// Resolved once by set_metrics (before concurrent use — see above) —
  /// the Acquire hot path just bumps them. Deliberately unguarded.
  obs::Histogram* lease_wait_seconds_ = nullptr;
  obs::Counter* states_created_total_ = nullptr;
  mutable Mutex mutex_;
  std::unordered_map<std::string, std::vector<std::unique_ptr<QueryState>>>
      idle_ GUARDED_BY(mutex_);
  /// name -> highest generation retired by Evict. An entry exists only
  /// while leases of that name are outstanding (it guards their check-in);
  /// Release drops it with the last lease, so unload-heavy servers with
  /// rotating dataset names don't accumulate dead watermarks.
  std::unordered_map<std::string, uint64_t> retired_upto_
      GUARDED_BY(mutex_);
  /// name -> currently checked-out leases.
  std::unordered_map<std::string, uint64_t> outstanding_
      GUARDED_BY(mutex_);
  uint64_t states_created_ GUARDED_BY(mutex_) = 0;
};

}  // namespace voteopt::api

#endif  // VOTEOPT_API_STATE_POOL_H_
