// obs::Trace — the per-query stage-span recorder. One Trace rides along
// one request through the serving stack (parse → dispatch → state-lease →
// selection → evaluation → serialize); each stage opens a Span (RAII) or
// reports a precomputed duration, and algorithm work counts (gain
// evaluations, cache hits, sketch resets) land in the same record, so
// stage timings and selector work-counts share ONE schema — the
// `Response::diagnostics` map, serialized only when the request opted in
// via its `trace` field.
//
// Key vocabulary (docs/OBSERVABILITY.md has the full table):
//   stage.<name>_ms  — wall milliseconds spent in a stage (WallTimer,
//                      steady_clock — the one obs:: clock source)
//   work.<name>      — work counts of the answering algorithm
//
// A disabled Trace is inert: Span construction does not read the clock
// and Add is a no-op, so the untraced hot path pays one branch per stage.
// Trace is NOT thread-safe — it is per-query state, like QueryState, and
// a query runs on one worker.
//
// The slow-query log rides on the same spans: MaybeLogSlowQuery renders
// one structured JSON line to stderr when a query's handling time crosses
// the threshold, carrying the op/dataset/id and every recorded entry.
#ifndef VOTEOPT_OBS_TRACE_H_
#define VOTEOPT_OBS_TRACE_H_

#include <map>
#include <string>

#include "util/timer.h"

namespace voteopt::obs {

class Trace {
 public:
  /// A disabled trace (the default) records nothing and never reads the
  /// clock.
  explicit Trace(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// RAII stage span: measures from construction to destruction (or
  /// Stop(), whichever is first) and adds a `stage.<name>_ms` entry.
  class Span {
   public:
    Span(Trace* trace, const char* stage)
        : trace_(trace->enabled_ ? trace : nullptr), stage_(stage) {
      if (trace_ != nullptr) timer_.Restart();
    }
    ~Span() { Stop(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Ends the span early (idempotent).
    void Stop() {
      if (trace_ == nullptr) return;
      trace_->AddStageMillis(stage_, timer_.Millis());
      trace_ = nullptr;
    }

   private:
    Trace* trace_;
    const char* stage_;
    WallTimer timer_;
  };

  /// Adds wall milliseconds to `stage.<stage>_ms` (accumulating: a stage
  /// entered twice — e.g. evaluation setup and final scoring — reports
  /// the total).
  void AddStageMillis(const char* stage, double millis) {
    if (!enabled_) return;
    entries_[std::string("stage.") + stage + "_ms"] += millis;
  }

  /// Adds to a `work.<name>` counter entry.
  void AddWork(const char* name, double count) {
    if (!enabled_) return;
    entries_[std::string("work.") + name] += count;
  }

  /// Everything recorded so far, schema-keyed and name-sorted — ready to
  /// merge into Response::diagnostics.
  const std::map<std::string, double>& entries() const { return entries_; }

 private:
  bool enabled_;
  std::map<std::string, double> entries_;
};

/// Renders one structured slow-query line to stderr when `total_millis >=
/// threshold_millis` (thresholds < 0 disable the log). The line is a
/// single JSON object:
///   {"slow_query": true, "op": "topk", "dataset": "d", "id": "q1",
///    "millis": 18.3, "threshold_millis": 5, "stages": {"stage.x_ms": ..}}
/// Emission is atomic per line (one write call) so concurrent workers
/// never interleave fragments.
void MaybeLogSlowQuery(const std::string& op, const std::string& dataset,
                       const std::string& id, double total_millis,
                       double threshold_millis, const Trace& trace);

}  // namespace voteopt::obs

#endif  // VOTEOPT_OBS_TRACE_H_
