#include "core/estimated_greedy.h"

#include <algorithm>
#include <cassert>
#include <future>
#include <limits>
#include <memory>
#include <queue>
#include <utility>

#include "util/thread_pool.h"
#include "util/timer.h"

namespace voteopt::core {

namespace {

constexpr graph::NodeId kInvalidNode = static_cast<graph::NodeId>(-1);

/// Shared per-iteration scratch: accumulates, for one candidate seed w, the
/// estimated-opinion increase of every affected start node.
class DeltaAccumulator {
 public:
  explicit DeltaAccumulator(uint32_t n) : sum_(n, 0.0), mark_(n, 0) {}

  void Begin() { ++epoch_; touched_.clear(); }

  void Add(graph::NodeId start, double delta) {
    if (mark_[start] != epoch_) {
      mark_[start] = epoch_;
      sum_[start] = 0.0;
      touched_.push_back(start);
    }
    sum_[start] += delta;
  }

  const std::vector<graph::NodeId>& touched() const { return touched_; }
  double Sum(graph::NodeId v) const { return sum_[v]; }

 private:
  std::vector<double> sum_;
  std::vector<uint64_t> mark_;
  uint64_t epoch_ = 0;
  std::vector<graph::NodeId> touched_;
};

/// Copeland bookkeeping over estimated target opinions vs exact competitor
/// opinions: weighted win/loss tallies per competitor (Eq. 47).
struct CopelandTallies {
  std::vector<double> wins, losses;

  void Rebuild(const ScoreEvaluator& ev, const WalkSet& walks) {
    const uint32_t r = ev.num_candidates();
    wins.assign(r, 0.0);
    losses.assign(r, 0.0);
    for (graph::NodeId v = 0; v < walks.num_nodes(); ++v) {
      if (walks.Lambda(v) == 0) continue;
      const double bhat = walks.EstimatedOpinion(v);
      const double weight = walks.StartWeight(v);
      for (opinion::CandidateId x = 0; x < r; ++x) {
        if (x == ev.target()) continue;
        const double other = ev.HorizonOpinions(x)[v];
        if (bhat > other) {
          wins[x] += weight;
        } else if (bhat < other) {
          losses[x] += weight;
        }
      }
    }
  }

  double Score(const ScoreEvaluator& ev) const {
    double score = 0.0;
    for (opinion::CandidateId x = 0; x < wins.size(); ++x) {
      if (x == ev.target()) continue;
      if (wins[x] > losses[x]) score += 1.0;
    }
    return score;
  }
};

/// Marginal gain of candidate w under the cumulative score: one pass over
/// w's postings (paper § V-B) — raising a live walk's value to 1 adds
/// weight_start / lambda_start * (1 - value). The lazy and exhaustive paths
/// share this helper, and CumulativeGains sums the same terms in the same
/// order, so their gains are computed by identical arithmetic.
double CumulativeGain(const WalkSet& walks, graph::NodeId w) {
  double gain = 0.0;
  for (const WalkSet::Posting& posting : walks.PostingsOf(w)) {
    if (posting.pos >= walks.EffectiveLen(posting.walk)) continue;
    const graph::NodeId start = walks.StartOf(posting.walk);
    gain += walks.StartWeight(start) /
            static_cast<double>(walks.Lambda(start)) *
            (1.0 - walks.Value(posting.walk));
  }
  return gain;
}

/// Per-chunk scratch of the parallel rank-sensitive scan: the accumulator
/// plus the Copeland delta-tally vectors, reused across iterations.
struct RankScratch {
  explicit RankScratch(uint32_t n) : acc(n) {}
  DeltaAccumulator acc;
  std::vector<double> dw, dl;
};

/// Marginal gain of candidate w for the rank-sensitive / Copeland scores:
/// accumulate the estimated-opinion deltas of the affected start nodes, then
/// translate them into a score delta. Reads only frozen/dynamic walk state
/// and the (iteration-constant) tallies; all mutation goes through the
/// caller-owned scratch, so concurrent calls on disjoint scratch are safe.
double RankGain(const ScoreEvaluator& evaluator, const WalkSet& walks,
                const CopelandTallies& tallies, graph::NodeId w,
                RankScratch& scratch) {
  DeltaAccumulator& acc = scratch.acc;
  acc.Begin();
  for (const WalkSet::Posting& posting : walks.PostingsOf(w)) {
    if (posting.pos >= walks.EffectiveLen(posting.walk)) continue;
    const graph::NodeId start = walks.StartOf(posting.walk);
    acc.Add(start, (1.0 - walks.Value(posting.walk)) /
                       static_cast<double>(walks.Lambda(start)));
  }
  double gain = 0.0;
  if (evaluator.spec().kind == voting::ScoreKind::kCopeland) {
    const uint32_t r = evaluator.num_candidates();
    scratch.dw.assign(r, 0.0);
    scratch.dl.assign(r, 0.0);
    for (graph::NodeId v : acc.touched()) {
      const double old_val = walks.EstimatedOpinion(v);
      const double new_val = old_val + acc.Sum(v);
      const double weight = walks.StartWeight(v);
      for (opinion::CandidateId x = 0; x < r; ++x) {
        if (x == evaluator.target()) continue;
        const double other = evaluator.HorizonOpinions(x)[v];
        scratch.dw[x] += weight * ((new_val > other) - (old_val > other));
        scratch.dl[x] += weight * ((new_val < other) - (old_val < other));
      }
    }
    double before = 0.0, after = 0.0;
    for (opinion::CandidateId x = 0; x < r; ++x) {
      if (x == evaluator.target()) continue;
      before += tallies.wins[x] > tallies.losses[x] ? 1.0 : 0.0;
      after += tallies.wins[x] + scratch.dw[x] >
                       tallies.losses[x] + scratch.dl[x]
                   ? 1.0
                   : 0.0;
    }
    gain = after - before;
  } else {
    for (graph::NodeId v : acc.touched()) {
      const double old_val = walks.EstimatedOpinion(v);
      gain += walks.StartWeight(v) *
              (evaluator.UserRankWeight(v, old_val + acc.Sum(v)) -
               evaluator.UserRankWeight(v, old_val));
    }
  }
  return gain;
}

/// (gain, node) pair under the canonical ordering: higher gain wins, node id
/// ascending on ties — exactly the exhaustive scan's first-best-wins rule.
struct BestGain {
  double gain = -std::numeric_limits<double>::infinity();
  graph::NodeId node = kInvalidNode;

  void Offer(double candidate_gain, graph::NodeId candidate) {
    if (candidate_gain > gain ||
        (candidate_gain == gain && candidate < node)) {
      gain = candidate_gain;
      node = candidate;
    }
  }
};

}  // namespace

void CumulativeGains(const WalkSet& walks, std::vector<double>* gains) {
  const uint32_t n = walks.num_nodes();
  // Walk starts are random, so a node's quotient and gain share one slot:
  // a one-node walk, the common case, touches one cache line.
  struct Slot {
    double quotient = 0.0;  // weight_s / lambda_s
    double gain = 0.0;
  };
  std::vector<Slot> slots(n);
  for (graph::NodeId s = 0; s < n; ++s) {
    if (walks.Lambda(s) == 0) continue;
    slots[s].quotient =
        walks.StartWeight(s) / static_cast<double>(walks.Lambda(s));
  }
  // `last_seen[v]` stamps the walk that last added to v, as BuildIndex
  // stamps the walk that last recorded a posting of v.
  constexpr uint32_t kNone = static_cast<uint32_t>(-1);
  std::vector<uint32_t> last_seen(n, kNone);
  const WalkSet::Frozen& frozen = walks.frozen();
  const auto num_walks = static_cast<uint32_t>(walks.num_walks());
  for (uint32_t walk = 0; walk < num_walks; ++walk) {
    Slot& start = slots[frozen.starts[walk]];
    const double term = start.quotient * (1.0 - walks.Value(walk));
    const uint32_t len = walks.EffectiveLen(walk);
    if (len == 1) {  // the start is the walk's only node
      start.gain += term;
      continue;
    }
    const graph::NodeId* nodes = frozen.nodes.data() + frozen.offsets[walk];
    for (uint32_t pos = 0; pos < len; ++pos) {
      const graph::NodeId v = nodes[pos];
      if (last_seen[v] == walk) continue;  // not v's first occurrence
      last_seen[v] = walk;
      slots[v].gain += term;
    }
  }
  gains->resize(n);
  for (graph::NodeId v = 0; v < n; ++v) (*gains)[v] = slots[v].gain;
}

SelectionResult EstimatedGreedySelect(const ScoreEvaluator& evaluator,
                                      uint32_t k, WalkSet* walks,
                                      const EstimatedGreedyOptions& options) {
  WallTimer timer;
  const uint32_t n = walks->num_nodes();
  k = std::min<uint32_t>(k, n);
  const auto kind = evaluator.spec().kind;

  std::vector<bool> is_seed(n, false);
  std::vector<graph::NodeId> seeds;
  uint64_t gain_evaluations = 0;

  CopelandTallies tallies;
  if (kind == voting::ScoreKind::kCopeland) tallies.Rebuild(evaluator, *walks);

  const uint32_t requested_threads = options.num_threads == 0
                                         ? ThreadPool::DefaultThreadCount()
                                         : options.num_threads;
  const uint32_t scan_chunks =
      std::min<uint32_t>(std::max<uint32_t>(requested_threads, 1), n);
  std::unique_ptr<ThreadPool> pool;  // built by the first chunked scan

  /// Runs fn(w) for every non-seed candidate, chunked over the pool when
  /// scan_chunks > 1; chunk c is the contiguous id range [c*per, (c+1)*per).
  /// Returns the canonical best over all candidates: chunk-local bests
  /// follow the (gain, node id) ordering and chunks are visited in id
  /// order, so the reduction is independent of the thread count.
  const auto parallel_best = [&](auto&& gain_of) {
    BestGain best;
    if (scan_chunks > 1 && !pool) {
      pool = std::make_unique<ThreadPool>(scan_chunks);
    }
    if (!pool) {
      for (graph::NodeId w = 0; w < n; ++w) {
        if (is_seed[w]) continue;
        best.Offer(gain_of(w, /*chunk=*/0u), w);
      }
      return best;
    }
    const uint32_t per = (n + scan_chunks - 1) / scan_chunks;
    std::vector<std::future<BestGain>> futures;
    futures.reserve(scan_chunks);
    for (uint32_t c = 0; c < scan_chunks; ++c) {
      futures.push_back(pool->Submit([&, c] {
        BestGain chunk_best;
        const graph::NodeId begin = c * per;
        const graph::NodeId end = std::min<graph::NodeId>(begin + per, n);
        for (graph::NodeId w = begin; w < end; ++w) {
          if (is_seed[w]) continue;
          chunk_best.Offer(gain_of(w, c), w);
        }
        return chunk_best;
      }));
    }
    for (auto& future : futures) {
      const BestGain chunk_best = future.get();
      if (chunk_best.node != kInvalidNode) {
        best.Offer(chunk_best.gain, chunk_best.node);
      }
    }
    return best;
  };

  /// Commits one selected seed; returns false when the selection must stop
  /// (the on_prefix hook accepted this prefix).
  const auto commit = [&](graph::NodeId best) {
    seeds.push_back(best);
    is_seed[best] = true;
    walks->Truncate(best, [](uint32_t, double) {});
    if (kind == voting::ScoreKind::kCopeland) {
      tallies.Rebuild(evaluator, *walks);
    }
    const auto iteration = static_cast<uint32_t>(seeds.size());
    if (options.on_iteration) options.on_iteration(iteration, *walks);
    if (options.on_prefix && options.on_prefix(iteration, seeds, *walks)) {
      return false;
    }
    return true;
  };

  if (kind == voting::ScoreKind::kCumulative && options.lazy) {
    // CELF lazy evaluation: truncation only raises walk values toward 1 and
    // shortens effective lengths, so cumulative marginal gains never grow as
    // seeds are added — a gain computed in an earlier round upper-bounds the
    // current one. The heap orders entries by (gain desc, node id asc); the
    // top is re-evaluated until it is fresh for the current round, at which
    // point every other entry's true gain is below it under the same
    // ordering and the top is exactly the exhaustive scan's pick.
    struct Entry {
      double gain;
      graph::NodeId node;
      uint32_t round;  // seeds.size() when `gain` was computed
    };
    const auto below = [](const Entry& a, const Entry& b) {
      return a.gain < b.gain || (a.gain == b.gain && a.node > b.node);
    };
    // Round 0 evaluates every candidate once, in one walk-ordered pass.
    std::vector<double> gains;
    CumulativeGains(*walks, &gains);
    std::vector<Entry> entries(n);
    for (graph::NodeId w = 0; w < n; ++w) entries[w] = Entry{gains[w], w, 0};
    gain_evaluations += n;
    std::priority_queue<Entry, std::vector<Entry>, decltype(below)> heap(
        below, std::move(entries));

    while (seeds.size() < k && !heap.empty()) {
      Entry top = heap.top();
      heap.pop();
      const auto round = static_cast<uint32_t>(seeds.size());
      if (top.round != round) {
        top.gain = CumulativeGain(*walks, top.node);
        top.round = round;
        ++gain_evaluations;
        heap.push(top);
        continue;
      }
      if (!commit(top.node)) break;
    }
  } else if (kind == voting::ScoreKind::kCumulative) {
    // Exhaustive baseline: one scan over the index per iteration computes
    // every candidate's marginal gain (paper § V-B).
    while (seeds.size() < k) {
      const BestGain best = parallel_best(
          [&](graph::NodeId w, uint32_t) { return CumulativeGain(*walks, w); });
      gain_evaluations += n - seeds.size();
      if (best.node == kInvalidNode) break;
      if (!commit(best.node)) break;
    }
  } else {
    // Rank-sensitive scores and Copeland: not submodular, so every
    // iteration scans all candidates — in parallel over id chunks, each
    // with its own accumulator scratch.
    std::vector<RankScratch> scratch;
    scratch.reserve(scan_chunks);
    for (uint32_t c = 0; c < scan_chunks; ++c) scratch.emplace_back(n);
    while (seeds.size() < k) {
      const BestGain best = parallel_best([&](graph::NodeId w, uint32_t c) {
        return RankGain(evaluator, *walks, tallies, w, scratch[c]);
      });
      gain_evaluations += n - seeds.size();
      if (best.node == kInvalidNode) break;
      if (!commit(best.node)) break;
    }
  }

  // Estimated final score for diagnostics.
  double estimated = 0.0;
  if (kind == voting::ScoreKind::kCumulative) {
    for (graph::NodeId v = 0; v < n; ++v) {
      if (walks->Lambda(v) > 0) {
        estimated += walks->StartWeight(v) * walks->EstimatedOpinion(v);
      }
    }
  } else if (kind == voting::ScoreKind::kCopeland) {
    estimated = tallies.Score(evaluator);
  } else {
    for (graph::NodeId v = 0; v < n; ++v) {
      if (walks->Lambda(v) > 0) {
        estimated +=
            walks->StartWeight(v) *
            evaluator.UserRankWeight(v, walks->EstimatedOpinion(v));
      }
    }
  }

  SelectionResult result;
  result.seeds = std::move(seeds);
  result.seconds = timer.Seconds();
  result.score = options.evaluate_exact
                     ? evaluator.EvaluateSeeds(result.seeds)
                     : estimated;
  result.diagnostics["estimated_score"] = estimated;
  result.diagnostics["walks"] = static_cast<double>(walks->num_walks());
  result.diagnostics["walk_memory_mb"] =
      static_cast<double>(walks->memory_bytes()) / (1024.0 * 1024.0);
  result.diagnostics["gain_evaluations"] =
      static_cast<double>(gain_evaluations);
  return result;
}

}  // namespace voteopt::core
