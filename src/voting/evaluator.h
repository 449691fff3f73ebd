// ScoreEvaluator: the bridge between opinion diffusion and voting scores.
//
// In Problem 1 (FJ-Vote) only the target candidate receives seeds, and
// opinions for different candidates diffuse independently (paper § II-C,
// Remark 2). The evaluator therefore propagates every competitor's opinions
// to the horizon once, caches them (plus each user's sorted competitor
// opinions, in one flat array, for O(log r) rank queries), and afterwards
// evaluates any seed set by propagating only the target's row. This is what
// makes the greedy algorithms O(k t m n) instead of O(k t m n r).
#ifndef VOTEOPT_VOTING_EVALUATOR_H_
#define VOTEOPT_VOTING_EVALUATOR_H_

#include <memory>
#include <span>
#include <vector>

#include "opinion/fj_model.h"
#include "opinion/opinion_state.h"
#include "voting/scores.h"

namespace voteopt::voting {

/// Evaluates F(B(t)[S], c_q) for a fixed problem instance (graph, campaigns,
/// target candidate q, horizon t, score spec).
class ScoreEvaluator {
 public:
  /// `model` and `state` must outlive the evaluator.
  /// Precondition (checked): state validates, target < r, spec validates.
  ScoreEvaluator(const opinion::FJModel& model,
                 const opinion::MultiCampaignState& state, CandidateId target,
                 uint32_t horizon, ScoreSpec spec);

  /// Per-candidate influence matrices W_q (paper § II-A): one model per
  /// campaign, in candidate order; all must share the node universe. The
  /// target's model drives seed selection; each competitor's opinions are
  /// propagated over its own graph.
  ScoreEvaluator(const std::vector<const opinion::FJModel*>& models,
                 const opinion::MultiCampaignState& state, CandidateId target,
                 uint32_t horizon, ScoreSpec spec);

  /// Exact score of a seed set: applies seeds, propagates the target row t
  /// steps, scores against the cached competitor rows. O(t m + n log r).
  double EvaluateSeeds(const std::vector<graph::NodeId>& seeds) const;

  /// The target's exact horizon opinions under a seed set. O(t m).
  std::vector<double> TargetHorizonOpinions(
      const std::vector<graph::NodeId>& seeds) const;

  /// Score given an (exact or estimated) target horizon opinion vector.
  double ScoreFromTargetOpinions(const std::vector<double>& target_row) const;

  /// Scores of all r candidates with the target row replaced by
  /// `target_row` (competitor rows are the cached no-seed horizons). Used by
  /// the winning criterion of Problem 2.
  std::vector<double> ScoresAllCandidates(
      const std::vector<double>& target_row) const;

  /// Rank beta of the target for user v if the target's opinion were x:
  /// 1 + #competitors with cached horizon value >= x. O(log r).
  uint32_t UserRank(uint32_t v, double x) const;

  /// omega[beta] * 1[beta <= p] for user v at target opinion x — the user's
  /// contribution to the plurality-variant scores.
  double UserRankWeight(uint32_t v, double x) const;

  /// gamma_v = min over competitors x of |b_xv(t) - value| (Thm. 11/12).
  double UserGamma(uint32_t v, double value) const;

  /// Cached no-seed horizon opinions of candidate x (x != target allowed;
  /// for x == target these are the no-seed target opinions).
  const std::vector<double>& HorizonOpinions(CandidateId x) const {
    return horizon_opinions_[x];
  }

  /// The target candidate's diffusion model (what seed selection runs on).
  const opinion::FJModel& model() const { return *models_[target_]; }
  /// Candidate x's diffusion model.
  const opinion::FJModel& model_of(CandidateId x) const { return *models_[x]; }
  const opinion::Campaign& target_campaign() const {
    return state_->campaigns[target_];
  }
  CandidateId target() const { return target_; }
  uint32_t horizon() const { return horizon_; }
  uint32_t num_candidates() const { return state_->num_candidates(); }
  uint32_t num_users() const { return model().graph().num_nodes(); }
  const ScoreSpec& spec() const { return spec_; }

 private:
  /// User v's ascending competitor opinions at the horizon (r-1 values),
  /// for rank / gamma binary searches.
  std::span<const double> SortedCompetitors(uint32_t v) const {
    const size_t width = num_candidates() - 1;
    return {sorted_competitors_.data() + v * width, width};
  }

  std::vector<const opinion::FJModel*> models_;  // one per candidate
  const opinion::MultiCampaignState* state_;
  CandidateId target_;
  uint32_t horizon_;
  ScoreSpec spec_;

  /// horizon_opinions_[x][v] = b_xv(t) with no seeds, for every candidate.
  std::vector<std::vector<double>> horizon_opinions_;
  /// Every user's sorted competitor row, back to back: n * (r-1) values.
  std::vector<double> sorted_competitors_;
};

}  // namespace voteopt::voting

#endif  // VOTEOPT_VOTING_EVALUATOR_H_
