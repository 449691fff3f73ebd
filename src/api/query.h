// The typed query API: one request/response vocabulary shared by every
// front door — embedded C++ callers (api::Engine), the JSON wire protocol
// (serve/protocol.h is a pure codec over these types), the voteopt_serve
// CLI, and the bench drivers. All of them execute the identical
// Engine::Execute path, so an embedded answer and a served answer are
// bit-identical by construction.
//
// Query kinds (run against one hosted dataset):
//   * TopK          — budget-k seed selection under any of the nine
//                     selection methods (§ VIII-A roster)
//   * MinSeed       — Problem 2's minimum winning budget
//   * Evaluate      — exact score of a supplied seed set, optionally under
//                     overridden target opinions
//   * MethodCompare — the full method roster (DM/RW/RS + six baselines) on
//                     one instance, one scored entry per method in the
//                     paper's plotting order
//   * RuleSweep     — one seed budget scored under all five voting rules
// Admin kinds (manage/inspect the engine; ordering barriers in a batch):
//   * Load / Unload / List
//   * Stats — a flat snapshot of the engine's obs::Registry (admin so the
//     counters it reports are exact at its barrier point in a batch)
// Mutation kinds (v4, dynamic graphs — src/dyn): admin-adjacent barriers
// that commit edits to a hosted dataset and repair its sketch in place:
//   * EdgeAdd / EdgeDel / SetOpinion — one streaming edit each
//   * Mutate — a batch of edits committed atomically (one repair)
//
// Requests are a flat tagged struct rather than a std::variant so the wire
// codec, which sees untyped JSON fields before it knows the op, can fill
// them in one pass; the static builders below are the typed constructors
// embedded callers use.
#ifndef VOTEOPT_API_QUERY_H_
#define VOTEOPT_API_QUERY_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "baselines/selector_factory.h"
#include "dyn/mutation.h"
#include "graph/graph.h"
#include "util/status.h"
#include "voting/scores.h"

namespace voteopt::api {

/// Highest protocol major version this engine speaks. Version 1 is the
/// PR-2..4 protocol (topk/minseed/evaluate/load/unload/list, RS only);
/// version 2 adds `method`, `methodcompare`, and `rulesweep`; version 3
/// adds the `stats` verb and the per-request `trace` field; version 4 adds
/// the dynamic-graph mutation verbs `edge_add` / `edge_del` /
/// `set_opinion` / `mutate`. Requests omitting "v" are treated as v1;
/// v1..v4 parse identically (each is a strict superset of the last);
/// higher majors are rejected with InvalidArgument.
inline constexpr uint32_t kProtocolVersion = 4;

/// Per-query selection knobs — the one options surface consolidating what
/// used to be scattered across RSOptions / RWOptions /
/// EstimatedGreedyOptions / MethodOptions call sites. Defaults reproduce
/// the serving layer's PR-4 behavior exactly; the per-method overrides in
/// `methods` only matter for the non-RS roster (which builds its own
/// substrate per query instead of using the hosted sketch).
struct QueryOptions {
  /// Knobs for the non-RS methods (RW walk bounds, IMM epsilon, restart
  /// probabilities, rng seed, ...). The RS entries inside are ignored by
  /// the engine: RS queries answer from the hosted sketch, never a rebuilt
  /// one.
  baselines::MethodOptions methods;

  /// CELF lazy evaluation for cumulative-score sketch selections
  /// (bit-identical seeds to the exhaustive scan; see estimated_greedy.h).
  /// `false` is the exhaustive oracle/bench baseline.
  bool lazy = true;

  /// Worker threads for the per-iteration gain scan of rank-sensitive /
  /// Copeland sketch selections (1 = serial, 0 = one per hardware thread).
  /// Answers are identical for every value.
  uint32_t num_threads = 1;

  /// MinSeed driver: one prefix-checked selection at k_max (true, the
  /// PR-4 fast path) vs the paper's binary search over budgets (false, the
  /// oracle/bench baseline). Both return identical k*, seeds, and
  /// achievability for the prefix-nested greedy selectors.
  bool single_pass = true;

  /// Compute the exact score of the selected seeds (one extra exact
  /// propagation; response.exact_score). Embedded benches disable it to
  /// time pure selection; the wire default is always true.
  bool evaluate_exact = true;
};

struct Request {
  enum class Op {
    kTopK,
    kMinSeed,
    kEvaluate,
    kMethodCompare,
    kRuleSweep,
    kLoad,
    kUnload,
    kList,
    kStats,
    // v4 mutation verbs (dynamic graphs). All four route into the same
    // commit path: apply, repair, publish. The single-edit verbs are
    // sugar for a one-element kMutate batch.
    kEdgeAdd,
    kEdgeDel,
    kSetOpinion,
    kMutate,
  };

  Op op = Op::kTopK;
  /// Protocol major version the request was written against (wire field
  /// "v"; absent = 1). Purely a compatibility gate — see kProtocolVersion.
  uint32_t v = 1;
  std::string id;  // echoed when non-empty

  /// Queries: which hosted dataset answers ("" = the sole loaded one).
  /// load/unload: the registry name to (de)register.
  std::string dataset;

  // Voting rule selection (resolved against the dataset by ResolveRule).
  std::string rule = "cumulative";
  uint32_t p = 1;
  std::vector<double> omega;

  /// Seed-selection method for topk / minseed (wire field "method",
  /// default RS — the paper's recommendation and the only method that
  /// answers from the hosted sketch artifact).
  baselines::Method method = baselines::Method::kRS;
  /// methodcompare: the roster to run (empty = all nine, paper order).
  std::vector<baselines::Method> methods;

  uint32_t k = 1;      // topk / methodcompare / rulesweep: budget
  uint32_t k_max = 0;  // minseed: search bound (0 = num nodes)

  std::vector<graph::NodeId> seeds;                         // evaluate
  std::vector<std::pair<graph::NodeId, double>> overrides;  // evaluate

  std::string bundle;  // load: dataset bundle prefix (required)
  std::string sketch;  // load: explicit sketch path ("" = bundle member)
  uint64_t theta = 0;  // load: build-fallback walk count (0 = server default)

  /// Mutation verbs: the edits to commit, in order. The single-edit verbs
  /// carry exactly one entry; `mutate` any number (>= 1).
  std::vector<dyn::Mutation> mutations;

  /// Selection knobs; defaults reproduce the wire protocol's behavior.
  QueryOptions options;

  /// v3: opt into per-query stage tracing — the response carries its
  /// `diagnostics` map (stage timings + work counts) on the wire. Traced
  /// and untraced requests produce byte-identical STABLE answers:
  /// ToStableJson strips the traced block alongside millis.
  bool trace = false;

  /// Transport-side parse time in milliseconds, recorded by the wire
  /// codec caller (voteopt_serve) before Execute so the engine can fold a
  /// `stage.parse_ms` span into the trace. NOT a wire field — embedded
  /// callers leave it 0.
  double parse_millis = 0.0;

  // Typed constructors for embedded callers: the ScoreSpec is translated
  // into the same rule/p/omega wire fields the codec produces, so a built
  // request and a parsed request are indistinguishable to the engine.
  static Request TopK(uint32_t k, const voting::ScoreSpec& spec,
                      baselines::Method method = baselines::Method::kRS);
  static Request MinSeed(uint32_t k_max, const voting::ScoreSpec& spec,
                         baselines::Method method = baselines::Method::kRS);
  static Request Evaluate(std::vector<graph::NodeId> seeds,
                          const voting::ScoreSpec& spec);
  static Request MethodCompare(uint32_t k, const voting::ScoreSpec& spec);
  static Request RuleSweep(uint32_t k);
  static Request EdgeAdd(uint32_t from, uint32_t to, double weight);
  static Request EdgeDel(uint32_t from, uint32_t to);
  static Request SetOpinion(uint32_t candidate, graph::NodeId node,
                            double value);
  static Request Mutate(std::vector<dyn::Mutation> mutations);
};

const char* OpName(Request::Op op);

/// True for the registry-management verbs (load / unload / list / stats)
/// AND the v4 mutation verbs. Admin verbs act as ordering barriers in a
/// batch: queries ahead of them see the registry as it was, queries after
/// them see the updated one. Mutations need exactly those semantics — a
/// query is answered entirely by the pre- or post-mutation generation,
/// never a mix — which is why they ride the same classification through
/// Engine::ExecuteBatch, net::Batcher, and net::Server.
bool IsAdminOp(Request::Op op);

/// Resolves a request's rule/p/omega fields into a validated ScoreSpec for
/// a dataset with `num_candidates` candidates. Unknown rule names fail
/// with an InvalidArgument enumerating the valid ones; `borda` requires
/// num_candidates >= 2 (its weights are undefined for a walkover).
Result<voting::ScoreSpec> ResolveRule(const std::string& rule, uint32_t p,
                                      const std::vector<double>& omega,
                                      uint32_t num_candidates);
inline Result<voting::ScoreSpec> ResolveRule(const Request& request,
                                             uint32_t num_candidates) {
  return ResolveRule(request.rule, request.p, request.omega, num_candidates);
}

/// The `rule` label of voteopt_queries_total: `rule` itself when it is a
/// spelling ResolveRule knows, "invalid" otherwise, so client strings
/// cannot mint label values.
const char* RuleLabel(const std::string& rule);

/// The wire spelling of a ScoreSpec's rule (the inverse of ResolveRule for
/// the rule/p/omega triple; Borda-weight positionals render as
/// "positional" with explicit omega).
void SpecToRuleFields(const voting::ScoreSpec& spec, Request* request);

/// One hosted dataset as reported by `list` and echoed by `load`.
struct DatasetInfo {
  std::string name;
  uint32_t num_nodes = 0;
  uint32_t num_candidates = 0;
  uint64_t theta = 0;    // sketch walk count
  uint32_t horizon = 0;  // sketch horizon t
  uint32_t target = 0;   // sketch target candidate
  bool sketch_built = false;  // sketch was built at load (no persisted file)
};

/// One MethodCompare entry: a method's seed set and scores on the shared
/// instance. `seconds` is the selection wall time (never serialized — the
/// wire form must stay reproducible run-to-run).
struct MethodScore {
  std::string method;
  std::vector<graph::NodeId> seeds;
  /// The method's own score estimate (RW/RS sketch estimates); equal to
  /// exact_score for methods that estimate nothing.
  double estimated_score = 0.0;
  double exact_score = 0.0;
  double seconds = 0.0;
};

/// One RuleSweep entry: the selected seeds and outcome under one rule.
struct RuleScore {
  std::string rule;
  std::vector<graph::NodeId> seeds;
  double estimated_score = 0.0;
  double exact_score = 0.0;
  uint32_t winner = 0;  // argmax candidate under this rule, post-seeding
};

struct Response {
  std::string id;
  std::string op;
  bool ok = true;
  std::string error;  // set when !ok

  /// Name of the hosted dataset that answered (queries, load, unload).
  std::string dataset;

  /// Selection method that answered topk / minseed. Set (and serialized)
  /// only for non-RS methods: the RS default stays off the wire so v1
  /// responses are byte-identical to the pre-api serving layer.
  std::string method;

  // topk / minseed payload.
  std::vector<graph::NodeId> seeds;
  double estimated_score = 0.0;
  double exact_score = 0.0;

  // minseed payload.
  uint32_t k_star = 0;
  bool achievable = false;
  uint32_t selector_calls = 0;

  // evaluate payload.
  double score = 0.0;
  std::vector<double> all_scores;  // one per candidate
  uint32_t winner = 0;

  // methodcompare / rulesweep payloads.
  std::vector<MethodScore> method_scores;
  std::vector<RuleScore> rule_scores;

  // load / list payload: the loaded dataset, resp. every hosted one.
  std::vector<DatasetInfo> datasets;

  /// stats payload: a flat point-in-time metrics snapshot
  /// ("name{labels}" -> value) from the engine's obs::Registry.
  std::map<std::string, double> stats;

  // Mutation-verb payload: what the commit did. All deterministic
  // functions of (dataset state, mutation batch) — they go on the wire
  // and survive ToStableJson.
  uint64_t applied = 0;          // mutations committed in this batch
  uint64_t dirty_nodes = 0;      // nodes whose in-rows changed
  uint64_t walks_repaired = 0;   // sketch walks regenerated
  uint64_t walks_total = 0;      // sketch size (theta), for rates

  /// Selection diagnostics of the answering algorithm: stage timings
  /// (`stage.<name>_ms`) and work counts (`work.<name>`). Serialized on
  /// the wire only when the request set `trace` (v3) — ToStableJson
  /// strips them, so traced answers stay bit-identical to untraced ones.
  std::map<std::string, double> diagnostics;

  /// True when the request opted into tracing: diagnostics go on the
  /// wire. Like millis, a volatile side channel — stripped by
  /// ToStableJson.
  bool traced = false;

  double millis = 0.0;  // server-side handling time

  static Response Error(const Request& request, const Status& status);

  /// Canonical JSON encoding. Declared here so every front door shares one
  /// rendering; implemented by the wire codec (serve/protocol.cc), which
  /// owns the JSON vocabulary end to end.
  std::string ToJson() const;

  /// ToJson minus the volatile tail (`millis`, and the traced
  /// `diagnostics` block when present) — everything that must be
  /// invariant across runs, worker thread counts, build-vs-load serving
  /// paths, and trace on/off. The single source of truth for determinism
  /// comparisons (tests, bench_serve's answers_match check).
  std::string ToStableJson() const;
};

}  // namespace voteopt::api

#endif  // VOTEOPT_API_QUERY_H_
