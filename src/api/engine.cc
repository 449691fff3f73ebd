#include "api/engine.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <utility>

#include "core/estimated_greedy.h"
#include "core/min_seed.h"
#include "dyn/journal.h"
#include "dyn/repair.h"
#include "util/timer.h"

namespace voteopt::api {

namespace {

/// Sketch-selection options for one query. Explicit rather than
/// default-constructed so the engine, not the library default, decides the
/// evaluate_exact semantics: inner selections never pay the extra exact
/// propagation — the topk/minseed handlers score the final answer exactly
/// themselves, exactly once (when the request asks for it). The lazy /
/// num_threads knobs come from the request's QueryOptions; their defaults
/// reproduce the serve layer's historical behavior bit-identically.
core::EstimatedGreedyOptions SketchSelectionOptions(
    const QueryOptions& options) {
  core::EstimatedGreedyOptions greedy;
  greedy.evaluate_exact = false;
  greedy.lazy = options.lazy;
  greedy.num_threads = options.num_threads;
  return greedy;
}

DatasetInfo InfoOf(const DatasetEntry& entry) {
  DatasetInfo info;
  info.name = entry.name;
  info.num_nodes = entry.dataset.influence.num_nodes();
  info.num_candidates = entry.dataset.state.num_candidates();
  info.theta = entry.meta.theta;
  info.horizon = entry.meta.horizon;
  info.target = entry.meta.target;
  info.sketch_built = entry.sketch_built;
  return info;
}

/// The method's own score estimate when it reports one (RW/RS sketch
/// estimates), else the given fallback (exact methods estimate nothing).
double EstimateOf(const core::SelectionResult& selection, double fallback) {
  const auto it = selection.diagnostics.find("estimated_score");
  return it != selection.diagnostics.end() ? it->second : fallback;
}

uint32_t ArgMax(const std::vector<double>& scores) {
  return static_cast<uint32_t>(
      std::max_element(scores.begin(), scores.end()) - scores.begin());
}

}  // namespace

Engine::Engine(const EngineOptions& options)
    : options_(options),
      states_(options.evaluator_cache_capacity),
      pool_(std::make_unique<ThreadPool>(options.num_worker_threads)) {
  if (!options_.enable_metrics) return;
  mx_ = &metrics_;
  registry_.set_metrics(mx_);
  states_.set_metrics(mx_);
  m_evaluator_hits_ = metrics_.GetCounter(
      "voteopt_evaluator_cache_hits_total", {},
      "Evaluator-LRU hits across all worker states (incl. last-used-memo "
      "hits and build-evaluator adoptions)");
  m_evaluator_misses_ = metrics_.GetCounter(
      "voteopt_evaluator_cache_misses_total", {},
      "Evaluator-LRU misses: a ScoreEvaluator (horizon propagation) had "
      "to be constructed");
  m_sketch_resets_ = metrics_.GetCounter(
      "voteopt_sketch_resets_total", {},
      "Working-sketch resets, one per RS selection: a state's first is a "
      "full ResetValues, later ones undo the previous selection's cuts");
  m_batch_size_ = metrics_.GetHistogram(
      "voteopt_batch_requests", {},
      "Requests per ExecuteBatch call (batch occupancy)",
      {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
  m_batch_inflight_ = metrics_.GetGauge(
      "voteopt_batch_inflight", {},
      "Queries of the current batch submitted to the worker pool and not "
      "yet drained (queue depth; 0 between batches)");
  m_dyn_commits_ = metrics_.GetCounter(
      "voteopt_dyn_commits_total", {},
      "Mutation batches committed (one Replace per edge_add / edge_del / "
      "set_opinion / mutate request)");
  m_dyn_walks_repaired_ = metrics_.GetCounter(
      "voteopt_dyn_walks_repaired_total", {},
      "Sketch walks regenerated by incremental repair (the dirty-walk "
      "sets; clean walks splice their frozen bytes)");
  const std::vector<double> commit_bounds = {
      0.0001, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 60};
  m_dyn_repair_seconds_ = metrics_.GetHistogram(
      "voteopt_dyn_repair_seconds", {},
      "Incremental sketch-repair seconds per commit (patch + dirty-walk "
      "regeneration + reassembly; absent for opinion-only batches)",
      commit_bounds);
  const auto commit_stage = [&](const char* stage) {
    return metrics_.GetHistogram(
        "voteopt_dyn_commit_stage_seconds", {{"stage", stage}},
        "Seconds per commit in each bookkeeping stage around the repair "
        "(patch, fingerprint fold, journal write, registry swap + "
        "worker-state eviction)",
        commit_bounds);
  };
  m_dyn_patch_seconds_ = commit_stage("patch");
  m_dyn_fingerprint_seconds_ = commit_stage("fingerprint");
  m_dyn_journal_seconds_ = commit_stage("journal");
  m_dyn_publish_seconds_ = commit_stage("publish");
}

Result<std::unique_ptr<Engine>> Engine::Open(const EngineOptions& options) {
  auto engine = std::unique_ptr<Engine>(new Engine(options));
  if (!options.load.bundle_prefix.empty()) {
    auto entry = engine->registry_.Load(options.dataset_name, options.load);
    if (!entry.ok()) return entry.status();
    engine->bootstrap_built_ = (*entry)->sketch_built;
  }
  return engine;
}

Status Engine::Host(const std::string& name, datasets::Dataset dataset,
                    const HostOptions& host_options) {
  auto entry = registry_.Host(name, std::move(dataset), host_options);
  return entry.ok() ? Status::OK() : entry.status();
}

const datasets::Dataset& Engine::dataset() const {
  return registry_.Resolve("").value()->dataset;
}

const store::SketchMeta& Engine::sketch_meta() const {
  return registry_.Resolve("").value()->meta;
}

const core::WalkSet& Engine::walks() const {
  return *registry_.Resolve("").value()->sketch;
}

Engine::Stats Engine::stats() const {
  Stats stats;
  stats.queries = queries_.load();
  stats.errors = errors_.load();
  stats.evaluator_cache_hits = evaluator_cache_hits_.load();
  stats.evaluator_cache_misses = evaluator_cache_misses_.load();
  stats.sketch_resets = sketch_resets_.load();
  stats.worker_states = states_.states_created();
  stats.sketch_built = bootstrap_built_;
  return stats;
}

const voting::ScoreEvaluator* Engine::EvaluatorFor(
    const voting::ScoreSpec& spec, QueryState& state, obs::Trace* trace) {
  bool cache_hit = false;
  // A miss constructs the evaluator (a horizon propagation — the costly
  // part); that lands in the `evaluation` stage. Hits stop the span in
  // nanoseconds and add noise-floor time only.
  obs::Trace::Span span(trace, "evaluation");
  const voting::ScoreEvaluator* evaluator =
      state.EvaluatorFor(spec, &cache_hit);
  span.Stop();
  ++(cache_hit ? evaluator_cache_hits_ : evaluator_cache_misses_);
  if (cache_hit) {
    if (m_evaluator_hits_ != nullptr) m_evaluator_hits_->Increment();
    trace->AddWork("evaluator_cache_hits", 1);
  } else {
    if (m_evaluator_misses_ != nullptr) m_evaluator_misses_->Increment();
    trace->AddWork("evaluator_cache_misses", 1);
  }
  return evaluator;
}

void Engine::ResetSketch(const DatasetEntry& entry, QueryState& state,
                         obs::Trace* trace) {
  // A state's values only ever derive from its entry's target opinions, so
  // undoing the previous selection's cuts, O(walks cut), leaves the same
  // bytes as the O(theta) reset the state's first selection runs.
  if (state.walks_reset) {
    state.walks->UndoTruncations();
  } else {
    state.walks->ResetValues(entry.target_opinions());
    state.walks_reset = true;
  }
  ++sketch_resets_;
  if (m_sketch_resets_ != nullptr) m_sketch_resets_->Increment();
  trace->AddWork("sketch_resets", 1);
}

void Engine::AttachTrace(const obs::Trace& trace, Response* response) {
  std::map<std::string, double> merged;
  for (const auto& [name, value] : response->diagnostics) {
    if (name == "estimated_score") continue;  // already a response field
    merged["work." + name] = value;
  }
  for (const auto& [name, value] : trace.entries()) merged[name] += value;
  response->diagnostics = std::move(merged);
  response->traced = true;
}

Response Engine::Execute(const Request& request) {
  ++queries_;
  WallTimer timer;
  // The trace records when the client opted in OR the slow-query log is
  // armed (a slow line without its stage breakdown would be useless);
  // it reaches the wire only on client opt-in.
  obs::Trace trace(request.trace || options_.slow_query_millis >= 0);
  if (request.parse_millis > 0) {
    trace.AddStageMillis("parse", request.parse_millis);
  }
  Response response;
  if (request.v == 0 || request.v > kProtocolVersion) {
    // The codec rejects these before they reach the engine; typed callers
    // get the same clean error instead of silently-wrong semantics.
    response = Response::Error(
        request, Status::InvalidArgument(
                     "unsupported protocol version v=" +
                     std::to_string(request.v) + " (this engine speaks v1-v" +
                     std::to_string(kProtocolVersion) + ")"));
  } else {
    response = Dispatch(request, &trace);
  }
  if (!response.ok) ++errors_;
  const double seconds = timer.Seconds();
  if (mx_ != nullptr) {
    const char* op = OpName(request.op);
    mx_->GetCounter("voteopt_queries_total",
                    {{"op", op},
                     {"method", baselines::MethodName(request.method)},
                     {"rule", RuleLabel(request.rule)}},
                    "Requests answered, labeled by the request's verb, "
                    "method, and rule fields (an unknown rule counts as "
                    "invalid)")
        ->Increment();
    if (!response.ok) {
      mx_->GetCounter("voteopt_errors_total", {{"op", op}},
                      "Error responses, by verb")
          ->Increment();
    }
    mx_->GetHistogram("voteopt_query_seconds",
                      {{"op", op}, {"dataset", response.dataset}},
                      "Server-side handling seconds, by verb and answering "
                      "dataset")
        ->Observe(seconds);
  }
  if (request.trace) AttachTrace(trace, &response);
  obs::MaybeLogSlowQuery(OpName(request.op), response.dataset, request.id,
                         seconds * 1e3, options_.slow_query_millis, trace);
  return response;
}

Response Engine::Dispatch(const Request& request, obs::Trace* trace) {
  switch (request.op) {
    case Request::Op::kTopK:
    case Request::Op::kMinSeed:
    case Request::Op::kEvaluate:
    case Request::Op::kMethodCompare:
    case Request::Op::kRuleSweep:
      return ExecuteQuery(request, trace);
    case Request::Op::kLoad:
      return HandleLoad(request);
    case Request::Op::kUnload:
      return HandleUnload(request);
    case Request::Op::kList:
      return HandleList(request);
    case Request::Op::kStats:
      return HandleStats(request);
    case Request::Op::kEdgeAdd:
    case Request::Op::kEdgeDel:
    case Request::Op::kSetOpinion:
    case Request::Op::kMutate:
      return HandleMutate(request);
  }
  return Response::Error(request, Status::Internal("unroutable op"));
}

std::vector<Response> Engine::ExecuteBatch(const std::vector<Request>& batch) {
  if (m_batch_size_ != nullptr) {
    m_batch_size_->Observe(static_cast<double>(batch.size()));
  }
  // A one-request batch (the interactive stdin path) gains nothing from a
  // pool hand-off; answer inline and skip two cross-thread hops.
  if (batch.size() == 1) return {Execute(batch[0])};
  std::vector<Response> responses(batch.size());
  std::vector<std::pair<size_t, std::future<Response>>> inflight;
  auto drain = [&] {
    for (auto& [index, future] : inflight) responses[index] = future.get();
    inflight.clear();
    if (m_batch_inflight_ != nullptr) m_batch_inflight_->Set(0);
  };
  for (size_t i = 0; i < batch.size(); ++i) {
    const Request& request = batch[i];
    if (IsAdminOp(request.op)) {
      // Admin requests are ordering barriers: every query before them sees
      // the registry as it was, every query after them the updated one —
      // exactly the serial semantics, whatever the worker count. (The
      // stats verb is admin for the same reason: its counters are exact
      // with respect to its position in the batch.)
      drain();
      responses[i] = Execute(request);
    } else {
      inflight.emplace_back(
          i, pool_->Submit([this, &request] { return Execute(request); }));
      if (m_batch_inflight_ != nullptr) {
        m_batch_inflight_->Set(static_cast<double>(inflight.size()));
      }
    }
  }
  drain();
  return responses;
}

Response Engine::ExecuteQuery(const Request& request, obs::Trace* trace) {
  obs::Trace::Span dispatch_span(trace, "dispatch");
  auto entry = registry_.Resolve(request.dataset);
  if (!entry.ok()) return Response::Error(request, entry.status());
  dispatch_span.Stop();
  obs::Trace::Span lease_span(trace, "state_lease");
  StatePool::Lease state = states_.Acquire(*entry);
  lease_span.Stop();
  switch (request.op) {
    case Request::Op::kTopK:
      return HandleTopK(request, **entry, *state, trace);
    case Request::Op::kMinSeed:
      return HandleMinSeed(request, **entry, *state, trace);
    case Request::Op::kMethodCompare:
      return HandleMethodCompare(request, **entry, *state, trace);
    case Request::Op::kRuleSweep:
      return HandleRuleSweep(request, **entry, *state, trace);
    default:
      return HandleEvaluate(request, **entry, *state, trace);
  }
}

core::SelectionResult Engine::SelectSeeds(
    baselines::Method method, const voting::ScoreEvaluator& evaluator,
    uint32_t k, const QueryOptions& options, const DatasetEntry& entry,
    QueryState& state, obs::Trace* trace) {
  obs::Trace::Span span(trace, "selection");
  if (mx_ != nullptr) {
    mx_->GetCounter("voteopt_selections_total",
                    {{"method", baselines::MethodName(method)},
                     {"dataset", entry.name}},
                    "Seed selections run, by method and dataset (a "
                    "methodcompare query runs one per roster entry)")
        ->Increment();
  }
  if (method == baselines::Method::kRS) {
    // RS answers from the hosted artifact: reset the working view's
    // dynamic state, then run the greedy loop on the frozen walks.
    ResetSketch(entry, state, trace);
    return core::EstimatedGreedySelect(evaluator, k, state.walks.get(),
                                       SketchSelectionOptions(options));
  }
  // The rest of the roster builds its own substrate per query (walks for
  // RW, RR sets for IC/LT, score vectors for the heuristics) — exactly the
  // offline § VIII-A comparison, deterministic in options.methods.rng_seed.
  return baselines::SelectWithMethod(method, evaluator, k, options.methods);
}

Response Engine::HandleTopK(const Request& request, const DatasetEntry& entry,
                            QueryState& state, obs::Trace* trace) {
  WallTimer timer;
  auto spec = ResolveRule(request, entry.dataset.state.num_candidates());
  if (!spec.ok()) return Response::Error(request, spec.status());
  if (request.k == 0 || request.k > entry.dataset.influence.num_nodes()) {
    return Response::Error(
        request, Status::InvalidArgument("k must be in [1, num_nodes]"));
  }
  const voting::ScoreEvaluator* evaluator = EvaluatorFor(*spec, state, trace);
  core::SelectionResult selection =
      SelectSeeds(request.method, *evaluator, request.k, request.options,
                  entry, state, trace);

  Response response;
  response.id = request.id;
  response.op = OpName(request.op);
  response.dataset = entry.name;
  if (request.method != baselines::Method::kRS) {
    response.method = baselines::MethodName(request.method);
  }
  if (request.method == baselines::Method::kRS) {
    response.estimated_score = selection.diagnostics.at("estimated_score");
    obs::Trace::Span eval_span(trace, "evaluation");
    response.exact_score = request.options.evaluate_exact
                               ? evaluator->EvaluateSeeds(selection.seeds)
                               : 0.0;
  } else {
    // SelectWithMethod scores its answer exactly as part of the contract.
    response.estimated_score = EstimateOf(selection, selection.score);
    response.exact_score = selection.score;
  }
  response.seeds = std::move(selection.seeds);
  response.diagnostics = std::move(selection.diagnostics);
  response.millis = timer.Millis();
  return response;
}

Response Engine::HandleMinSeed(const Request& request,
                               const DatasetEntry& entry, QueryState& state,
                               obs::Trace* trace) {
  WallTimer timer;
  auto spec = ResolveRule(request, entry.dataset.state.num_candidates());
  if (!spec.ok()) return Response::Error(request, spec.status());
  if (request.k_max > entry.dataset.influence.num_nodes()) {
    return Response::Error(
        request, Status::InvalidArgument("k_max exceeds num_nodes"));
  }
  const voting::ScoreEvaluator* evaluator = EvaluatorFor(*spec, state, trace);

  obs::Trace::Span selection_span(trace, "selection");
  core::MinSeedResult result;
  if (request.method == baselines::Method::kRS && request.options.single_pass) {
    // Single-pass Algorithm 2: greedy on the frozen sketch is
    // prefix-nested, so ONE selection at k_max — checking the winning
    // criterion per prefix — replaces the binary search's per-probe
    // ResetSketch + full reselection. selector_calls is therefore at most
    // 1 (see PROTOCOL.md).
    const core::PrefixSelector selector =
        [this, &request, &entry, &state, trace](
            const voting::ScoreEvaluator& evaluator_ref, uint32_t budget,
            const core::PrefixCallback& on_prefix) {
          ResetSketch(entry, state, trace);
          core::EstimatedGreedyOptions greedy =
              SketchSelectionOptions(request.options);
          greedy.on_prefix = core::ToGreedyPrefixHook(on_prefix);
          return core::EstimatedGreedySelect(evaluator_ref, budget,
                                             state.walks.get(), greedy);
        };
    result = core::MinSeedsToWinSinglePass(*evaluator, selector,
                                           request.k_max);
  } else {
    // The paper's budget binary search — over fresh sketch selections for
    // RS (the single-pass oracle baseline), or over any other roster
    // method via its generic SeedSelector adapter.
    core::SeedSelector selector;
    if (request.method == baselines::Method::kRS) {
      selector = [this, &request, &entry, &state, trace](
                     const voting::ScoreEvaluator& evaluator_ref,
                     uint32_t budget) {
        ResetSketch(entry, state, trace);
        return core::EstimatedGreedySelect(
            evaluator_ref, budget, state.walks.get(),
            SketchSelectionOptions(request.options));
      };
    } else {
      selector =
          baselines::MakeSelector(request.method, request.options.methods);
    }
    result = core::MinSeedsToWin(*evaluator, selector, request.k_max);
  }
  selection_span.Stop();

  Response response;
  response.id = request.id;
  response.op = OpName(request.op);
  response.dataset = entry.name;
  if (request.method != baselines::Method::kRS) {
    response.method = baselines::MethodName(request.method);
  }
  response.achievable = result.achievable;
  response.k_star = result.k_star;
  response.seeds = result.seeds;
  response.selector_calls = result.selector_calls;
  trace->AddWork("selector_calls", result.selector_calls);
  {
    obs::Trace::Span eval_span(trace, "evaluation");
    response.exact_score = request.options.evaluate_exact
                               ? evaluator->EvaluateSeeds(result.seeds)
                               : 0.0;
  }
  response.millis = timer.Millis();
  return response;
}

Response Engine::HandleEvaluate(const Request& request,
                                const DatasetEntry& entry, QueryState& state,
                                obs::Trace* trace) {
  WallTimer timer;
  auto spec = ResolveRule(request, entry.dataset.state.num_candidates());
  if (!spec.ok()) return Response::Error(request, spec.status());
  const uint32_t n = entry.dataset.influence.num_nodes();
  for (const graph::NodeId seed : request.seeds) {
    if (seed >= n) {
      return Response::Error(request,
                             Status::OutOfRange("seed id out of range"));
    }
  }
  for (const auto& [user, opinion] : request.overrides) {
    if (user >= n) {
      return Response::Error(request,
                             Status::OutOfRange("override user out of range"));
    }
    if (!std::isfinite(opinion) || opinion < 0.0 || opinion > 1.0) {
      return Response::Error(
          request,
          Status::InvalidArgument("override opinion must be in [0, 1]"));
    }
  }
  const voting::ScoreEvaluator* evaluator = EvaluatorFor(*spec, state, trace);

  obs::Trace::Span eval_span(trace, "evaluation");
  // Exact propagation of the (possibly overridden) target campaign; the
  // competitors' horizon opinions come from the cached evaluator state.
  opinion::Campaign campaign = entry.dataset.state.campaigns[entry.meta.target];
  for (const auto& [user, opinion] : request.overrides) {
    campaign.initial_opinions[user] = opinion;
  }
  const std::vector<double> target_row = entry.model->PropagateWithSeeds(
      campaign, request.seeds, entry.meta.horizon);

  Response response;
  response.id = request.id;
  response.op = OpName(request.op);
  response.dataset = entry.name;
  response.score = evaluator->ScoreFromTargetOpinions(target_row);
  response.all_scores = evaluator->ScoresAllCandidates(target_row);
  response.winner = ArgMax(response.all_scores);
  eval_span.Stop();
  response.millis = timer.Millis();
  return response;
}

Response Engine::HandleMethodCompare(const Request& request,
                                     const DatasetEntry& entry,
                                     QueryState& state, obs::Trace* trace) {
  WallTimer timer;
  auto spec = ResolveRule(request, entry.dataset.state.num_candidates());
  if (!spec.ok()) return Response::Error(request, spec.status());
  if (request.k == 0 || request.k > entry.dataset.influence.num_nodes()) {
    return Response::Error(
        request, Status::InvalidArgument("k must be in [1, num_nodes]"));
  }
  const voting::ScoreEvaluator* evaluator = EvaluatorFor(*spec, state, trace);
  // Default roster: all nine methods, in the paper's plotting order.
  const std::vector<baselines::Method> roster =
      request.methods.empty() ? baselines::AllMethods() : request.methods;

  Response response;
  response.id = request.id;
  response.op = OpName(request.op);
  response.dataset = entry.name;
  response.method_scores.reserve(roster.size());
  for (const baselines::Method method : roster) {
    const core::SelectionResult selection = SelectSeeds(
        method, *evaluator, request.k, request.options, entry, state, trace);
    MethodScore entry_score;
    entry_score.method = baselines::MethodName(method);
    entry_score.seeds = selection.seeds;
    obs::Trace::Span eval_span(trace, "evaluation");
    entry_score.exact_score = method == baselines::Method::kRS
                                  ? evaluator->EvaluateSeeds(selection.seeds)
                                  : selection.score;
    eval_span.Stop();
    entry_score.estimated_score =
        EstimateOf(selection, entry_score.exact_score);
    entry_score.seconds = selection.seconds;
    response.method_scores.push_back(std::move(entry_score));
  }
  response.millis = timer.Millis();
  return response;
}

Response Engine::HandleRuleSweep(const Request& request,
                                 const DatasetEntry& entry,
                                 QueryState& state, obs::Trace* trace) {
  WallTimer timer;
  const uint32_t r = entry.dataset.state.num_candidates();
  if (request.k == 0 || request.k > entry.dataset.influence.num_nodes()) {
    return Response::Error(
        request, Status::InvalidArgument("k must be in [1, num_nodes]"));
  }
  // The paper's five voting rules (§ II-B). The positional entry uses the
  // request's omega when supplied and the Borda weight vector otherwise
  // (the natural r-rank default; requires r >= 2 like rule=borda).
  std::vector<std::pair<std::string, Result<voting::ScoreSpec>>> rules;
  rules.emplace_back("cumulative",
                     ResolveRule("cumulative", 1, {}, r));
  rules.emplace_back("plurality", ResolveRule("plurality", 1, {}, r));
  rules.emplace_back("papproval", ResolveRule("papproval", request.p, {}, r));
  rules.emplace_back("positional",
                     request.omega.empty()
                         ? ResolveRule("borda", 1, {}, r)
                         : ResolveRule("positional", request.p, request.omega,
                                       r));
  rules.emplace_back("copeland", ResolveRule("copeland", 1, {}, r));

  Response response;
  response.id = request.id;
  response.op = OpName(request.op);
  response.dataset = entry.name;
  response.rule_scores.reserve(rules.size());
  for (const auto& [name, spec] : rules) {
    if (!spec.ok()) return Response::Error(request, spec.status());
    const voting::ScoreEvaluator* evaluator = EvaluatorFor(*spec, state, trace);
    const core::SelectionResult selection =
        SelectSeeds(request.method, *evaluator, request.k, request.options,
                    entry, state, trace);
    RuleScore rule_score;
    rule_score.rule = name;
    rule_score.seeds = selection.seeds;
    // One exact propagation yields the target's score, every candidate's
    // score, and the post-seeding winner under this rule.
    obs::Trace::Span eval_span(trace, "evaluation");
    const std::vector<double> target_row =
        evaluator->TargetHorizonOpinions(selection.seeds);
    rule_score.exact_score = evaluator->ScoreFromTargetOpinions(target_row);
    rule_score.estimated_score =
        EstimateOf(selection, rule_score.exact_score);
    rule_score.winner = ArgMax(evaluator->ScoresAllCandidates(target_row));
    eval_span.Stop();
    response.rule_scores.push_back(std::move(rule_score));
  }
  response.millis = timer.Millis();
  return response;
}

Response Engine::HandleLoad(const Request& request) {
  WallTimer timer;
  if (request.dataset.empty()) {
    return Response::Error(
        request, Status::InvalidArgument("load requires a 'dataset' name"));
  }
  if (request.bundle.empty()) {
    return Response::Error(
        request, Status::InvalidArgument("load requires a 'bundle' prefix"));
  }
  DatasetLoadOptions load = options_.load;  // engine defaults
  load.bundle_prefix = request.bundle;
  load.sketch_path = request.sketch;
  if (request.theta > 0) load.build_theta = request.theta;
  auto entry = registry_.Load(request.dataset, load);
  if (!entry.ok()) return Response::Error(request, entry.status());

  Response response;
  response.id = request.id;
  response.op = OpName(request.op);
  response.dataset = (*entry)->name;
  response.datasets.push_back(InfoOf(**entry));
  response.millis = timer.Millis();
  return response;
}

Response Engine::HandleUnload(const Request& request) {
  WallTimer timer;
  if (request.dataset.empty()) {
    return Response::Error(
        request, Status::InvalidArgument("unload requires a 'dataset' name"));
  }
  auto removed = registry_.Unload(request.dataset);
  if (!removed.ok()) return Response::Error(request, removed.status());
  // Drop pooled idle states; states leased to in-flight queries are
  // discarded when they check back in.
  states_.Evict(request.dataset, (*removed)->generation);

  Response response;
  response.id = request.id;
  response.op = OpName(request.op);
  response.dataset = request.dataset;
  response.millis = timer.Millis();
  return response;
}

Response Engine::HandleList(const Request& request) {
  WallTimer timer;
  Response response;
  response.id = request.id;
  response.op = OpName(request.op);
  for (const auto& entry : registry_.List()) {
    response.datasets.push_back(InfoOf(*entry));
  }
  response.millis = timer.Millis();
  return response;
}

Response Engine::HandleMutate(const Request& request) {
  WallTimer timer;
  if (request.mutations.empty()) {
    return Response::Error(
        request, Status::InvalidArgument(std::string(OpName(request.op)) +
                                         " carries no mutations"));
  }
  if (request.op != Request::Op::kMutate && request.mutations.size() != 1) {
    return Response::Error(
        request, Status::InvalidArgument(
                     "single-edit verbs carry exactly one mutation; use "
                     "'mutate' for batches"));
  }

  MutexLock lock(&mutate_mutex_);
  auto resolved = registry_.Resolve(request.dataset);
  if (!resolved.ok()) return Response::Error(request, resolved.status());
  const std::shared_ptr<const DatasetEntry>& base = *resolved;

  // Seconds of each bookkeeping stage, observed once the commit is
  // published, so a failed commit records no stage.
  WallTimer stage_timer;
  auto patched = dyn::ApplyMutations(base->dataset.influence,
                                     base->dataset.state, request.mutations);
  if (!patched.ok()) return Response::Error(request, patched.status());
  const double patch_seconds = stage_timer.Seconds();

  // The successor entry: same identity (name, base bundle, meta recipe),
  // patched instance, extended journal. Everything published stays
  // immutable — the commit is one shared_ptr swap in the registry.
  auto next = std::make_shared<DatasetEntry>();
  next->name = base->name;
  next->dataset.name = base->dataset.name;
  next->dataset.counts = base->dataset.counts;
  next->dataset.default_target = base->dataset.default_target;
  next->dataset.influence = std::move(patched->graph);
  next->dataset.state = std::move(patched->state);
  next->meta = base->meta;
  next->sketch_built = base->sketch_built;
  next->bundle_prefix = base->bundle_prefix;
  next->base_fingerprint = base->base_fingerprint;
  next->mutation_log = base->mutation_log;
  next->mutation_log.Append(
      std::span<const dyn::Mutation>(request.mutations));

  dyn::RepairStats repair_stats;
  repair_stats.walks_total = base->sketch->num_walks();
  repair_stats.dirty_nodes = patched->dirty_nodes.size();
  if (patched->dirty_nodes.empty()) {
    // Opinion-only batch: walk trajectories depend on graph + stubbornness
    // alone, and every query rebuilds the sketch's value layer from
    // target_opinions() per selection — sharing the frozen WalkSet with
    // the predecessor is exact. The alias tables are NOT shared: a sampler
    // reads the in-edge sources of the graph it serves, and the
    // predecessor's graph dies with its entry once the registry swap below
    // drops it. Rebind by incremental copy (empty dirty set — a straight
    // table copy) so the published alias always reads its own entry's
    // graph.
    next->sketch = base->sketch;
    if (base->alias != nullptr) {
      next->alias = std::make_shared<const graph::AliasSampler>(
          next->dataset.influence, *base->alias,
          std::span<const graph::NodeId>{});
    }
  } else {
    WallTimer repair_timer;
    dyn::RepairOptions repair;
    repair.num_threads = options_.load.build_threads;
    // A server configured for out-of-core builds (budget > 0) replays the
    // dirty walks through the same block scheduler.
    repair.block_budget_bytes = options_.load.block_budget_bytes;
    auto outcome = dyn::SketchRepairer::Repair(
        *base->sketch, next->dataset.influence,
        next->dataset.state.campaigns[next->meta.target], base->meta,
        patched->dirty_nodes, base->alias.get(), repair);
    if (!outcome.ok()) return Response::Error(request, outcome.status());
    repair_stats = outcome->stats;
    next->sketch =
        std::shared_ptr<const core::WalkSet>(std::move(outcome->sketch));
    next->alias = std::move(outcome->alias);  // null on the OOC path
    if (m_dyn_repair_seconds_ != nullptr) {
      m_dyn_repair_seconds_->Observe(repair_timer.Seconds());
    }
  }
  next->model = std::make_unique<opinion::FJModel>(next->dataset.influence);
  // The successor's fingerprint is its predecessor's folded with this
  // batch's journal records — O(batch), and by construction what journal
  // replay folds at the next Load.
  stage_timer.Restart();
  next->meta.bundle_fingerprint =
      dyn::FoldMutations(next->meta.bundle_fingerprint, request.mutations);
  const double fingerprint_seconds = stage_timer.Seconds();
  // build_evaluator stays null: the base's evaluator propagated the
  // pre-mutation graph and would seed worker LRUs with stale horizon rows.

  // Durability before visibility: persist the journal (temp + rename),
  // then publish. A crash between the two replays the full journal at the
  // next Load and — repair being bit-identical to rebuild — lands on
  // exactly the instance we are about to serve.
  stage_timer.Restart();
  if (!next->bundle_prefix.empty()) {
    Status saved = dyn::SaveMutationLog(
        next->bundle_prefix + dyn::kMutationLogSuffix, next->base_fingerprint,
        next->mutation_log.mutations());
    if (!saved.ok()) return Response::Error(request, saved);
  }
  const double journal_seconds = stage_timer.Seconds();
  stage_timer.Restart();
  auto replaced = registry_.Replace(next);
  if (!replaced.ok()) return Response::Error(request, replaced.status());
  // Pooled worker state was built against the replaced generation; drop
  // idle states now, leased ones when they check back in.
  states_.Evict(next->name, (*replaced)->generation);
  const double publish_seconds = stage_timer.Seconds();

  if (mx_ != nullptr) {
    for (const dyn::Mutation& m : request.mutations) {
      mx_->GetCounter("voteopt_dyn_mutations_total",
                      {{"kind", dyn::MutationKindName(m.kind)}},
                      "Mutations committed, by kind")
          ->Increment();
    }
  }
  if (m_dyn_commits_ != nullptr) m_dyn_commits_->Increment();
  if (m_dyn_patch_seconds_ != nullptr) {
    m_dyn_patch_seconds_->Observe(patch_seconds);
    m_dyn_fingerprint_seconds_->Observe(fingerprint_seconds);
    m_dyn_journal_seconds_->Observe(journal_seconds);
    m_dyn_publish_seconds_->Observe(publish_seconds);
  }
  if (m_dyn_walks_repaired_ != nullptr) {
    m_dyn_walks_repaired_->Increment(repair_stats.walks_repaired);
  }

  Response response;
  response.id = request.id;
  response.op = OpName(request.op);
  response.dataset = next->name;
  response.applied = request.mutations.size();
  response.dirty_nodes = repair_stats.dirty_nodes;
  response.walks_repaired = repair_stats.walks_repaired;
  response.walks_total = repair_stats.walks_total;
  response.millis = timer.Millis();
  return response;
}

Response Engine::HandleStats(const Request& request) {
  WallTimer timer;
  Response response;
  response.id = request.id;
  response.op = OpName(request.op);
  // The flat registry snapshot ("name{labels}" -> value), plus the
  // engine's core atomics as engine_* entries — present even when
  // enable_metrics is false, so `stats` always answers something.
  response.stats = metrics_.Snapshot();
  response.stats.emplace("engine_queries_total",
                         static_cast<double>(queries_.load()));
  response.stats.emplace("engine_errors_total",
                         static_cast<double>(errors_.load()));
  response.millis = timer.Millis();
  return response;
}

}  // namespace voteopt::api
