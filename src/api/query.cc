#include "api/query.h"

namespace voteopt::api {

const char* OpName(Request::Op op) {
  switch (op) {
    case Request::Op::kTopK: return "topk";
    case Request::Op::kMinSeed: return "minseed";
    case Request::Op::kEvaluate: return "evaluate";
    case Request::Op::kMethodCompare: return "methodcompare";
    case Request::Op::kRuleSweep: return "rulesweep";
    case Request::Op::kLoad: return "load";
    case Request::Op::kUnload: return "unload";
    case Request::Op::kList: return "list";
    case Request::Op::kStats: return "stats";
    case Request::Op::kEdgeAdd: return "edge_add";
    case Request::Op::kEdgeDel: return "edge_del";
    case Request::Op::kSetOpinion: return "set_opinion";
    case Request::Op::kMutate: return "mutate";
  }
  return "?";
}

bool IsAdminOp(Request::Op op) {
  return op == Request::Op::kLoad || op == Request::Op::kUnload ||
         op == Request::Op::kList || op == Request::Op::kStats ||
         op == Request::Op::kEdgeAdd || op == Request::Op::kEdgeDel ||
         op == Request::Op::kSetOpinion || op == Request::Op::kMutate;
}

Result<voting::ScoreSpec> ResolveRule(const std::string& rule, uint32_t p,
                                      const std::vector<double>& omega,
                                      uint32_t num_candidates) {
  voting::ScoreSpec spec;
  if (rule == "cumulative") {
    spec = voting::ScoreSpec::Cumulative();
  } else if (rule == "plurality") {
    spec = voting::ScoreSpec::Plurality();
  } else if (rule == "papproval" || rule == "p-approval") {
    spec = voting::ScoreSpec::PApproval(p);
  } else if (rule == "positional") {
    if (omega.empty()) {
      return Status::InvalidArgument(
          "rule 'positional' requires the 'omega' weights");
    }
    spec = voting::ScoreSpec::PositionalPApproval(omega);
  } else if (rule == "copeland") {
    spec = voting::ScoreSpec::Copeland();
  } else if (rule == "borda") {
    // ScoreSpec::Borda derives its weights from r and is undefined for a
    // single-candidate walkover — validate instead of asserting.
    if (num_candidates < 2) {
      return Status::InvalidArgument(
          "rule 'borda' requires at least 2 candidates (r = " +
          std::to_string(num_candidates) + ")");
    }
    spec = voting::ScoreSpec::Borda(num_candidates);
  } else {
    return Status::InvalidArgument(
        "unknown rule '" + rule +
        "' (valid: cumulative, plurality, papproval, positional, copeland, "
        "borda)");
  }
  VOTEOPT_RETURN_IF_ERROR(spec.Validate(num_candidates));
  return spec;
}

const char* RuleLabel(const std::string& rule) {
  for (const char* known : {"cumulative", "plurality", "papproval",
                            "p-approval", "positional", "copeland", "borda"}) {
    if (rule == known) return known;
  }
  return "invalid";
}

void SpecToRuleFields(const voting::ScoreSpec& spec, Request* request) {
  request->p = spec.p;
  request->omega = spec.omega;
  switch (spec.kind) {
    case voting::ScoreKind::kCumulative:
      request->rule = "cumulative";
      break;
    case voting::ScoreKind::kPlurality:
      request->rule = "plurality";
      break;
    case voting::ScoreKind::kPApproval:
      request->rule = "papproval";
      break;
    case voting::ScoreKind::kPositionalPApproval:
      request->rule = "positional";
      break;
    case voting::ScoreKind::kCopeland:
      request->rule = "copeland";
      break;
  }
}

Request Request::TopK(uint32_t k, const voting::ScoreSpec& spec,
                      baselines::Method method) {
  Request request;
  request.op = Op::kTopK;
  request.k = k;
  request.method = method;
  SpecToRuleFields(spec, &request);
  return request;
}

Request Request::MinSeed(uint32_t k_max, const voting::ScoreSpec& spec,
                         baselines::Method method) {
  Request request;
  request.op = Op::kMinSeed;
  request.k_max = k_max;
  request.method = method;
  SpecToRuleFields(spec, &request);
  return request;
}

Request Request::Evaluate(std::vector<graph::NodeId> seeds,
                          const voting::ScoreSpec& spec) {
  Request request;
  request.op = Op::kEvaluate;
  request.seeds = std::move(seeds);
  SpecToRuleFields(spec, &request);
  return request;
}

Request Request::MethodCompare(uint32_t k, const voting::ScoreSpec& spec) {
  Request request;
  request.op = Op::kMethodCompare;
  request.k = k;
  SpecToRuleFields(spec, &request);
  return request;
}

Request Request::RuleSweep(uint32_t k) {
  Request request;
  request.op = Op::kRuleSweep;
  request.k = k;
  return request;
}

Request Request::EdgeAdd(uint32_t from, uint32_t to, double weight) {
  Request request;
  request.op = Op::kEdgeAdd;
  request.mutations.push_back(dyn::Mutation::EdgeAdd(from, to, weight));
  return request;
}

Request Request::EdgeDel(uint32_t from, uint32_t to) {
  Request request;
  request.op = Op::kEdgeDel;
  request.mutations.push_back(dyn::Mutation::EdgeDel(from, to));
  return request;
}

Request Request::SetOpinion(uint32_t candidate, graph::NodeId node,
                            double value) {
  Request request;
  request.op = Op::kSetOpinion;
  request.mutations.push_back(
      dyn::Mutation::SetOpinion(candidate, node, value));
  return request;
}

Request Request::Mutate(std::vector<dyn::Mutation> mutations) {
  Request request;
  request.op = Op::kMutate;
  request.mutations = std::move(mutations);
  return request;
}

Response Response::Error(const Request& request, const Status& status) {
  Response response;
  response.id = request.id;
  response.op = OpName(request.op);
  response.ok = false;
  response.error = status.ToString();
  return response;
}

}  // namespace voteopt::api
