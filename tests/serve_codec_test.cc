// Golden coverage for the wire codec (serve/protocol.{h,cc}): the JSON →
// Request → JSON and Response → JSON → Response round trips across every
// query kind, every voting rule, and the error vocabulary — plus the
// pinned v1 fixture file, which must keep parsing bit-identically forever
// (the protocol-version negotiation contract of docs/PROTOCOL.md).
#include "serve/protocol.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#ifndef VOTEOPT_SOURCE_DIR
#define VOTEOPT_SOURCE_DIR "."
#endif

namespace voteopt::serve {
namespace {

std::vector<std::string> ReadFixtureLines(const std::string& name) {
  const std::string path =
      std::string(VOTEOPT_SOURCE_DIR) + "/tests/data/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    lines.push_back(line);
  }
  return lines;
}

/// The canonical-form projection: parse, re-encode. Stable under repeated
/// application — the codec's round-trip invariant.
std::string Canonical(const std::string& line) {
  auto request = ParseRequest(line);
  EXPECT_TRUE(request.ok()) << line << ": " << request.status().ToString();
  return request.ok() ? RequestToJson(*request) : "";
}

// ---------------------------------------------------------------------------
// Pinned v1 fixture: yesterday's clients keep working, byte for byte.
// ---------------------------------------------------------------------------

TEST(ProtocolV1FixtureTest, EveryPinnedRequestStillParses) {
  const auto requests = ReadFixtureLines("protocol_v1_requests.jsonl");
  const auto canonical = ReadFixtureLines("protocol_v1_canonical.jsonl");
  ASSERT_FALSE(requests.empty());
  ASSERT_EQ(requests.size(), canonical.size())
      << "fixture files must pair line for line";
  for (size_t i = 0; i < requests.size(); ++i) {
    auto request = ParseRequest(requests[i]);
    ASSERT_TRUE(request.ok())
        << "v1 fixture line " << i << " no longer parses: "
        << request.status().ToString();
    EXPECT_EQ(request->v, 1u) << "fixture line " << i;
    EXPECT_EQ(RequestToJson(*request), canonical[i])
        << "canonical encoding of fixture line " << i << " drifted";
    // Canonical forms are fixed points of parse→encode.
    EXPECT_EQ(Canonical(canonical[i]), canonical[i]);
  }
}

// ---------------------------------------------------------------------------
// Request round trips across every query kind and rule.
// ---------------------------------------------------------------------------

TEST(RequestRoundTripTest, EveryQueryKindSurvivesParseEncodeParse) {
  const std::vector<std::string> lines = {
      R"({"op": "topk", "v": 2, "k": 5, "method": "DC"})",
      R"({"op": "topk", "k": 5, "rule": "borda", "dataset": "d"})",
      R"({"op": "minseed", "v": 2, "k_max": 40, "method": "GED-T"})",
      R"({"op": "evaluate", "seeds": [9], "override": [[1, 0.5]]})",
      R"({"op": "methodcompare", "v": 2, "k": 4, )"
      R"("methods": ["DM", "RS", "DC"]})",
      R"({"op": "rulesweep", "v": 2, "k": 4, "p": 2})",
      R"({"op": "load", "dataset": "x", "bundle": "/b", "theta": 4096})",
      R"({"op": "unload", "dataset": "x"})",
      R"({"op": "list"})",
  };
  for (const std::string& line : lines) {
    const std::string canonical = Canonical(line);
    EXPECT_EQ(Canonical(canonical), canonical) << line;
  }
}

TEST(RequestRoundTripTest, EveryRuleSurvives) {
  for (const char* rule : {"cumulative", "plurality", "papproval",
                           "positional", "copeland", "borda"}) {
    std::string line = std::string(R"({"op": "topk", "k": 2, "rule": ")") +
                       rule + "\"";
    if (std::string(rule) == "positional") line += R"(, "omega": [1, 0.5])";
    if (std::string(rule) == "papproval") line += R"(, "p": 2)";
    line += "}";
    auto request = ParseRequest(line);
    ASSERT_TRUE(request.ok()) << line;
    EXPECT_EQ(request->rule, rule);
    const std::string canonical = RequestToJson(*request);
    EXPECT_EQ(Canonical(canonical), canonical) << line;
  }
}

TEST(RequestRoundTripTest, TypedBuildersEncodeLikeWireRequests) {
  // A typed-constructor request and its parsed wire twin are
  // indistinguishable — the embedded/served unification in one assert.
  const api::Request built =
      api::Request::TopK(7, voting::ScoreSpec::PApproval(2),
                         baselines::Method::kDegree);
  auto parsed = ParseRequest(
      R"({"op": "topk", "k": 7, "rule": "papproval", "p": 2, )"
      R"("method": "dc"})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(RequestToJson(built), RequestToJson(*parsed));

  const api::Request sweep = api::Request::RuleSweep(9);
  auto parsed_sweep = ParseRequest(R"({"op": "rulesweep", "k": 9})");
  ASSERT_TRUE(parsed_sweep.ok());
  EXPECT_EQ(RequestToJson(sweep), RequestToJson(*parsed_sweep));
}

// ---------------------------------------------------------------------------
// Response round trips across every response shape.
// ---------------------------------------------------------------------------

std::string ReEncode(const std::string& json) {
  auto response = ParseResponse(json);
  EXPECT_TRUE(response.ok()) << json << ": " << response.status().ToString();
  return response.ok() ? response->ToJson() : "";
}

TEST(ResponseRoundTripTest, TopKMinSeedEvaluate) {
  api::Response topk;
  topk.op = "topk";
  topk.id = "q1";
  topk.dataset = "yelp";
  topk.method = "DC";
  topk.seeds = {1, 2, 3};
  topk.estimated_score = 12.5;
  topk.exact_score = 12.25;
  topk.millis = 3.5;
  EXPECT_EQ(ReEncode(topk.ToJson()), topk.ToJson());

  api::Response minseed;
  minseed.op = "minseed";
  minseed.dataset = "d";
  minseed.achievable = true;
  minseed.k_star = 17;
  minseed.seeds = {4, 5};
  minseed.exact_score = 99.5;
  minseed.selector_calls = 1;
  EXPECT_EQ(ReEncode(minseed.ToJson()), minseed.ToJson());

  api::Response evaluate;
  evaluate.op = "evaluate";
  evaluate.dataset = "d";
  evaluate.score = 6.5;
  evaluate.all_scores = {6.5, 2.25};
  evaluate.winner = 0;
  evaluate.millis = 0.125;
  EXPECT_EQ(ReEncode(evaluate.ToJson()), evaluate.ToJson());
}

TEST(ResponseRoundTripTest, MethodCompareAndRuleSweep) {
  api::Response compare;
  compare.op = "methodcompare";
  compare.dataset = "d";
  compare.method_scores.push_back({"DM", {1, 2}, 10.5, 10.25, 0.5});
  compare.method_scores.push_back({"RS", {2, 1}, 9.5, 9.75, 0.25});
  const std::string json = compare.ToJson();
  EXPECT_EQ(ReEncode(json), json);
  // Selection seconds never reach the wire (reproducibility contract).
  EXPECT_EQ(json.find("seconds"), std::string::npos);
  auto parsed = ParseResponse(json);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->method_scores.size(), 2u);
  EXPECT_EQ(parsed->method_scores[0].method, "DM");
  EXPECT_EQ(parsed->method_scores[0].seeds,
            (std::vector<graph::NodeId>{1, 2}));
  EXPECT_DOUBLE_EQ(parsed->method_scores[0].exact_score, 10.25);
  EXPECT_DOUBLE_EQ(parsed->method_scores[0].seconds, 0.0);  // not carried

  api::Response sweep;
  sweep.op = "rulesweep";
  sweep.dataset = "d";
  sweep.rule_scores.push_back({"cumulative", {3}, 5.5, 5.25, 0});
  sweep.rule_scores.push_back({"copeland", {4}, 1.0, 1.0, 1});
  const std::string sweep_json = sweep.ToJson();
  EXPECT_EQ(ReEncode(sweep_json), sweep_json);
  auto parsed_sweep = ParseResponse(sweep_json);
  ASSERT_TRUE(parsed_sweep.ok());
  ASSERT_EQ(parsed_sweep->rule_scores.size(), 2u);
  EXPECT_EQ(parsed_sweep->rule_scores[1].rule, "copeland");
  EXPECT_EQ(parsed_sweep->rule_scores[1].winner, 1u);
}

TEST(ResponseRoundTripTest, AdminAndErrorShapes) {
  api::Response load;
  load.op = "load";
  load.dataset = "yelp";
  api::DatasetInfo info;
  info.name = "yelp";
  info.num_nodes = 800;
  info.num_candidates = 10;
  info.theta = 262144;
  info.horizon = 20;
  info.target = 3;
  info.sketch_built = true;
  load.datasets.push_back(info);
  EXPECT_EQ(ReEncode(load.ToJson()), load.ToJson());
  auto parsed = ParseResponse(load.ToJson());
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->datasets.size(), 1u);
  EXPECT_EQ(parsed->datasets[0].theta, 262144u);
  EXPECT_TRUE(parsed->datasets[0].sketch_built);

  api::Request request;
  request.op = api::Request::Op::kEvaluate;
  request.id = "r9";
  const api::Response error =
      api::Response::Error(request, Status::OutOfRange("seed id out of range"));
  EXPECT_EQ(ReEncode(error.ToJson()), error.ToJson());
  auto parsed_error = ParseResponse(error.ToJson());
  ASSERT_TRUE(parsed_error.ok());
  EXPECT_FALSE(parsed_error->ok);
  EXPECT_EQ(parsed_error->error, "OutOfRange: seed id out of range");
}

// ---------------------------------------------------------------------------
// v3 observability: the stats verb and the trace side channel.
// ---------------------------------------------------------------------------

TEST(ObservabilityCodecTest, StatsVerbRoundTrips) {
  // Request side: stats is a v3 verb; the canonical form keeps the version.
  auto request = ParseRequest(R"({"op": "stats", "v": 3})");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->op, api::Request::Op::kStats);
  EXPECT_TRUE(api::IsAdminOp(request->op))
      << "stats must be an ordering barrier";
  const std::string canonical = RequestToJson(*request);
  EXPECT_EQ(canonical, R"({"op": "stats", "v": 3})");
  EXPECT_EQ(Canonical(canonical), canonical);

  // Response side: the flat "name{labels}" -> value snapshot survives the
  // wire, including Prometheus-style label punctuation inside key names.
  api::Response stats;
  stats.op = "stats";
  stats.id = "s1";
  stats.stats[R"(voteopt_queries_total{method="RS",op="topk"})"] = 41;
  stats.stats["voteopt_datasets_hosted"] = 2;
  stats.stats["voteopt_query_seconds_sum{op=\"topk\"}"] = 0.125;
  stats.millis = 0.5;
  const std::string json = stats.ToJson();
  EXPECT_EQ(ReEncode(json), json);
  auto parsed = ParseResponse(json);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->stats.size(), 3u);
  EXPECT_DOUBLE_EQ(
      parsed->stats.at(R"(voteopt_queries_total{method="RS",op="topk"})"), 41);
  EXPECT_DOUBLE_EQ(parsed->stats.at("voteopt_datasets_hosted"), 2);
}

TEST(ObservabilityCodecTest, TraceFieldRoundTrips) {
  // "trace": true survives parse -> encode -> parse; false is the default
  // and therefore omitted from the canonical form.
  auto traced = ParseRequest(R"({"op": "topk", "v": 3, "k": 2, "trace": true})");
  ASSERT_TRUE(traced.ok());
  EXPECT_TRUE(traced->trace);
  const std::string canonical = RequestToJson(*traced);
  EXPECT_NE(canonical.find("\"trace\": true"), std::string::npos);
  EXPECT_EQ(Canonical(canonical), canonical);
  auto untraced = ParseRequest(R"({"op": "topk", "k": 2, "trace": false})");
  ASSERT_TRUE(untraced.ok());
  EXPECT_FALSE(untraced->trace);
  EXPECT_EQ(RequestToJson(*untraced).find("trace"), std::string::npos);
  // Ill-typed trace is rejected, not coerced.
  EXPECT_FALSE(ParseRequest(R"({"op": "topk", "trace": 1})").ok());
}

TEST(ObservabilityCodecTest, TracedDiagnosticsRideBehindMillis) {
  api::Response response;
  response.op = "topk";
  response.dataset = "d";
  response.seeds = {7, 9};
  response.estimated_score = 4.5;
  response.exact_score = 4.25;
  response.millis = 1.5;
  const std::string untraced_stable = response.ToStableJson();

  response.traced = true;
  response.diagnostics["stage.selection_ms"] = 1.25;
  response.diagnostics["work.gain_evaluations"] = 120;
  const std::string json = response.ToJson();
  // Diagnostics serialize AFTER millis so the stable projection strips
  // both volatile fields in one motion.
  EXPECT_LT(json.find("\"millis\""), json.find("\"diagnostics\""));
  EXPECT_EQ(ReEncode(json), json);
  auto parsed = ParseResponse(json);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->traced);
  EXPECT_DOUBLE_EQ(parsed->diagnostics.at("stage.selection_ms"), 1.25);
  EXPECT_DOUBLE_EQ(parsed->diagnostics.at("work.gain_evaluations"), 120);

  // The determinism ledger: traced and untraced answers share one stable
  // form, and trace payloads never leak into it.
  EXPECT_EQ(response.ToStableJson(), untraced_stable);
  EXPECT_EQ(response.ToStableJson().find("diagnostics"), std::string::npos);
  EXPECT_EQ(response.ToStableJson().find("millis"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Error vocabulary: what the codec must reject.
// ---------------------------------------------------------------------------

TEST(CodecErrorTest, VersionNegotiation) {
  EXPECT_EQ(ParseRequest(R"({"op": "topk", "k": 1})")->v, 1u);
  EXPECT_EQ(ParseRequest(R"({"op": "topk", "v": 1, "k": 1})")->v, 1u);
  EXPECT_EQ(ParseRequest(R"({"op": "topk", "v": 2, "k": 1})")->v, 2u);
  EXPECT_EQ(ParseRequest(R"({"op": "topk", "v": 3, "k": 1})")->v, 3u);
  EXPECT_EQ(ParseRequest(R"({"op": "topk", "v": 4, "k": 1})")->v, 4u);
  const auto future = ParseRequest(R"({"op": "topk", "v": 5, "k": 1})");
  ASSERT_FALSE(future.ok());
  EXPECT_EQ(future.status().code(), Status::Code::kInvalidArgument);
  EXPECT_NE(future.status().message().find("unsupported protocol version"),
            std::string::npos);
  EXPECT_FALSE(ParseRequest(R"({"op": "topk", "v": 0})").ok());
  EXPECT_FALSE(ParseRequest(R"({"op": "topk", "v": -1})").ok());
  EXPECT_FALSE(ParseRequest(R"({"op": "topk", "v": "2"})").ok());
  // The version gate outranks the op check: a future-major request with a
  // verb this server has never heard of gets the version diagnostic (so
  // the client learns what to downgrade to), not "unknown op".
  const auto future_verb =
      ParseRequest(R"({"op": "somenewverb", "v": 5, "x": 1})");
  ASSERT_FALSE(future_verb.ok());
  EXPECT_NE(
      future_verb.status().message().find("unsupported protocol version"),
      std::string::npos);
}

TEST(CodecErrorTest, MethodFieldValidation) {
  EXPECT_EQ(ParseRequest(R"({"op": "topk", "method": "rwr"})")->method,
            baselines::Method::kRWR);
  const auto unknown =
      ParseRequest(R"({"op": "topk", "method": "frobnicate"})");
  ASSERT_FALSE(unknown.ok());
  // The error enumerates the valid roster (satellite of the api redesign).
  for (const baselines::Method method : baselines::AllMethods()) {
    EXPECT_NE(
        unknown.status().message().find(baselines::MethodName(method)),
        std::string::npos);
  }
  EXPECT_FALSE(ParseRequest(R"({"op": "topk", "method": 7})").ok());
  EXPECT_FALSE(
      ParseRequest(R"({"op": "methodcompare", "methods": "DM"})").ok());
  EXPECT_FALSE(
      ParseRequest(R"({"op": "methodcompare", "methods": ["DM", "xx"]})")
          .ok());
}

TEST(CodecErrorTest, MalformedResponsesRejected) {
  EXPECT_FALSE(ParseResponse("").ok());
  EXPECT_FALSE(ParseResponse("not json").ok());
  EXPECT_FALSE(ParseResponse(R"({"ok": true})").ok());          // no op
  EXPECT_FALSE(ParseResponse(R"({"op": "topk"})").ok());        // no ok
  EXPECT_FALSE(ParseResponse(R"({"op": "topk", "ok": 1})").ok());
  EXPECT_FALSE(
      ParseResponse(R"({"op": "topk", "ok": true, "seeds": 3})").ok());
  EXPECT_FALSE(
      ParseResponse(R"({"op": "methodcompare", "ok": true, "methods": [2]})")
          .ok());
}

}  // namespace
}  // namespace voteopt::serve
