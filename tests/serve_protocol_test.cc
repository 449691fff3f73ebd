#include "serve/protocol.h"

#include <gtest/gtest.h>

#include "api/lru_cache.h"

namespace voteopt::serve {
namespace {

TEST(ParseRequestTest, ParsesTopK) {
  auto request = ParseRequest(
      R"({"op": "topk", "k": 25, "rule": "plurality", "id": "q-1"})");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->op, api::Request::Op::kTopK);
  EXPECT_EQ(request->k, 25u);
  EXPECT_EQ(request->rule, "plurality");
  EXPECT_EQ(request->id, "q-1");
}

TEST(ParseRequestTest, ParsesMinSeedWithDefaults) {
  auto request = ParseRequest(R"({"op": "minseed"})");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->op, api::Request::Op::kMinSeed);
  EXPECT_EQ(request->k_max, 0u);  // 0 = search up to n
  EXPECT_EQ(request->rule, "cumulative");
}

TEST(ParseRequestTest, ParsesEvaluateWithSeedsAndOverrides) {
  auto request = ParseRequest(
      R"({"op": "evaluate", "seeds": [3, 17, 4], )"
      R"("override": [[5, 0.9], [12, 0.25]], "rule": "copeland"})");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->op, api::Request::Op::kEvaluate);
  EXPECT_EQ(request->seeds, (std::vector<graph::NodeId>{3, 17, 4}));
  ASSERT_EQ(request->overrides.size(), 2u);
  EXPECT_EQ(request->overrides[0].first, 5u);
  EXPECT_DOUBLE_EQ(request->overrides[0].second, 0.9);
}

TEST(ParseRequestTest, ParsesPositionalOmega) {
  auto request = ParseRequest(
      R"({"op": "topk", "k": 2, "rule": "positional", "omega": [1.0, 0.5]})");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->omega, (std::vector<double>{1.0, 0.5}));
}

TEST(ParseRequestTest, ParsesAdminVerbs) {
  auto load = ParseRequest(
      R"({"op": "load", "dataset": "yelp", "bundle": "/data/yelp", )"
      R"("sketch": "/data/yelp.big.sketch", "theta": 1048576})");
  ASSERT_TRUE(load.ok()) << load.status().ToString();
  EXPECT_EQ(load->op, api::Request::Op::kLoad);
  EXPECT_EQ(load->dataset, "yelp");
  EXPECT_EQ(load->bundle, "/data/yelp");
  EXPECT_EQ(load->sketch, "/data/yelp.big.sketch");
  EXPECT_EQ(load->theta, 1048576u);
  EXPECT_TRUE(api::IsAdminOp(load->op));

  auto unload = ParseRequest(R"({"op": "unload", "dataset": "yelp"})");
  ASSERT_TRUE(unload.ok());
  EXPECT_EQ(unload->op, api::Request::Op::kUnload);
  EXPECT_EQ(unload->dataset, "yelp");

  auto list = ParseRequest(R"({"op": "list"})");
  ASSERT_TRUE(list.ok());
  EXPECT_EQ(list->op, api::Request::Op::kList);

  EXPECT_FALSE(api::IsAdminOp(api::Request::Op::kTopK));
  EXPECT_FALSE(api::IsAdminOp(api::Request::Op::kMinSeed));
  EXPECT_FALSE(api::IsAdminOp(api::Request::Op::kEvaluate));
}

TEST(ParseRequestTest, ParsesDatasetRoutingOnQueries) {
  auto request =
      ParseRequest(R"({"op": "topk", "k": 3, "dataset": "dblp"})");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->dataset, "dblp");
  // Ill-typed routing fields are rejected, not coerced.
  EXPECT_FALSE(ParseRequest(R"({"op": "topk", "dataset": 7})").ok());
  EXPECT_FALSE(ParseRequest(R"({"op": "load", "bundle": []})").ok());
  EXPECT_FALSE(ParseRequest(R"({"op": "load", "theta": -1})").ok());
  // From 2^53 on, JSON integers no longer round-trip through double —
  // reject instead of silently coercing.
  EXPECT_FALSE(
      ParseRequest(R"({"op": "load", "theta": 9007199254740992})").ok());
  EXPECT_FALSE(
      ParseRequest(R"({"op": "load", "theta": 9007199254740993})").ok());
  EXPECT_TRUE(
      ParseRequest(R"({"op": "load", "theta": 9007199254740991})").ok());
}

TEST(ResponseTest, SerializesListShape) {
  api::Response response;
  response.op = "list";
  api::DatasetInfo info;
  info.name = "yelp";
  info.num_nodes = 100;
  info.num_candidates = 10;
  info.theta = 4096;
  info.horizon = 20;
  info.target = 3;
  response.datasets.push_back(info);
  info.name = "dblp";
  info.sketch_built = true;
  response.datasets.push_back(info);
  const std::string json = response.ToJson();
  EXPECT_NE(json.find("\"datasets\": [{\"name\": \"yelp\""),
            std::string::npos);
  EXPECT_NE(json.find("\"theta\": 4096"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"dblp\""), std::string::npos);
  EXPECT_NE(json.find("\"sketch_built\": true"), std::string::npos);
}

TEST(ResponseTest, StableJsonDropsOnlyMillis) {
  api::Response response;
  response.op = "topk";
  response.dataset = "yelp";
  response.seeds = {1, 2};
  response.estimated_score = 3.5;
  response.millis = 12.25;
  const std::string stable = response.ToStableJson();
  EXPECT_EQ(stable.find("millis"), std::string::npos);
  EXPECT_NE(stable.find("\"seeds\": [1, 2]"), std::string::npos);
  EXPECT_EQ(stable.back(), '}');
  // Two runs differing only in timing compare equal.
  api::Response slower = response;
  slower.millis = 99.0;
  EXPECT_EQ(stable, slower.ToStableJson());
  EXPECT_NE(response.ToJson(), slower.ToJson());

  // Error responses carry no millis; stable form is the full form.
  api::Request request;
  request.op = api::Request::Op::kTopK;
  const api::Response error =
      api::Response::Error(request, Status::NotFound("x"));
  EXPECT_EQ(error.ToStableJson(), error.ToJson());
}

TEST(ResponseTest, EchoesDatasetOnSuccess) {
  api::Response response;
  response.op = "topk";
  response.dataset = "yelp";
  response.seeds = {1};
  EXPECT_NE(response.ToJson().find("\"dataset\": \"yelp\""),
            std::string::npos);
}

TEST(ParseRequestTest, IgnoresUnknownFieldsForForwardCompat) {
  auto request =
      ParseRequest(R"({"op": "topk", "k": 1, "deadline_ms": 250})");
  EXPECT_TRUE(request.ok());
}

TEST(ParseRequestTest, VersionDefaultsToOneAndGatesUnknownMajors) {
  auto v1 = ParseRequest(R"({"op": "topk", "k": 1})");
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1->v, 1u);
  auto v2 = ParseRequest(R"({"op": "rulesweep", "v": 2, "k": 3})");
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2->v, 2u);
  EXPECT_EQ(v2->op, api::Request::Op::kRuleSweep);
  EXPECT_FALSE(ParseRequest(R"({"op": "topk", "v": 9, "k": 1})").ok());
}

TEST(ParseRequestTest, ParsesMethodFieldCaseInsensitively) {
  auto request = ParseRequest(
      R"({"op": "topk", "k": 2, "method": "ged-t"})");
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->method, baselines::Method::kGedT);
  // Absent method defaults to RS, the paper's recommendation.
  EXPECT_EQ(ParseRequest(R"({"op": "topk", "k": 2})")->method,
            baselines::Method::kRS);
  EXPECT_FALSE(ParseRequest(R"({"op": "topk", "method": "nope"})").ok());
}

TEST(ParseRequestTest, ParsesMethodCompareAndRuleSweep) {
  auto compare = ParseRequest(
      R"({"op": "methodcompare", "v": 2, "k": 6, "methods": ["dm", "RS"]})");
  ASSERT_TRUE(compare.ok()) << compare.status().ToString();
  EXPECT_EQ(compare->op, api::Request::Op::kMethodCompare);
  EXPECT_EQ(compare->k, 6u);
  EXPECT_EQ(compare->methods,
            (std::vector<baselines::Method>{baselines::Method::kDM,
                                            baselines::Method::kRS}));
  EXPECT_FALSE(api::IsAdminOp(compare->op));

  auto sweep = ParseRequest(R"({"op": "rulesweep", "k": 5, "p": 2})");
  ASSERT_TRUE(sweep.ok());
  EXPECT_EQ(sweep->op, api::Request::Op::kRuleSweep);
  EXPECT_EQ(sweep->p, 2u);
  EXPECT_FALSE(api::IsAdminOp(sweep->op));
}

TEST(ParseRequestTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseRequest("").ok());
  EXPECT_FALSE(ParseRequest("not json").ok());
  EXPECT_FALSE(ParseRequest(R"({"op": "topk")").ok());        // unterminated
  EXPECT_FALSE(ParseRequest(R"({"k": 5})").ok());             // no op
  EXPECT_FALSE(ParseRequest(R"({"op": "frobnicate"})").ok()); // bad op
  EXPECT_FALSE(ParseRequest(R"({"op": 7})").ok());            // ill-typed op
  EXPECT_FALSE(ParseRequest(R"({"op": "topk", "k": -3})").ok());
  EXPECT_FALSE(ParseRequest(R"({"op": "topk", "k": 2.5})").ok());
  EXPECT_FALSE(ParseRequest(R"({"op": "evaluate", "seeds": [1, "x"]})").ok());
  EXPECT_FALSE(
      ParseRequest(R"({"op": "evaluate", "override": [[1]]})").ok());
  EXPECT_FALSE(ParseRequest(R"([1, 2, 3])").ok());  // not an object
  EXPECT_FALSE(ParseRequest(R"({"op": "topk"} trailing)").ok());
}

TEST(ResponseTest, SerializesErrorShape) {
  api::Request request;
  request.op = api::Request::Op::kEvaluate;
  request.id = "r9";
  const api::Response response =
      api::Response::Error(request, Status::OutOfRange("seed id out of range"));
  const std::string json = response.ToJson();
  EXPECT_NE(json.find("\"op\": \"evaluate\""), std::string::npos);
  EXPECT_NE(json.find("\"id\": \"r9\""), std::string::npos);
  EXPECT_NE(json.find("\"ok\": false"), std::string::npos);
  EXPECT_NE(json.find("seed id out of range"), std::string::npos);
}

TEST(ResponseTest, SerializesTopKShapeAndEscapes) {
  api::Response response;
  response.op = "topk";
  response.id = "with \"quotes\"";
  response.seeds = {1, 2, 3};
  response.estimated_score = 12.5;
  response.exact_score = 12.0;
  const std::string json = response.ToJson();
  EXPECT_NE(json.find("\"seeds\": [1, 2, 3]"), std::string::npos);
  EXPECT_NE(json.find("\\\"quotes\\\""), std::string::npos);
  EXPECT_NE(json.find("\"ok\": true"), std::string::npos);
  // A response must itself parse as a JSON object (frontends echo these).
  EXPECT_TRUE(ParseRequest(R"({"op": "topk", "k": 1})").ok());
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  api::LruCache<int> cache(2);
  cache.Put("a", 1);
  cache.Put("b", 2);
  ASSERT_NE(cache.Get("a"), nullptr);  // a is now most recent
  cache.Put("c", 3);                   // evicts b
  EXPECT_EQ(cache.Get("b"), nullptr);
  ASSERT_NE(cache.Get("a"), nullptr);
  EXPECT_EQ(*cache.Get("a"), 1);
  ASSERT_NE(cache.Get("c"), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCacheTest, PutReplacesExistingKey) {
  api::LruCache<int> cache(2);
  cache.Put("a", 1);
  cache.Put("a", 5);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(*cache.Get("a"), 5);
}

TEST(LruCacheTest, ZeroCapacityClampsToOne) {
  api::LruCache<int> cache(0);
  cache.Put("a", 1);
  EXPECT_EQ(*cache.Get("a"), 1);
  cache.Put("b", 2);
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(*cache.Get("b"), 2);
}

}  // namespace
}  // namespace voteopt::serve
