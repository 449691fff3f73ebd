// The voteopt_serve wire codec: newline-delimited JSON over the typed
// api::Request / api::Response vocabulary (api/query.h). This layer is a
// PURE codec — parse a line into a typed request, render a typed response
// (or request) back to JSON — with no business logic: every request is
// executed by api::Engine, the one dispatch component, so wire clients and
// embedded C++ callers run the identical code path.
//
// One request object per line, one response object per line, same order.
// The full reference — every verb, the protocol-version negotiation rule,
// worked examples, and the error-status vocabulary — lives in
// docs/PROTOCOL.md; this header only sketches the shapes.
//
// Query verbs (run against one hosted dataset, in parallel):
//   {"op": "topk",     "k": 10, "rule": "plurality", "method": "RS"}
//   {"op": "minseed",  "k_max": 100, "rule": "cumulative"}
//   {"op": "evaluate", "seeds": [3, 17], "rule": "copeland",
//    "override": [[5, 0.9], [12, 0.1]]}
//   {"op": "methodcompare", "v": 2, "k": 10, "methods": ["DM", "RS", "DC"]}
//   {"op": "rulesweep",     "v": 2, "k": 10}
// Admin verbs (manage/inspect the engine; ordering barriers):
//   {"op": "load",     "dataset": "yelp", "bundle": "/data/yelp"}
//   {"op": "unload",   "dataset": "yelp"}
//   {"op": "list"}
//   {"op": "stats", "v": 3}   — flat metrics snapshot ("name{labels}" -> value)
// Common optional fields:
//   "v"       — protocol major version (absent = 1; see api::kProtocolVersion)
//   "id"      — opaque string echoed into the response (request matching)
//   "dataset" — which hosted dataset answers a query ("" = the sole one)
//   "rule"    — cumulative (default) | plurality | papproval | positional |
//               copeland | borda
//   "p"       — approval depth for papproval
//   "omega"   — positional weights (descending, in [0,1]) for positional
//   "method"  — seed-selection method for topk / minseed (default RS;
//               case-insensitive: DM, RW, RS, IC, LT, GED-T, PR, RWR, DC)
//   "trace"   — v3: bool; attach per-query stage timings and work counts
//               as a "diagnostics" object behind "millis" (stripped by
//               ToStableJson — traced answers stay bit-identical)
// "override" entries are (user, opinion) pairs applied to the target
// campaign's initial opinions before scoring — the "supplied campaign
// state" of an in-flight campaign.
//
// Responses always carry "op", "ok", and the echoed "id"; on failure only
// "error" is added, on success the op-specific payload (see
// api::Response::ToJson, implemented here).
#ifndef VOTEOPT_SERVE_PROTOCOL_H_
#define VOTEOPT_SERVE_PROTOCOL_H_

#include <string>

#include "api/query.h"
#include "util/status.h"

namespace voteopt::serve {

/// Parses one request line. Unknown fields are ignored (forward compat);
/// malformed JSON, a missing/unknown "op", an unsupported "v" major, or
/// ill-typed fields are InvalidArgument.
Result<api::Request> ParseRequest(const std::string& line);

/// Canonical JSON encoding of a request — what a well-behaved client
/// sends. Fields at their default values are omitted; "v" is emitted only
/// for requests written against a version > 1. Round trip:
/// ParseRequest(RequestToJson(r)) parses every field RequestToJson emits.
std::string RequestToJson(const api::Request& request);

/// Parses one response line back into the typed form (for clients and the
/// codec round-trip tests). Accepts exactly what Response::ToJson emits.
Result<api::Response> ParseResponse(const std::string& line);

}  // namespace voteopt::serve

#endif  // VOTEOPT_SERVE_PROTOCOL_H_
