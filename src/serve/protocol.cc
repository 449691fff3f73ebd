#include "serve/protocol.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <sstream>

namespace voteopt {

namespace {

// ---------------------------------------------------------------------------
// A minimal JSON reader — just enough for the flat request/response objects
// of this protocol (objects, arrays, strings, numbers, booleans, null; no
// \uXXXX escapes). Kept dependency-free on purpose: the serving scaffold
// must not pull a JSON library into the core build.
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> items;                           // kArray
  std::vector<std::pair<std::string, JsonValue>> fields;  // kObject

  const JsonValue* Find(const std::string& name) const {
    for (const auto& [key, value] : fields) {
      if (key == name) return &value;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    auto value = ParseValue(/*depth=*/0);
    if (!value.ok()) return value;
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("trailing characters after JSON value");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 8;

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) return Status::InvalidArgument("JSON too deep");
    SkipSpace();
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument("unexpected end of JSON");
    }
    const char c = text_[pos_];
    if (c == '{') return ParseObject(depth);
    if (c == '[') return ParseArray(depth);
    if (c == '"') return ParseString();
    if (c == 't' || c == 'f') return ParseBool();
    if (c == 'n') return ParseNull();
    return ParseNumber();
  }

  Result<JsonValue> ParseObject(int depth) {
    JsonValue value;
    value.type = JsonValue::Type::kObject;
    Consume('{');
    if (Consume('}')) return value;
    while (true) {
      auto key = ParseString();
      if (!key.ok()) return key.status();
      if (!Consume(':')) return Status::InvalidArgument("expected ':'");
      auto field = ParseValue(depth + 1);
      if (!field.ok()) return field;
      value.fields.emplace_back(std::move(key->str), std::move(*field));
      if (Consume(',')) continue;
      if (Consume('}')) return value;
      return Status::InvalidArgument("expected ',' or '}'");
    }
  }

  Result<JsonValue> ParseArray(int depth) {
    JsonValue value;
    value.type = JsonValue::Type::kArray;
    Consume('[');
    if (Consume(']')) return value;
    while (true) {
      auto item = ParseValue(depth + 1);
      if (!item.ok()) return item;
      value.items.push_back(std::move(*item));
      if (Consume(',')) continue;
      if (Consume(']')) return value;
      return Status::InvalidArgument("expected ',' or ']'");
    }
  }

  Result<JsonValue> ParseString() {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Status::InvalidArgument("expected '\"'");
    }
    ++pos_;
    JsonValue value;
    value.type = JsonValue::Type::kString;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return value;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': value.str += '"'; break;
          case '\\': value.str += '\\'; break;
          case '/': value.str += '/'; break;
          case 'n': value.str += '\n'; break;
          case 't': value.str += '\t'; break;
          case 'r': value.str += '\r'; break;
          default:
            return Status::InvalidArgument("unsupported string escape");
        }
      } else {
        value.str += c;
      }
    }
    return Status::InvalidArgument("unterminated string");
  }

  Result<JsonValue> ParseBool() {
    JsonValue value;
    value.type = JsonValue::Type::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      value.boolean = true;
      pos_ += 4;
      return value;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      value.boolean = false;
      pos_ += 5;
      return value;
    }
    return Status::InvalidArgument("bad literal");
  }

  Result<JsonValue> ParseNull() {
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return JsonValue{};
    }
    return Status::InvalidArgument("bad literal");
  }

  Result<JsonValue> ParseNumber() {
    const size_t begin = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    JsonValue value;
    value.type = JsonValue::Type::kNumber;
    const char* first = text_.data() + begin;
    const char* last = text_.data() + pos_;
    auto [end, ec] = std::from_chars(first, last, value.number);
    if (ec != std::errc() || end != last || begin == pos_) {
      return Status::InvalidArgument("bad number");
    }
    return value;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

Result<uint32_t> AsU32(const JsonValue& value, const std::string& name) {
  if (value.type != JsonValue::Type::kNumber || value.number < 0 ||
      value.number != std::floor(value.number) ||
      value.number > 4294967295.0) {
    return Status::InvalidArgument("field '" + name +
                                   "' must be a non-negative integer");
  }
  return static_cast<uint32_t>(value.number);
}

Result<uint64_t> AsU64(const JsonValue& value, const std::string& name) {
  // Strictly below 2^53: from 2^53 on, distinct JSON integers collapse to
  // the same double, so accepting them would silently coerce the value.
  if (value.type != JsonValue::Type::kNumber || value.number < 0 ||
      value.number != std::floor(value.number) ||
      value.number >= 9007199254740992.0) {
    return Status::InvalidArgument("field '" + name +
                                   "' must be a non-negative integer");
  }
  return static_cast<uint64_t>(value.number);
}

Result<double> AsNumber(const JsonValue& value, const std::string& name) {
  if (value.type != JsonValue::Type::kNumber) {
    return Status::InvalidArgument("field '" + name + "' must be a number");
  }
  return value.number;
}

Result<std::string> AsString(const JsonValue& value, const std::string& name) {
  if (value.type != JsonValue::Type::kString) {
    return Status::InvalidArgument("field '" + name + "' must be a string");
  }
  return value.str;
}

void AppendJsonString(std::ostringstream* out, const std::string& s) {
  static constexpr char kHex[] = "0123456789abcdef";
  *out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': *out << "\\\""; break;
      case '\\': *out << "\\\\"; break;
      case '\n': *out << "\\n"; break;
      case '\t': *out << "\\t"; break;
      case '\r': *out << "\\r"; break;
      default:
        // RFC 8259: control characters must be escaped; echoed request ids
        // may carry arbitrary bytes.
        if (static_cast<unsigned char>(c) < 0x20) {
          *out << "\\u00" << kHex[(c >> 4) & 0xF] << kHex[c & 0xF];
        } else {
          *out << c;
        }
        break;
    }
  }
  *out << '"';
}

template <typename T>
void AppendNumberArray(std::ostringstream* out, const std::vector<T>& items) {
  *out << "[";
  for (size_t i = 0; i < items.size(); ++i) {
    *out << (i == 0 ? "" : ", ") << items[i];
  }
  *out << "]";
}

/// One mutation from a flat field set: "from"/"to" (+"weight", default 1 —
/// the row renormalizes, so only ratios matter) for the edge kinds,
/// "candidate"/"node"/"value" for set_opinion. Shared by the single-edit
/// verbs (fields on the request object, kind implied by the op) and the
/// mutate batch (fields per array entry, kind explicit).
Result<dyn::Mutation> ParseMutationFields(const JsonValue& object,
                                          dyn::Mutation::Kind kind) {
  auto require_u32 = [&object](const char* name) -> Result<uint32_t> {
    const JsonValue* v = object.Find(name);
    if (v == nullptr) {
      return Status::InvalidArgument(std::string("missing field '") + name +
                                     "'");
    }
    return AsU32(*v, name);
  };
  switch (kind) {
    case dyn::Mutation::Kind::kEdgeAdd: {
      auto from = require_u32("from");
      if (!from.ok()) return from.status();
      auto to = require_u32("to");
      if (!to.ok()) return to.status();
      double weight = 1.0;
      if (const JsonValue* w = object.Find("weight"); w != nullptr) {
        auto number = AsNumber(*w, "weight");
        if (!number.ok()) return number.status();
        weight = *number;
      }
      return dyn::Mutation::EdgeAdd(*from, *to, weight);
    }
    case dyn::Mutation::Kind::kEdgeDel: {
      auto from = require_u32("from");
      if (!from.ok()) return from.status();
      auto to = require_u32("to");
      if (!to.ok()) return to.status();
      return dyn::Mutation::EdgeDel(*from, *to);
    }
    case dyn::Mutation::Kind::kSetOpinion: {
      auto candidate = require_u32("candidate");
      if (!candidate.ok()) return candidate.status();
      auto node = require_u32("node");
      if (!node.ok()) return node.status();
      const JsonValue* v = object.Find("value");
      if (v == nullptr) {
        return Status::InvalidArgument("missing field 'value'");
      }
      auto number = AsNumber(*v, "value");
      if (!number.ok()) return number.status();
      return dyn::Mutation::SetOpinion(*candidate, *node, *number);
    }
  }
  return Status::InvalidArgument("bad mutation kind");
}

}  // namespace

namespace serve {

Result<api::Request> ParseRequest(const std::string& line) {
  JsonParser parser(line);
  auto parsed = parser.Parse();
  if (!parsed.ok()) return parsed.status();
  if (parsed->type != JsonValue::Type::kObject) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  const JsonValue& object = *parsed;

  api::Request request;
  // The version gate runs BEFORE the op dispatch: a future-major request
  // whose verb this server has never heard of must fail with the version
  // message (telling the client what this server speaks), not with
  // "unknown op".
  if (const JsonValue* v = object.Find("v"); v != nullptr) {
    auto parsed_v = AsU32(*v, "v");
    if (!parsed_v.ok()) return parsed_v.status();
    // v1 through v4 parse identically (each a strict superset of the
    // last); an unknown major means the client wants semantics this server
    // does not speak, so fail clean instead of answering something subtly
    // different (docs/PROTOCOL.md).
    if (*parsed_v == 0 || *parsed_v > api::kProtocolVersion) {
      return Status::InvalidArgument(
          "unsupported protocol version v=" + std::to_string(*parsed_v) +
          " (this server speaks v1-v" +
          std::to_string(api::kProtocolVersion) + ")");
    }
    request.v = *parsed_v;
  }
  const JsonValue* op = object.Find("op");
  if (op == nullptr || op->type != JsonValue::Type::kString) {
    return Status::InvalidArgument("missing string field 'op'");
  }
  if (op->str == "topk") {
    request.op = api::Request::Op::kTopK;
  } else if (op->str == "minseed") {
    request.op = api::Request::Op::kMinSeed;
  } else if (op->str == "evaluate") {
    request.op = api::Request::Op::kEvaluate;
  } else if (op->str == "methodcompare") {
    request.op = api::Request::Op::kMethodCompare;
  } else if (op->str == "rulesweep") {
    request.op = api::Request::Op::kRuleSweep;
  } else if (op->str == "load") {
    request.op = api::Request::Op::kLoad;
  } else if (op->str == "unload") {
    request.op = api::Request::Op::kUnload;
  } else if (op->str == "list") {
    request.op = api::Request::Op::kList;
  } else if (op->str == "stats") {
    request.op = api::Request::Op::kStats;
  } else if (op->str == "edge_add") {
    request.op = api::Request::Op::kEdgeAdd;
  } else if (op->str == "edge_del") {
    request.op = api::Request::Op::kEdgeDel;
  } else if (op->str == "set_opinion") {
    request.op = api::Request::Op::kSetOpinion;
  } else if (op->str == "mutate") {
    request.op = api::Request::Op::kMutate;
  } else {
    return Status::InvalidArgument("unknown op '" + op->str + "'");
  }

  if (const JsonValue* id = object.Find("id"); id != nullptr) {
    auto parsed_id = AsString(*id, "id");
    if (!parsed_id.ok()) return parsed_id.status();
    request.id = *parsed_id;
  }
  if (const JsonValue* dataset = object.Find("dataset"); dataset != nullptr) {
    auto parsed_dataset = AsString(*dataset, "dataset");
    if (!parsed_dataset.ok()) return parsed_dataset.status();
    request.dataset = *parsed_dataset;
  }
  if (const JsonValue* bundle = object.Find("bundle"); bundle != nullptr) {
    auto parsed_bundle = AsString(*bundle, "bundle");
    if (!parsed_bundle.ok()) return parsed_bundle.status();
    request.bundle = *parsed_bundle;
  }
  if (const JsonValue* sketch = object.Find("sketch"); sketch != nullptr) {
    auto parsed_sketch = AsString(*sketch, "sketch");
    if (!parsed_sketch.ok()) return parsed_sketch.status();
    request.sketch = *parsed_sketch;
  }
  if (const JsonValue* theta = object.Find("theta"); theta != nullptr) {
    auto parsed_theta = AsU64(*theta, "theta");
    if (!parsed_theta.ok()) return parsed_theta.status();
    request.theta = *parsed_theta;
  }
  if (const JsonValue* rule = object.Find("rule"); rule != nullptr) {
    auto parsed_rule = AsString(*rule, "rule");
    if (!parsed_rule.ok()) return parsed_rule.status();
    request.rule = *parsed_rule;
  }
  if (const JsonValue* method = object.Find("method"); method != nullptr) {
    auto parsed_name = AsString(*method, "method");
    if (!parsed_name.ok()) return parsed_name.status();
    auto parsed_method = baselines::ParseMethod(*parsed_name);
    if (!parsed_method.ok()) return parsed_method.status();
    request.method = *parsed_method;
  }
  if (const JsonValue* methods = object.Find("methods"); methods != nullptr) {
    if (methods->type != JsonValue::Type::kArray) {
      return Status::InvalidArgument("field 'methods' must be an array");
    }
    for (const JsonValue& item : methods->items) {
      auto parsed_name = AsString(item, "methods");
      if (!parsed_name.ok()) return parsed_name.status();
      auto parsed_method = baselines::ParseMethod(*parsed_name);
      if (!parsed_method.ok()) return parsed_method.status();
      request.methods.push_back(*parsed_method);
    }
  }
  if (const JsonValue* p = object.Find("p"); p != nullptr) {
    auto parsed_p = AsU32(*p, "p");
    if (!parsed_p.ok()) return parsed_p.status();
    request.p = *parsed_p;
  }
  if (const JsonValue* omega = object.Find("omega"); omega != nullptr) {
    if (omega->type != JsonValue::Type::kArray) {
      return Status::InvalidArgument("field 'omega' must be an array");
    }
    for (const JsonValue& item : omega->items) {
      if (item.type != JsonValue::Type::kNumber) {
        return Status::InvalidArgument("'omega' entries must be numbers");
      }
      request.omega.push_back(item.number);
    }
  }
  if (const JsonValue* k = object.Find("k"); k != nullptr) {
    auto parsed_k = AsU32(*k, "k");
    if (!parsed_k.ok()) return parsed_k.status();
    request.k = *parsed_k;
  }
  if (const JsonValue* k_max = object.Find("k_max"); k_max != nullptr) {
    auto parsed_k = AsU32(*k_max, "k_max");
    if (!parsed_k.ok()) return parsed_k.status();
    request.k_max = *parsed_k;
  }
  if (const JsonValue* seeds = object.Find("seeds"); seeds != nullptr) {
    if (seeds->type != JsonValue::Type::kArray) {
      return Status::InvalidArgument("field 'seeds' must be an array");
    }
    for (const JsonValue& item : seeds->items) {
      auto id = AsU32(item, "seeds");
      if (!id.ok()) return id.status();
      request.seeds.push_back(*id);
    }
  }
  if (const JsonValue* trace = object.Find("trace"); trace != nullptr) {
    if (trace->type != JsonValue::Type::kBool) {
      return Status::InvalidArgument("field 'trace' must be a bool");
    }
    request.trace = trace->boolean;
  }
  if (const JsonValue* overrides = object.Find("override");
      overrides != nullptr) {
    if (overrides->type != JsonValue::Type::kArray) {
      return Status::InvalidArgument("field 'override' must be an array");
    }
    for (const JsonValue& pair : overrides->items) {
      if (pair.type != JsonValue::Type::kArray || pair.items.size() != 2 ||
          pair.items[1].type != JsonValue::Type::kNumber) {
        return Status::InvalidArgument(
            "'override' entries must be [user, opinion] pairs");
      }
      auto user = AsU32(pair.items[0], "override");
      if (!user.ok()) return user.status();
      request.overrides.emplace_back(*user, pair.items[1].number);
    }
  }
  if (request.op == api::Request::Op::kEdgeAdd ||
      request.op == api::Request::Op::kEdgeDel ||
      request.op == api::Request::Op::kSetOpinion) {
    const dyn::Mutation::Kind kind =
        request.op == api::Request::Op::kEdgeAdd ? dyn::Mutation::Kind::kEdgeAdd
        : request.op == api::Request::Op::kEdgeDel
            ? dyn::Mutation::Kind::kEdgeDel
            : dyn::Mutation::Kind::kSetOpinion;
    auto mutation = ParseMutationFields(object, kind);
    if (!mutation.ok()) return mutation.status();
    request.mutations.push_back(*mutation);
  }
  if (const JsonValue* mutations = object.Find("mutations");
      mutations != nullptr) {
    if (request.op != api::Request::Op::kMutate) {
      return Status::InvalidArgument(
          "field 'mutations' is only valid for op 'mutate'");
    }
    if (mutations->type != JsonValue::Type::kArray) {
      return Status::InvalidArgument("field 'mutations' must be an array");
    }
    for (const JsonValue& item : mutations->items) {
      if (item.type != JsonValue::Type::kObject) {
        return Status::InvalidArgument("'mutations' entries must be objects");
      }
      const JsonValue* kind = item.Find("kind");
      if (kind == nullptr || kind->type != JsonValue::Type::kString) {
        return Status::InvalidArgument(
            "'mutations' entry missing string field 'kind'");
      }
      dyn::Mutation::Kind parsed_kind;
      if (kind->str == "edge_add") {
        parsed_kind = dyn::Mutation::Kind::kEdgeAdd;
      } else if (kind->str == "edge_del") {
        parsed_kind = dyn::Mutation::Kind::kEdgeDel;
      } else if (kind->str == "set_opinion") {
        parsed_kind = dyn::Mutation::Kind::kSetOpinion;
      } else {
        return Status::InvalidArgument("unknown mutation kind '" + kind->str +
                                       "'");
      }
      auto mutation = ParseMutationFields(item, parsed_kind);
      if (!mutation.ok()) return mutation.status();
      request.mutations.push_back(*mutation);
    }
  }
  return request;
}

std::string RequestToJson(const api::Request& request) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"op\": ";
  AppendJsonString(&out, api::OpName(request.op));
  // Canonical form: fields at their defaults are omitted, so a v1 request
  // encodes exactly as a v1 client would have written it.
  if (request.v != 1) out << ", \"v\": " << request.v;
  if (!request.id.empty()) {
    out << ", \"id\": ";
    AppendJsonString(&out, request.id);
  }
  if (!request.dataset.empty()) {
    out << ", \"dataset\": ";
    AppendJsonString(&out, request.dataset);
  }
  const bool is_query = !api::IsAdminOp(request.op);
  if (is_query && request.rule != "cumulative") {
    out << ", \"rule\": ";
    AppendJsonString(&out, request.rule);
  }
  if (is_query && request.p != 1) out << ", \"p\": " << request.p;
  if (!request.omega.empty()) {
    out << ", \"omega\": ";
    AppendNumberArray(&out, request.omega);
  }
  if (is_query && request.method != baselines::Method::kRS) {
    out << ", \"method\": ";
    AppendJsonString(&out, baselines::MethodName(request.method));
  }
  if (!request.methods.empty()) {
    out << ", \"methods\": [";
    for (size_t i = 0; i < request.methods.size(); ++i) {
      out << (i == 0 ? "" : ", ");
      AppendJsonString(&out, baselines::MethodName(request.methods[i]));
    }
    out << "]";
  }
  if (request.op == api::Request::Op::kTopK ||
      request.op == api::Request::Op::kMethodCompare ||
      request.op == api::Request::Op::kRuleSweep) {
    out << ", \"k\": " << request.k;
  }
  if (request.op == api::Request::Op::kMinSeed) {
    out << ", \"k_max\": " << request.k_max;
  }
  if (request.op == api::Request::Op::kEvaluate) {
    out << ", \"seeds\": ";
    AppendNumberArray(&out, request.seeds);
    if (!request.overrides.empty()) {
      out << ", \"override\": [";
      for (size_t i = 0; i < request.overrides.size(); ++i) {
        out << (i == 0 ? "" : ", ") << "[" << request.overrides[i].first
            << ", " << request.overrides[i].second << "]";
      }
      out << "]";
    }
  }
  if ((request.op == api::Request::Op::kEdgeAdd ||
       request.op == api::Request::Op::kEdgeDel ||
       request.op == api::Request::Op::kSetOpinion) &&
      !request.mutations.empty()) {
    // Single-edit sugar: the one mutation's fields ride flat on the
    // request object (weight always emitted — canonical form).
    const dyn::Mutation& m = request.mutations.front();
    if (request.op == api::Request::Op::kSetOpinion) {
      out << ", \"candidate\": " << m.u << ", \"node\": " << m.v
          << ", \"value\": " << m.value;
    } else {
      out << ", \"from\": " << m.u << ", \"to\": " << m.v;
      if (request.op == api::Request::Op::kEdgeAdd) {
        out << ", \"weight\": " << m.value;
      }
    }
  }
  if (request.op == api::Request::Op::kMutate) {
    out << ", \"mutations\": [";
    for (size_t i = 0; i < request.mutations.size(); ++i) {
      const dyn::Mutation& m = request.mutations[i];
      out << (i == 0 ? "" : ", ") << "{\"kind\": ";
      AppendJsonString(&out, dyn::MutationKindName(m.kind));
      switch (m.kind) {
        case dyn::Mutation::Kind::kEdgeAdd:
          out << ", \"from\": " << m.u << ", \"to\": " << m.v
              << ", \"weight\": " << m.value;
          break;
        case dyn::Mutation::Kind::kEdgeDel:
          out << ", \"from\": " << m.u << ", \"to\": " << m.v;
          break;
        case dyn::Mutation::Kind::kSetOpinion:
          out << ", \"candidate\": " << m.u << ", \"node\": " << m.v
              << ", \"value\": " << m.value;
          break;
      }
      out << "}";
    }
    out << "]";
  }
  if (!request.bundle.empty()) {
    out << ", \"bundle\": ";
    AppendJsonString(&out, request.bundle);
  }
  if (!request.sketch.empty()) {
    out << ", \"sketch\": ";
    AppendJsonString(&out, request.sketch);
  }
  if (request.theta != 0) out << ", \"theta\": " << request.theta;
  if (request.trace) out << ", \"trace\": true";
  out << "}";
  return out.str();
}

Result<api::Response> ParseResponse(const std::string& line) {
  JsonParser parser(line);
  auto parsed = parser.Parse();
  if (!parsed.ok()) return parsed.status();
  if (parsed->type != JsonValue::Type::kObject) {
    return Status::InvalidArgument("response must be a JSON object");
  }
  const JsonValue& object = *parsed;

  api::Response response;
  const JsonValue* op = object.Find("op");
  if (op == nullptr || op->type != JsonValue::Type::kString) {
    return Status::InvalidArgument("missing string field 'op'");
  }
  response.op = op->str;
  const JsonValue* ok = object.Find("ok");
  if (ok == nullptr || ok->type != JsonValue::Type::kBool) {
    return Status::InvalidArgument("missing bool field 'ok'");
  }
  response.ok = ok->boolean;

  // Field readers shared by the flat payload and the nested entries.
  auto read_string = [&object](const char* name,
                               std::string* into) -> Status {
    if (const JsonValue* v = object.Find(name); v != nullptr) {
      auto parsed_value = AsString(*v, name);
      if (!parsed_value.ok()) return parsed_value.status();
      *into = *parsed_value;
    }
    return Status::OK();
  };
  auto read_seeds = [](const JsonValue& array, const char* name,
                       std::vector<graph::NodeId>* into) -> Status {
    if (array.type != JsonValue::Type::kArray) {
      return Status::InvalidArgument(std::string("field '") + name +
                                     "' must be an array");
    }
    for (const JsonValue& item : array.items) {
      auto id = AsU32(item, name);
      if (!id.ok()) return id.status();
      into->push_back(*id);
    }
    return Status::OK();
  };

  VOTEOPT_RETURN_IF_ERROR(read_string("id", &response.id));
  VOTEOPT_RETURN_IF_ERROR(read_string("error", &response.error));
  VOTEOPT_RETURN_IF_ERROR(read_string("dataset", &response.dataset));
  VOTEOPT_RETURN_IF_ERROR(read_string("method", &response.method));
  if (const JsonValue* seeds = object.Find("seeds"); seeds != nullptr) {
    VOTEOPT_RETURN_IF_ERROR(read_seeds(*seeds, "seeds", &response.seeds));
  }
  struct NumberField {
    const char* name;
    double* into;
  };
  double k_star = 0, selector_calls = 0, winner = 0;
  for (const NumberField field :
       {NumberField{"estimated_score", &response.estimated_score},
        NumberField{"exact_score", &response.exact_score},
        NumberField{"score", &response.score},
        NumberField{"k_star", &k_star},
        NumberField{"selector_calls", &selector_calls},
        NumberField{"winner", &winner},
        NumberField{"millis", &response.millis}}) {
    if (const JsonValue* v = object.Find(field.name); v != nullptr) {
      auto number = AsNumber(*v, field.name);
      if (!number.ok()) return number.status();
      *field.into = *number;
    }
  }
  response.k_star = static_cast<uint32_t>(k_star);
  response.selector_calls = static_cast<uint32_t>(selector_calls);
  response.winner = static_cast<uint32_t>(winner);
  struct U64Field {
    const char* name;
    uint64_t* into;
  };
  for (const U64Field field :
       {U64Field{"applied", &response.applied},
        U64Field{"dirty_nodes", &response.dirty_nodes},
        U64Field{"walks_repaired", &response.walks_repaired},
        U64Field{"walks_total", &response.walks_total}}) {
    if (const JsonValue* v = object.Find(field.name); v != nullptr) {
      auto number = AsU64(*v, field.name);
      if (!number.ok()) return number.status();
      *field.into = *number;
    }
  }
  if (const JsonValue* achievable = object.Find("achievable");
      achievable != nullptr) {
    if (achievable->type != JsonValue::Type::kBool) {
      return Status::InvalidArgument("field 'achievable' must be a bool");
    }
    response.achievable = achievable->boolean;
  }
  if (const JsonValue* scores = object.Find("scores"); scores != nullptr) {
    if (scores->type != JsonValue::Type::kArray) {
      return Status::InvalidArgument("field 'scores' must be an array");
    }
    for (const JsonValue& item : scores->items) {
      auto number = AsNumber(item, "scores");
      if (!number.ok()) return number.status();
      response.all_scores.push_back(*number);
    }
  }
  if (const JsonValue* methods = object.Find("methods"); methods != nullptr) {
    if (methods->type != JsonValue::Type::kArray) {
      return Status::InvalidArgument("field 'methods' must be an array");
    }
    for (const JsonValue& item : methods->items) {
      if (item.type != JsonValue::Type::kObject) {
        return Status::InvalidArgument("'methods' entries must be objects");
      }
      api::MethodScore entry;
      const JsonValue* name = item.Find("method");
      if (name == nullptr || name->type != JsonValue::Type::kString) {
        return Status::InvalidArgument("'methods' entry missing 'method'");
      }
      entry.method = name->str;
      if (const JsonValue* seeds = item.Find("seeds"); seeds != nullptr) {
        VOTEOPT_RETURN_IF_ERROR(read_seeds(*seeds, "seeds", &entry.seeds));
      }
      if (const JsonValue* v = item.Find("estimated_score"); v != nullptr) {
        auto number = AsNumber(*v, "estimated_score");
        if (!number.ok()) return number.status();
        entry.estimated_score = *number;
      }
      if (const JsonValue* v = item.Find("exact_score"); v != nullptr) {
        auto number = AsNumber(*v, "exact_score");
        if (!number.ok()) return number.status();
        entry.exact_score = *number;
      }
      response.method_scores.push_back(std::move(entry));
    }
  }
  if (const JsonValue* rules = object.Find("rules"); rules != nullptr) {
    if (rules->type != JsonValue::Type::kArray) {
      return Status::InvalidArgument("field 'rules' must be an array");
    }
    for (const JsonValue& item : rules->items) {
      if (item.type != JsonValue::Type::kObject) {
        return Status::InvalidArgument("'rules' entries must be objects");
      }
      api::RuleScore entry;
      const JsonValue* name = item.Find("rule");
      if (name == nullptr || name->type != JsonValue::Type::kString) {
        return Status::InvalidArgument("'rules' entry missing 'rule'");
      }
      entry.rule = name->str;
      if (const JsonValue* seeds = item.Find("seeds"); seeds != nullptr) {
        VOTEOPT_RETURN_IF_ERROR(read_seeds(*seeds, "seeds", &entry.seeds));
      }
      if (const JsonValue* v = item.Find("estimated_score"); v != nullptr) {
        auto number = AsNumber(*v, "estimated_score");
        if (!number.ok()) return number.status();
        entry.estimated_score = *number;
      }
      if (const JsonValue* v = item.Find("exact_score"); v != nullptr) {
        auto number = AsNumber(*v, "exact_score");
        if (!number.ok()) return number.status();
        entry.exact_score = *number;
      }
      if (const JsonValue* v = item.Find("winner"); v != nullptr) {
        auto id = AsU32(*v, "winner");
        if (!id.ok()) return id.status();
        entry.winner = *id;
      }
      response.rule_scores.push_back(std::move(entry));
    }
  }
  if (const JsonValue* stats = object.Find("stats"); stats != nullptr) {
    if (stats->type != JsonValue::Type::kObject) {
      return Status::InvalidArgument("field 'stats' must be an object");
    }
    for (const auto& [name, value] : stats->fields) {
      auto number = AsNumber(value, "stats");
      if (!number.ok()) return number.status();
      response.stats[name] = *number;
    }
  }
  if (const JsonValue* diagnostics = object.Find("diagnostics");
      diagnostics != nullptr) {
    if (diagnostics->type != JsonValue::Type::kObject) {
      return Status::InvalidArgument("field 'diagnostics' must be an object");
    }
    for (const auto& [name, value] : diagnostics->fields) {
      auto number = AsNumber(value, "diagnostics");
      if (!number.ok()) return number.status();
      response.diagnostics[name] = *number;
    }
    // Only traced responses carry diagnostics on the wire.
    response.traced = true;
  }
  if (const JsonValue* datasets = object.Find("datasets");
      datasets != nullptr) {
    if (datasets->type != JsonValue::Type::kArray) {
      return Status::InvalidArgument("field 'datasets' must be an array");
    }
    for (const JsonValue& item : datasets->items) {
      if (item.type != JsonValue::Type::kObject) {
        return Status::InvalidArgument("'datasets' entries must be objects");
      }
      api::DatasetInfo info;
      if (const JsonValue* v = item.Find("name"); v != nullptr) {
        auto name = AsString(*v, "name");
        if (!name.ok()) return name.status();
        info.name = *name;
      }
      struct U32Field {
        const char* name;
        uint32_t* into;
      };
      for (const U32Field field :
           {U32Field{"n", &info.num_nodes}, U32Field{"r", &info.num_candidates},
            U32Field{"t", &info.horizon}, U32Field{"target", &info.target}}) {
        if (const JsonValue* v = item.Find(field.name); v != nullptr) {
          auto number = AsU32(*v, field.name);
          if (!number.ok()) return number.status();
          *field.into = *number;
        }
      }
      if (const JsonValue* v = item.Find("theta"); v != nullptr) {
        auto number = AsU64(*v, "theta");
        if (!number.ok()) return number.status();
        info.theta = *number;
      }
      if (const JsonValue* v = item.Find("sketch_built"); v != nullptr) {
        if (v->type != JsonValue::Type::kBool) {
          return Status::InvalidArgument("field 'sketch_built' must be a bool");
        }
        info.sketch_built = v->boolean;
      }
      response.datasets.push_back(std::move(info));
    }
  }
  return response;
}

}  // namespace serve

// ---------------------------------------------------------------------------
// The encoder half of the codec. Declared on api::Response (every front
// door shares one canonical rendering); implemented here because the JSON
// vocabulary — field names, ordering, number formatting — belongs to the
// wire protocol, not the typed API.
// ---------------------------------------------------------------------------
namespace api {

std::string Response::ToJson() const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"op\": ";
  AppendJsonString(&out, op);
  if (!id.empty()) {
    out << ", \"id\": ";
    AppendJsonString(&out, id);
  }
  out << ", \"ok\": " << (ok ? "true" : "false");
  if (!ok) {
    out << ", \"error\": ";
    AppendJsonString(&out, error);
    out << "}";
    return out.str();
  }
  if (!dataset.empty()) {
    out << ", \"dataset\": ";
    AppendJsonString(&out, dataset);
  }
  if (!method.empty()) {
    // Only set for non-RS selections, so v1 answers stay byte-identical.
    out << ", \"method\": ";
    AppendJsonString(&out, method);
  }
  auto append_seeds = [&] {
    out << ", \"seeds\": ";
    AppendNumberArray(&out, seeds);
  };
  if (op == "topk") {
    append_seeds();
    out << ", \"estimated_score\": " << estimated_score
        << ", \"exact_score\": " << exact_score;
  } else if (op == "minseed") {
    out << ", \"achievable\": " << (achievable ? "true" : "false")
        << ", \"k_star\": " << k_star;
    append_seeds();
    out << ", \"exact_score\": " << exact_score
        << ", \"selector_calls\": " << selector_calls;
  } else if (op == "evaluate") {
    out << ", \"score\": " << score << ", \"scores\": ";
    AppendNumberArray(&out, all_scores);
    out << ", \"winner\": " << winner;
  } else if (op == "methodcompare") {
    out << ", \"methods\": [";
    for (size_t i = 0; i < method_scores.size(); ++i) {
      const MethodScore& entry = method_scores[i];
      out << (i == 0 ? "" : ", ") << "{\"method\": ";
      AppendJsonString(&out, entry.method);
      out << ", \"seeds\": ";
      AppendNumberArray(&out, entry.seeds);
      // Per-entry selection seconds are deliberately NOT serialized: the
      // wire form must be reproducible run-to-run (only the top-level
      // millis may vary, and ToStableJson strips it).
      out << ", \"estimated_score\": " << entry.estimated_score
          << ", \"exact_score\": " << entry.exact_score << "}";
    }
    out << "]";
  } else if (op == "rulesweep") {
    out << ", \"rules\": [";
    for (size_t i = 0; i < rule_scores.size(); ++i) {
      const RuleScore& entry = rule_scores[i];
      out << (i == 0 ? "" : ", ") << "{\"rule\": ";
      AppendJsonString(&out, entry.rule);
      out << ", \"seeds\": ";
      AppendNumberArray(&out, entry.seeds);
      out << ", \"estimated_score\": " << entry.estimated_score
          << ", \"exact_score\": " << entry.exact_score
          << ", \"winner\": " << entry.winner << "}";
    }
    out << "]";
  } else if (op == "load" || op == "list") {
    out << ", \"datasets\": [";
    for (size_t i = 0; i < datasets.size(); ++i) {
      const DatasetInfo& info = datasets[i];
      out << (i == 0 ? "" : ", ") << "{\"name\": ";
      AppendJsonString(&out, info.name);
      out << ", \"n\": " << info.num_nodes << ", \"r\": "
          << info.num_candidates << ", \"theta\": " << info.theta
          << ", \"t\": " << info.horizon << ", \"target\": " << info.target
          << ", \"sketch_built\": " << (info.sketch_built ? "true" : "false")
          << "}";
    }
    out << "]";
  } else if (op == "stats") {
    out << ", \"stats\": {";
    bool first = true;
    for (const auto& [name, value] : stats) {
      out << (first ? "" : ", ");
      AppendJsonString(&out, name);
      out << ": " << value;
      first = false;
    }
    out << "}";
  } else if (op == "edge_add" || op == "edge_del" || op == "set_opinion" ||
             op == "mutate") {
    // Deterministic repair accounting (ahead of the volatile millis tail,
    // so ToStableJson keeps it): how many mutations committed, how many
    // nodes' in-rows changed, and the dirty-walk share of the sketch.
    out << ", \"applied\": " << applied
        << ", \"dirty_nodes\": " << dirty_nodes
        << ", \"walks_repaired\": " << walks_repaired
        << ", \"walks_total\": " << walks_total;
  }
  out << ", \"millis\": " << millis;
  if (traced) {
    // The traced diagnostics ride BEHIND millis by contract: ToStableJson
    // strips everything from millis on, so traced and untraced answers
    // compare byte-identical.
    out << ", \"diagnostics\": {";
    bool first = true;
    for (const auto& [name, value] : diagnostics) {
      out << (first ? "" : ", ");
      AppendJsonString(&out, name);
      out << ": " << value;
      first = false;
    }
    out << "}";
  }
  out << "}";
  return out.str();
}

std::string Response::ToStableJson() const {
  std::string json = ToJson();
  // millis is always the first field of the volatile tail when present
  // (error responses carry none); erasing from it to the closing brace
  // also drops the traced diagnostics block that may follow it.
  const size_t millis_at = json.rfind(", \"millis\": ");
  if (millis_at != std::string::npos) {
    json.erase(millis_at, json.size() - 1 - millis_at);
  }
  return json;
}

}  // namespace api
}  // namespace voteopt
