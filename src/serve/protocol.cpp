#include "serve/protocol.hpp"

#include <sstream>

#include "obs/analyze/jparse.hpp"
#include "obs/jsonv.hpp"

namespace tagnn::serve {

namespace {

using obs::analyze::JsonValue;

bool parse_edge_list(const JsonValue& doc, std::string_view key,
                     std::vector<std::pair<VertexId, VertexId>>* out,
                     std::string* error) {
  const JsonValue* v = doc.find(key);
  if (v == nullptr) return true;
  if (!v->is_array()) {
    if (error) *error = std::string(key) + " must be an array of [u, v] pairs";
    return false;
  }
  for (const JsonValue& e : v->as_array()) {
    if (!e.is_array() || e.as_array().size() != 2 ||
        !e.as_array()[0].is_number() || !e.as_array()[1].is_number()) {
      if (error) *error = std::string(key) + " entries must be [u, v] pairs";
      return false;
    }
    const double u = e.as_array()[0].as_number();
    const double w = e.as_array()[1].as_number();
    if (u < 0 || w < 0 || u != static_cast<VertexId>(u) ||
        w != static_cast<VertexId>(w)) {
      if (error) *error = std::string(key) + " vertex ids must be non-negative integers";
      return false;
    }
    out->emplace_back(static_cast<VertexId>(u), static_cast<VertexId>(w));
  }
  return true;
}

bool parse_doc(std::string_view body, JsonValue* doc, std::string* error) {
  if (body.find_first_not_of(" \t\r\n") == std::string_view::npos) {
    *doc = JsonValue::make_object({});
    return true;
  }
  if (!obs::analyze::json_parse(body, doc, error)) return false;
  if (!doc->is_object()) {
    if (error) *error = "request body must be a JSON object";
    return false;
  }
  return true;
}

}  // namespace

const char* to_string(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kOverloaded: return "overloaded";
    case Status::kBadRequest: return "bad_request";
    case Status::kNotFound: return "not_found";
    case Status::kShutdown: return "shutdown";
  }
  return "unknown";
}

int http_status(Status s) {
  switch (s) {
    case Status::kOk: return 200;
    case Status::kOverloaded: return 429;
    case Status::kBadRequest: return 400;
    case Status::kNotFound: return 404;
    case Status::kShutdown: return 503;
  }
  return 500;
}

bool parse_ingest(std::string_view body, IngestCommand* out,
                  std::string* error) {
  JsonValue doc;
  if (!parse_doc(body, &doc, error)) return false;
  const double advance = doc.number_at("advance", 0.0);
  if (advance < 0 || advance > 1e6 ||
      advance != static_cast<std::uint32_t>(advance)) {
    if (error) *error = "advance must be an integer in [0, 1e6]";
    return false;
  }
  out->advance = static_cast<std::uint32_t>(advance);
  if (!parse_edge_list(doc, "add_edges", &out->add_edges, error)) return false;
  if (!parse_edge_list(doc, "remove_edges", &out->remove_edges, error)) {
    return false;
  }
  if (out->advance == 0 && out->add_edges.empty() &&
      out->remove_edges.empty()) {
    // An empty ingest advances the stream by one snapshot: the common
    // case needs no body at all.
    out->advance = 1;
  }
  return true;
}

bool parse_infer(std::string_view body, InferCommand* out,
                 std::string* error) {
  JsonValue doc;
  if (!parse_doc(body, &doc, error)) return false;
  const JsonValue* v = doc.find("vertices");
  if (v == nullptr) return true;
  if (!v->is_array()) {
    if (error) *error = "vertices must be an array of vertex ids";
    return false;
  }
  for (const JsonValue& e : v->as_array()) {
    if (!e.is_number() || e.as_number() < 0 ||
        e.as_number() != static_cast<VertexId>(e.as_number())) {
      if (error) *error = "vertices entries must be non-negative integers";
      return false;
    }
    out->vertices.push_back(static_cast<VertexId>(e.as_number()));
  }
  return true;
}

std::string reply_json(const Reply& r) {
  std::ostringstream os;
  os << "{\"status\": \"" << to_string(r.status) << "\"";
  if (!r.tenant.empty()) os << ", \"tenant\": \"" << json_escape(r.tenant) << "\"";
  if (!r.error.empty()) os << ", \"error\": \"" << json_escape(r.error) << "\"";
  if (r.status == Status::kOk) {
    os << ", \"epoch\": " << r.epoch << ", \"snapshots\": " << r.snapshots
       << ", \"processed\": " << r.processed;
    if (!r.digest.empty()) os << ", \"digest\": \"" << r.digest << "\"";
    if (!r.rows.empty()) {
      os << ", \"rows\": [";
      for (std::size_t i = 0; i < r.rows.size(); ++i) {
        if (i != 0) os << ", ";
        os << "[";
        for (std::size_t j = 0; j < r.rows[i].size(); ++j) {
          if (j != 0) os << ", ";
          obs::write_json_number(os, r.rows[i][j]);
        }
        os << "]";
      }
      os << "]";
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace tagnn::serve
