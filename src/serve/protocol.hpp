// Wire protocol of the tagnn_serve request plane (docs/SERVING.md).
//
// Requests are small JSON documents POSTed to /v1/ingest and /v1/infer
// with the target tenant in the query string (?tenant=NAME); replies
// are JSON documents rendered by reply_json(). The reply body contains
// ONLY fields that are a pure function of the tenant's request order —
// never timing, batch composition, or queue state — so a batched run
// and an unbatched run of the same request sequence produce
// byte-identical response bodies (tested). Operational data (latency,
// batch sizes, shed counts) lives in /metrics and /slo.json instead.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json_escape.hpp"
#include "common/types.hpp"

namespace tagnn::serve {

inline constexpr std::string_view kSloSchema = "tagnn.slo.v1";
inline constexpr std::string_view kTenantsSchema = "tagnn.serve.tenants.v1";

/// Request disposition. kOk is the only status whose reply carries
/// model output; everything else is an admission or protocol error.
enum class Status {
  kOk = 0,
  kOverloaded,   // admission controller shed the request (HTTP 429)
  kBadRequest,   // malformed body / unknown vertex (HTTP 400)
  kNotFound,     // unknown tenant (HTTP 404)
  kShutdown,     // server stopping (HTTP 503)
};

const char* to_string(Status s);
int http_status(Status s);

/// POST /v1/ingest — advance the tenant's snapshot stream and/or apply
/// an explicit topology delta on top of the current snapshot.
/// {"advance": 2} or {"add_edges": [[0,5],[5,0]], "remove_edges": [...]}
struct IngestCommand {
  std::uint32_t advance = 0;
  std::vector<std::pair<VertexId, VertexId>> add_edges;
  std::vector<std::pair<VertexId, VertexId>> remove_edges;
};

/// POST /v1/infer — flush buffered snapshots through the engine and
/// read back the final features. {"vertices": [0, 17]} selects rows of
/// H_t to include in the reply (empty = digest only).
struct InferCommand {
  std::vector<VertexId> vertices;
};

enum class OpKind { kIngest, kInfer };

struct Request {
  std::string tenant;
  OpKind op = OpKind::kInfer;
  IngestCommand ingest;
  InferCommand infer;
};

/// Deterministic reply payload (see header comment).
struct Reply {
  Status status = Status::kOk;
  std::string tenant;
  std::string error;    // detail for non-kOk statuses
  std::uint64_t epoch = 0;       // ingest requests applied so far
  std::uint64_t snapshots = 0;   // snapshots pushed into the stream
  std::uint64_t processed = 0;   // snapshots the engine has consumed
  /// FNV-1a over the final feature matrix ("h-" + 16 hex digits);
  /// empty for ingest replies.
  std::string digest;
  /// Requested H_t rows, in request order (infer only).
  std::vector<std::vector<float>> rows;
};

/// Parses an ingest body. False + *error on malformed input.
bool parse_ingest(std::string_view body, IngestCommand* out,
                  std::string* error);
/// Parses an infer body ("" and "{}" are valid: digest-only probe).
bool parse_infer(std::string_view body, InferCommand* out,
                 std::string* error);

/// Renders a reply as one JSON document + trailing newline. Floats go
/// through obs::write_json_number, so rendering is deterministic.
std::string reply_json(const Reply& r);

/// The shared escaper, under the name protocol/SLO emitters call.
using tagnn::json_escape;

}  // namespace tagnn::serve
