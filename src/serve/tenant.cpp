#include "serve/tenant.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "graph/datasets.hpp"
#include "obs/metrics.hpp"

namespace tagnn::serve {

namespace {

std::string fnv1a_digest(const Matrix& m) {
  std::uint64_t h = 14695981039346656037ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(m.data());
  const std::size_t n = m.size() * sizeof(float);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "h-%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

// Each heavy member initializer runs inside an immediately-invoked
// lambda holding MemScope(kServe, mem_domain_): MemScope is thread-
// bound and strictly LIFO, so it cannot be a member, but a per-
// initializer scope attributes every tracked byte (weights, stream
// features, engine state) to this tenant's domain. Nested scopes the
// callees install (e.g. the generator's kFeatures) refine the
// subsystem while inheriting the domain.
Tenant::Tenant(TenantConfig cfg)
    : cfg_(std::move(cfg)),
      mem_domain_(obs::mem::MemRegistry::global().domain("tenant:" +
                                                         cfg_.name)),
      weights_(([&] {
        obs::mem::MemScope sc(obs::mem::Subsystem::kServe, mem_domain_);
        return DgnnWeights::init(
            ModelConfig::preset(cfg_.model),
            datasets::config(cfg_.dataset, cfg_.scale).feature_dim,
            cfg_.weight_seed);
      })()),
      stream_(([&] {
        obs::mem::MemScope sc(obs::mem::Subsystem::kServe, mem_domain_);
        return datasets::load(cfg_.dataset, cfg_.scale, cfg_.stream_snapshots);
      })()),
      infer_(weights_, [this] {
        // Replies read state()/rows, never per-snapshot outputs, so the
        // engine need not retain them; redundancy analysis is a bench
        // concern, not a serving one.
        EngineOptions o = cfg_.engine;
        o.store_outputs = false;
        o.count_redundancy = false;
        return o;
      }()) {}

Reply Tenant::base_reply(Status s) const {
  Reply r;
  r.status = s;
  r.tenant = cfg_.name;
  r.epoch = epoch_;
  r.snapshots = infer_.snapshots_seen();
  r.processed = infer_.snapshots_processed();
  return r;
}

void Tenant::push_next_stream_snapshot() {
  current_ = stream_.snapshot(
      static_cast<SnapshotId>(stream_pos_ % stream_.num_snapshots()));
  ++stream_pos_;
  have_current_ = true;
  infer_.push(current_);
}

// O(E + r log r + a): ids are validated first, then one pass over the
// CSR's (u, v)-sorted edge list drops the sorted removal set; absent
// removals are ignored (removal is idempotent). from_edges sorts and
// de-duplicates, so appending the adds unsorted is enough.
bool Tenant::apply_delta(const IngestCommand& cmd, std::string* error) {
  const VertexId n = current_.num_vertices();
  for (const auto& [u, v] : cmd.remove_edges) {
    if (u >= n || v >= n) {
      *error = "remove_edges vertex id out of range";
      return false;
    }
  }
  for (const auto& [u, v] : cmd.add_edges) {
    if (u >= n || v >= n) {
      *error = "add_edges vertex id out of range";
      return false;
    }
    if (!current_.present[u] || !current_.present[v]) {
      *error = "add_edges endpoint is an absent vertex";
      return false;
    }
  }
  std::vector<std::pair<VertexId, VertexId>> removed = cmd.remove_edges;
  std::sort(removed.begin(), removed.end());
  removed.erase(std::unique(removed.begin(), removed.end()), removed.end());
  auto next_removed = removed.begin();
  std::vector<std::pair<VertexId, VertexId>> edges;
  edges.reserve(current_.graph.num_edges() + cmd.add_edges.size());
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v : current_.graph.neighbors(u)) {
      const std::pair<VertexId, VertexId> e(u, v);
      while (next_removed != removed.end() && *next_removed < e) {
        ++next_removed;
      }
      if (next_removed == removed.end() || *next_removed != e) {
        edges.push_back(e);
      }
    }
  }
  edges.insert(edges.end(), cmd.add_edges.begin(), cmd.add_edges.end());
  Snapshot next;
  next.graph = CsrGraph::from_edges(n, std::move(edges));
  next.features = current_.features;
  next.present = current_.present;
  current_ = std::move(next);
  infer_.push(current_);
  return true;
}

Reply Tenant::ingest(const IngestCommand& cmd) {
  const bool has_delta = !cmd.add_edges.empty() || !cmd.remove_edges.empty();
  if (has_delta && !have_current_ && cmd.advance == 0) {
    Reply r = base_reply(Status::kBadRequest);
    r.error = "tenant has no current snapshot; send {\"advance\": 1} first";
    return r;
  }
  for (std::uint32_t i = 0; i < cmd.advance; ++i) push_next_stream_snapshot();
  if (has_delta) {
    std::string error;
    if (!apply_delta(cmd, &error)) {
      // The stream advance above already happened; the reply's snapshot
      // count reflects that, so the client can resynchronise.
      Reply r = base_reply(Status::kBadRequest);
      r.error = error;
      return r;
    }
  }
  ++epoch_;
  obs::count("tagnn.serve.ingest_snapshots",
             cmd.advance + (has_delta ? 1u : 0u));
  return base_reply(Status::kOk);
}

Reply Tenant::infer(const InferCommand& cmd) {
  if (infer_.snapshots_seen() > infer_.snapshots_processed()) {
    infer_.flush();
  }
  const Matrix& h = infer_.state();
  for (VertexId v : cmd.vertices) {
    if (v >= h.rows()) {
      Reply r = base_reply(Status::kBadRequest);
      r.error = h.empty() ? "no snapshots processed yet"
                          : "vertex id out of range";
      return r;
    }
  }
  if (digest_seen_ != infer_.snapshots_seen()) {
    digest_ = fnv1a_digest(h);
    digest_seen_ = infer_.snapshots_seen();
  } else {
    obs::count("tagnn.serve.infer_cache_hits");
  }
  Reply r = base_reply(Status::kOk);
  r.digest = digest_;
  r.rows.reserve(cmd.vertices.size());
  for (VertexId v : cmd.vertices) {
    const auto row = h.row(v);
    r.rows.emplace_back(row.begin(), row.end());
  }
  return r;
}

Reply Tenant::apply(const Request& req) {
  // One tenant = one worker thread (see ServeCore), so everything a
  // request allocates — snapshot copies, delta rebuilds, engine state
  // growth — is charged to this tenant's domain.
  obs::mem::MemScope mem_scope(obs::mem::Subsystem::kServe, mem_domain_);
  return req.op == OpKind::kIngest ? ingest(req.ingest) : infer(req.infer);
}

}  // namespace tagnn::serve
