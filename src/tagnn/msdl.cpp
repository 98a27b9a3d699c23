#include "tagnn/msdl.hpp"

#include <cmath>

#include "graph/formats.hpp"
#include "obs/metrics.hpp"

namespace tagnn {
namespace {

Cycle ceil_div(std::size_t a, std::size_t b) {
  return static_cast<Cycle>((a + b - 1) / b);
}

}  // namespace

MsdlResult Msdl::process_window(const DynamicGraph& g,
                                const WindowPlan& plan) const {
  MsdlResult r;
  const Window w = plan.window();
  const std::size_t k = w.length;

  // Stage latencies are *issue-rate* bound (requests per cycle a stage
  // can originate); the actual HBM service time of the fetched data is
  // charged separately by the accelerator's memory model, so charging
  // byte-transfer time here would double count. Fetch_Neighbors /
  // Fetch_Features are replicated units (section 4.1).
  const std::size_t rep = cfg_.loader_replicas;

  // --- 6-stage classification pipeline, one feed per vertex. ---
  PipelineSim classify({"Fetch_Vertex", "Fetch_Snapshot", "Fetch_Offsets",
                        "Fetch_Neighbors", "Fetch_Features",
                        "Identify_Vertices"});
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    std::size_t deg_sum = 0;
    for (SnapshotId t = w.start; t < w.end(); ++t) {
      deg_sum += g.snapshot(t).graph.degree(v);
    }
    classify.feed({
        1,                              // Fetch_Vertex
        ceil_div(k, 4),                 // Fetch_Snapshot (bitmap probes)
        ceil_div(k, 2),                 // Fetch_Offsets
        ceil_div(deg_sum, 32 * rep),    // Fetch_Neighbors (32 ids/cycle)
        ceil_div(deg_sum + k, 8 * rep), // Fetch_Features (row requests)
        ceil_div(deg_sum + k, 32),      // Identify_Vertices (comparators)
    });
  }
  r.classification_cycles = classify.total_cycles();
  r.classify_stages = classify.stage_stats();

  // --- 5-stage TFSM traversal pipeline, one feed per subgraph vertex. ---
  PipelineSim traverse({"Fetch_Root", "Fetch_Neighbors", "Type_Detection",
                        "Offsets_Fetching", "Neighbors_Selection"});
  for (const VertexId v : plan.sub.vertices) {
    std::size_t deg_sum = 0;
    for (SnapshotId t = w.start; t < w.end(); ++t) {
      deg_sum += g.snapshot(t).graph.degree(v);
    }
    traverse.feed({
        1,                       // Fetch_Root
        ceil_div(deg_sum, 32),   // Fetch_Neighbors
        ceil_div(deg_sum, 32),   // Type_Detection (bitmap lookups)
        ceil_div(deg_sum, 32),   // Offsets_Fetching
        ceil_div(deg_sum, 32),   // Neighbors_Selection
    });
  }
  r.traversal_cycles = traverse.total_cycles();
  r.traverse_stages = traverse.stage_stats();

  // --- Loader DRAM traffic under the configured storage format. ---
  switch (cfg_.format) {
    case StorageFormat::kOcsr: {
      const FormatStats fs = ocsr_stats(plan.ocsr);
      r.dram_bytes = static_cast<double>(fs.total_bytes());
      r.sequential_fraction = fs.sequential_fraction;
      break;
    }
    case StorageFormat::kCsr: {
      const FormatStats fs = csr_window_stats(g, w);
      r.dram_bytes = static_cast<double>(fs.total_bytes());
      r.sequential_fraction = fs.sequential_fraction;
      break;
    }
    case StorageFormat::kPma: {
      const FormatStats fs = PmaWindowStore(g, w).stats();
      r.dram_bytes = static_cast<double>(fs.total_bytes());
      r.sequential_fraction = fs.sequential_fraction;
      break;
    }
  }
  // Unaffected vertices outside the O-CSR stream in once regardless of
  // format (they are computed once per layer).
  r.dram_bytes +=
      static_cast<double>(plan.outside_rows) * g.feature_dim() * 4.0;

  if (obs::telemetry_enabled()) {
    auto& reg = obs::MetricsRegistry::global();
    static const obs::MetricId kWindows =
        reg.counter("tagnn.msdl.windows_loaded");
    static const obs::MetricId kAffected =
        reg.histogram("tagnn.msdl.affected_subgraph_vertices");
    static const obs::MetricId kBytes =
        reg.histogram("tagnn.msdl.window_dram_bytes");
    reg.add(kWindows);
    reg.record(kAffected, static_cast<double>(plan.sub.size()));
    reg.record(kBytes, r.dram_bytes);
  }
  return r;
}

}  // namespace tagnn
