// Ablation benches for the design choices DESIGN.md calls out, beyond
// the paper's own figures:
//   * GSPM partitioning strategy (range / degree-balanced / BFS):
//     balance vs locality of the streamed batches;
//   * on-chip buffer sizing: spill traffic as the Table 4 feature
//     stores shrink/grow;
//   * loader replication (the paper replicates Fetch_Neighbors and
//     Fetch_Features): MSDL pipeline throughput;
//   * skip warm-up length: accuracy/THROUGHPUT trade-off of cold-start
//     full updates.
#include "bench_common.hpp"
#include "nn/accuracy.hpp"
#include "nn/approx.hpp"
#include "nn/evolve_gcn.hpp"
#include "nn/quantize.hpp"
#include "tagnn/accelerator.hpp"
#include "tagnn/msdl.hpp"
#include "tagnn/partition.hpp"
#include "tensor/ops.hpp"

namespace tagnn {
namespace {

void partition_ablation() {
  bench::print_header("Ablation: GSPM partitioning strategies",
                      "design choice (paper section 4, GSPM)");
  Table t({"dataset", "strategy", "edge-mass imbalance",
           "internal edges %"});
  for (const auto& ds : bench::all_datasets()) {
    const DynamicGraph g =
        datasets::load(ds, bench::scale(), bench::snapshots());
    const Window w{0, 4};
    for (const auto s :
         {PartitionStrategy::kRange, PartitionStrategy::kDegreeBalanced,
          PartitionStrategy::kBfsLocality}) {
      const Partitioning p = partition_window(g, w, 16, s);
      t.add_row({ds, to_string(s), Table::num(p.imbalance(), 3),
                 Table::num(100 * p.internal_edge_fraction, 1)});
    }
  }
  t.print(std::cout);
}

void buffer_ablation() {
  bench::print_header("Ablation: on-chip buffer capacity vs spill traffic",
                      "design choice (Table 4 buffer sizes)");
  Table t({"on-chip stores", "HBM MB", "memory cycles", "time / default"});
  const bench::Workload wl = bench::load("CD-GCN", "FK");
  TagnnConfig base;
  const AccelResult ref = TagnnAccelerator(base).run(wl.g, wl.w);
  for (const std::size_t kb : {128u, 512u, 1024u, 3584u, 16384u}) {
    TagnnConfig cfg;
    // Scale the three staging stores together (feature : O-CSR :
    // structure in the Table 4 ratio 4:2:1).
    cfg.feature_buffer_bytes = (kb * 4 / 7) << 10;
    cfg.ocsr_table_bytes = (kb * 2 / 7) << 10;
    cfg.structure_memory_bytes = (kb / 7) << 10;
    const AccelResult r = TagnnAccelerator(cfg).run(wl.g, wl.w);
    t.add_row({std::to_string(kb) + " KB",
               Table::num(r.dram_bytes / 1e6, 2),
               std::to_string(r.cycles.memory),
               Table::num(r.seconds / ref.seconds, 3)});
  }
  t.print(std::cout);
}

void loader_ablation() {
  bench::print_header("Ablation: MSDL loader replication",
                      "design choice (section 4.1: replicated "
                      "Fetch_Neighbors/Fetch_Features)");
  Table t({"replicas", "classification cycles", "vs 2 replicas"});
  const DynamicGraph g =
      datasets::load("FK", bench::scale(), bench::snapshots());
  // One plan of the first window, modelled at every replica count.
  const WindowPlan plan =
      build_window_plan(g, {0, 4}, /*reuse=*/false, /*layers=*/0);
  Cycle ref = 0;
  for (const std::size_t rep : {1u, 2u, 4u}) {
    TagnnConfig cfg;
    cfg.loader_replicas = rep;
    const MsdlResult r = Msdl(cfg).process_window(g, plan);
    if (rep == 2) ref = r.classification_cycles;
    t.add_row({std::to_string(rep), std::to_string(r.classification_cycles),
               ref ? Table::num(static_cast<double>(r.classification_cycles) /
                                    static_cast<double>(ref),
                                2)
                   : std::string("-")});
  }
  t.print(std::cout);
}

void warmup_ablation() {
  bench::print_header("Ablation: skip warm-up length",
                      "design choice (cold-start handling; see "
                      "EngineOptions::skip_warmup_snapshots)");
  Table t({"warmup", "accuracy %", "full updates", "skips"});
  const bench::Workload wl = bench::load("T-GCN", "GT");
  const EngineResult exact =
      run_with_approximation(wl.g, wl.w, ApproxMethod::kBaseline);
  const AccuracyTask task = make_accuracy_task(wl.g, exact, 8, 0.80, 7);
  for (const SnapshotId warmup : {0u, 1u, 2u, 4u}) {
    EngineOptions opts;
    opts.skip_warmup_snapshots = warmup;
    const EngineResult r = ConcurrentEngine(opts).run(wl.g, wl.w);
    t.add_row({std::to_string(warmup),
               Table::num(100 * evaluate_accuracy(wl.g, task, r.outputs), 1),
               std::to_string(r.rnn_counts.rnn_full),
               std::to_string(r.rnn_counts.rnn_skip)});
  }
  t.print(std::cout);
}

void quantization_ablation() {
  bench::print_header("Ablation: datapath precision",
                      "design choice (FPGA MAC arrays run reduced "
                      "precision, not fp32)");
  Table t({"bits", "max |error| vs fp32", "accuracy %"});
  const bench::Workload wl = bench::load("T-GCN", "GT");
  const EngineResult fp32 = ReferenceEngine().run(wl.g, wl.w);
  const AccuracyTask task = make_accuracy_task(wl.g, fp32, 8, 0.80, 7);
  for (const int bits : {4, 6, 8, 12, 16}) {
    const EngineResult q = run_quantized(
        wl.g, wl.w, {.activation_bits = bits, .weight_bits = bits});
    t.add_row({std::to_string(bits),
               Table::num(max_abs_diff(fp32.final_hidden, q.final_hidden), 4),
               Table::num(100 * evaluate_accuracy(wl.g, task, q.outputs), 1)});
  }
  t.print(std::cout);
}

void adaptability_ablation() {
  bench::print_header(
      "Ablation: model adaptability — what survives for weight-evolving "
      "(RNN-free) DGNNs",
      "paper section 2.1: \"TaGNN is highly versatile and adaptable\"");
  Table t({"dataset", "T-GCN feature-traffic saving %",
           "EvolveGCN-O feature-traffic saving %"});
  for (const auto& ds : {std::string("HP"), std::string("GT")}) {
    const bench::Workload wl = bench::load("T-GCN", ds);
    EngineOptions ro;
    ro.store_outputs = false;
    const double ref_t =
        ReferenceEngine(ro).run(wl.g, wl.w).total_counts().feature_bytes;
    EngineOptions co;
    co.store_outputs = false;
    const double con_t =
        ConcurrentEngine(co).run(wl.g, wl.w).total_counts().feature_bytes;

    const EvolveGcnWeights ew =
        EvolveGcnWeights::init(2, wl.g.feature_dim(), 32, 4);
    const double ev_without =
        run_evolve_gcn(wl.g, ew, false).gnn_counts.feature_bytes;
    const double ev_with =
        run_evolve_gcn(wl.g, ew, true).gnn_counts.feature_bytes;
    t.add_row({ds, Table::num(100 * (1 - con_t / ref_t), 1),
               Table::num(100 * (1 - ev_with / ev_without), 1)});
  }
  t.print(std::cout);
  std::cout << "(cross-snapshot output reuse and cell skipping do not "
               "apply when the temporal component lives in the weights; "
               "the feature-load deduplication of OADL survives)\n";
}

}  // namespace
}  // namespace tagnn

int main() {
  tagnn::partition_ablation();
  tagnn::buffer_ablation();
  tagnn::loader_ablation();
  tagnn::warmup_ablation();
  tagnn::quantization_ablation();
  tagnn::adaptability_ablation();
  return 0;
}
