// Reproduces Fig. 13:
//  (a) architecture performance-gain breakdown: MSDL + DGNN Computation
//      Unit (paper: 53.6%), Task Dispatcher (13.8%), Adaptive RNN Unit
//      (32.6%);
//  (b) O-CSR vs per-snapshot CSR and PMA: execution time normalized to
//      TaGNN-CSR, plus storage-reduction percentages (paper: CSR
//      2.3-3.4x, PMA 1.8-2.5x slower; storage -73.5..82.4% vs CSR,
//      -53.2..61.8% vs PMA for 4 snapshots).
#include "bench_common.hpp"
#include "graph/formats.hpp"
#include "tagnn/accelerator.hpp"

namespace tagnn {
namespace {

void fig13a() {
  bench::print_header("Fig. 13(a): architecture gain breakdown (T-GCN)",
                      "paper Fig. 13(a)");
  Table t({"dataset", "MSDL+DCU %", "Task Dispatcher %",
           "Adaptive RNN Unit %"});
  for (const auto& ds : bench::all_datasets()) {
    const bench::Workload wl = bench::load("T-GCN", ds);
    TagnnConfig full;
    TagnnConfig no_oadl = full;     // MSDL + DCU reuse path off
    no_oadl.enable_oadl = false;
    TagnnConfig naive_disp = full;  // contiguous-range dispatcher
    naive_disp.balanced_dispatch = false;
    TagnnConfig no_adsc = full;     // Adaptive RNN Unit off
    no_adsc.enable_adsc = false;

    const double base = TagnnAccelerator(full).run(wl.g, wl.w).seconds;
    const double d_msdl =
        TagnnAccelerator(no_oadl).run(wl.g, wl.w).seconds - base;
    const double d_disp =
        TagnnAccelerator(naive_disp).run(wl.g, wl.w).seconds - base;
    const double d_rnn =
        TagnnAccelerator(no_adsc).run(wl.g, wl.w).seconds - base;
    const double sum = d_msdl + d_disp + d_rnn;
    t.add_row({ds, Table::num(100 * d_msdl / sum, 1),
               Table::num(100 * d_disp / sum, 1),
               Table::num(100 * d_rnn / sum, 1)});
  }
  t.print(std::cout);
  std::cout << "(paper averages: 53.6 / 13.8 / 32.6)\n";
}

void fig13b() {
  bench::print_header(
      "Fig. 13(b): O-CSR vs CSR vs PMA (T-GCN, 4-snapshot windows)",
      "paper Fig. 13(b)");
  Table t({"dataset", "CSR time / O-CSR", "PMA time / O-CSR",
           "storage vs CSR", "storage vs PMA"});
  for (const auto& ds : bench::all_datasets()) {
    const bench::Workload wl = bench::load("T-GCN", ds);
    TagnnConfig ocsr_cfg;
    TagnnConfig csr_cfg;
    csr_cfg.format = StorageFormat::kCsr;
    TagnnConfig pma_cfg;
    pma_cfg.format = StorageFormat::kPma;

    const double ours = TagnnAccelerator(ocsr_cfg).run(wl.g, wl.w).seconds;
    const double csr = TagnnAccelerator(csr_cfg).run(wl.g, wl.w).seconds;
    const double pma = TagnnAccelerator(pma_cfg).run(wl.g, wl.w).seconds;

    const Window w{0, std::min<SnapshotId>(
                          4, static_cast<SnapshotId>(wl.g.num_snapshots()))};
    const auto cls = classify_window(wl.g, w);
    const auto sub = extract_affected_subgraph(wl.g, w, cls);
    const OCsr o = OCsr::build(wl.g, w, cls, sub);
    const double b_ocsr = static_cast<double>(ocsr_stats(o).total_bytes());
    const double b_csr =
        static_cast<double>(csr_window_stats(wl.g, w).total_bytes());
    const double b_pma =
        static_cast<double>(PmaWindowStore(wl.g, w).stats().total_bytes());

    t.add_row({ds, Table::num(csr / ours, 2) + "x",
               Table::num(pma / ours, 2) + "x",
               "-" + Table::num(100 * (1 - b_ocsr / b_csr), 1) + "%",
               "-" + Table::num(100 * (1 - b_ocsr / b_pma), 1) + "%"});
  }
  t.print(std::cout);
  std::cout << "(paper: CSR 2.3-3.4x, PMA 1.8-2.5x; storage "
               "-73.5..82.4% vs CSR, -53.2..61.8% vs PMA)\n";
}

}  // namespace
}  // namespace tagnn

int main() {
  tagnn::fig13a();
  tagnn::fig13b();
  return 0;
}
