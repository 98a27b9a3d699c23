#include "tagnn/report.hpp"

#include <ostream>

#include "common/json_escape.hpp"
#include "obs/jsonv.hpp"
#include "sim/memory.hpp"
#include "tensor/kernel_registry.hpp"

namespace tagnn {

obs::analyze::RooflineResult diagnose_roofline(const TagnnConfig& cfg,
                                               const AccelResult& r) {
  obs::analyze::RooflineInput in;
  in.label = "run";
  in.macs = r.functional.total_counts().macs;
  in.dram_bytes = r.dram_bytes;
  in.total_cycles = static_cast<double>(r.cycles.total);
  in.peak_macs_per_cycle = static_cast<double>(cfg.total_macs());
  in.peak_bytes_per_cycle = HbmModel(cfg.hbm).peak_bytes_per_cycle();
  return obs::analyze::analyze_roofline(in);
}

obs::analyze::CycleStack diagnose_cycle_stack(const AccelResult& r) {
  obs::analyze::CycleStackInput in;
  in.label = "run";
  in.total = r.cycles.total;
  in.units = {{"msdl", r.cycles.msdl},
              {"gnn", r.cycles.gnn},
              {"rnn", r.cycles.rnn},
              {"memory", r.cycles.memory}};
  return obs::analyze::build_cycle_stack(in);
}

std::vector<obs::analyze::CycleStack> diagnose_window_stacks(
    const AccelResult& r) {
  std::vector<obs::analyze::CycleStack> out;
  out.reserve(r.telemetry.window_records.size());
  for (const AccelWindowRecord& w : r.telemetry.window_records) {
    obs::analyze::CycleStackInput in;
    in.label = "window [" + std::to_string(w.window.start) + "," +
               std::to_string(w.window.end()) + ")";
    in.total = w.total;
    in.units = {{"msdl", w.msdl},
                {"gnn", w.gnn},
                {"rnn", w.rnn},
                {"memory", w.memory}};
    out.push_back(obs::analyze::build_cycle_stack(in));
  }
  return out;
}

obs::analyze::MemDiagnosis diagnose_memory(const MemReportContext& mem) {
  obs::analyze::MemFitInput in;
  in.vertices = mem.vertices;
  in.edges = mem.edges;
  in.snapshots = mem.snapshots;
  in.scale = mem.scale;
  in.target_scale = mem.target_scale;
  in.budget_bytes = obs::analyze::mem_budget_bytes();
  in.snapshot = obs::mem::MemRegistry::global().snapshot();
  return obs::analyze::diagnose_memory(in);
}

void write_json_report(std::ostream& os, const std::string& workload,
                       const TagnnConfig& cfg, const AccelResult& r,
                       const MemReportContext& mem) {
  const OpCounts c = r.functional.total_counts();
  const auto num = [&os](double v) { obs::write_json_number(os, v); };
  os << "{\n"
     << "  \"workload\": \"" << json_escape(workload) << "\",\n"
     << "  \"kernels\": {";
  const auto variants = kernels::registry().active_variants();
  for (std::size_t i = 0; i < variants.size(); ++i) {
    os << (i == 0 ? "" : ", ") << '"' << json_escape(variants[i].first)
       << "\": \"" << json_escape(variants[i].second) << '"';
  }
  os << "},\n"
     << "  \"config\": {\n"
     << "    \"clock_mhz\": " << cfg.clock_mhz << ",\n"
     << "    \"num_dcus\": " << cfg.num_dcus << ",\n"
     << "    \"macs\": " << cfg.total_macs() << ",\n"
     << "    \"window\": " << cfg.window << ",\n"
     << "    \"oadl\": " << (cfg.enable_oadl ? "true" : "false") << ",\n"
     << "    \"adsc\": " << (cfg.enable_adsc ? "true" : "false") << ",\n"
     << "    \"format\": \"" << to_string(cfg.format) << "\",\n"
     << "    \"theta_s\": " << cfg.thresholds.theta_s << ",\n"
     << "    \"theta_e\": " << cfg.thresholds.theta_e << "\n"
     << "  },\n"
     << "  \"cycles\": {\n"
     << "    \"total\": " << r.cycles.total << ",\n"
     << "    \"msdl\": " << r.cycles.msdl << ",\n"
     << "    \"gnn\": " << r.cycles.gnn << ",\n"
     << "    \"rnn\": " << r.cycles.rnn << ",\n"
     << "    \"memory\": " << r.cycles.memory << "\n"
     << "  },\n"
     << "  \"seconds\": ";
  num(r.seconds);
  os << ",\n  \"dram_bytes\": ";
  num(r.dram_bytes);
  os << ",\n  \"energy_j\": {\n    \"total\": ";
  num(r.energy.total());
  os << ",\n    \"compute\": ";
  num(r.energy.compute_j);
  os << ",\n    \"sram\": ";
  num(r.energy.sram_j);
  os << ",\n    \"dram\": ";
  num(r.energy.dram_j);
  os << ",\n    \"static\": ";
  num(r.energy.static_j);
  os << "\n  },\n"
     << "  \"dcu_utilization\": ";
  num(r.dcu_utilization);
  os << ",\n";
  // Utilization attribution (telemetry): per-unit busy/stall against
  // the overlapped total, occupancies, buffer sizing.
  os << "  \"utilization\": {\n    \"mac_occupancy\": ";
  num(r.telemetry.mac_occupancy);
  os << ",\n    \"hbm_bw_occupancy\": ";
  num(r.telemetry.hbm_bw_occupancy);
  os << ",\n"
     << "    \"hbm_transactions\": " << r.telemetry.hbm_transactions
     << ",\n"
     << "    \"feature_buffer_high_water_bytes\": "
     << r.telemetry.feature_buffer_high_water << ",\n"
     << "    \"feature_buffer_overflow_windows\": "
     << r.telemetry.feature_buffer_overflow_windows << ",\n"
     << "    \"units\": {";
  for (std::size_t i = 0; i < r.telemetry.units.size(); ++i) {
    const auto& u = r.telemetry.units[i];
    os << (i ? ", " : "") << "\"" << json_escape(u.name)
       << "\": {\"busy_cycles\": " << u.busy
       << ", \"stall_cycles\": " << u.stall << "}";
  }
  os << "},\n";
  const auto stage_object =
      [&os](const std::vector<PipelineSim::StageStats>& ss) {
        os << "{";
        for (std::size_t i = 0; i < ss.size(); ++i) {
          os << (i ? ", " : "") << "\"" << json_escape(ss[i].name)
             << "\": {\"busy_cycles\": " << ss[i].busy
             << ", \"stall_cycles\": " << ss[i].stall << "}";
        }
        os << "}";
      };
  os << "    \"classify_stages\": ";
  stage_object(r.telemetry.classify_stages);
  os << ",\n    \"traverse_stages\": ";
  stage_object(r.telemetry.traverse_stages);
  os << "\n  },\n"
     << "  \"counts\": {\n    \"macs\": ";
  num(c.macs);
  os << ",\n    \"feature_bytes\": ";
  num(c.feature_bytes);
  os << ",\n    \"redundant_bytes\": ";
  num(c.redundant_bytes);
  os << ",\n    \"rnn_full\": " << c.rnn_full << ",\n"
     << "    \"rnn_delta\": " << c.rnn_delta << ",\n"
     << "    \"rnn_skip\": " << c.rnn_skip << ",\n"
     << "    \"gnn_vertex_reused\": " << c.gnn_vertex_reused << "\n"
     << "  },\n";
  // Diagnosis: roofline placement + cycle-stack bottleneck attribution
  // (docs/DIAGNOSIS.md). Per-window stack components each sum to that
  // window's total; the aggregate stack sums to cycles.total.
  os << "  \"diagnosis\": {\n    \"roofline\": ";
  obs::analyze::write_roofline_json(os, diagnose_roofline(cfg, r), 4);
  os << ",\n    \"cycle_stack\": {\n      \"aggregate\": ";
  obs::analyze::write_cycle_stack_json(os, diagnose_cycle_stack(r), 6);
  os << ",\n      \"windows\": [";
  const auto window_stacks = diagnose_window_stacks(r);
  for (std::size_t i = 0; i < window_stacks.size(); ++i) {
    os << (i ? ", " : "");
    obs::analyze::write_cycle_stack_json(os, window_stacks[i], 8);
  }
  os << "]\n    },\n    \"memory\": ";
  obs::analyze::write_memory_diagnosis_json(os, diagnose_memory(mem));
  os << "\n  },\n"
     << "  \"windows\": " << r.windows << "\n"
     << "}\n";
}

}  // namespace tagnn
