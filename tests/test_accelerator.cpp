// Tests for the TaGNN accelerator simulator: functional equivalence,
// cycle-model sanity, ablation ordering, dispatcher, MSDL, resources.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>

#include "baselines/accelerators.hpp"
#include "baselines/platform.hpp"
#include "graph/datasets.hpp"
#include "tagnn/accelerator.hpp"
#include "tagnn/dispatcher.hpp"
#include "tagnn/msdl.hpp"
#include "tagnn/resources.hpp"
#include "tensor/ops.hpp"

namespace tagnn {
namespace {

struct Scenario {
  DynamicGraph g;
  DgnnWeights w;
};

Scenario make(const std::string& model = "T-GCN",
              const std::string& dataset = "GT", double scale = 0.15,
              std::size_t snaps = 6) {
  DynamicGraph g = datasets::load(dataset, scale, snaps);
  DgnnWeights w =
      DgnnWeights::init(ModelConfig::preset(model), g.feature_dim(), 99);
  return {std::move(g), std::move(w)};
}

TEST(Dispatcher, BalancedBeatsNaiveOnSkewedTasks) {
  // Heavy tasks clustered at the front: static range partitioning dumps
  // them all on the first DCU.
  std::vector<DispatchTask> tasks;
  for (VertexId v = 0; v < 64; ++v) {
    tasks.push_back({v, v < 8 ? Cycle{100} : Cycle{1}});
  }
  const DispatchResult b = dispatch_tasks(tasks, 4, true);
  const DispatchResult n = dispatch_tasks(tasks, 4, false);
  EXPECT_LE(b.makespan, n.makespan);
  EXPECT_GE(b.utilization, n.utilization);
  EXPECT_EQ(b.total_work, n.total_work);
}

TEST(Dispatcher, MakespanLowerBound) {
  std::vector<DispatchTask> tasks{{0, 10}, {1, 10}, {2, 10}, {3, 10}};
  const DispatchResult r = dispatch_tasks(tasks, 4, true);
  EXPECT_EQ(r.makespan, 10u);
  EXPECT_DOUBLE_EQ(r.utilization, 1.0);
}

TEST(Dispatcher, EmptyTasksNoCrash) {
  const DispatchResult r = dispatch_tasks({}, 8, true);
  EXPECT_EQ(r.makespan, 0u);
}

TEST(Dispatcher, SingleDcuSerializes) {
  std::vector<DispatchTask> tasks{{0, 5}, {1, 7}};
  const DispatchResult r = dispatch_tasks(tasks, 1, true);
  EXPECT_EQ(r.makespan, 12u);
}

TEST(Msdl, ProducesSameClassificationAsLibrary) {
  // MSDL models the plan the engine executes; that plan's artefacts are
  // the library's own.
  const Scenario s = make();
  const Window w{0, 4};
  const WindowPlan plan = build_window_plan(s.g, w, /*reuse=*/true, 2);
  const WindowClassification cls = classify_window(s.g, w);
  EXPECT_EQ(plan.cls.clazz, cls.clazz);
  EXPECT_EQ(plan.unchanged, unchanged_per_layer(s.g, w, cls, 2));
  EXPECT_EQ(plan.sub.vertices,
            extract_affected_subgraph(s.g, w, cls).vertices);
  for (std::size_t l = 0; l < 2; ++l) {
    // The row lists split the vertices by the mask, in ascending order.
    ASSERT_EQ(plan.changed_rows[l].size() + plan.unchanged_rows[l].size(),
              s.g.num_vertices());
    for (const VertexId v : plan.changed_rows[l]) {
      EXPECT_FALSE(plan.unchanged[l][v]);
    }
    EXPECT_TRUE(std::is_sorted(plan.changed_rows[l].begin(),
                               plan.changed_rows[l].end()));
  }
  std::size_t outside = 0;
  for (VertexId v = 0; v < s.g.num_vertices(); ++v) {
    if (!plan.ocsr.has_feature(v, w.start)) ++outside;
  }
  EXPECT_EQ(plan.outside_rows, outside);

  const MsdlResult r = Msdl(TagnnConfig{}).process_window(s.g, plan);
  EXPECT_GT(r.classification_cycles, 0u);
  EXPECT_GT(r.traversal_cycles, 0u);
  EXPECT_GT(r.dram_bytes, 0.0);
}

TEST(Msdl, CsrFormatLoadsMoreBytesThanOcsr) {
  const Scenario s = make();
  TagnnConfig ocsr_cfg;
  TagnnConfig csr_cfg;
  csr_cfg.format = StorageFormat::kCsr;
  const WindowPlan plan = build_window_plan(s.g, {0, 4}, false, 0);
  const MsdlResult a = Msdl(ocsr_cfg).process_window(s.g, plan);
  const MsdlResult b = Msdl(csr_cfg).process_window(s.g, plan);
  EXPECT_LT(a.dram_bytes, b.dram_bytes);
  EXPECT_GT(a.sequential_fraction, b.sequential_fraction);
}

TEST(Accelerator, FunctionalOutputMatchesConcurrentEngine) {
  const Scenario s = make();
  TagnnConfig cfg;
  const AccelResult ar = TagnnAccelerator(cfg).run(s.g, s.w, true);

  EngineOptions eng;
  eng.window_size = cfg.window;
  eng.thresholds = cfg.thresholds;
  const EngineResult er = ConcurrentEngine(eng).run(s.g, s.w);
  ASSERT_EQ(ar.functional.outputs.size(), er.outputs.size());
  for (std::size_t t = 0; t < er.outputs.size(); ++t) {
    EXPECT_EQ(max_abs_diff(ar.functional.outputs[t], er.outputs[t]), 0.0f);
  }
}

TEST(Accelerator, ExactModeMatchesReference) {
  const Scenario s = make("GC-LSTM");
  TagnnConfig cfg;
  cfg.enable_adsc = false;  // no approximation
  const AccelResult ar = TagnnAccelerator(cfg).run(s.g, s.w, true);
  const EngineResult ref = ReferenceEngine().run(s.g, s.w);
  EXPECT_EQ(max_abs_diff(ar.functional.final_hidden, ref.final_hidden),
            0.0f);
}

TEST(Accelerator, CyclesAndEnergyPopulated) {
  const Scenario s = make();
  const AccelResult r = TagnnAccelerator().run(s.g, s.w);
  EXPECT_GT(r.cycles.total, 0u);
  EXPECT_GT(r.cycles.gnn, 0u);
  EXPECT_GT(r.cycles.rnn, 0u);
  EXPECT_GT(r.cycles.memory, 0u);
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.energy.total(), 0.0);
  EXPECT_GT(r.dram_bytes, 0.0);
  EXPECT_GT(r.dcu_utilization, 0.3);
  EXPECT_LE(r.dcu_utilization, 1.0);
  EXPECT_EQ(r.windows, 2u);  // 6 snapshots / window 4 -> 2 windows
}

TEST(Accelerator, OadlAblationSlower) {
  const Scenario s = make();
  TagnnConfig with;
  TagnnConfig without;
  without.enable_oadl = false;
  const AccelResult a = TagnnAccelerator(with).run(s.g, s.w);
  const AccelResult b = TagnnAccelerator(without).run(s.g, s.w);
  EXPECT_LT(a.seconds, b.seconds);
  EXPECT_LT(a.dram_bytes, b.dram_bytes);
}

TEST(Accelerator, AdscAblationSlower) {
  const Scenario s = make();
  TagnnConfig with;
  TagnnConfig without;
  without.enable_adsc = false;
  const AccelResult a = TagnnAccelerator(with).run(s.g, s.w);
  const AccelResult b = TagnnAccelerator(without).run(s.g, s.w);
  EXPECT_LT(a.cycles.rnn, b.cycles.rnn);
  EXPECT_LE(a.seconds, b.seconds);
}

TEST(Accelerator, NaiveDispatchSlower) {
  const Scenario s = make("T-GCN", "HP");  // power-law hubs -> skew
  TagnnConfig balanced;
  TagnnConfig naive;
  naive.balanced_dispatch = false;
  const AccelResult a = TagnnAccelerator(balanced).run(s.g, s.w);
  const AccelResult b = TagnnAccelerator(naive).run(s.g, s.w);
  EXPECT_LE(a.cycles.gnn, b.cycles.gnn);
}

TEST(Accelerator, MoreDcusNotSlower) {
  const Scenario s = make();
  TagnnConfig few;
  few.num_dcus = 2;
  TagnnConfig many;
  many.num_dcus = 16;
  const AccelResult a = TagnnAccelerator(few).run(s.g, s.w);
  const AccelResult b = TagnnAccelerator(many).run(s.g, s.w);
  EXPECT_GE(a.cycles.gnn, b.cycles.gnn);
}

TEST(Accelerator, FormatAffectsMemoryCycles) {
  const Scenario s = make();
  TagnnConfig ocsr;
  TagnnConfig csr;
  csr.format = StorageFormat::kCsr;
  TagnnConfig pma;
  pma.format = StorageFormat::kPma;
  const AccelResult a = TagnnAccelerator(ocsr).run(s.g, s.w);
  const AccelResult b = TagnnAccelerator(csr).run(s.g, s.w);
  const AccelResult c = TagnnAccelerator(pma).run(s.g, s.w);
  EXPECT_LT(a.cycles.memory, c.cycles.memory);
  EXPECT_LT(c.cycles.memory, b.cycles.memory);
}

// ---------- golden cycle model ----------

// Canonical text of the bulky per-stage and per-window results (doubles
// in hex, so exact); the test pins its FNV-1a hash and prints the text
// on a mismatch.
std::string accel_detail(const AccelResult& r) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const auto* stages :
       {&r.telemetry.classify_stages, &r.telemetry.traverse_stages}) {
    for (const auto& s : *stages) {
      os << s.name << ' ' << s.busy << ' ' << s.stall << '\n';
    }
  }
  for (const AccelWindowRecord& w : r.telemetry.window_records) {
    os << "window " << w.window.start << '+' << w.window.length << " begin "
       << w.begin << " total " << w.total << " msdl " << w.msdl << " gnn "
       << w.gnn << " rnn " << w.rnn << " memory " << w.memory << " dram "
       << w.dram_bytes << " affected " << w.affected_vertices << '\n';
  }
  return os.str();
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct AccelGolden {
  const char* name;
  const char* model;
  StorageFormat format;
  bool oadl, adsc, balanced, piped, small_buffers;
  AccelCycles cycles;  // msdl, gnn, rnn, memory, total
  double dram_bytes, dcu_utilization, energy;
  std::size_t hbm_transactions, buffer_high_water, overflow_windows;
  std::uint64_t detail;  // fnv1a(accel_detail(result))
};

// Exact cycle-model outputs. A refactor of how the model gets its
// inputs must reproduce every one bit for bit; only a deliberate change
// to the model itself may re-pin them. Every scenario flag is flipped
// at least once. GT x0.15, 6 snapshots (windows of 4 and 2), weight
// seed 99.
const AccelGolden kGolden[] = {
    {"tgcn_default", "T-GCN", StorageFormat::kOcsr,
     true, true, true, true, false,
     {1823, 1417, 3091, 1839, 5637},
     0x1.a6224p+20, 0x1.fad9e14987adap-1, 0x1.afc211273407p-10,
     6, 138744, 0, 0xf1bd8039febfce15ull},
    {"tgcn_csr_serial", "T-GCN", StorageFormat::kCsr,
     true, true, true, false, false,
     {1823, 2368, 3091, 3601, 7000},
     0x1.6628caa77041ep+21, 0x1.fd0a60dd67c8ap-1, 0x1.07d5d0e42962cp-9,
     6, 321464, 0, 0x5045de24d5431509ull},
    {"tgcn_pma_naive", "T-GCN", StorageFormat::kPma,
     true, true, false, true, false,
     {1823, 2513, 3091, 2735, 6334},
     0x1.1bee1206f063ep+21, 0x1.76b44f7574d86p-1, 0x1.e0cb7b4d71befp-10,
     6, 210600, 0, 0xd1fbc12a8945090dull},
    {"tgcn_no_oadl", "T-GCN", StorageFormat::kOcsr,
     false, true, true, true, false,
     {1227, 1608, 3091, 8546, 10752},
     0x1.aed82p+22, 0x1.fc0a3065e3faep-1, 0x1.b9bc8eb037861p-9,
     4, 138744, 0, 0xa65ea0828c202952ull},
    {"tgcn_no_adsc_naive_serial", "T-GCN", StorageFormat::kOcsr,
     true, false, false, false, false,
     {1823, 1797, 4674, 2018, 7831},
     0x1.d050cp+20, 0x1.8faba9f4517cap-1, 0x1.273371f950537p-9,
     6, 138744, 0, 0x37ec92ab8203df15ull},
    {"tgcn_bare", "T-GCN", StorageFormat::kCsr,
     false, false, false, false, false,
     {0, 2015, 4674, 8725, 10606},
     0x1.b963cp+22, 0x1.956c5f0801043p-1, 0x1.b74500e676effp-9,
     4, 321464, 0, 0x58feffe83fb37579ull},
    {"tgcn_small_buffers", "T-GCN", StorageFormat::kOcsr,
     true, true, true, true, true,
     {1823, 1417, 3091, 1889, 5654},
     0x1.ac01cp+20, 0x1.fad9e14987adap-1, 0x1.b0f585c8de084p-10,
     7, 65536, 2, 0xdb57733416267fbcull},
    {"cdgcn_default", "CD-GCN", StorageFormat::kOcsr,
     true, true, true, true, false,
     {1823, 2555, 2497, 2675, 5774},
     0x1.42636p+21, 0x1.fbd11bc113bd1p-1, 0x1.caca165de3052p-10,
     6, 138744, 0, 0x3e4d36e25e0a21cfull},
    {"cdgcn_csr_naive", "CD-GCN", StorageFormat::kCsr,
     true, true, false, true, false,
     {1823, 6552, 2497, 6101, 10968},
     0x1.304930a49e744p+22, 0x1.5fb63b63b63b6p-1, 0x1.9b8d8004bfec3p-9,
     6, 321464, 0, 0xdb6fe2a48753ba0bull},
    {"cdgcn_pma_serial", "CD-GCN", StorageFormat::kPma,
     true, true, true, false, false,
     {1823, 3466, 2497, 4413, 7814},
     0x1.cfc3e76aa1416p+21, 0x1.fbe6978fbb752p-1, 0x1.2d0060a796987p-9,
     6, 210600, 0, 0xb36c34a59594affaull},
    {"cdgcn_no_oadl_serial", "CD-GCN", StorageFormat::kPma,
     false, true, true, false, false,
     {1227, 2754, 2497, 13961, 16456},
     0x1.5f66p+23, 0x1.fc3f35ba78195p-1, 0x1.53e5e52921794p-8,
     4, 210600, 0, 0x8715abd84573bec9ull},
    {"cdgcn_no_adsc", "CD-GCN", StorageFormat::kOcsr,
     true, false, true, true, false,
     {1823, 2555, 6232, 3254, 9671},
     0x1.86c2ep+21, 0x1.fbd11bc113bd1p-1, 0x1.74ecf3dbaf9ebp-9,
     6, 138744, 0, 0x8621ee80df9cb252ull},
    {"cdgcn_small_buffers_naive", "CD-GCN", StorageFormat::kPma,
     true, true, false, true, true,
     {1823, 4693, 2497, 4912, 8692},
     0x1.ff94a76aa1416p+21, 0x1.771bc3fee8b52p-1, 0x1.4bcae018e614fp-9,
     8, 65536, 2, 0x825425233d68bea7ull},
};

class AcceleratorGolden : public ::testing::TestWithParam<AccelGolden> {};

TEST_P(AcceleratorGolden, MatchesPinnedCycleModel) {
  const AccelGolden& e = GetParam();
  static const DynamicGraph g = datasets::load("GT", 0.15, 6);
  const DgnnWeights w =
      DgnnWeights::init(ModelConfig::preset(e.model), g.feature_dim(), 99);
  TagnnConfig cfg;
  cfg.format = e.format;
  cfg.enable_oadl = e.oadl;
  cfg.enable_adsc = e.adsc;
  cfg.balanced_dispatch = e.balanced;
  cfg.pipeline_windows = e.piped;
  if (e.small_buffers) {  // forces spill traffic and buffer overflows
    cfg.feature_buffer_bytes = 64u << 10;
    cfg.ocsr_table_bytes = 32u << 10;
    cfg.structure_memory_bytes = 16u << 10;
  }
  const AccelResult r = TagnnAccelerator(cfg).run(g, w);
  EXPECT_EQ(r.cycles.msdl, e.cycles.msdl);
  EXPECT_EQ(r.cycles.gnn, e.cycles.gnn);
  EXPECT_EQ(r.cycles.rnn, e.cycles.rnn);
  EXPECT_EQ(r.cycles.memory, e.cycles.memory);
  EXPECT_EQ(r.cycles.total, e.cycles.total);
  EXPECT_EQ(r.dram_bytes, e.dram_bytes);
  EXPECT_EQ(r.dcu_utilization, e.dcu_utilization);
  EXPECT_EQ(r.energy.total(), e.energy);
  EXPECT_EQ(r.telemetry.hbm_transactions, e.hbm_transactions);
  EXPECT_EQ(r.telemetry.feature_buffer_high_water, e.buffer_high_water);
  EXPECT_EQ(r.telemetry.feature_buffer_overflow_windows,
            e.overflow_windows);
  const std::string detail = accel_detail(r);
  EXPECT_EQ(fnv1a(detail), e.detail) << detail;
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, AcceleratorGolden, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<AccelGolden>& info) {
      return std::string(info.param.name);
    });

TEST(Resources, AllModelsFitTheU280) {
  TagnnConfig cfg;
  std::size_t count = 0;
  const char* const* names = ModelConfig::preset_names(&count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto u =
        estimate_resources(cfg, ModelConfig::preset(names[i]));
    EXPECT_TRUE(u.fits()) << names[i];
    EXPECT_GT(u.dsp, 0.5) << names[i];   // the MAC array dominates DSPs
    EXPECT_GT(u.uram, 0.5) << names[i];  // feature stores dominate URAM
  }
}

TEST(Resources, GcLstmUsesMostResources) {
  // Table 3: GC-LSTM has the highest utilisation across the board.
  TagnnConfig cfg;
  const auto gc = estimate_resources(cfg, ModelConfig::preset("GC-LSTM"));
  const auto t = estimate_resources(cfg, ModelConfig::preset("T-GCN"));
  EXPECT_GT(gc.dsp, t.dsp);
  EXPECT_GT(gc.lut, t.lut);
  EXPECT_GT(gc.bram, t.bram);
  EXPECT_GT(gc.uram, t.uram);
}

TEST(Resources, ScalesWithMacCount) {
  TagnnConfig small;
  small.num_dcus = 4;
  TagnnConfig big;
  big.num_dcus = 16;
  const auto a = estimate_resources(small, ModelConfig::preset("T-GCN"));
  const auto b = estimate_resources(big, ModelConfig::preset("T-GCN"));
  EXPECT_LT(a.dsp, b.dsp);
}

TEST(BaselineAccel, PresetsDiffer) {
  const auto booster =
      BaselineAccelConfig::preset(BaselineAccelKind::kDgnnBooster);
  const auto edgcn = BaselineAccelConfig::preset(BaselineAccelKind::kEdgcn);
  const auto camb =
      BaselineAccelConfig::preset(BaselineAccelKind::kCambriconDg);
  EXPECT_EQ(booster.name, "DGNN-Booster");
  EXPECT_LT(booster.clock_mhz, edgcn.clock_mhz);
  EXPECT_LT(edgcn.compute_efficiency, camb.compute_efficiency);
}

TEST(BaselineAccel, OrderingMatchesPaper) {
  // Paper Fig. 10: TaGNN > Cambricon-DG > E-DGCN > DGNN-Booster.
  const Scenario s = make("T-GCN", "GT", 0.2, 6);
  const double tagnn = TagnnAccelerator().run(s.g, s.w).seconds;
  const double booster =
      BaselineAccelerator(
          BaselineAccelConfig::preset(BaselineAccelKind::kDgnnBooster))
          .run(s.g, s.w)
          .seconds;
  const double edgcn =
      BaselineAccelerator(
          BaselineAccelConfig::preset(BaselineAccelKind::kEdgcn))
          .run(s.g, s.w)
          .seconds;
  const double camb =
      BaselineAccelerator(
          BaselineAccelConfig::preset(BaselineAccelKind::kCambriconDg))
          .run(s.g, s.w)
          .seconds;
  EXPECT_LT(tagnn, camb);
  EXPECT_LT(camb, edgcn);
  EXPECT_LT(edgcn, booster);
}

TEST(Platforms, CpuSlowestGpuTiersOrdered) {
  const Scenario s = make("T-GCN", "GT", 0.2, 6);
  EngineOptions opts;
  opts.store_outputs = false;
  const OpCounts c = ReferenceEngine(opts).run(s.g, s.w).total_counts();
  const double cpu = platforms::dgl_cpu().seconds(c);
  const double pygt = platforms::pygt().seconds(c);
  const double cacheg = platforms::cacheg().seconds(c);
  const double esdg = platforms::esdg().seconds(c);
  const double pipad = platforms::pipad().seconds(c);
  EXPECT_GT(cpu, pygt);
  EXPECT_GT(pygt, cacheg);
  EXPECT_GT(cacheg, esdg);
  EXPECT_GT(esdg, pipad);
}

TEST(Platforms, MemoryDominatesPiPAD) {
  // Fig. 2(d): memory access ~70 % of PiPAD runtime.
  const Scenario s = make("T-GCN", "GT", 0.2, 6);
  EngineOptions opts;
  opts.store_outputs = false;
  const OpCounts c = ReferenceEngine(opts).run(s.g, s.w).total_counts();
  const PlatformModel p = platforms::pipad();
  EXPECT_GT(p.memory_seconds(c), p.compute_seconds(c));
}

}  // namespace
}  // namespace tagnn
