// Tracked-allocation layer (src/obs/mem/): scope nesting and per-thread
// isolation, exact free attribution across container moves, high-water
// semantics, domain accounting, a TSan-facing concurrent stress, the
// tagnn.mem.v1 document, and the scale-projection fit. Every test
// measures *deltas* against the process-global registry so the suite
// stays order-independent; the leak invariants double as ASan fodder.
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generator.hpp"
#include "obs/analyze/jparse.hpp"
#include "obs/analyze/memfit.hpp"
#include "obs/jsonv.hpp"
#include "obs/mem/memtrack.hpp"

namespace mem = tagnn::obs::mem;
namespace analyze = tagnn::obs::analyze;
using mem::MemRegistry;
using mem::MemScope;
using mem::Subsystem;

namespace {

std::uint64_t live(Subsystem s) {
  return MemRegistry::global().subsystem_stats(s).live_bytes;
}

std::uint64_t high_water(Subsystem s) {
  return MemRegistry::global().subsystem_stats(s).high_water_bytes;
}

}  // namespace

// ---------------------------------------------------------------------------
// Names and basic charging
// ---------------------------------------------------------------------------

TEST(MemTrack, SubsystemNamesAreStableAndUnique) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < mem::kNumSubsystems; ++i) {
    const char* n = mem::subsystem_name(static_cast<Subsystem>(i));
    ASSERT_NE(n, nullptr);
    EXPECT_FALSE(std::string(n).empty());
    names.emplace_back(n);
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
  EXPECT_EQ(std::string(mem::subsystem_name(Subsystem::kCsr)), "csr");
}

TEST(MemTrack, FixedTagChargesAndReleasesExactly) {
  const std::uint64_t before = live(Subsystem::kCsr);
  {
    auto v = mem::tagged<int>(Subsystem::kCsr);
    v.resize(1000);
    EXPECT_GE(live(Subsystem::kCsr), before + 1000 * sizeof(int));
  }
  EXPECT_EQ(live(Subsystem::kCsr), before);
}

TEST(MemTrack, ScopeNestingAttributesInnermostAndUnwinds) {
  const std::uint64_t pma0 = live(Subsystem::kPma);
  const std::uint64_t delta0 = live(Subsystem::kDelta);
  EXPECT_EQ(mem::current_scope().sub, Subsystem::kUntagged);
  {
    MemScope outer(Subsystem::kPma);
    EXPECT_EQ(mem::current_scope().sub, Subsystem::kPma);
    mem::vec<char> a;  // scope-preferred default allocator
    a.resize(4096);
    EXPECT_GE(live(Subsystem::kPma), pma0 + 4096);
    {
      MemScope inner(Subsystem::kDelta);
      EXPECT_EQ(mem::current_scope().sub, Subsystem::kDelta);
      mem::vec<char> b;
      b.resize(2048);
      EXPECT_GE(live(Subsystem::kDelta), delta0 + 2048);
      // `a` grew under the outer scope; its bytes stayed on pma.
      EXPECT_GE(live(Subsystem::kPma), pma0 + 4096);
    }
    // Inner scope unwound: attribution reverts to the outer tag.
    EXPECT_EQ(mem::current_scope().sub, Subsystem::kPma);
  }
  EXPECT_EQ(mem::current_scope().sub, Subsystem::kUntagged);
  EXPECT_EQ(live(Subsystem::kPma), pma0);
  EXPECT_EQ(live(Subsystem::kDelta), delta0);
}

TEST(MemTrack, ScopesAreThreadLocal) {
  MemScope scope(Subsystem::kServe);
  Subsystem seen = Subsystem::kServe;
  std::thread t([&] { seen = mem::current_scope().sub; });
  t.join();
  // The spawned thread never saw this thread's scope.
  EXPECT_EQ(seen, Subsystem::kUntagged);
  EXPECT_EQ(mem::current_scope().sub, Subsystem::kServe);
}

TEST(MemTrack, FreeAttributionSurvivesContainerMove) {
  const std::uint64_t ocsr0 = live(Subsystem::kOcsr);
  const std::uint64_t tensor0 = live(Subsystem::kTensor);
  {
    mem::vec<int> dst = mem::tagged<int>(Subsystem::kTensor);
    {
      auto src = mem::tagged<int>(Subsystem::kOcsr);
      src.resize(512);
      dst = std::move(src);  // always-equal allocators: buffer steal
    }
    // The buffer is alive inside `dst` but its bytes were charged at
    // allocation time: still on ocsr, nothing on tensor.
    EXPECT_GE(live(Subsystem::kOcsr), ocsr0 + 512 * sizeof(int));
    EXPECT_EQ(live(Subsystem::kTensor), tensor0);
  }
  // Freed from `dst`, credited back to the charging subsystem.
  EXPECT_EQ(live(Subsystem::kOcsr), ocsr0);
  EXPECT_EQ(live(Subsystem::kTensor), tensor0);
}

// ---------------------------------------------------------------------------
// High-water marks
// ---------------------------------------------------------------------------

TEST(MemTrack, HighWaterIsMonotoneUntilRearmed) {
  auto& reg = MemRegistry::global();
  const std::uint64_t feat0 = live(Subsystem::kFeatures);
  {
    auto v = mem::tagged<char>(Subsystem::kFeatures);
    v.resize(1 << 16);
    const std::uint64_t peak = high_water(Subsystem::kFeatures);
    EXPECT_GE(peak, feat0 + (1 << 16));
    v.resize(16);
    v.shrink_to_fit();
    // Shrinking never lowers the mark.
    EXPECT_GE(high_water(Subsystem::kFeatures), peak);
  }
  reg.reset_high_water();
  // Re-armed at the current live value: the old peak is gone...
  EXPECT_EQ(high_water(Subsystem::kFeatures), live(Subsystem::kFeatures));
  {
    auto v = mem::tagged<char>(Subsystem::kFeatures);
    v.resize(1 << 12);
    // ...and a smaller new peak registers against the fresh baseline.
    EXPECT_GE(high_water(Subsystem::kFeatures), feat0 + (1 << 12));
  }
}

// ---------------------------------------------------------------------------
// Domains
// ---------------------------------------------------------------------------

TEST(MemTrack, DomainAccountingFollowsTheScope) {
  auto& reg = MemRegistry::global();
  const mem::DomainId dom = reg.domain("test:mem-domain");
  ASSERT_NE(dom, mem::kNoDomain);
  // Find-or-create: the same name resolves to the same slot.
  EXPECT_EQ(reg.domain("test:mem-domain"), dom);

  const std::uint64_t before = reg.snapshot().domains.at(dom).live_bytes;
  {
    MemScope scope(Subsystem::kServe, dom);
    mem::vec<char> v;
    v.resize(8192);
    const auto snap = reg.snapshot();
    EXPECT_EQ(snap.domains.at(dom).name, "test:mem-domain");
    EXPECT_GE(snap.domains.at(dom).live_bytes, before + 8192);
  }
  EXPECT_EQ(reg.snapshot().domains.at(dom).live_bytes, before);
}

// ---------------------------------------------------------------------------
// Leak invariant + concurrent stress (ASan and TSan do the deep checks)
// ---------------------------------------------------------------------------

TEST(MemTrack, LeakInvariantAcrossMixedChurn) {
  const auto totals0 = MemRegistry::global().snapshot();
  {
    std::vector<mem::vec<int>> pool;
    MemScope scope(Subsystem::kTensor);
    for (int i = 0; i < 64; ++i) {
      auto v = mem::tagged<int>(i % 2 == 0 ? Subsystem::kCsr
                                           : Subsystem::kPma);
      v.resize(static_cast<std::size_t>(1) << (i % 10));
      pool.push_back(std::move(v));
      if (i % 3 == 0 && !pool.empty()) pool.erase(pool.begin());
    }
  }
  const auto totals1 = MemRegistry::global().snapshot();
  EXPECT_EQ(totals1.total_live_bytes(), totals0.total_live_bytes());
  // Every allocation the churn made was matched by a free.
  EXPECT_EQ(totals1.total_allocs() - totals0.total_allocs(),
            totals1.total_frees() - totals0.total_frees());
}

TEST(MemTrack, ConcurrentScopesAndChurnAreRaceFree) {
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  const auto totals0 = MemRegistry::global().snapshot();
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kIters; ++i) {
        const auto sub = static_cast<Subsystem>(
            1 + (t + i) % (static_cast<int>(mem::kNumSubsystems) - 2));
        MemScope scope(sub);
        mem::vec<std::uint64_t> v;
        v.resize(16 + static_cast<std::size_t>(i % 61));
        if (i % 16 == 0) {
          // Reader racing the writers: must be TSan-clean.
          (void)MemRegistry::global().snapshot();
        }
        auto moved = std::move(v);
        moved.clear();
        moved.shrink_to_fit();
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto totals1 = MemRegistry::global().snapshot();
  EXPECT_EQ(totals1.total_live_bytes(), totals0.total_live_bytes());
}

// ---------------------------------------------------------------------------
// tagnn.mem.v1 document
// ---------------------------------------------------------------------------

TEST(MemJson, GoldenDocumentRoundTrips) {
  // Hand-built snapshot so the document is byte-deterministic.
  mem::MemSnapshot snap;
  auto& csr = snap.subsystems[static_cast<std::size_t>(Subsystem::kCsr)];
  csr.live_bytes = 1000;
  csr.high_water_bytes = 1500;
  csr.allocs = 3;
  csr.frees = 1;
  csr.alloc_bytes = 2000;
  csr.freed_bytes = 1000;
  snap.domains.resize(2);
  snap.domains[1] = {"tenant:t0", 256, 512};
  mem::ProcessMemStats proc;
  proc.ok = true;
  proc.rss_bytes = 4096;
  proc.maxrss_bytes = 8192;
  proc.vsize_bytes = 1 << 20;

  std::ostringstream os;
  mem::write_memory_json(os, snap, proc);
  const std::string doc = os.str();

  std::string err;
  EXPECT_TRUE(tagnn::obs::json_valid(doc, &err)) << err << "\n" << doc;
  EXPECT_NE(doc.find("\"schema\": \"tagnn.mem.v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"process\": {\"rss_bytes\": 4096, "
                     "\"maxrss_bytes\": 8192, \"vsize_bytes\": 1048576}"),
            std::string::npos);
  EXPECT_NE(doc.find("\"csr\": {\"live_bytes\": 1000, "
                     "\"high_water_bytes\": 1500, \"allocs\": 3, "
                     "\"frees\": 1, \"alloc_bytes\": 2000, "
                     "\"freed_bytes\": 1000}"),
            std::string::npos);
  EXPECT_NE(doc.find("\"tenant:t0\": {\"live_bytes\": 256, "
                     "\"high_water_bytes\": 512}"),
            std::string::npos);
  // Every subsystem appears, keyed by its stable name.
  for (std::size_t i = 0; i < mem::kNumSubsystems; ++i) {
    const std::string key =
        std::string("\"") + mem::subsystem_name(static_cast<Subsystem>(i)) +
        "\": {";
    EXPECT_NE(doc.find(key), std::string::npos) << key;
  }
}

TEST(MemJson, LiveRegistryDocumentValidates) {
  auto v = mem::tagged<int>(Subsystem::kCsr);
  v.resize(100);
  std::ostringstream os;
  mem::write_memory_json(os, MemRegistry::global().snapshot(),
                         mem::read_process_mem());
  std::string err;
  EXPECT_TRUE(tagnn::obs::json_valid(os.str(), &err)) << err;
}

TEST(MemProcess, StatsAreReadableAndOrdered) {
  const mem::ProcessMemStats s = mem::read_process_mem();
  ASSERT_TRUE(s.ok);
  EXPECT_GT(s.rss_bytes, 0u);
  EXPECT_GT(s.maxrss_bytes, 0u);
  EXPECT_GE(s.vsize_bytes, s.rss_bytes);
}

// ---------------------------------------------------------------------------
// Scale projection (memfit)
// ---------------------------------------------------------------------------

TEST(MemFit, LinearProjectionNamesTheBiggestStructure) {
  analyze::MemFitInput in;
  in.vertices = 1000;
  in.edges = 10000;
  in.snapshots = 4;
  in.scale = 0.1;
  in.target_scale = 1.0;
  in.budget_bytes = 1 << 20;  // 1 MiB: force over_budget
  auto& csr = in.snapshot.subsystems[static_cast<std::size_t>(Subsystem::kCsr)];
  csr.high_water_bytes = 400000;  // 40 B/edge -> 4 MB projected
  auto& feat =
      in.snapshot.subsystems[static_cast<std::size_t>(Subsystem::kFeatures)];
  feat.high_water_bytes = 100000;  // 100 B/vertex -> 1 MB projected

  const analyze::MemDiagnosis d = analyze::diagnose_memory(in);
  ASSERT_TRUE(d.has_fit);
  EXPECT_EQ(d.observed_total_bytes, 500000u);
  // Linear in target_scale/scale = 10x.
  EXPECT_EQ(d.projected_total_bytes, 5000000u);
  EXPECT_TRUE(d.over_budget);
  EXPECT_EQ(d.first_over_budget, "csr");
  ASSERT_GE(d.fits.size(), 2u);
  // Descending by projected bytes: csr (edges basis) leads.
  EXPECT_EQ(d.fits[0].subsystem, "csr");
  EXPECT_EQ(d.fits[0].basis, "edges");
  EXPECT_DOUBLE_EQ(d.fits[0].bytes_per_basis, 40.0);
  const auto feat_it =
      std::find_if(d.fits.begin(), d.fits.end(),
                   [](const auto& f) { return f.subsystem == "features"; });
  ASSERT_NE(feat_it, d.fits.end());
  EXPECT_EQ(feat_it->basis, "vertices");
  EXPECT_DOUBLE_EQ(feat_it->bytes_per_basis, 100.0);

  std::ostringstream os;
  analyze::write_memory_diagnosis_json(os, d);
  std::string err;
  EXPECT_TRUE(tagnn::obs::json_valid(os.str(), &err)) << err;
  EXPECT_NE(os.str().find("\"first_over_budget\": \"csr\""),
            std::string::npos);
}

TEST(MemFit, JsonEscapesItsStrings) {
  // tagnn_report render re-emits these strings from its input file.
  analyze::MemDiagnosis d;
  d.first_over_budget = "a\"b";
  d.fits.push_back({"c\\d", 1, "e\nf", 1.0, 1});
  std::ostringstream os;
  analyze::write_memory_diagnosis_json(os, d);
  std::string err;
  EXPECT_TRUE(tagnn::obs::json_valid(os.str(), &err)) << err;
}

TEST(MemFit, JsonWritesEveryDoubleAsANumber) {
  // tagnn_report render re-emits these doubles: a non-finite one must
  // become null, not `inf`, and the others must keep every digit.
  analyze::MemDiagnosis d;
  d.bytes_per_vertex = std::numeric_limits<double>::infinity();
  d.bytes_per_edge = 1.0 / 3.0;  // needs 17 significant digits
  std::ostringstream os;
  analyze::write_memory_diagnosis_json(os, d);
  analyze::JsonValue j;
  std::string err;
  ASSERT_TRUE(analyze::json_parse(os.str(), &j, &err)) << err << os.str();
  ASSERT_NE(j.find("bytes_per_vertex"), nullptr);
  EXPECT_TRUE(j.find("bytes_per_vertex")->is_null());
  EXPECT_EQ(j.number_at("bytes_per_edge"), 1.0 / 3.0);
}

TEST(MemFit, UnknownShapeYieldsNoFit) {
  const analyze::MemDiagnosis d = analyze::diagnose_memory({});
  EXPECT_FALSE(d.has_fit);
  std::ostringstream os;
  analyze::write_memory_diagnosis_json(os, d);
  std::string err;
  EXPECT_TRUE(tagnn::obs::json_valid(os.str(), &err)) << err;
}

TEST(MemFit, TwoGeneratedSizesProjectToTheSameFullScaleFootprint) {
  // End-to-end sanity on real tracked storage: generate the same
  // synthetic workload at two sizes and project both to the common
  // full-scale shape. The graph's storage is ~linear in its shape, so
  // the two projections must land in the same ballpark — this is the
  // fit the perf-doctor report prints at TAGNN_SCALE=1.
  auto project = [](double scale) {
    tagnn::GeneratorConfig cfg;
    cfg.num_vertices = static_cast<tagnn::VertexId>(4000 * scale);
    cfg.target_edges = static_cast<std::size_t>(40000 * scale);
    cfg.feature_dim = 8;
    cfg.num_snapshots = 3;
    MemRegistry::global().reset_high_water();
    const tagnn::DynamicGraph g = tagnn::generate_dynamic_graph(cfg);
    analyze::MemFitInput in;
    in.vertices = g.num_vertices();
    for (tagnn::SnapshotId t = 0; t < g.num_snapshots(); ++t) {
      in.edges += g.snapshot(t).graph.num_edges();
    }
    in.snapshots = g.num_snapshots();
    in.scale = scale;
    in.target_scale = 1.0;
    in.snapshot = MemRegistry::global().snapshot();
    const analyze::MemDiagnosis d = analyze::diagnose_memory(in);
    EXPECT_TRUE(d.has_fit);
    EXPECT_GT(d.projected_total_bytes, 0u);
    return d;
  };

  const analyze::MemDiagnosis small = project(0.25);
  const analyze::MemDiagnosis large = project(0.5);
  // Same full-scale target from two observation points: within 3x of
  // each other (generator churn and baseline live bytes add noise, but
  // a broken fit is off by the scale ratio or worse).
  const double ratio =
      static_cast<double>(small.projected_total_bytes) /
      static_cast<double>(large.projected_total_bytes);
  EXPECT_GT(ratio, 1.0 / 3.0) << small.projected_total_bytes << " vs "
                              << large.projected_total_bytes;
  EXPECT_LT(ratio, 3.0) << small.projected_total_bytes << " vs "
                        << large.projected_total_bytes;
}
