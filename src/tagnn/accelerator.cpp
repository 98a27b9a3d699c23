#include "tagnn/accelerator.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "nn/rnn.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/buffer.hpp"
#include "tagnn/dispatcher.hpp"
#include "graph/formats.hpp"
#include "tagnn/msdl.hpp"

namespace tagnn {
namespace {

Cycle ceil_div(double a, double b) {
  return static_cast<Cycle>(std::ceil(a / b));
}

// Sums per-stage busy/stall across windows (stage lists are identical
// every window, so index-wise accumulation is safe).
void accumulate_stages(std::vector<PipelineSim::StageStats>* into,
                       const std::vector<PipelineSim::StageStats>& s) {
  if (into->empty()) {
    *into = s;
    return;
  }
  TAGNN_DCHECK(into->size() == s.size());
  for (std::size_t i = 0; i < s.size() && i < into->size(); ++i) {
    (*into)[i].busy += s[i].busy;
    (*into)[i].stall += s[i].stall;
  }
}

// Simulated-timeline track handles on the active trace collector (null
// when tracing is off). One track per dataflow unit under the sim pid.
struct SimTracks {
  obs::TraceCollector* tc = nullptr;
  int msdl = 0, gnn = 0, rnn = 0, memory = 0;

  static SimTracks open() {
    SimTracks t;
    if (!obs::telemetry_enabled()) return t;
    t.tc = obs::TraceCollector::active();
    if (!t.tc) return t;
    t.msdl = t.tc->sim_track("accel.msdl");
    t.gnn = t.tc->sim_track("accel.gnn");
    t.rnn = t.tc->sim_track("accel.rnn");
    t.memory = t.tc->sim_track("accel.memory");
    return t;
  }
};

// Dataflow units overlap imperfectly: the intra-snapshot GNN -> RNN
// dependency, batch-boundary barriers, and buffer turn-arounds expose a
// share of the non-bottleneck units' time (section 2.2 motivates this;
// TaGNN reduces but does not eliminate it).
constexpr double kExposedFraction = 0.35;

Cycle overlap(std::initializer_list<Cycle> parts) {
  Cycle mx = 0, sum = 0;
  for (Cycle p : parts) {
    mx = std::max(mx, p);
    sum += p;
  }
  return mx + static_cast<Cycle>(kExposedFraction *
                                 static_cast<double>(sum - mx));
}

// Per-window unit cycles and traffic. The plan hook fills in what
// needs only the graph while the engine runs; the count-dependent tail
// (memory traffic, RNN cycles) follows once the engine returns, and the
// timeline pass then assembles the serial or pipelined schedule (the
// pipelined makespan of window i depends on window i+1's MSDL cycles,
// so totals cannot be formed in one pass).
struct WindowSim {
  Window w{};
  Cycle msdl = 0, gnn = 0, rnn = 0;
  Cycle mem_load = 0, mem_gnn = 0, mem_rnn = 0, mem_spill = 0;
  double load_bytes = 0, gnn_bytes = 0, rnn_bytes = 0, spill_bytes = 0;
  double load_sequential = 0;   // burst-friendliness of the load stream
  double gnn_stream_scale = 1;  // storage-format inflation of GNN streams
  std::size_t affected = 0;

  Cycle mem() const { return mem_load + mem_gnn + mem_rnn + mem_spill; }
  double bytes() const {
    return load_bytes + gnn_bytes + rnn_bytes + spill_bytes;
  }
};

}  // namespace

AccelResult TagnnAccelerator::run(const DynamicGraph& g,
                                  const DgnnWeights& weights,
                                  bool store_outputs) const {
  TAGNN_CHECK(cfg_.window >= 1);
  const std::size_t layers = weights.config.gnn_layers;
  const Msdl msdl(cfg_);
  AccelResult res;

  // ---- Pass 1: graph-only modelling of each window plan. ----
  // The engine calls this once per window, in order, on its plan
  // prefetch thread when it pipelines windows, so the modelling overlaps
  // the functional compute; `res` is not touched by anything else until
  // the engine returns.
  std::vector<WindowSim> wins;
  double util_work = 0, util_span = 0;
  std::vector<DispatchTask> pool;  // reused across every (window, layer)
  auto model_plan = [&](const WindowPlan& plan) {
    WindowSim ws;
    ws.w = plan.window();
    ws.affected = plan.sub.size();

    // ---- MSDL: loader pipelines + format-dependent load traffic. ----
    const MsdlResult load = msdl.process_window(g, plan);
    if (cfg_.enable_oadl) {
      ws.msdl = load.total_cycles();
    } else if (cfg_.enable_adsc) {
      // ADSC still needs the classification pass for N_sv.
      ws.msdl = load.classification_cycles;
    }
    ws.load_bytes = load.dram_bytes;
    ws.load_sequential = load.sequential_fraction;
    accumulate_stages(&res.telemetry.classify_stages, load.classify_stages);
    accumulate_stages(&res.telemetry.traverse_stages, load.traverse_stages);

    // ---- GNN: per-layer task pools across all K snapshots. ----
    // The Task Dispatcher pools tasks from *all* snapshots of the
    // window into one degree-balanced (LPT) assignment — that is the
    // multi-snapshot parallelism of the paper. The naive baseline
    // (Fig. 13(a) ablation) dispatches each snapshot separately in
    // arrival order, so per-snapshot tails and hub skew are exposed.
    auto dispatch = [&] {
      const DispatchResult dr =
          dispatch_tasks(pool, cfg_.num_dcus, cfg_.balanced_dispatch);
      ws.gnn += dr.makespan;
      util_work += static_cast<double>(dr.total_work);
      util_span += static_cast<double>(dr.makespan) *
                   static_cast<double>(cfg_.num_dcus);
      pool.clear();
    };
    std::size_t d_in = g.feature_dim();
    for (std::size_t l = 0; l < layers; ++l) {
      const std::size_t d_out = weights.gnn[l].cols();
      const Cycle comb = ceil_div(
          static_cast<double>(d_in) * static_cast<double>(d_out),
          static_cast<double>(cfg_.cpes_per_dcu));
      for (SnapshotId t = ws.w.start; t < ws.w.end(); ++t) {
        const Snapshot& snap = g.snapshot(t);
        auto add_task = [&](VertexId v) {
          if (!snap.present[v]) return;
          const double deg = static_cast<double>(snap.graph.degree(v)) + 1;
          const Cycle agg = ceil_div(
              deg * static_cast<double>(d_in),
              static_cast<double>(cfg_.apes_per_dcu));
          // APE (aggregation) and CPE (combination) are separate units
          // inside a DCU and pipeline back-to-back per vertex.
          Cycle task_cycles = std::max(agg, comb) + 1;
          // Indexing overhead of the storage format: O-CSR rows stream
          // contiguously; a per-snapshot CSR needs offset lookups and
          // scattered row fetches per edge; a PMA skips gap slots and
          // tests snapshot bitmasks while walking a row.
          if (cfg_.enable_oadl) {
            switch (cfg_.format) {
              case StorageFormat::kOcsr:
                break;
              case StorageFormat::kCsr:
                task_cycles += ceil_div(deg, 2.0);
                break;
              case StorageFormat::kPma:
                task_cycles += ceil_div(deg, 5.0);
                break;
            }
          }
          pool.push_back({v, task_cycles});
        };
        // OADL computes window-unchanged vertices at the first snapshot
        // only.
        if (cfg_.enable_oadl && t > ws.w.start) {
          for (const VertexId v : plan.changed_rows[l]) add_task(v);
        } else {
          for (VertexId v = 0; v < g.num_vertices(); ++v) add_task(v);
        }
        if (!cfg_.balanced_dispatch) dispatch();
      }
      if (cfg_.balanced_dispatch) dispatch();
      d_in = d_out;
    }

    // The storage format shapes the per-layer streams too: the engine
    // tallies assume O-CSR's deduplicated layout; CSR re-streams every
    // snapshot's rows and PMA drags gap slots and bitmask tests along,
    // inflating the stream volume by the formats' size ratio.
    if (cfg_.enable_oadl && cfg_.format != StorageFormat::kOcsr) {
      const double ocsr_bytes =
          static_cast<double>(ocsr_stats(plan.ocsr).total_bytes());
      if (ocsr_bytes > 0) {
        ws.gnn_stream_scale = std::max(1.0, load.dram_bytes / ocsr_bytes);
      }
    }

    // Buffer-capacity spill: if the window's staged working set exceeds
    // the on-chip feature/structure/O-CSR stores, the overflow is
    // evicted and re-fetched once per additional GNN layer.
    if (cfg_.enable_oadl && layers > 1) {
      const double capacity =
          static_cast<double>(cfg_.feature_buffer_bytes +
                              cfg_.ocsr_table_bytes +
                              cfg_.structure_memory_bytes);
      const double overflow = std::max(0.0, load.dram_bytes - capacity);
      ws.spill_bytes = overflow * static_cast<double>(layers - 1);
    }
    wins.push_back(ws);
  };

  // --- Functional execution with matching options. ---
  EngineOptions eng;
  eng.window_size = cfg_.window;
  eng.gnn_reuse = cfg_.enable_oadl;
  eng.cell_skip = cfg_.enable_adsc;
  eng.thresholds = cfg_.thresholds;
  eng.store_outputs = store_outputs;
  eng.count_redundancy = false;  // timing model does not need it
  res.functional =
      ConcurrentEngine(eng).run(g, weights, nullptr, model_plan);
  res.windows = wins.size();

  // ---- Count-dependent tail, in window order. ----
  // Compute-phase traffic is charged from the functional tallies at
  // window granularity: the engine totals split evenly across windows
  // (uniform snapshots), streamed through the feature buffer.
  HbmModel hbm(cfg_.hbm);
  PingPongBuffer feature_buffer(cfg_.feature_buffer_bytes);
  const OpCounts& gc = res.functional.gnn_counts;
  const OpCounts& rc = res.functional.rnn_counts;
  const auto total_snaps = static_cast<double>(g.num_snapshots());
  // Adaptive RNN Unit cycles (from the functional tallies).
  const RnnCell cell(weights);
  const std::size_t dz = weights.config.gnn_hidden;
  const std::size_t gh = weights.gates() * weights.config.rnn_hidden;
  const double full_each = std::ceil(
      cell.full_update_macs() / static_cast<double>(cfg_.cpes_per_dcu));
  const double ndcu = static_cast<double>(cfg_.num_dcus);
  for (WindowSim& ws : wins) {
    if (cfg_.enable_oadl) {
      ws.mem_load = hbm.transfer(ws.load_bytes, ws.load_sequential);
      res.dram_bytes += ws.load_bytes;
    }
    // Stage the window working set through the feature ping-pong buffer
    // (sizing telemetry: high-water mark + bank overflows).
    const auto staged = static_cast<std::size_t>(
        std::min<double>(ws.load_bytes, 1e18));
    if (feature_buffer.produce(staged) < staged) {
      ++res.telemetry.feature_buffer_overflow_windows;
    }
    feature_buffer.swap();
    feature_buffer.consume(feature_buffer.drain_level());

    const double frac = static_cast<double>(ws.w.length) / total_snaps;
    ws.gnn_bytes = (gc.feature_bytes + gc.structure_bytes + gc.output_bytes) *
                   frac * ws.gnn_stream_scale;
    ws.mem_gnn = hbm.transfer(
        ws.gnn_bytes, cfg_.enable_oadl ? ws.load_sequential : 0.45);
    res.dram_bytes += ws.gnn_bytes;

    ws.rnn_bytes = (rc.feature_bytes + rc.output_bytes + rc.weight_bytes) *
                   frac;
    ws.mem_rnn = hbm.transfer(ws.rnn_bytes, 0.7);
    res.dram_bytes += ws.rnn_bytes;

    if (ws.spill_bytes > 0) {
      ws.mem_spill = hbm.transfer(ws.spill_bytes, ws.load_sequential);
      res.dram_bytes += ws.spill_bytes;
    }

    const double avg_deg =
        static_cast<double>(g.snapshot(ws.w.start).graph.num_edges()) /
        std::max<double>(1.0, g.num_vertices());
    const double scu_per_score =
        std::ceil(3.0 * static_cast<double>(dz) /
                  static_cast<double>(cfg_.scu_lanes)) +
        std::ceil(2.0 * avg_deg / static_cast<double>(cfg_.scu_lanes));
    const double rnn_cycles_d =
        (static_cast<double>(rc.similarity_scores) * scu_per_score +
         static_cast<double>(rc.rnn_full) * full_each +
         rc.delta_nnz * static_cast<double>(gh) /
             static_cast<double>(cfg_.cpes_per_dcu) +
         static_cast<double>(rc.rnn_delta) *
             std::ceil(static_cast<double>(dz) /
                       static_cast<double>(cfg_.scu_lanes)) +
         static_cast<double>(rc.rnn_skip)) *
        frac / ndcu;
    ws.rnn = static_cast<Cycle>(rnn_cycles_d);
  }

  // ---- Pass 2: timeline assembly. ----
  // A window's compute body depends on its own MSDL output (the
  // classification, affected subgraph, and O-CSR feed the dispatcher),
  // so the serial schedule sequences them:
  //   T = sum_i (A_i + B_i)
  // with A = MSDL cycles and B = overlap({compute, memory}).
  // The pipelined schedule (cfg_.pipeline_windows) prefetches window
  // i+1's MSDL during window i's body — the 2-stage window pipeline of
  // the dataflow:
  //   T = A_0 + sum_i overlap({B_i, A_{i+1}})          (A_{last+1} = 0)
  // which saves 0.65 * min(B_i, A_{i+1}) cycles per boundary. Since
  // overlap({...}) >= max(...), T dominates every unit's busy sum, so
  // the busy + stall = total attribution below stays exact.
  const SimTracks tracks = SimTracks::open();
  Cycle cursor = 0;
  for (std::size_t i = 0; i < wins.size(); ++i) {
    const WindowSim& ws = wins[i];
    // GNN and RNN pipeline per vertex; memory overlaps compute.
    const Cycle compute = overlap({ws.gnn, ws.rnn});
    const Cycle mem_cycles = ws.mem();
    const bool piped = cfg_.pipeline_windows;
    const Cycle a_next =
        piped && i + 1 < wins.size() ? wins[i + 1].msdl : 0;
    const Cycle prologue = piped ? (i == 0 ? ws.msdl : 0) : ws.msdl;
    const Cycle bcomp = overlap({compute, mem_cycles});
    const Cycle body = piped ? overlap({bcomp, a_next}) : bcomp;
    const Cycle win_total = prologue + body;
    res.cycles.msdl += ws.msdl;
    res.cycles.gnn += ws.gnn;
    res.cycles.rnn += ws.rnn;
    res.cycles.memory += mem_cycles;
    res.cycles.total += win_total;

    AccelWindowRecord rec;
    rec.window = ws.w;
    rec.begin = cursor;
    rec.total = win_total;
    rec.msdl = ws.msdl;
    rec.gnn = ws.gnn;
    rec.rnn = ws.rnn;
    rec.memory = mem_cycles;
    rec.dram_bytes = ws.bytes();
    rec.affected_vertices = ws.affected;
    res.telemetry.window_records.push_back(rec);

    if (tracks.tc) {
      const Cycle body_at = cursor + prologue;
      auto window_name = [](Window win) {
        return "window[" + std::to_string(win.start) + "," +
               std::to_string(win.end()) + ")";
      };
      const std::string wname = window_name(ws.w);
      const std::vector<obs::TraceArg> wargs = {
          {"start_snapshot", std::to_string(ws.w.start)},
          {"snapshots", std::to_string(ws.w.length)},
          {"affected_vertices", std::to_string(ws.affected)},
      };
      auto unit_span = [&](int tid, const char* unit, Cycle busy) {
        tracks.tc->sim_span(tid, wname + " " + unit, "pipeline", body_at,
                            busy, wargs);
        if (busy < body) {
          tracks.tc->sim_span(tid, std::string(unit) + ":stall", "stall",
                              body_at + busy, body - busy);
        }
      };
      if (piped) {
        // The MSDL track shows the prefetch: window 0's phase as the
        // pipeline prologue, every later window's inside the previous
        // window's body.
        if (i == 0 && ws.msdl > 0) {
          tracks.tc->sim_span(tracks.msdl, wname + " msdl", "pipeline",
                              cursor, ws.msdl, wargs);
        }
        if (i + 1 < wins.size()) {
          tracks.tc->sim_span(tracks.msdl,
                              window_name(wins[i + 1].w) + " msdl:prefetch",
                              "pipeline", body_at, a_next);
        }
        if (a_next < body) {
          tracks.tc->sim_span(tracks.msdl, "msdl:stall", "stall",
                              body_at + a_next, body - a_next);
        }
      } else {
        // Serial: the window's own MSDL occupies the prologue, then the
        // MSDL unit idles for the body.
        if (ws.msdl > 0) {
          tracks.tc->sim_span(tracks.msdl, wname + " msdl", "pipeline",
                              cursor, ws.msdl, wargs);
        }
        if (body > 0) {
          tracks.tc->sim_span(tracks.msdl, "msdl:stall", "stall", body_at,
                              body);
        }
      }
      unit_span(tracks.gnn, "gnn", ws.gnn);
      unit_span(tracks.rnn, "rnn", ws.rnn);
      // HBM transactions back-to-back on the memory track.
      Cycle mem_at = body_at;
      auto mem_span = [&](const char* what, Cycle cyc, double bytes) {
        if (cyc == 0) return;
        tracks.tc->sim_span(
            tracks.memory, std::string("hbm:") + what, "memory", mem_at,
            cyc, {{"bytes", std::to_string(bytes)}});
        mem_at += cyc;
      };
      mem_span("load", ws.mem_load, ws.load_bytes);
      mem_span("gnn", ws.mem_gnn, ws.gnn_bytes);
      mem_span("rnn", ws.mem_rnn, ws.rnn_bytes);
      mem_span("spill", ws.mem_spill, ws.spill_bytes);
      if (mem_cycles < body) {
        tracks.tc->sim_span(tracks.memory, "memory:stall", "stall",
                            body_at + mem_cycles, body - mem_cycles);
      }
    }
    cursor += win_total;
  }

  res.dcu_utilization = util_span > 0 ? util_work / util_span : 0.0;
  res.seconds =
      static_cast<double>(res.cycles.total) / (cfg_.clock_mhz * 1e6);
  OpCounts all = res.functional.total_counts();
  // On-chip traffic: every DRAM byte staged+drained, plus cross-unit
  // buffer hops for the compute phases.
  const EnergyModel em(cfg_.energy);
  res.energy = em.energy(all, res.seconds, 2.5 * res.dram_bytes);

  // ---- Utilization attribution: per-unit busy vs. stall against the
  // overlapped end-to-end total, MAC-array and HBM-bandwidth occupancy,
  // buffer sizing. stall = total - busy per unit, so every unit's
  // busy + stall equals cycles.total exactly. ----
  auto unit = [&](const char* name, Cycle busy) {
    AccelUnitStats u;
    u.name = name;
    u.busy = busy;
    u.stall = res.cycles.total >= busy ? res.cycles.total - busy : 0;
    res.telemetry.units.push_back(std::move(u));
  };
  unit("msdl", res.cycles.msdl);
  unit("gnn", res.cycles.gnn);
  unit("rnn", res.cycles.rnn);
  unit("memory", res.cycles.memory);

  const double total_cycles = static_cast<double>(res.cycles.total);
  if (total_cycles > 0) {
    res.telemetry.mac_occupancy = std::min(
        1.0, all.macs / (total_cycles *
                         static_cast<double>(cfg_.total_macs())));
    res.telemetry.hbm_bw_occupancy = std::min(
        1.0, res.dram_bytes / (total_cycles * hbm.peak_bytes_per_cycle()));
  }
  res.telemetry.hbm_transactions = hbm.transactions();
  res.telemetry.feature_buffer_high_water = feature_buffer.high_water();

  if (obs::telemetry_enabled()) {
    obs::gauge_set("tagnn.accel.cycles.total",
                   static_cast<double>(res.cycles.total));
    for (const AccelUnitStats& u : res.telemetry.units) {
      obs::gauge_set("tagnn.accel.unit." + u.name + ".busy_cycles",
                     static_cast<double>(u.busy));
      obs::gauge_set("tagnn.accel.unit." + u.name + ".stall_cycles",
                     static_cast<double>(u.stall));
    }
    auto stage_gauges = [](const char* pipe,
                           const std::vector<PipelineSim::StageStats>& ss) {
      for (const auto& s : ss) {
        const std::string base =
            std::string("tagnn.accel.msdl.") + pipe + "." + s.name;
        obs::gauge_set(base + ".busy_cycles", static_cast<double>(s.busy));
        obs::gauge_set(base + ".stall_cycles",
                       static_cast<double>(s.stall));
      }
    };
    stage_gauges("classify", res.telemetry.classify_stages);
    stage_gauges("traverse", res.telemetry.traverse_stages);
    obs::gauge_set("tagnn.accel.mac_occupancy",
                   res.telemetry.mac_occupancy);
    obs::gauge_set("tagnn.accel.hbm_bw_occupancy",
                   res.telemetry.hbm_bw_occupancy);
    obs::gauge_set("tagnn.accel.hbm_transactions",
                   static_cast<double>(res.telemetry.hbm_transactions));
    obs::gauge_set(
        "tagnn.accel.buffer_high_water_bytes",
        static_cast<double>(res.telemetry.feature_buffer_high_water));
    obs::gauge_set("tagnn.accel.dram_bytes", res.dram_bytes);
    obs::gauge_set("tagnn.accel.dcu_utilization", res.dcu_utilization);
    obs::gauge_set("tagnn.accel.windows",
                   static_cast<double>(res.windows));
    // Roofline inputs (obs/analyze/roofline.hpp): everything a
    // post-processor needs to re-place this run on the roofline.
    obs::gauge_set("tagnn.accel.roofline.macs", all.macs);
    obs::gauge_set("tagnn.accel.roofline.dram_bytes", res.dram_bytes);
    obs::gauge_set("tagnn.accel.roofline.total_cycles", total_cycles);
    obs::gauge_set("tagnn.accel.roofline.peak_macs_per_cycle",
                   static_cast<double>(cfg_.total_macs()));
    obs::gauge_set("tagnn.accel.roofline.peak_bytes_per_cycle",
                   hbm.peak_bytes_per_cycle());
  }
  return res;
}

}  // namespace tagnn
