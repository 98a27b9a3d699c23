#include "obs/analyze/report_html.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "common/json_escape.hpp"
#include "obs/jsonv.hpp"

namespace tagnn::obs::analyze {
namespace {

std::string fmt(double v, const char* spec = "%.3g") {
  char buf[48];
  std::snprintf(buf, sizeof(buf), spec, v);
  return buf;
}

// Component palette (stable across report versions; "other" is grey).
const char* component_color(const std::string& name) {
  if (name == "msdl") return "#8da0cb";
  if (name == "gnn") return "#66c2a5";
  if (name == "rnn") return "#fc8d62";
  if (name == "memory") return "#e78ac3";
  return "#b3b3b3";
}

// --- Roofline SVG: log-log chart with the two roofs and one point per
// verdict. Pure geometry, no client-side script. ---
std::string roofline_svg(const std::vector<RooflineResult>& rl) {
  if (rl.empty()) return "<p>No roofline data.</p>\n";
  const RooflineResult& head = rl.front();
  if (head.peak_macs_per_cycle <= 0 || head.peak_bytes_per_cycle <= 0) {
    return "<p>No machine peaks available for a roofline.</p>\n";
  }
  const double w = 640, h = 360, ml = 60, mr = 20, mt = 20, mb = 40;
  // Log-space extents framed around the ridge and every plotted point.
  double xmin = head.ridge / 64, xmax = head.ridge * 64;
  double ymax = head.peak_macs_per_cycle * 4;
  double ymin = head.peak_macs_per_cycle / 4096;
  for (const RooflineResult& r : rl) {
    if (!r.infinite_intensity && r.arithmetic_intensity > 0) {
      xmin = std::min(xmin, r.arithmetic_intensity / 4);
      xmax = std::max(xmax, r.arithmetic_intensity * 4);
    }
    if (r.achieved_macs_per_cycle > 0) {
      ymin = std::min(ymin, r.achieved_macs_per_cycle / 4);
    }
  }
  const double lx0 = std::log10(xmin), lx1 = std::log10(xmax);
  const double ly0 = std::log10(ymin), ly1 = std::log10(ymax);
  auto px = [&](double x) {
    return ml + (std::log10(x) - lx0) / (lx1 - lx0) * (w - ml - mr);
  };
  auto py = [&](double y) {
    return h - mb - (std::log10(y) - ly0) / (ly1 - ly0) * (h - mt - mb);
  };
  auto clampy = [&](double y) { return std::clamp(y, ymin, ymax); };

  std::ostringstream s;
  s << "<svg viewBox=\"0 0 " << w << " " << h
    << "\" role=\"img\" aria-label=\"roofline\">\n"
    << "<rect x=\"" << ml << "\" y=\"" << mt << "\" width=\""
    << (w - ml - mr) << "\" height=\"" << (h - mt - mb)
    << "\" fill=\"#fafafa\" stroke=\"#ccc\"/>\n";
  // Memory roof: y = I * peak_bytes, from xmin to the ridge.
  s << "<polyline fill=\"none\" stroke=\"#e78ac3\" stroke-width=\"2\" "
       "points=\""
    << fmt(px(xmin)) << "," << fmt(py(clampy(xmin * head.peak_bytes_per_cycle)))
    << " " << fmt(px(head.ridge)) << "," << fmt(py(head.peak_macs_per_cycle))
    << "\"/>\n";
  // Compute roof: horizontal from the ridge to xmax.
  s << "<polyline fill=\"none\" stroke=\"#66c2a5\" stroke-width=\"2\" "
       "points=\""
    << fmt(px(head.ridge)) << "," << fmt(py(head.peak_macs_per_cycle)) << " "
    << fmt(px(xmax)) << "," << fmt(py(head.peak_macs_per_cycle)) << "\"/>\n";
  // Ridge marker.
  s << "<line x1=\"" << fmt(px(head.ridge)) << "\" y1=\"" << mt
    << "\" x2=\"" << fmt(px(head.ridge)) << "\" y2=\"" << (h - mb)
    << "\" stroke=\"#ddd\" stroke-dasharray=\"4 3\"/>\n";
  // Points.
  for (const RooflineResult& r : rl) {
    if (r.infinite_intensity || r.arithmetic_intensity <= 0 ||
        r.achieved_macs_per_cycle <= 0) {
      continue;
    }
    const char* color = r.memory_bound() ? "#c23b80" : "#1b8a6b";
    s << "<circle cx=\"" << fmt(px(r.arithmetic_intensity)) << "\" cy=\""
      << fmt(py(clampy(r.achieved_macs_per_cycle))) << "\" r=\"5\" fill=\""
      << color << "\"><title>" << html_escape(r.label) << ": "
      << html_escape(r.verdict) << ", AI=" << fmt(r.arithmetic_intensity)
      << " MAC/B, " << fmt(r.achieved_macs_per_cycle)
      << " MAC/cyc, headroom " << fmt(r.headroom_pct, "%.1f")
      << "%</title></circle>\n";
  }
  // Axis labels.
  s << "<text x=\"" << (w / 2)
    << "\" y=\"" << (h - 8)
    << "\" text-anchor=\"middle\" font-size=\"12\">arithmetic intensity "
       "(MACs / DRAM byte, log)</text>\n"
    << "<text x=\"14\" y=\"" << (h / 2)
    << "\" text-anchor=\"middle\" font-size=\"12\" transform=\"rotate(-90 "
       "14 "
    << (h / 2) << ")\">MACs / cycle (log)</text>\n</svg>\n";
  return s.str();
}

// --- Cycle stacks: one horizontal stacked bar per stack. ---
std::string stacks_svg(const std::vector<CycleStack>& stacks) {
  if (stacks.empty()) return "<p>No cycle-stack data.</p>\n";
  const double bar_w = 560, row_h = 26, label_w = 110;
  const double h = row_h * static_cast<double>(stacks.size()) + 30;
  std::ostringstream s;
  s << "<svg viewBox=\"0 0 " << (label_w + bar_w + 70) << " " << h
    << "\" role=\"img\" aria-label=\"cycle stacks\">\n";
  for (std::size_t i = 0; i < stacks.size(); ++i) {
    const CycleStack& st = stacks[i];
    const double y = 8 + row_h * static_cast<double>(i);
    s << "<text x=\"" << (label_w - 6) << "\" y=\"" << (y + 14)
      << "\" text-anchor=\"end\" font-size=\"12\">"
      << html_escape(st.label) << "</text>\n";
    double x = label_w;
    for (const CycleStackComponent& c : st.components) {
      if (st.total == 0 || c.attributed == 0) continue;
      const double cw = bar_w * static_cast<double>(c.attributed) /
                        static_cast<double>(st.total);
      s << "<rect x=\"" << fmt(x) << "\" y=\"" << y << "\" width=\""
        << fmt(cw) << "\" height=\"" << (row_h - 8) << "\" fill=\""
        << component_color(c.name) << "\"><title>" << html_escape(st.label)
        << " " << html_escape(c.name) << ": " << c.attributed << " cycles ("
        << fmt(c.share_pct, "%.1f") << "%)</title></rect>\n";
      x += cw;
    }
    s << "<text x=\"" << (label_w + bar_w + 6) << "\" y=\"" << (y + 14)
      << "\" font-size=\"11\" fill=\"#666\">" << html_escape(st.dominant)
      << " " << fmt(st.dominant_pct, "%.0f") << "%</text>\n";
  }
  // Legend.
  double lx = label_w;
  const double ly = h - 12;
  for (const char* name : {"msdl", "gnn", "rnn", "memory"}) {
    s << "<rect x=\"" << fmt(lx) << "\" y=\"" << (ly - 10)
      << "\" width=\"12\" height=\"12\" fill=\"" << component_color(name)
      << "\"/>\n<text x=\"" << fmt(lx + 16) << "\" y=\"" << ly
      << "\" font-size=\"12\">" << name << "</text>\n";
    lx += 90;
  }
  s << "</svg>\n";
  return s.str();
}

// --- Ledger sparkline over one metric. ---
std::string sparkline_svg(const std::vector<RunRecord>& ledger,
                          const std::string& metric) {
  std::vector<double> ys;
  for (const RunRecord& r : ledger) {
    const double v = r.metric(metric,
                              std::numeric_limits<double>::quiet_NaN());
    if (std::isfinite(v)) ys.push_back(v);
  }
  if (ys.size() < 2) {
    return "<p>Fewer than two ledger entries carry <code>" +
           html_escape(metric) + "</code>; no sparkline.</p>\n";
  }
  const double w = 560, h = 80, m = 8;
  double lo = ys[0], hi = ys[0];
  for (const double y : ys) {
    lo = std::min(lo, y);
    hi = std::max(hi, y);
  }
  if (hi - lo < 1e-30) hi = lo + 1;
  std::ostringstream s;
  s << "<svg viewBox=\"0 0 " << w << " " << h
    << "\" role=\"img\" aria-label=\"ledger sparkline\">\n"
    << "<polyline fill=\"none\" stroke=\"#8da0cb\" stroke-width=\"2\" "
       "points=\"";
  for (std::size_t i = 0; i < ys.size(); ++i) {
    const double x =
        m + (w - 2 * m) * static_cast<double>(i) /
                static_cast<double>(ys.size() - 1);
    const double y = h - m - (h - 2 * m) * (ys[i] - lo) / (hi - lo);
    s << (i ? " " : "") << fmt(x) << "," << fmt(y);
  }
  s << "\"/>\n<circle cx=\"" << fmt(w - m) << "\" cy=\""
    << fmt(h - m - (h - 2 * m) * (ys.back() - lo) / (hi - lo))
    << "\" r=\"4\" fill=\"#36489c\"/>\n</svg>\n"
    << "<p><code>" << html_escape(metric) << "</code>: latest "
    << fmt(ys.back()) << ", min " << fmt(lo) << ", max " << fmt(hi)
    << " over " << ys.size() << " runs</p>\n";
  return s.str();
}

std::string fmt_bytes(double v) {
  char buf[48];
  if (v >= 1024.0 * 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.2f GiB", v / (1024.0 * 1024.0 * 1024.0));
  } else if (v >= 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.2f MiB", v / (1024.0 * 1024.0));
  } else if (v >= 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.2f KiB", v / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0f B", v);
  }
  return buf;
}

// --- Memory: per-subsystem high-water bars plus the scale projection
// table from diagnosis.memory. ---
std::string memory_section(const HtmlReportInputs& in) {
  std::ostringstream s;
  if (!in.has_memory) {
    s << "<p>No memory diagnosis in the run report (older report or "
         "shape unknown).</p>\n";
    return s.str();
  }
  const MemDiagnosis& d = in.memory;
  s << "<p>Observed high-water "
    << fmt_bytes(static_cast<double>(d.observed_total_bytes));
  if (d.has_fit) {
    s << " at scale " << fmt(d.observed_scale) << " (" << d.vertices
      << " vertices, " << d.edges << " edges over " << d.snapshots
      << " snapshots; " << fmt(d.bytes_per_vertex)
      << " B/vertex, " << fmt(d.bytes_per_edge)
      << " B/edge). Projected to scale " << fmt(d.target_scale) << ": "
      << (d.over_budget ? "<span class=\"mem-over\">" : "<strong>")
      << fmt_bytes(static_cast<double>(d.projected_total_bytes))
      << (d.over_budget ? "</span>" : "</strong>") << " against a "
      << fmt_bytes(static_cast<double>(d.budget_bytes)) << " budget";
    if (d.over_budget) {
      s << " &mdash; <span class=\"mem-over\">over budget; <code>"
        << html_escape(d.first_over_budget)
        << "</code> blows it first</span>";
    } else {
      s << " &mdash; fits";
    }
    s << ".</p>\n";
  } else {
    s << "; workload shape unknown, so no per-scale projection.</p>\n";
  }
  if (d.fits.empty()) {
    s << "<p>No subsystem recorded tracked bytes.</p>\n";
    return s.str();
  }
  s << "<table>\n<tr><th>subsystem</th><th>high-water</th><th>basis</th>"
       "<th>bytes/basis</th><th>projected @ "
    << fmt(d.target_scale) << "</th></tr>\n";
  for (const SubsystemFit& f : d.fits) {
    s << "<tr><td><code>" << html_escape(f.subsystem) << "</code></td><td>"
      << fmt_bytes(static_cast<double>(f.high_water_bytes)) << "</td><td>"
      << (f.basis.empty() ? "&mdash;" : html_escape(f.basis)) << "</td><td>"
      << (f.basis.empty() ? std::string("&mdash;") : fmt(f.bytes_per_basis))
      << "</td><td>" << fmt_bytes(static_cast<double>(f.projected_bytes))
      << "</td></tr>\n";
  }
  s << "</table>\n";
  return s.str();
}

std::string pick_sparkline_metric(const HtmlReportInputs& in) {
  if (!in.sparkline_metric.empty()) return in.sparkline_metric;
  if (in.ledger.empty()) return "";
  // Prefer the deterministic cycle total, then wall time, then the
  // first metric the newest entry carries.
  for (const char* pref : {"cycles.total", "seconds",
                           "engine_tgcn_gt.opt_sec"}) {
    if (std::isfinite(in.ledger.back().metric(
            pref, std::numeric_limits<double>::quiet_NaN()))) {
      return pref;
    }
  }
  return in.ledger.back().metrics.empty()
             ? ""
             : in.ledger.back().metrics.front().first;
}

// The machine-readable copy of everything rendered above. "</" is
// escaped as "<\/" so the block can never terminate its own <script>
// element early.
std::string data_block_json(const HtmlReportInputs& in,
                            const std::string& spark_metric) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"tagnn.report_html.v1\",\n  \"rooflines\": [";
  for (std::size_t i = 0; i < in.rooflines.size(); ++i) {
    os << (i ? ", " : "");
    write_roofline_json(os, in.rooflines[i], 2);
  }
  os << "],\n  \"cycle_stacks\": [";
  for (std::size_t i = 0; i < in.stacks.size(); ++i) {
    os << (i ? ", " : "");
    write_cycle_stack_json(os, in.stacks[i], 2);
  }
  os << "],\n  \"memory\": ";
  if (in.has_memory) {
    write_memory_diagnosis_json(os, in.memory);
  } else {
    os << "null";
  }
  os << ",\n  \"ledger\": {\"entries\": " << in.ledger.size()
     << ", \"sparkline_metric\": \"" << json_escape(spark_metric)
     << "\", \"drift\": [";
  for (std::size_t i = 0; i < in.drift.size(); ++i) {
    const DriftFinding& d = in.drift[i];
    os << (i ? ", " : "") << "{\"metric\": \"" << json_escape(d.metric)
       << "\", \"value\": ";
    write_json_number(os, d.value);
    os << ", \"median\": ";
    write_json_number(os, d.median);
    os << ", \"threshold\": ";
    write_json_number(os, d.threshold);
    os << ", \"severity\": ";
    write_json_number(os, d.severity);
    os << "}";
  }
  os << "]}\n}";
  std::string out = os.str();
  std::string safe;
  safe.reserve(out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (out[i] == '<' && i + 1 < out.size() && out[i + 1] == '/') {
      safe += "<\\/";
      ++i;
    } else {
      safe += out[i];
    }
  }
  return safe;
}

}  // namespace

std::string html_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string render_html_report(const HtmlReportInputs& in) {
  const std::string spark_metric = pick_sparkline_metric(in);
  std::ostringstream os;
  os << "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
     << "<meta charset=\"utf-8\">\n<title>" << html_escape(in.title)
     << "</title>\n<style>\n"
     << "body{font:14px/1.5 system-ui,sans-serif;margin:2rem auto;"
        "max-width:880px;color:#222;padding:0 1rem}\n"
     << "h1{font-size:1.4rem}h2{font-size:1.1rem;margin-top:2rem;"
        "border-bottom:1px solid #ddd;padding-bottom:.25rem}\n"
     << "table{border-collapse:collapse}td,th{padding:.25rem .75rem;"
        "border:1px solid #ddd;text-align:left}\n"
     << ".verdict-memory-bound{color:#c23b80;font-weight:600}\n"
     << ".verdict-compute-bound{color:#1b8a6b;font-weight:600}\n"
     << ".drift{color:#b00020}\n.mem-over{color:#b00020;font-weight:600}\n"
        "svg{max-width:100%;height:auto}\n"
     << "li.hint{margin:.25rem 0}\n</style>\n</head>\n<body>\n"
     << "<h1>" << html_escape(in.title) << "</h1>\n";

  // Summary.
  os << "<section id=\"summary\">\n<h2>Summary</h2>\n<table>\n";
  for (const auto& [k, v] : in.summary) {
    os << "<tr><th>" << html_escape(k) << "</th><td>" << html_escape(v)
       << "</td></tr>\n";
  }
  if (!in.rooflines.empty()) {
    const RooflineResult& r = in.rooflines.front();
    os << "<tr><th>verdict</th><td class=\"verdict-" << r.verdict << "\">"
       << r.verdict << " (headroom " << fmt(r.headroom_pct, "%.1f")
       << "%)</td></tr>\n";
  }
  if (!in.trace_path.empty()) {
    os << "<tr><th>trace</th><td><a href=\"" << html_escape(in.trace_path)
       << "\">" << html_escape(in.trace_path)
       << "</a> (open in Perfetto / chrome://tracing)</td></tr>\n";
  }
  os << "</table>\n</section>\n";

  // Roofline.
  os << "<section id=\"roofline\">\n<h2>Roofline</h2>\n"
     << roofline_svg(in.rooflines);
  if (!in.rooflines.empty()) {
    os << "<table>\n<tr><th>scope</th><th>verdict</th><th>AI "
          "(MAC/B)</th><th>achieved MAC/cyc</th><th>attainable</th>"
          "<th>headroom</th></tr>\n";
    for (const RooflineResult& r : in.rooflines) {
      os << "<tr><td>" << html_escape(r.label) << "</td><td class=\""
         << "verdict-" << r.verdict << "\">" << r.verdict << "</td><td>"
         << (r.infinite_intensity ? std::string("&infin;")
                                  : fmt(r.arithmetic_intensity))
         << "</td><td>" << fmt(r.achieved_macs_per_cycle) << "</td><td>"
         << fmt(r.attainable_macs_per_cycle) << "</td><td>"
         << fmt(r.headroom_pct, "%.1f") << "%</td></tr>\n";
    }
    os << "</table>\n";
  }
  os << "</section>\n";

  // Cycle stacks + hints.
  os << "<section id=\"cycle-stacks\">\n<h2>Cycle stacks</h2>\n"
     << stacks_svg(in.stacks);
  if (!in.stacks.empty() && !in.stacks.front().hints.empty()) {
    os << "<h3>Ranked fix hints</h3>\n<ul>\n";
    for (const std::string& hint : in.stacks.front().hints) {
      os << "<li class=\"hint\">" << html_escape(hint) << "</li>\n";
    }
    os << "</ul>\n";
  }
  os << "</section>\n";

  // Memory.
  os << "<section id=\"memory\">\n<h2>Memory</h2>\n"
     << memory_section(in) << "</section>\n";

  // Ledger.
  os << "<section id=\"ledger\">\n<h2>Run ledger</h2>\n";
  if (in.ledger.empty()) {
    os << "<p>No ledger provided.</p>\n";
  } else {
    os << sparkline_svg(in.ledger, spark_metric);
    if (in.drift.empty()) {
      os << "<p>Drift check: latest run is consistent with history.</p>\n";
    } else {
      os << "<p class=\"drift\">Drift detected in " << in.drift.size()
         << " metric(s):</p>\n<table>\n<tr><th>metric</th><th>value</th>"
            "<th>history median</th><th>allowed &Delta;</th>"
            "<th>severity</th></tr>\n";
      for (const DriftFinding& d : in.drift) {
        os << "<tr><td>" << html_escape(d.metric) << "</td><td>"
           << fmt(d.value) << "</td><td>" << fmt(d.median) << "</td><td>"
           << fmt(d.threshold) << "</td><td>" << fmt(d.severity, "%.1f")
           << "x</td></tr>\n";
      }
      os << "</table>\n";
    }
  }
  os << "</section>\n";

  // Machine-readable copy.
  os << "<script type=\"application/json\" id=\"report-data\">\n"
     << data_block_json(in, spark_metric) << "\n</script>\n"
     << "</body>\n</html>\n";
  return os.str();
}

}  // namespace tagnn::obs::analyze
