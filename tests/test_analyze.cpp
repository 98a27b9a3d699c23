// Tests for the diagnosis subsystem (src/obs/analyze): roofline
// placement, cycle-stack attribution, the run ledger + drift detector,
// the JSON reader, the HTML report, and the NaN/Inf-safe JSON plumbing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>

#include "obs/analyze/cycle_stack.hpp"
#include "obs/analyze/jparse.hpp"
#include "obs/analyze/ledger.hpp"
#include "obs/analyze/report_html.hpp"
#include "obs/analyze/roofline.hpp"
#include "obs/jsonv.hpp"
#include "obs/metrics.hpp"

namespace tagnn::obs::analyze {
namespace {

// --- roofline ---------------------------------------------------------

// Hand-computed golden: AI = 1000/10 = 100 MACs/byte, ridge = 4/8 =
// 0.5, so the kernel sits far right of the ridge -> compute-bound.
// Attainable = peak compute = 4 MACs/cycle; achieved = 1000/500 = 2, so
// half the roof is unused.
TEST(Roofline, GoldenMacBound) {
  RooflineInput in;
  in.label = "mac-bound";
  in.macs = 1000;
  in.dram_bytes = 10;
  in.total_cycles = 500;
  in.peak_macs_per_cycle = 4;
  in.peak_bytes_per_cycle = 8;
  const RooflineResult r = analyze_roofline(in);
  EXPECT_DOUBLE_EQ(r.arithmetic_intensity, 100.0);
  EXPECT_DOUBLE_EQ(r.ridge, 0.5);
  EXPECT_EQ(r.verdict, "compute-bound");
  EXPECT_FALSE(r.memory_bound());
  EXPECT_DOUBLE_EQ(r.attainable_macs_per_cycle, 4.0);
  EXPECT_DOUBLE_EQ(r.achieved_macs_per_cycle, 2.0);
  EXPECT_DOUBLE_EQ(r.headroom_pct, 50.0);
}

// Golden: AI = 100/1000 = 0.1 < ridge = 16/2 = 8 -> memory-bound.
// Attainable = AI * peak bytes = 0.2 MACs/cycle; achieved = 100/1000 =
// 0.1 -> 50% headroom under the slanted roof.
TEST(Roofline, GoldenHbmBound) {
  RooflineInput in;
  in.label = "hbm-bound";
  in.macs = 100;
  in.dram_bytes = 1000;
  in.total_cycles = 1000;
  in.peak_macs_per_cycle = 16;
  in.peak_bytes_per_cycle = 2;
  const RooflineResult r = analyze_roofline(in);
  EXPECT_DOUBLE_EQ(r.arithmetic_intensity, 0.1);
  EXPECT_DOUBLE_EQ(r.ridge, 8.0);
  EXPECT_EQ(r.verdict, "memory-bound");
  EXPECT_TRUE(r.memory_bound());
  EXPECT_DOUBLE_EQ(r.attainable_macs_per_cycle, 0.2);
  EXPECT_DOUBLE_EQ(r.achieved_macs_per_cycle, 0.1);
  EXPECT_DOUBLE_EQ(r.headroom_pct, 50.0);
}

TEST(Roofline, ZeroBytesIsComputeBoundWithInfiniteIntensity) {
  RooflineInput in;
  in.macs = 100;
  in.dram_bytes = 0;
  in.total_cycles = 100;
  in.peak_macs_per_cycle = 4;
  in.peak_bytes_per_cycle = 8;
  const RooflineResult r = analyze_roofline(in);
  EXPECT_TRUE(r.infinite_intensity);
  EXPECT_EQ(r.verdict, "compute-bound");
}

TEST(Roofline, DegeneratePeaksDoNotBlowUp) {
  RooflineInput in;  // all zeros
  const RooflineResult r = analyze_roofline(in);
  EXPECT_EQ(r.verdict, "compute-bound");
  EXPECT_DOUBLE_EQ(r.headroom_pct, 0.0);
}

TEST(Roofline, JsonOutputValidates) {
  RooflineInput in;
  in.macs = 1000;
  in.dram_bytes = 10;
  in.total_cycles = 500;
  in.peak_macs_per_cycle = 4;
  in.peak_bytes_per_cycle = 8;
  // Both strings are free text once tagnn_report re-reads them from a
  // report file.
  in.label = "window \"0\"\n\\1";
  RooflineResult r = analyze_roofline(in);
  r.verdict = "tab\tquote\"";
  std::ostringstream os;
  write_roofline_json(os, r);
  JsonValue v;
  std::string err;
  ASSERT_TRUE(json_parse(os.str(), &v, &err)) << err;
  EXPECT_EQ(v.string_at("label"), in.label);
  EXPECT_EQ(v.string_at("verdict"), r.verdict);
}

// --- cycle stacks -----------------------------------------------------

TEST(CycleStack, ComponentsSumToTotalExactly) {
  CycleStackInput in;
  in.label = "w";
  in.total = 1000;
  // Overlapping units: busy sums to 1700 > 1000; shares are 7/17, 5/17,
  // 3/17, 2/17 of 1000 -- none divide evenly, so largest-remainder
  // rounding has to make up the difference.
  in.units = {{"msdl", 700}, {"gnn", 500}, {"rnn", 300}, {"memory", 200}};
  const CycleStack s = build_cycle_stack(in);
  const std::uint64_t sum = std::accumulate(
      s.components.begin(), s.components.end(), std::uint64_t{0},
      [](std::uint64_t a, const CycleStackComponent& c) {
        return a + c.attributed;
      });
  EXPECT_EQ(sum, in.total);
  EXPECT_EQ(s.dominant, "msdl");
  EXPECT_NEAR(s.dominant_pct, 100.0 * 700 / 1700, 0.2);
  EXPECT_FALSE(s.hints.empty());
}

TEST(CycleStack, SumInvariantHoldsForAwkwardTotals) {
  // Totals and unit mixes chosen to stress the rounding.
  for (const std::uint64_t total : {1ull, 3ull, 7ull, 997ull, 1000003ull}) {
    CycleStackInput in;
    in.total = total;
    in.units = {{"a", 1}, {"b", 2}, {"c", 4}, {"d", 8}, {"e", 16}};
    const CycleStack s = build_cycle_stack(in);
    std::uint64_t sum = 0;
    for (const auto& c : s.components) sum += c.attributed;
    EXPECT_EQ(sum, total) << "total=" << total;
  }
}

TEST(CycleStack, AllZeroUnitsAttributeToOther) {
  CycleStackInput in;
  in.total = 42;
  in.units = {{"msdl", 0}, {"gnn", 0}};
  const CycleStack s = build_cycle_stack(in);
  std::uint64_t sum = 0;
  bool has_other = false;
  for (const auto& c : s.components) {
    sum += c.attributed;
    if (c.name == "other") has_other = true;
  }
  EXPECT_EQ(sum, 42u);
  EXPECT_TRUE(has_other);
}

TEST(CycleStack, MemoryDominantProducesHbmHint) {
  CycleStackInput in;
  in.label = "window 3";
  in.total = 100;
  in.units = {{"msdl", 5}, {"gnn", 10}, {"rnn", 5}, {"memory", 80}};
  const CycleStack s = build_cycle_stack(in);
  EXPECT_EQ(s.dominant, "memory");
  ASSERT_FALSE(s.hints.empty());
  EXPECT_NE(s.hints[0].find("HBM"), std::string::npos) << s.hints[0];
}

TEST(CycleStack, JsonOutputValidates) {
  CycleStackInput in;
  // The label reaches every hint; the dominant unit's name is both a
  // key and the "dominant" value.
  in.label = "run \"a\"\n\\b";
  in.total = 1000;
  in.units = {{"msdl \"x\"\t", 700}, {"gnn", 500}};
  std::ostringstream os;
  const CycleStack stack = build_cycle_stack(in);
  write_cycle_stack_json(os, stack);
  JsonValue v;
  std::string err;
  ASSERT_TRUE(json_parse(os.str(), &v, &err)) << err;
  EXPECT_EQ(v.string_at("label"), in.label);
  EXPECT_EQ(v.string_at("dominant"), in.units[0].first);
  const JsonValue* hints = v.find("hints");
  ASSERT_NE(hints, nullptr);
  ASSERT_EQ(hints->as_array().size(), stack.hints.size());
  ASSERT_FALSE(stack.hints.empty());
  EXPECT_EQ(hints->as_array()[0].as_string(), stack.hints[0]);
}

// --- jparse -----------------------------------------------------------

TEST(Jparse, ParsesNestedDocument) {
  JsonValue v;
  std::string err;
  ASSERT_TRUE(json_parse(
      R"({"a": 1.5, "b": [true, null, "xA"], "c": {"d": -2e3}})", &v,
      &err))
      << err;
  EXPECT_DOUBLE_EQ(v.number_at("a"), 1.5);
  const JsonValue* b = v.find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->as_array().size(), 3u);
  EXPECT_TRUE(b->as_array()[0].as_bool());
  EXPECT_TRUE(b->as_array()[1].is_null());
  EXPECT_EQ(b->as_array()[2].as_string(), "xA");
  const JsonValue* c = v.find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->number_at("d"), -2000.0);
}

TEST(Jparse, RejectsMalformedAndNonFinite) {
  JsonValue v;
  EXPECT_FALSE(json_parse("{\"a\": }", &v));
  EXPECT_FALSE(json_parse("[1, 2", &v));
  EXPECT_FALSE(json_parse("NaN", &v));
  EXPECT_FALSE(json_parse("[Infinity]", &v));
  EXPECT_FALSE(json_parse("-Infinity", &v));
}

TEST(Jparse, DuplicateKeysKeepLastOccurrence) {
  JsonValue v;
  ASSERT_TRUE(json_parse(R"({"a": 1, "a": 2})", &v));
  EXPECT_DOUBLE_EQ(v.number_at("a"), 2.0);
}

// --- jsonv hardening --------------------------------------------------

TEST(JsonValid, RejectsBareNanAndInfinityTokens) {
  EXPECT_FALSE(json_valid("NaN"));
  EXPECT_FALSE(json_valid("Infinity"));
  EXPECT_FALSE(json_valid("-Infinity"));
  EXPECT_FALSE(json_valid("{\"x\": NaN}"));
  EXPECT_FALSE(json_valid("[1, Infinity]"));
  EXPECT_TRUE(json_valid("{\"x\": null}"));
}

TEST(WriteJsonNumber, NonFiniteBecomesNullAndCounts) {
  reset_json_nonfinite_warnings();
  std::ostringstream os;
  write_json_number(os, std::numeric_limits<double>::quiet_NaN());
  os << ",";
  write_json_number(os, std::numeric_limits<double>::infinity());
  os << ",";
  write_json_number(os, 0.1);
  EXPECT_EQ(os.str(), "null,null,0.1");
  EXPECT_EQ(json_nonfinite_warnings(), 2u);
  reset_json_nonfinite_warnings();
  EXPECT_EQ(json_nonfinite_warnings(), 0u);
}

TEST(WriteJsonNumber, RoundTripsDoubles) {
  for (const double v : {1.0 / 3.0, 1e-300, 6.5511111111111113e-06,
                         -123456789.123456789, 2.2250738585072014e-308}) {
    std::ostringstream os;
    write_json_number(os, v);
    EXPECT_DOUBLE_EQ(std::strtod(os.str().c_str(), nullptr), v) << os.str();
  }
}

// --- metrics satellite: percentile accessors + CSV schema line --------

TEST(MetricsSnapshot, PercentileAccessorsMatchQuantile) {
  MetricsRegistry reg;
  const MetricId h = reg.histogram("t.lat");
  for (int i = 1; i <= 1000; ++i) reg.record(h, static_cast<double>(i));
  const MetricsSnapshot snap = reg.snapshot();
  const MetricValue* m = snap.find("t.lat");
  ASSERT_NE(m, nullptr);
  EXPECT_DOUBLE_EQ(m->hist.p50(), m->hist.quantile(0.50));
  EXPECT_DOUBLE_EQ(m->hist.p90(), m->hist.quantile(0.90));
  EXPECT_DOUBLE_EQ(m->hist.p99(), m->hist.quantile(0.99));
  EXPECT_LE(m->hist.p50(), m->hist.p90());
  EXPECT_LE(m->hist.p90(), m->hist.p99());
}

TEST(MetricsSnapshot, CsvStartsWithSchemaComment) {
  MetricsRegistry reg;
  reg.add(reg.counter("t.count"), 3);
  std::ostringstream os;
  reg.snapshot().write_csv(os);
  const std::string csv = os.str();
  EXPECT_EQ(csv.rfind("# schema: tagnn.metrics_csv.v2\n", 0), 0u) << csv;
  EXPECT_NE(csv.find("name,kind,value,count,sum,min,max,p50,p90,p99"),
            std::string::npos);
}

TEST(MetricsSnapshot, NonFiniteGaugeSerialisesAsNullJson) {
  MetricsRegistry reg;
  reg.set(reg.gauge("t.bad"), std::numeric_limits<double>::quiet_NaN());
  std::ostringstream os;
  reg.snapshot().write_json(os);
  std::string err;
  EXPECT_TRUE(json_valid(os.str(), &err)) << err;
  EXPECT_NE(os.str().find("\"value\": null"), std::string::npos);
}

// --- ledger -----------------------------------------------------------

RunRecord make_record(const std::string& workload, double cycles) {
  RunRecord rec;
  rec.workload = workload;
  rec.git_sha = "deadbeef";
  rec.config_fingerprint = fingerprint("cfg");
  rec.env = "test";
  rec.set("cycles.total", cycles);
  rec.set("seconds", cycles / 225e6);
  return rec;
}

TEST(Ledger, FingerprintIsStableAndDistinguishes) {
  EXPECT_EQ(fingerprint("abc"), fingerprint("abc"));
  EXPECT_NE(fingerprint("abc"), fingerprint("abd"));
  EXPECT_EQ(fingerprint("x").rfind("cfg-", 0), 0u);
  EXPECT_EQ(fingerprint("x").size(), 4u + 16u);
}

TEST(Ledger, RoundTripsThroughJsonl) {
  std::stringstream ss;
  ss << run_record_json(make_record("w1", 100)) << "\n"
     << "\n"  // blank line tolerated
     << run_record_json(make_record("w2", 200)) << "\n"
     << "{\"schema\": \"other.v9\"}\n"      // wrong schema -> skipped
     << "{\"schema\": \"tagnn.run.v1\",";  // torn last line -> skipped
  std::size_t skipped = 0;
  const std::vector<RunRecord> got = parse_ledger(ss, &skipped);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(skipped, 2u);
  EXPECT_EQ(got[0].workload, "w1");
  EXPECT_EQ(got[0].git_sha, "deadbeef");
  EXPECT_EQ(got[0].config_fingerprint, fingerprint("cfg"));
  EXPECT_DOUBLE_EQ(got[0].metric("cycles.total"), 100.0);
  EXPECT_DOUBLE_EQ(got[1].metric("cycles.total"), 200.0);
  EXPECT_DOUBLE_EQ(got[1].metric("missing", -1), -1.0);
}

TEST(Ledger, EveryLineIsValidJson) {
  const std::string line = run_record_json(make_record("w", 123));
  std::string err;
  EXPECT_TRUE(json_valid(line, &err)) << err;
  EXPECT_EQ(line.find('\n'), std::string::npos);
}

TEST(Ledger, AppendAndLoadFile) {
  const std::string path =
      ::testing::TempDir() + "tagnn_test_ledger.jsonl";
  std::remove(path.c_str());
  EXPECT_TRUE(load_ledger(path).empty());  // missing file -> empty
  append_run_record(path, make_record("w", 1));
  append_run_record(path, make_record("w", 2));
  const std::vector<RunRecord> got = load_ledger(path);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_DOUBLE_EQ(got[1].metric("cycles.total"), 2.0);
  std::remove(path.c_str());
}

// --- drift ------------------------------------------------------------

TEST(Drift, FlagsTwoTimesSlowdown) {
  std::vector<RunRecord> ledger;
  for (const double c : {1000.0, 1010.0, 990.0, 1005.0}) {
    ledger.push_back(make_record("w", c));
  }
  ledger.push_back(make_record("w", 2000.0));  // 2x regression
  const std::vector<DriftFinding> f = detect_drift(ledger);
  ASSERT_FALSE(f.empty());
  EXPECT_EQ(f[0].metric, "cycles.total");
  EXPECT_EQ(f[0].workload, "w");
  EXPECT_GE(f[0].severity, 1.0);
}

TEST(Drift, CleanHistoryStaysQuiet) {
  std::vector<RunRecord> ledger;
  for (const double c : {1000.0, 1020.0, 980.0, 1010.0, 995.0}) {
    ledger.push_back(make_record("w", c));
  }
  EXPECT_TRUE(detect_drift(ledger).empty());
}

TEST(Drift, IdenticalHistoryToleratesRelFloorJitter) {
  // MAD = 0: the rel_floor keeps a +5% wobble from flagging.
  std::vector<RunRecord> ledger;
  for (int i = 0; i < 5; ++i) ledger.push_back(make_record("w", 1000.0));
  ledger.push_back(make_record("w", 1050.0));
  EXPECT_TRUE(detect_drift(ledger).empty());
}

TEST(Drift, NeedsMinimumHistory) {
  std::vector<RunRecord> ledger;
  ledger.push_back(make_record("w", 1000.0));
  ledger.push_back(make_record("w", 9000.0));  // only 1 prior entry
  EXPECT_TRUE(detect_drift(ledger).empty());
}

TEST(Drift, JudgesOnlyMatchingWorkload) {
  std::vector<RunRecord> ledger;
  for (const double c : {10.0, 10.0, 10.0, 10.0}) {
    ledger.push_back(make_record("other", c));
  }
  // Last entry has no same-workload history at all.
  ledger.push_back(make_record("w", 99999.0));
  EXPECT_TRUE(detect_drift(ledger).empty());
}

// --- HTML report ------------------------------------------------------

TEST(HtmlReport, SmokeWithAllSectionsAndValidDataBlock) {
  HtmlReportInputs in;
  in.title = "smoke <report> & co";
  in.summary = {{"workload", "GT/T-GCN"}, {"cycles", "1474"}};
  RooflineInput ri;
  ri.label = "run";
  ri.macs = 1000;
  ri.dram_bytes = 10;
  ri.total_cycles = 500;
  ri.peak_macs_per_cycle = 4;
  ri.peak_bytes_per_cycle = 8;
  in.rooflines.push_back(analyze_roofline(ri));
  CycleStackInput ci;
  ci.label = "run";
  ci.total = 1000;
  ci.units = {{"msdl", 700}, {"gnn", 500}, {"memory", 900}};
  in.stacks.push_back(build_cycle_stack(ci));
  for (const double c : {1000.0, 1010.0, 990.0, 2000.0}) {
    in.ledger.push_back(make_record("w", c));
    // Metric names come from the ledger file: a quote in one must not
    // break the embedded JSON (it drifts, so it reaches both names).
    in.ledger.back().set("lat\"ency", c);
  }
  in.drift = detect_drift(in.ledger);
  in.sparkline_metric = "lat\"ency";
  in.trace_path = "trace.json";

  const std::string html = render_html_report(in);
  for (const char* id :
       {"id=\"summary\"", "id=\"roofline\"", "id=\"cycle-stacks\"",
        "id=\"ledger\"", "id=\"report-data\""}) {
    EXPECT_NE(html.find(id), std::string::npos) << id;
  }
  EXPECT_NE(html.find("<svg"), std::string::npos);
  // The title must be escaped, never raw.
  EXPECT_EQ(html.find("smoke <report>"), std::string::npos);

  // Extract the embedded JSON block and validate it.
  const std::string open =
      "<script type=\"application/json\" id=\"report-data\">";
  const std::size_t a = html.find(open);
  ASSERT_NE(a, std::string::npos);
  const std::size_t b = html.find("</script>", a);
  ASSERT_NE(b, std::string::npos);
  std::string data = html.substr(a + open.size(), b - a - open.size());
  // Undo the HTML-safety escape before validating.
  for (std::size_t p = data.find("<\\/"); p != std::string::npos;
       p = data.find("<\\/", p)) {
    data.erase(p + 1, 1);
  }
  std::string err;
  EXPECT_TRUE(json_valid(data, &err)) << err << "\n" << data;
  JsonValue doc;
  ASSERT_TRUE(json_parse(data, &doc, &err)) << err;
  EXPECT_EQ(doc.string_at("schema"), "tagnn.report_html.v1");
  const JsonValue* ledger = doc.find("ledger");
  ASSERT_NE(ledger, nullptr);
  EXPECT_EQ(ledger->string_at("sparkline_metric"), "lat\"ency");
  const JsonValue* drift = ledger->find("drift");
  ASSERT_NE(drift, nullptr);
  bool quoted_drift = false;
  for (const JsonValue& d : drift->as_array()) {
    quoted_drift |= d.string_at("metric") == "lat\"ency";
  }
  EXPECT_TRUE(quoted_drift);
}

TEST(HtmlReport, EmptyInputsStillEmitAllSections) {
  const std::string html = render_html_report(HtmlReportInputs{});
  for (const char* id :
       {"id=\"summary\"", "id=\"roofline\"", "id=\"cycle-stacks\"",
        "id=\"ledger\"", "id=\"report-data\""}) {
    EXPECT_NE(html.find(id), std::string::npos) << id;
  }
}

TEST(HtmlEscape, EscapesMarkup) {
  EXPECT_EQ(html_escape("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
}

}  // namespace
}  // namespace tagnn::obs::analyze
