// Tests for the JSON run report, the shared JSON string escaper and
// TagnnConfig validation.
#include <gtest/gtest.h>

#include <numeric>
#include <sstream>

#include "common/json_escape.hpp"
#include "graph/datasets.hpp"
#include "obs/analyze/jparse.hpp"
#include "obs/jsonv.hpp"
#include "tagnn/report.hpp"

namespace tagnn {
namespace {

std::string report_json(const TagnnConfig& cfg, const AccelResult& r) {
  std::ostringstream os;
  write_json_report(os, "GT/T-GCN", cfg, r);
  return os.str();
}

TEST(JsonEscape, HandlesSpecialCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
  EXPECT_EQ(json_escape("a\tb"), "a\\tb");
  EXPECT_EQ(json_escape("a\rb"), "a\\rb");
  EXPECT_EQ(json_escape(std::string("a\x1f") + "b"), "a\\u001fb");
  // Multi-byte UTF-8 (two-, three- and four-byte sequences) passes
  // through byte for byte: only ASCII control bytes are escaped.
  EXPECT_EQ(json_escape("caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x93\x88"),
            "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x93\x88");
}

TEST(Report, ContainsAllSections) {
  const DynamicGraph g = datasets::load("GT", 0.1, 4);
  const DgnnWeights w =
      DgnnWeights::init(ModelConfig::preset("T-GCN"), g.feature_dim(), 1);
  TagnnConfig cfg;
  const AccelResult r = TagnnAccelerator(cfg).run(g, w);
  const std::string j = report_json(cfg, r);
  for (const char* key :
       {"\"workload\"", "\"config\"", "\"cycles\"", "\"seconds\"",
        "\"energy_j\"", "\"counts\"", "\"dcu_utilization\"",
        "\"rnn_skip\"", "\"format\""}) {
    EXPECT_NE(j.find(key), std::string::npos) << key;
  }
  // Balanced braces (cheap well-formedness check).
  EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
            std::count(j.begin(), j.end(), '}'));
}

TEST(Report, IsValidJsonAndCarriesDiagnosis) {
  const DynamicGraph g = datasets::load("GT", 0.1, 4);
  const DgnnWeights w =
      DgnnWeights::init(ModelConfig::preset("T-GCN"), g.feature_dim(), 1);
  TagnnConfig cfg;
  const AccelResult r = TagnnAccelerator(cfg).run(g, w);
  const std::string j = report_json(cfg, r);

  std::string err;
  ASSERT_TRUE(obs::json_valid(j, &err)) << err;

  obs::analyze::JsonValue doc;
  ASSERT_TRUE(obs::analyze::json_parse(j, &doc, &err)) << err;
  const obs::analyze::JsonValue* diag = doc.find("diagnosis");
  ASSERT_NE(diag, nullptr);
  const obs::analyze::JsonValue* roof = diag->find("roofline");
  ASSERT_NE(roof, nullptr);
  const std::string verdict = roof->string_at("verdict");
  EXPECT_TRUE(verdict == "memory-bound" || verdict == "compute-bound")
      << verdict;
  const obs::analyze::JsonValue* cs = diag->find("cycle_stack");
  ASSERT_NE(cs, nullptr);

  // Sum-to-total invariant, aggregate and every window.
  const auto check_sums = [](const obs::analyze::JsonValue& stack) {
    const obs::analyze::JsonValue* comps = stack.find("components");
    ASSERT_NE(comps, nullptr);
    double sum = 0;
    for (const auto& [name, c] : comps->as_object()) {
      (void)name;
      sum += c.number_at("attributed");
    }
    EXPECT_DOUBLE_EQ(sum, stack.number_at("total"));
  };
  const obs::analyze::JsonValue* agg = cs->find("aggregate");
  ASSERT_NE(agg, nullptr);
  check_sums(*agg);
  const obs::analyze::JsonValue* wins = cs->find("windows");
  ASSERT_NE(wins, nullptr);
  ASSERT_TRUE(wins->is_array());
  EXPECT_FALSE(wins->as_array().empty());
  for (const auto& wstack : wins->as_array()) check_sums(wstack);
}

TEST(Report, DiagnoseHelpersMatchResult) {
  const DynamicGraph g = datasets::load("GT", 0.1, 6);
  const DgnnWeights w =
      DgnnWeights::init(ModelConfig::preset("T-GCN"), g.feature_dim(), 1);
  TagnnConfig cfg;
  cfg.window = 3;
  const AccelResult r = TagnnAccelerator(cfg).run(g, w);

  const auto roof = diagnose_roofline(cfg, r);
  EXPECT_DOUBLE_EQ(roof.peak_macs_per_cycle,
                   static_cast<double>(cfg.total_macs()));
  EXPECT_GT(roof.peak_bytes_per_cycle, 0);

  const auto agg = diagnose_cycle_stack(r);
  const std::uint64_t agg_sum = std::accumulate(
      agg.components.begin(), agg.components.end(), std::uint64_t{0},
      [](std::uint64_t s, const auto& c) { return s + c.attributed; });
  EXPECT_EQ(agg_sum, r.cycles.total);

  const auto stacks = diagnose_window_stacks(r);
  ASSERT_EQ(stacks.size(), r.telemetry.window_records.size());
  for (std::size_t i = 0; i < stacks.size(); ++i) {
    const std::uint64_t sum = std::accumulate(
        stacks[i].components.begin(), stacks[i].components.end(),
        std::uint64_t{0},
        [](std::uint64_t s, const auto& c) { return s + c.attributed; });
    EXPECT_EQ(sum, r.telemetry.window_records[i].total) << stacks[i].label;
  }
}

TEST(ConfigValidate, DefaultsAreValid) {
  TagnnConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ConfigValidate, RejectsBrokenConfigs) {
  TagnnConfig cfg;
  cfg.num_dcus = 0;
  EXPECT_THROW(cfg.validate(), std::logic_error);

  TagnnConfig th;
  th.thresholds = {0.9f, 0.1f};  // inverted
  EXPECT_THROW(th.validate(), std::logic_error);

  TagnnConfig huge;
  huge.num_dcus = 64;  // 16k MACs cannot fit the U280
  EXPECT_THROW(huge.validate(), std::logic_error);
}

}  // namespace
}  // namespace tagnn
