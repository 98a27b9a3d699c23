#include "obs/analyze/cycle_stack.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <ostream>
#include <sstream>

#include "common/json_escape.hpp"
#include "obs/jsonv.hpp"

namespace tagnn::obs::analyze {
namespace {

std::string pct_str(double pct) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", pct);
  return buf;
}

// Unit-specific remediation advice, phrased against the config knobs
// the simulator actually exposes.
std::string hint_for(const std::string& unit, double pct,
                     const std::string& label) {
  const std::string head = unit + " " + pct_str(pct) + "% of " + label;
  if (unit == "memory") {
    return "HBM stall " + pct_str(pct) + "% of " + label +
           " — raise feature_buffer_bytes, keep OADL + O-CSR on for "
           "sequential streams, or widen the window to amortise loads";
  }
  if (unit == "gnn") {
    return head +
           " — add DCUs / CPEs per DCU, or widen the window so "
           "cross-snapshot reuse removes more vertex recomputation";
  }
  if (unit == "rnn") {
    return head +
           " — raise theta_s/theta_e so ADSC skips more cell updates, "
           "or add SCU lanes";
  }
  if (unit == "msdl") {
    return head +
           " — enable pipeline_windows to prefetch the loader phase, "
           "or add loader replicas";
  }
  if (unit == "classify" || unit == "traverse") {
    return head + " — add loader replicas to widen the " + unit +
           " pipeline";
  }
  return head + " — dominant component; no specific knob mapped";
}

}  // namespace

CycleStack build_cycle_stack(const CycleStackInput& in) {
  CycleStack out;
  out.label = in.label;
  out.total = in.total;
  out.components.reserve(in.units.size() + 1);

  long double busy_sum = 0;
  for (const auto& [name, busy] : in.units) {
    busy_sum += static_cast<long double>(busy);
    CycleStackComponent c;
    c.name = name;
    c.busy = busy;
    out.components.push_back(std::move(c));
  }

  if (in.total == 0) return out;
  if (busy_sum <= 0) {
    // Nothing attributed anywhere: park the whole total in "other" so
    // the sum invariant still holds.
    CycleStackComponent other;
    other.name = "other";
    other.attributed = in.total;
    other.share_pct = 100.0;
    out.components.push_back(std::move(other));
    out.dominant = "other";
    out.dominant_pct = 100.0;
    return out;
  }

  // Largest-remainder rescale of busy cycles onto the overlapped total:
  // floor every quota, then hand the leftover cycles to the components
  // with the biggest fractional parts so sum(attributed) == total.
  std::vector<long double> fracs(out.components.size());
  std::uint64_t assigned = 0;
  for (std::size_t i = 0; i < out.components.size(); ++i) {
    const long double quota =
        static_cast<long double>(out.components[i].busy) /
        busy_sum * static_cast<long double>(in.total);
    const auto fl = static_cast<std::uint64_t>(std::floor(
        static_cast<double>(quota)));
    out.components[i].attributed = fl;
    fracs[i] = quota - static_cast<long double>(fl);
    assigned += fl;
  }
  std::vector<std::size_t> order(out.components.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&fracs](std::size_t a, std::size_t b) {
                     return fracs[a] > fracs[b];
                   });
  std::uint64_t leftover = in.total - assigned;
  for (std::size_t k = 0; leftover > 0 && !order.empty(); ++k) {
    ++out.components[order[k % order.size()]].attributed;
    --leftover;
  }

  std::size_t top = 0;
  for (std::size_t i = 0; i < out.components.size(); ++i) {
    out.components[i].share_pct =
        100.0 * static_cast<double>(out.components[i].attributed) /
        static_cast<double>(in.total);
    if (out.components[i].attributed >
        out.components[top].attributed) {
      top = i;
    }
  }
  out.dominant = out.components[top].name;
  out.dominant_pct = out.components[top].share_pct;

  // Hints, ranked by share; every component that takes a meaningful
  // slice (>= 15%) gets one so the report reads as a to-do list.
  std::vector<std::size_t> rank(out.components.size());
  std::iota(rank.begin(), rank.end(), 0);
  std::stable_sort(rank.begin(), rank.end(),
                   [&](std::size_t a, std::size_t b) {
                     return out.components[a].attributed >
                            out.components[b].attributed;
                   });
  for (std::size_t i : rank) {
    const CycleStackComponent& c = out.components[i];
    if (c.attributed == 0) continue;
    if (i != top && c.share_pct < 15.0) continue;
    out.hints.push_back(hint_for(c.name, c.share_pct, out.label));
  }
  return out;
}

void write_cycle_stack_json(std::ostream& os, const CycleStack& s,
                            int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string in(static_cast<std::size_t>(indent) + 2, ' ');
  os << "{\n"
     << in << "\"label\": \"" << json_escape(s.label) << "\",\n"
     << in << "\"total\": " << s.total << ",\n"
     << in << "\"components\": {";
  for (std::size_t i = 0; i < s.components.size(); ++i) {
    const CycleStackComponent& c = s.components[i];
    os << (i ? ", " : "") << "\"" << json_escape(c.name)
       << "\": {\"busy\": " << c.busy
       << ", \"attributed\": " << c.attributed << ", \"share_pct\": ";
    write_json_number(os, c.share_pct);
    os << "}";
  }
  os << "},\n"
     << in << "\"dominant\": \"" << json_escape(s.dominant) << "\",\n"
     << in << "\"dominant_pct\": ";
  write_json_number(os, s.dominant_pct);
  os << ",\n" << in << "\"hints\": [";
  for (std::size_t i = 0; i < s.hints.size(); ++i) {
    os << (i ? ", " : "") << "\"" << json_escape(s.hints[i]) << "\"";
  }
  os << "]\n" << pad << "}";
}

}  // namespace tagnn::obs::analyze
