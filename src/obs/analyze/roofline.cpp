#include "obs/analyze/roofline.hpp"

#include <algorithm>
#include <ostream>

#include "common/json_escape.hpp"
#include "obs/jsonv.hpp"

namespace tagnn::obs::analyze {

RooflineResult analyze_roofline(const RooflineInput& in) {
  RooflineResult r;
  r.label = in.label;
  r.peak_macs_per_cycle = in.peak_macs_per_cycle;
  r.peak_bytes_per_cycle = in.peak_bytes_per_cycle;

  if (in.peak_macs_per_cycle <= 0 || in.peak_bytes_per_cycle <= 0) {
    // Degenerate machine description: nothing meaningful to place.
    r.verdict = "compute-bound";
    return r;
  }
  r.ridge = in.peak_macs_per_cycle / in.peak_bytes_per_cycle;

  if (in.dram_bytes > 0) {
    r.arithmetic_intensity = in.macs / in.dram_bytes;
  } else {
    r.infinite_intensity = true;
  }

  const bool memory_bound =
      !r.infinite_intensity && r.arithmetic_intensity < r.ridge;
  r.verdict = memory_bound ? "memory-bound" : "compute-bound";
  r.attainable_macs_per_cycle =
      memory_bound ? r.arithmetic_intensity * in.peak_bytes_per_cycle
                   : in.peak_macs_per_cycle;
  if (in.total_cycles > 0) {
    r.achieved_macs_per_cycle = in.macs / in.total_cycles;
  }
  if (r.attainable_macs_per_cycle > 0) {
    r.headroom_pct = std::clamp(
        100.0 * (1.0 - r.achieved_macs_per_cycle /
                           r.attainable_macs_per_cycle),
        0.0, 100.0);
  }
  return r;
}

void write_roofline_json(std::ostream& os, const RooflineResult& r,
                         int indent) {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string in(static_cast<std::size_t>(indent) + 2, ' ');
  os << "{\n"
     << in << "\"label\": \"" << json_escape(r.label) << "\",\n"
     << in << "\"verdict\": \"" << json_escape(r.verdict) << "\",\n"
     << in << "\"arithmetic_intensity\": ";
  if (r.infinite_intensity) {
    os << "null";
  } else {
    write_json_number(os, r.arithmetic_intensity);
  }
  os << ",\n" << in << "\"ridge\": ";
  write_json_number(os, r.ridge);
  os << ",\n" << in << "\"attainable_macs_per_cycle\": ";
  write_json_number(os, r.attainable_macs_per_cycle);
  os << ",\n" << in << "\"achieved_macs_per_cycle\": ";
  write_json_number(os, r.achieved_macs_per_cycle);
  os << ",\n" << in << "\"headroom_pct\": ";
  write_json_number(os, r.headroom_pct);
  os << ",\n" << in << "\"peak_macs_per_cycle\": ";
  write_json_number(os, r.peak_macs_per_cycle);
  os << ",\n" << in << "\"peak_bytes_per_cycle\": ";
  write_json_number(os, r.peak_bytes_per_cycle);
  os << "\n" << pad << "}";
}

}  // namespace tagnn::obs::analyze
