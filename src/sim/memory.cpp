#include "sim/memory.hpp"

#include <cmath>

#include "common/check.hpp"

namespace tagnn {

double HbmModel::bytes_per_cycle(double sequential_fraction) const {
  TAGNN_CHECK(sequential_fraction >= 0.0 && sequential_fraction <= 1.0);
  const double eff = sequential_fraction +
                     (1.0 - sequential_fraction) * cfg_.random_efficiency;
  // bytes/s / cycles/s
  return cfg_.bandwidth_gbps * 1e9 * eff / (cfg_.clock_mhz * 1e6);
}

Cycle HbmModel::transfer(double bytes, double sequential_fraction) {
  if (bytes <= 0) return 0;
  const double bpc = bytes_per_cycle(sequential_fraction);
  const double latency_cycles = cfg_.latency_ns * 1e-9 * cfg_.clock_mhz * 1e6;
  const auto cycles = static_cast<Cycle>(
      std::ceil(bytes / bpc + latency_cycles));
  total_bytes_ += bytes;
  total_cycles_ += cycles;
  ++transactions_;
  return cycles;
}

}  // namespace tagnn
