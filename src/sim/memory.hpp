// Off-chip (HBM) memory service model.
//
// Transfers are characterised by volume and a sequential fraction:
// sequential bytes stream at full channel bandwidth, random accesses
// pay a row-granularity penalty (a 32-byte useful beat costs a 64-byte
// burst, ~0.5 efficiency). Latency is absorbed by deep pipelining and
// only charged once per burst train.
#pragma once

#include <cstddef>

#include "common/types.hpp"

namespace tagnn {

struct HbmConfig {
  double bandwidth_gbps = 256.0;  // Table 4: 256 GB/s HBM 2.0 (total)
  double random_efficiency = 0.5; // fraction of peak for scattered beats
  double latency_ns = 120.0;      // first-access latency per burst train
  double clock_mhz = 225.0;       // consumer clock for cycle conversion
};

class HbmModel {
 public:
  explicit HbmModel(HbmConfig cfg = {}) : cfg_(cfg) {}

  const HbmConfig& config() const { return cfg_; }

  /// Cycles (at cfg.clock_mhz) to move `bytes` with the given
  /// sequential fraction, interleaved across the whole stack (every
  /// pseudo-channel carries an equal share). Accumulates the totals.
  Cycle transfer(double bytes, double sequential_fraction);

  /// Effective bytes/cycle at the consumer clock for a given pattern.
  double bytes_per_cycle(double sequential_fraction) const;
  /// Peak (fully sequential) bytes/cycle — the denominator of the
  /// bandwidth-occupancy attribution.
  double peak_bytes_per_cycle() const { return bytes_per_cycle(1.0); }

  double total_bytes() const { return total_bytes_; }
  Cycle total_cycles() const { return total_cycles_; }
  /// Number of transfer() burst trains served.
  std::size_t transactions() const { return transactions_; }

 private:
  HbmConfig cfg_;
  double total_bytes_ = 0;
  Cycle total_cycles_ = 0;
  std::size_t transactions_ = 0;
};

}  // namespace tagnn
