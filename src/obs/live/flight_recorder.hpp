// Crash-time flight recorder: the last N live telemetry samples plus a
// shutdown marker, dumped to a pre-opened file descriptor when the
// process dies abnormally (SIGSEGV, SIGABRT, std::terminate).
//
// Async-signal-safety is the design constraint. The sampler renders
// each tick to a compact JSON line *in normal context* and stores it in
// a fixed array of seqlock-stamped byte slots; the signal handler then
// only reads stable slots and calls write(2) — no allocation, no locks,
// no formatting beyond integer-to-decimal onto the stack. A torn slot
// (sampler mid-write when the signal hit) is skipped, never half-
// dumped. The std::terminate path runs in normal context, so it
// additionally appends one final full registry scrape before aborting.
//
// Output format is JSONL (schema markers tagnn.flight.v1 around
// tagnn.live.v1 sample lines), validated by `json_validate --jsonl`,
// which tolerates the torn final line an abrupt death can leave.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace tagnn::obs::live {

class FlightRecorder {
 public:
  static constexpr std::size_t kSlots = 16;
  static constexpr std::size_t kSlotBytes = 1 << 16;

  /// Process-wide recorder (intentionally leaked; signal handlers may
  /// fire during shutdown).
  static FlightRecorder& global();

  /// Opens `path` (truncating), writes the begin marker, and installs
  /// the SIGSEGV/SIGABRT handlers plus the std::terminate hook. One
  /// install per process; false + *error on I/O failure or reinstall.
  bool install(const std::string& path, std::string* error = nullptr);
  bool installed() const;

  /// Stores one pre-rendered single-line JSON document (no newline) in
  /// the next ring slot. Called by the sampler each tick; lines longer
  /// than kSlotBytes-1 are dropped and counted, never truncated into
  /// invalid JSON.
  void record_line(std::string_view compact_json);

  /// Subsystem slots reported in the end marker's "mem_top" array.
  static constexpr std::size_t kMemTop = 3;

  /// Normal-context publisher: the sampler pushes the latest process
  /// RSS/maxrss and the top tracked subsystems here each tick, so the
  /// async-signal-safe end marker can report memory state at death
  /// without reading /proc or taking the registry mutex. Fields are
  /// individually atomic; a crash mid-update may mix two ticks, which
  /// is acceptable for a last-breath dump.
  void note_memory(std::uint64_t rss_bytes, std::uint64_t maxrss_bytes,
                   const std::uint32_t* top_subsystems,
                   const std::uint64_t* top_bytes, std::size_t count);

  /// Normal-context dump: ring slots, a final full registry scrape, and
  /// an end marker with `cause`. Used by the terminate hook and tests.
  void dump_now(const char* cause);

  /// Async-signal-safe dump: stable ring slots + end marker naming the
  /// signal. Public for the forked-fault test.
  void dump_from_signal(int signal_number);

  /// Testing hook: closes the fd and clears the installed/dumped state
  /// and the ring so a test (or a forked child) can install onto a
  /// fresh path. The signal handlers themselves stay in place — they
  /// are installed once per process.
  void reset_for_test();

 private:
  FlightRecorder() = default;

  struct Slot {
    // Seqlock stamp: odd while the sampler is writing, even when the
    // text is stable; 0 = never written.
    std::atomic<std::uint32_t> stamp{0};
    std::atomic<std::uint32_t> len{0};
    std::atomic<std::uint64_t> seq{0};
    char text[kSlotBytes];
  };

  void write_slots(int fd);
  void write_end_marker(int fd, const char* cause, long signal_number);

  std::atomic<bool> installed_{false};
  std::atomic<int> fd_{-1};
  std::atomic<std::uint64_t> next_seq_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<bool> dumped_{false};  // first crash path wins
  // Latest memory figures from note_memory(), read by the end marker.
  std::atomic<std::uint64_t> mem_rss_{0};
  std::atomic<std::uint64_t> mem_maxrss_{0};
  std::atomic<std::uint32_t> mem_top_count_{0};
  std::atomic<std::uint32_t> mem_top_sub_[kMemTop] = {};
  std::atomic<std::uint64_t> mem_top_bytes_[kMemTop] = {};
  Slot slots_[kSlots];
};

}  // namespace tagnn::obs::live
