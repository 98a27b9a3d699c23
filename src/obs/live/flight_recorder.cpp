#include "obs/live/flight_recorder.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <exception>
#include <sstream>

#include "obs/jsonv.hpp"
#include "obs/mem/memtrack.hpp"
#include "obs/metrics.hpp"

namespace tagnn::obs::live {
namespace {

// Previous dispositions, restored before re-raising so sanitizer /
// default crash reporting still runs after the dump.
struct sigaction g_prev_segv;
struct sigaction g_prev_abrt;
std::terminate_handler g_prev_terminate = nullptr;

// --- async-signal-safe primitives -----------------------------------

bool safe_write(int fd, const char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// Decimal rendering onto a caller-provided buffer (snprintf is not on
// the async-signal-safe list). Returns the number of bytes written.
std::size_t u64_to_dec(std::uint64_t v, char* buf) {
  char tmp[24];
  std::size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  for (std::size_t i = 0; i < n; ++i) buf[i] = tmp[n - 1 - i];
  return n;
}

void signal_handler(int sig) {
  FlightRecorder::global().dump_from_signal(sig);
  // Restore the previous disposition and re-deliver, so the process
  // still dies with the right status (and sanitizers still report).
  ::sigaction(sig, sig == SIGSEGV ? &g_prev_segv : &g_prev_abrt, nullptr);
  ::raise(sig);
}

[[noreturn]] void terminate_handler() {
  FlightRecorder::global().dump_now("terminate");
  if (g_prev_terminate != nullptr) g_prev_terminate();
  std::abort();
}

}  // namespace

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder* r = new FlightRecorder();
  return *r;
}

bool FlightRecorder::installed() const {
  return installed_.load(std::memory_order_acquire);
}

bool FlightRecorder::install(const std::string& path, std::string* error) {
  if (installed()) {
    if (error != nullptr) *error = "flight recorder already installed";
    return false;
  }
  const int fd =
      ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) {
    if (error != nullptr) {
      *error = "cannot open " + path + ": " + std::strerror(errno);
    }
    return false;
  }
  // Begin marker goes down immediately: even a SIGKILL later leaves a
  // parseable (if empty) dump.
  std::ostringstream head;
  head << "{\"schema\": \"tagnn.flight.v1\", \"event\": \"begin\", "
       << "\"pid\": " << ::getpid() << ", \"slots\": " << kSlots << "}\n";
  const std::string h = head.str();
  if (!safe_write(fd, h.data(), h.size())) {
    ::close(fd);
    if (error != nullptr) *error = "cannot write to " + path;
    return false;
  }
  fd_.store(fd, std::memory_order_release);

  // Handlers go in exactly once per process, even across
  // reset_for_test() cycles — a second sigaction would capture our own
  // handler as the "previous" one and re-raise into a loop.
  static bool handlers_installed = false;
  if (!handlers_installed) {
    handlers_installed = true;
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = signal_handler;
    ::sigemptyset(&sa.sa_mask);
    ::sigaction(SIGSEGV, &sa, &g_prev_segv);
    ::sigaction(SIGABRT, &sa, &g_prev_abrt);
    g_prev_terminate = std::set_terminate(terminate_handler);
  }

  installed_.store(true, std::memory_order_release);
  return true;
}

void FlightRecorder::reset_for_test() {
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) ::close(fd);
  installed_.store(false, std::memory_order_release);
  dumped_.store(false, std::memory_order_release);
  next_seq_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
  mem_rss_.store(0, std::memory_order_relaxed);
  mem_maxrss_.store(0, std::memory_order_relaxed);
  mem_top_count_.store(0, std::memory_order_relaxed);
  for (Slot& s : slots_) {
    s.stamp.store(0, std::memory_order_relaxed);
    s.len.store(0, std::memory_order_relaxed);
    s.seq.store(0, std::memory_order_relaxed);
  }
}

void FlightRecorder::record_line(std::string_view compact_json) {
  if (compact_json.size() >= kSlotBytes) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::uint64_t seq =
      next_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  Slot& s = slots_[(seq - 1) % kSlots];
  const std::uint32_t stamp = s.stamp.load(std::memory_order_relaxed);
  s.stamp.store(stamp + 1, std::memory_order_release);  // odd: in flux
  std::memcpy(s.text, compact_json.data(), compact_json.size());
  s.len.store(static_cast<std::uint32_t>(compact_json.size()),
              std::memory_order_relaxed);
  s.seq.store(seq, std::memory_order_relaxed);
  s.stamp.store(stamp + 2, std::memory_order_release);  // even: stable
}

void FlightRecorder::write_slots(int fd) {
  // Emit stable slots oldest-first. Order is by seq; with kSlots slots
  // a simple selection pass is enough and allocation-free.
  std::uint64_t last = 0;
  for (std::size_t pass = 0; pass < kSlots; ++pass) {
    std::uint64_t best = 0;
    std::size_t best_i = kSlots;
    for (std::size_t i = 0; i < kSlots; ++i) {
      const std::uint32_t stamp = slots_[i].stamp.load(std::memory_order_acquire);
      if (stamp == 0 || (stamp & 1u) != 0) continue;  // empty or torn
      const std::uint64_t seq = slots_[i].seq.load(std::memory_order_relaxed);
      if (seq <= last) continue;
      if (best_i == kSlots || seq < best) {
        best = seq;
        best_i = i;
      }
    }
    if (best_i == kSlots) return;
    const Slot& s = slots_[best_i];
    const std::uint32_t len = s.len.load(std::memory_order_relaxed);
    safe_write(fd, s.text, len);
    safe_write(fd, "\n", 1);
    last = best;
  }
}

void FlightRecorder::note_memory(std::uint64_t rss_bytes,
                                 std::uint64_t maxrss_bytes,
                                 const std::uint32_t* top_subsystems,
                                 const std::uint64_t* top_bytes,
                                 std::size_t count) {
  mem_rss_.store(rss_bytes, std::memory_order_relaxed);
  mem_maxrss_.store(maxrss_bytes, std::memory_order_relaxed);
  if (count > kMemTop) count = kMemTop;
  for (std::size_t i = 0; i < count; ++i) {
    mem_top_sub_[i].store(top_subsystems[i], std::memory_order_relaxed);
    mem_top_bytes_[i].store(top_bytes[i], std::memory_order_relaxed);
  }
  mem_top_count_.store(static_cast<std::uint32_t>(count),
                       std::memory_order_relaxed);
}

void FlightRecorder::write_end_marker(int fd, const char* cause,
                                      long signal_number) {
  char buf[512];
  std::size_t n = 0;
  auto lit = [&](const char* s) {
    const std::size_t l = std::strlen(s);
    std::memcpy(buf + n, s, l);
    n += l;
  };
  lit("{\"schema\": \"tagnn.flight.v1\", \"event\": \"end\", \"cause\": \"");
  lit(cause);
  lit("\", \"signal\": ");
  n += u64_to_dec(static_cast<std::uint64_t>(signal_number), buf + n);
  lit(", \"recorded\": ");
  n += u64_to_dec(next_seq_.load(std::memory_order_relaxed), buf + n);
  lit(", \"dropped_oversize\": ");
  n += u64_to_dec(dropped_.load(std::memory_order_relaxed), buf + n);
  // Last-breath memory figures published by the sampler (note_memory).
  // subsystem_name() is a switch over an enum returning string
  // literals — async-signal-safe.
  lit(", \"rss_bytes\": ");
  n += u64_to_dec(mem_rss_.load(std::memory_order_relaxed), buf + n);
  lit(", \"maxrss_bytes\": ");
  n += u64_to_dec(mem_maxrss_.load(std::memory_order_relaxed), buf + n);
  lit(", \"mem_top\": [");
  std::uint32_t top = mem_top_count_.load(std::memory_order_relaxed);
  if (top > kMemTop) top = kMemTop;
  std::uint32_t emitted = 0;
  for (std::uint32_t i = 0; i < top; ++i) {
    const std::uint32_t sub = mem_top_sub_[i].load(std::memory_order_relaxed);
    if (sub >= mem::kNumSubsystems) continue;
    if (emitted++ > 0) lit(", ");
    lit("{\"subsystem\": \"");
    lit(mem::subsystem_name(static_cast<mem::Subsystem>(sub)));
    lit("\", \"bytes\": ");
    n += u64_to_dec(mem_top_bytes_[i].load(std::memory_order_relaxed),
                    buf + n);
    lit("}");
  }
  lit("]}\n");
  safe_write(fd, buf, n);
}

void FlightRecorder::dump_from_signal(int signal_number) {
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0) return;
  if (dumped_.exchange(true, std::memory_order_acq_rel)) return;
  write_slots(fd);
  write_end_marker(fd, signal_number == SIGSEGV ? "sigsegv" : "signal",
                   signal_number);
  ::fsync(fd);
}

void FlightRecorder::dump_now(const char* cause) {
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0) return;
  if (dumped_.exchange(true, std::memory_order_acq_rel)) return;
  write_slots(fd);
  // Normal context: a true final scrape is allowed here (allocates,
  // takes the registry mutex) — the one thing the signal path cannot do.
  std::ostringstream line;
  line << "{\"schema\": \"tagnn.live.v1\", \"event\": \"final_scrape\", "
       << "\"metrics\": ";
  MetricsRegistry::global().snapshot().write_metrics_object_compact(line);
  line << "}\n";
  const std::string l = line.str();
  safe_write(fd, l.data(), l.size());
  write_end_marker(fd, cause, 0);
  ::fsync(fd);
}

}  // namespace tagnn::obs::live
