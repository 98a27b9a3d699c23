#include "obs/mem/memtrack.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <ostream>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif
#if defined(__linux__)
#include <unistd.h>
#endif

#include "common/json_escape.hpp"

namespace tagnn::obs::mem {

namespace {

thread_local ScopeState t_scope;  // kUntagged / kNoDomain by default

// Domain names live outside MemRegistry so the header stays free of
// container members; guarded by g_domain_mu, published via the
// registry's domain_count_.
std::mutex g_domain_mu;
std::array<std::string, kMaxDomains>& domain_names() {
  static auto* names = new std::array<std::string, kMaxDomains>{};
  return *names;
}

}  // namespace

const char* subsystem_name(Subsystem s) noexcept {
  switch (s) {
    case Subsystem::kUntagged:
      return "untagged";
    case Subsystem::kCsr:
      return "csr";
    case Subsystem::kPma:
      return "pma";
    case Subsystem::kOcsr:
      return "ocsr";
    case Subsystem::kDelta:
      return "delta";
    case Subsystem::kFeatures:
      return "features";
    case Subsystem::kTensor:
      return "tensor";
    case Subsystem::kServe:
      return "serve";
    case Subsystem::kBallast:
      return "ballast";
    case Subsystem::kCount:
      break;
  }
  return "invalid";
}

ScopeState current_scope() noexcept { return t_scope; }

MemScope::MemScope(Subsystem sub) noexcept : prev_(t_scope) {
  t_scope.sub = sub;
}

MemScope::MemScope(Subsystem sub, DomainId dom) noexcept : prev_(t_scope) {
  t_scope.sub = sub;
  t_scope.dom = dom;
}

MemScope::~MemScope() { t_scope = prev_; }

std::uint64_t MemSnapshot::total_live_bytes() const noexcept {
  std::uint64_t t = 0;
  for (const auto& s : subsystems) t += s.live_bytes;
  return t;
}
std::uint64_t MemSnapshot::total_high_water_bytes() const noexcept {
  std::uint64_t t = 0;
  for (const auto& s : subsystems) t += s.high_water_bytes;
  return t;
}
std::uint64_t MemSnapshot::total_alloc_bytes() const noexcept {
  std::uint64_t t = 0;
  for (const auto& s : subsystems) t += s.alloc_bytes;
  return t;
}
std::uint64_t MemSnapshot::total_allocs() const noexcept {
  std::uint64_t t = 0;
  for (const auto& s : subsystems) t += s.allocs;
  return t;
}
std::uint64_t MemSnapshot::total_frees() const noexcept {
  std::uint64_t t = 0;
  for (const auto& s : subsystems) t += s.frees;
  return t;
}

MemRegistry& MemRegistry::global() noexcept {
  static auto* g = new MemRegistry();
  return *g;
}

void MemRegistry::raise_high_water(std::atomic<std::uint64_t>& hw,
                                   std::uint64_t live) noexcept {
  std::uint64_t cur = hw.load(std::memory_order_relaxed);
  while (cur < live &&
         !hw.compare_exchange_weak(cur, live, std::memory_order_relaxed)) {
  }
}

void MemRegistry::on_alloc(Subsystem s, DomainId d,
                           std::uint64_t bytes) noexcept {
  Counter& c = by_subsystem_[static_cast<std::size_t>(s)];
  const std::uint64_t live =
      c.live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  raise_high_water(c.high_water, live);
  c.allocs.fetch_add(1, std::memory_order_relaxed);
  c.alloc_bytes.fetch_add(bytes, std::memory_order_relaxed);
  if (d != kNoDomain && d < kMaxDomains) {
    DomainCounter& dc = by_domain_[d];
    const std::uint64_t dlive =
        dc.live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    raise_high_water(dc.high_water, dlive);
  }
}

void MemRegistry::on_free(Subsystem s, DomainId d,
                          std::uint64_t bytes) noexcept {
  Counter& c = by_subsystem_[static_cast<std::size_t>(s)];
  c.live.fetch_sub(bytes, std::memory_order_relaxed);
  c.frees.fetch_add(1, std::memory_order_relaxed);
  c.freed_bytes.fetch_add(bytes, std::memory_order_relaxed);
  if (d != kNoDomain && d < kMaxDomains) {
    by_domain_[d].live.fetch_sub(bytes, std::memory_order_relaxed);
  }
}

DomainId MemRegistry::domain(std::string_view name) {
  std::lock_guard<std::mutex> lock(g_domain_mu);
  auto& names = domain_names();
  const std::uint32_t count = domain_count_.load(std::memory_order_acquire);
  for (std::uint32_t i = 1; i < count; ++i) {
    if (names[i] == name) return static_cast<DomainId>(i);
  }
  if (count >= kMaxDomains) return kNoDomain;  // table full: unattributed
  names[count] = std::string(name);
  domain_count_.store(count + 1, std::memory_order_release);
  return static_cast<DomainId>(count);
}

MemSnapshot MemRegistry::snapshot() const {
  MemSnapshot snap;
  for (std::size_t i = 0; i < kNumSubsystems; ++i) {
    const Counter& c = by_subsystem_[i];
    SubsystemStats& s = snap.subsystems[i];
    s.live_bytes = c.live.load(std::memory_order_relaxed);
    s.high_water_bytes = c.high_water.load(std::memory_order_relaxed);
    s.allocs = c.allocs.load(std::memory_order_relaxed);
    s.frees = c.frees.load(std::memory_order_relaxed);
    s.alloc_bytes = c.alloc_bytes.load(std::memory_order_relaxed);
    s.freed_bytes = c.freed_bytes.load(std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(g_domain_mu);
  const std::uint32_t count = domain_count_.load(std::memory_order_acquire);
  snap.domains.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    snap.domains[i].name = domain_names()[i];
    snap.domains[i].live_bytes =
        by_domain_[i].live.load(std::memory_order_relaxed);
    snap.domains[i].high_water_bytes =
        by_domain_[i].high_water.load(std::memory_order_relaxed);
  }
  return snap;
}

SubsystemStats MemRegistry::subsystem_stats(Subsystem s) const noexcept {
  const Counter& c = by_subsystem_[static_cast<std::size_t>(s)];
  SubsystemStats out;
  out.live_bytes = c.live.load(std::memory_order_relaxed);
  out.high_water_bytes = c.high_water.load(std::memory_order_relaxed);
  out.allocs = c.allocs.load(std::memory_order_relaxed);
  out.frees = c.frees.load(std::memory_order_relaxed);
  out.alloc_bytes = c.alloc_bytes.load(std::memory_order_relaxed);
  out.freed_bytes = c.freed_bytes.load(std::memory_order_relaxed);
  return out;
}

void MemRegistry::reset_high_water() noexcept {
  for (auto& c : by_subsystem_) {
    c.high_water.store(c.live.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  }
  for (auto& d : by_domain_) {
    d.high_water.store(d.live.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  }
}

void MemRegistry::reset_for_test() noexcept {
  for (auto& c : by_subsystem_) {
    c.live.store(0, std::memory_order_relaxed);
    c.high_water.store(0, std::memory_order_relaxed);
    c.allocs.store(0, std::memory_order_relaxed);
    c.frees.store(0, std::memory_order_relaxed);
    c.alloc_bytes.store(0, std::memory_order_relaxed);
    c.freed_bytes.store(0, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(g_domain_mu);
  for (auto& d : by_domain_) {
    d.live.store(0, std::memory_order_relaxed);
    d.high_water.store(0, std::memory_order_relaxed);
  }
  for (auto& n : domain_names()) n.clear();
  domain_count_.store(1, std::memory_order_release);
}

namespace detail {

void* tracked_allocate(std::size_t bytes, Subsystem tag, bool prefer_scope) {
  const ScopeState scope = current_scope();
  Subsystem sub = tag;
  if (prefer_scope && scope.sub != Subsystem::kUntagged) sub = scope.sub;
  void* raw = ::operator new(bytes + kHeaderSize);
  auto* h = static_cast<AllocHeader*>(raw);
  h->bytes = bytes;
  h->dom = scope.dom;
  h->sub = static_cast<std::uint8_t>(sub);
  h->magic = kHeaderMagic;
  MemRegistry::global().on_alloc(sub, scope.dom, bytes);
  return static_cast<char*>(raw) + kHeaderSize;
}

void tracked_deallocate(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  void* raw = static_cast<char*>(p) - kHeaderSize;
  const auto* h = static_cast<const AllocHeader*>(raw);
  if (h->magic == kHeaderMagic && h->bytes == bytes) {
    MemRegistry::global().on_free(static_cast<Subsystem>(h->sub), h->dom,
                                  h->bytes);
  }
  ::operator delete(raw);
}

}  // namespace detail

ProcessMemStats read_process_mem() noexcept {
  ProcessMemStats out;
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    // ru_maxrss is KiB on Linux, bytes on macOS.
#if defined(__APPLE__)
    out.maxrss_bytes = static_cast<std::uint64_t>(ru.ru_maxrss);
#else
    out.maxrss_bytes = static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
#endif
    out.ok = true;
  }
#endif
#if defined(__linux__)
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    unsigned long long vsize_pages = 0;
    unsigned long long rss_pages = 0;
    if (std::fscanf(f, "%llu %llu", &vsize_pages, &rss_pages) == 2) {
      const auto page = static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
      out.vsize_bytes = vsize_pages * page;
      out.rss_bytes = rss_pages * page;
      out.ok = true;
    }
    std::fclose(f);
  }
#endif
  return out;
}

void write_memory_json(std::ostream& os, const MemSnapshot& snap,
                       const ProcessMemStats& proc) {
  os << "{\"schema\": \"tagnn.mem.v1\", \"process\": {\"rss_bytes\": "
     << proc.rss_bytes << ", \"maxrss_bytes\": " << proc.maxrss_bytes
     << ", \"vsize_bytes\": " << proc.vsize_bytes
     << "}, \"totals\": {\"live_bytes\": " << snap.total_live_bytes()
     << ", \"high_water_bytes\": " << snap.total_high_water_bytes()
     << ", \"alloc_bytes\": " << snap.total_alloc_bytes()
     << ", \"allocs\": " << snap.total_allocs()
     << ", \"frees\": " << snap.total_frees() << "}, \"subsystems\": {";
  bool first = true;
  for (std::size_t i = 0; i < kNumSubsystems; ++i) {
    const SubsystemStats& s = snap.subsystems[i];
    if (!first) os << ", ";
    first = false;
    os << "\"" << subsystem_name(static_cast<Subsystem>(i))
       << "\": {\"live_bytes\": " << s.live_bytes
       << ", \"high_water_bytes\": " << s.high_water_bytes
       << ", \"allocs\": " << s.allocs << ", \"frees\": " << s.frees
       << ", \"alloc_bytes\": " << s.alloc_bytes
       << ", \"freed_bytes\": " << s.freed_bytes << "}";
  }
  os << "}, \"domains\": {";
  first = true;
  for (std::size_t i = 1; i < snap.domains.size(); ++i) {
    const DomainStats& d = snap.domains[i];
    if (d.name.empty()) continue;
    if (!first) os << ", ";
    first = false;
    os << "\"" << json_escape(d.name) << "\": {\"live_bytes\": " << d.live_bytes
       << ", \"high_water_bytes\": " << d.high_water_bytes << "}";
  }
  os << "}}";
}

}  // namespace tagnn::obs::mem
