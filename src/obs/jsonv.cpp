#include "obs/jsonv.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <sstream>

#include "obs/analyze/jparse.hpp"

namespace tagnn::obs {

bool json_valid(std::string_view text, std::string* error) {
  analyze::JsonValue discarded;
  return analyze::json_parse(text, &discarded, error);
}

bool jsonl_valid(std::string_view text, std::string* error,
                 bool tolerate_torn_final, std::size_t* lines) {
  std::size_t valid = 0;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  bool ok = true;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const bool terminated = nl != std::string_view::npos;
    std::string_view line =
        text.substr(pos, terminated ? nl - pos : std::string_view::npos);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    ++line_no;
    pos = terminated ? nl + 1 : text.size();
    if (line.find_first_not_of(" \t") == std::string_view::npos) continue;
    std::string line_error;
    if (json_valid(line, &line_error)) {
      ++valid;
      continue;
    }
    if (!terminated && tolerate_torn_final) continue;  // crash mid-write
    if (error != nullptr) {
      std::ostringstream os;
      os << "line " << line_no << ": " << line_error;
      *error = os.str();
    }
    ok = false;
    break;
  }
  if (lines != nullptr) *lines = valid;
  return ok;
}

namespace {

std::atomic<std::uint64_t>& nonfinite_counter() {
  static std::atomic<std::uint64_t> c{0};
  return c;
}

}  // namespace

void write_json_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    nonfinite_counter().fetch_add(1, std::memory_order_relaxed);
    os << "null";
    return;
  }
  // Shortest decimal that round-trips: try 15 significant digits, fall
  // back to 17 (always exact for IEEE binary64).
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  if (std::strtod(buf, nullptr) != v) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  os << buf;
}

std::uint64_t json_nonfinite_warnings() {
  return nonfinite_counter().load(std::memory_order_relaxed);
}

void reset_json_nonfinite_warnings() {
  nonfinite_counter().store(0, std::memory_order_relaxed);
}

}  // namespace tagnn::obs
