// Minimal strict JSON validator (RFC 8259 grammar, no extensions).
//
// Used by tests and tools/json_validate to check that every emitted
// report, metrics snapshot, and Chrome trace is well-formed without
// pulling in a JSON library dependency. Validation is a parse through
// obs/analyze/jparse.hpp into a discarded value, so the validator and
// the reader accept and reject exactly the same documents, with the
// same "... at byte N" messages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace tagnn::obs {

/// Returns true when `text` is exactly one valid JSON value (with
/// optional surrounding whitespace). On failure, `error` (if non-null)
/// receives a message with the byte offset of the first problem.
/// Bare NaN / Infinity / -Infinity tokens are rejected explicitly (RFC
/// 8259 has no such literals; emitters here serialise them as null).
bool json_valid(std::string_view text, std::string* error = nullptr);

/// Validates JSON Lines: every non-blank line must be one valid JSON
/// value. With `tolerate_torn_final` (the default), an invalid final
/// line that is NOT newline-terminated is accepted — the run ledger and
/// the crash-time flight recorder append line-at-a-time, so a process
/// dying mid-write leaves at most one torn trailing line, and readers
/// (analyze::parse_ledger, json_validate --jsonl) must shrug it off.
/// An invalid line anywhere else still fails, as does a torn line
/// followed by a newline. `lines` (if non-null) receives the number of
/// valid documents seen.
bool jsonl_valid(std::string_view text, std::string* error = nullptr,
                 bool tolerate_torn_final = true,
                 std::size_t* lines = nullptr);

/// Writes `v` as a JSON number token (shortest round-trip decimal).
/// Non-finite values have no JSON representation: they are written as
/// `null` and counted in json_nonfinite_warnings() so emitters can
/// surface that data was dropped instead of producing invalid JSON.
void write_json_number(std::ostream& os, double v);

/// Process-wide count of non-finite values null-ed out by
/// write_json_number since start (or the last reset).
std::uint64_t json_nonfinite_warnings();
void reset_json_nonfinite_warnings();

}  // namespace tagnn::obs
