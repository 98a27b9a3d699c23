// JSON string escaping shared by every emitter (run reports, metrics
// snapshots, traces, ledger lines, memory and serve documents, lint
// output). It lives in common because the allocation tracker, which may
// only depend on common, writes JSON too.
#pragma once

#include <string>
#include <string_view>

namespace tagnn {

/// Escapes `s` for use between the quotes of a JSON string: `"` and `\`
/// get a backslash, \n \r \t their short forms, the other control bytes
/// \u00XX (lower-case hex). Every other byte, UTF-8 included, passes
/// through unchanged.
std::string json_escape(std::string_view s);

}  // namespace tagnn
