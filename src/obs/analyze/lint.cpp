#include "obs/analyze/lint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

#include "common/json_escape.hpp"
#include "obs/analyze/jparse.hpp"

namespace tagnn::obs::analyze::lint {
namespace {

// ---------------------------------------------------------------------------
// Lexer: identifiers, punctuation, numbers, plus the side channels the
// rules need — comments (suppressions, accumulation tags) and #include
// directives. Strings and character literals are consumed and dropped,
// so a rule keyword inside a literal never triggers.
// ---------------------------------------------------------------------------

struct Tok {
  enum class Kind { kIdent, kPunct, kNumber };
  Kind kind;
  std::string text;
  int line;
};

struct Comment {
  std::string text;  // without the // or /* */ delimiters
  int line;          // starting line
};

struct IncludeDirective {
  std::string path;
  bool system;
  int line;
};

struct Lexed {
  std::vector<Tok> toks;
  std::vector<Comment> comments;
  std::vector<IncludeDirective> includes;
};

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

Lexed lex(std::string_view src) {
  Lexed out;
  std::size_t i = 0;
  const std::size_t n = src.size();
  int line = 1;
  bool at_line_start = true;

  auto peek = [&](std::size_t k) -> char {
    return i + k < n ? src[i + k] : '\0';
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
      ++i;
      continue;
    }
    // Line comment (backslash-newline continues it, as in C++).
    if (c == '/' && peek(1) == '/') {
      const int start = line;
      i += 2;
      std::string text;
      while (i < n) {
        if (src[i] == '\\' && i + 1 < n && src[i + 1] == '\n') {
          text += '\n';
          ++line;
          i += 2;
          continue;
        }
        if (src[i] == '\n') break;
        text += src[i++];
      }
      out.comments.push_back({std::move(text), start});
      continue;
    }
    // Block comment.
    if (c == '/' && peek(1) == '*') {
      const int start = line;
      i += 2;
      std::string text;
      while (i < n && !(src[i] == '*' && peek(1) == '/')) {
        if (src[i] == '\n') ++line;
        text += src[i++];
      }
      i = std::min(n, i + 2);
      out.comments.push_back({std::move(text), start});
      continue;
    }
    // Preprocessor directive.
    if (c == '#' && at_line_start) {
      ++i;
      while (i < n && (src[i] == ' ' || src[i] == '\t')) ++i;
      std::string word;
      while (i < n && ident_char(src[i])) word += src[i++];
      if (word == "include") {
        while (i < n && (src[i] == ' ' || src[i] == '\t')) ++i;
        if (i < n && (src[i] == '<' || src[i] == '"')) {
          const bool system = src[i] == '<';
          const char close = system ? '>' : '"';
          ++i;
          std::string path;
          while (i < n && src[i] != close && src[i] != '\n') path += src[i++];
          if (i < n && src[i] == close) ++i;
          out.includes.push_back({std::move(path), system, line});
        }
      }
      at_line_start = false;
      continue;  // rest of the directive line lexes normally
    }
    at_line_start = false;
    // String literal (raw strings handled in the identifier path below,
    // because the R prefix lexes as an identifier character).
    if (c == '"') {
      ++i;
      while (i < n && src[i] != '"') {
        if (src[i] == '\\' && i + 1 < n) ++i;
        if (src[i] == '\n') ++line;  // unterminated; keep line count sane
        ++i;
      }
      if (i < n) ++i;
      continue;
    }
    // Character literal.
    if (c == '\'') {
      ++i;
      while (i < n && src[i] != '\'' && src[i] != '\n') {
        if (src[i] == '\\' && i + 1 < n) ++i;
        ++i;
      }
      if (i < n && src[i] == '\'') ++i;
      continue;
    }
    // Number (handles hex, exponents, digit separators, suffixes).
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && std::isdigit(static_cast<unsigned char>(peek(1))))) {
      std::string text;
      while (i < n) {
        const char d = src[i];
        if (ident_char(d) || d == '.') {
          text += d;
          ++i;
          if ((d == 'e' || d == 'E' || d == 'p' || d == 'P') && i < n &&
              (src[i] == '+' || src[i] == '-')) {
            text += src[i++];  // exponent sign (pp-number grammar)
          }
          continue;
        }
        if (d == '\'' && i + 1 < n && ident_char(src[i + 1])) {
          ++i;  // digit separator
          continue;
        }
        break;
      }
      out.toks.push_back({Tok::Kind::kNumber, std::move(text), line});
      continue;
    }
    // Identifier (or raw-string prefix).
    if (ident_start(c)) {
      std::string text;
      while (i < n && ident_char(src[i])) text += src[i++];
      const bool raw_prefix = (text == "R" || text == "LR" || text == "uR" ||
                               text == "UR" || text == "u8R");
      if (raw_prefix && i < n && src[i] == '"') {
        ++i;  // opening quote
        std::string delim;
        while (i < n && src[i] != '(') delim += src[i++];
        if (i < n) ++i;  // '('
        const std::string closer = ")" + delim + "\"";
        const std::size_t end = src.find(closer, i);
        for (std::size_t k = i; k < std::min(end, n); ++k) {
          if (src[k] == '\n') ++line;
        }
        i = end == std::string_view::npos ? n : end + closer.size();
        continue;
      }
      out.toks.push_back({Tok::Kind::kIdent, std::move(text), line});
      continue;
    }
    // Punctuation; '->' and '::' matter for member/qualifier context.
    if (c == '-' && peek(1) == '>') {
      out.toks.push_back({Tok::Kind::kPunct, "->", line});
      i += 2;
      continue;
    }
    if (c == ':' && peek(1) == ':') {
      out.toks.push_back({Tok::Kind::kPunct, "::", line});
      i += 2;
      continue;
    }
    out.toks.push_back({Tok::Kind::kPunct, std::string(1, c), line});
    ++i;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Rule tables
// ---------------------------------------------------------------------------

const std::set<std::string>& libm_calls() {
  static const std::set<std::string> s = {
      "exp",    "expf",   "exp2",  "exp2f",  "expm1", "expm1f", "log",
      "logf",   "log2",   "log2f", "log10",  "log10f", "log1p", "log1pf",
      "pow",    "powf",   "sin",   "sinf",   "cos",    "cosf",  "tan",
      "tanf",   "tanh",   "tanhf", "sinh",   "sinhf",  "cosh",  "coshf",
      "asin",   "asinf",  "acos",  "acosf",  "atan",   "atanf", "atan2",
      "atan2f", "sqrt",   "sqrtf", "cbrt",   "cbrtf",  "hypot", "hypotf",
      "erf",    "erff",   "tgamma", "lgamma"};
  return s;
}

const std::set<std::string>& alloc_calls() {
  static const std::set<std::string> s = {"malloc", "calloc", "realloc",
                                          "aligned_alloc", "free"};
  return s;
}

const std::set<std::string>& growth_members() {
  static const std::set<std::string> s = {"push_back", "emplace_back",
                                          "resize",    "reserve",
                                          "insert",    "emplace"};
  return s;
}

const std::set<std::string>& lock_idents() {
  static const std::set<std::string> s = {
      "mutex",          "timed_mutex",        "recursive_mutex",
      "shared_mutex",   "lock_guard",         "unique_lock",
      "scoped_lock",    "shared_lock",        "condition_variable",
      "condition_variable_any",               "once_flag",
      "call_once",      "pthread_mutex_lock", "pthread_mutex_init"};
  return s;
}

const std::set<std::string>& entropy_calls() {
  static const std::set<std::string> s = {"rand",    "srand",   "rand_r",
                                          "drand48", "lrand48", "mrand48",
                                          "random"};
  return s;
}

const std::set<std::string>& clock_types() {
  static const std::set<std::string> s = {"system_clock", "steady_clock",
                                          "high_resolution_clock"};
  return s;
}

const std::set<std::string>& clock_calls() {
  static const std::set<std::string> s = {"gettimeofday", "clock_gettime",
                                          "timespec_get", "localtime",
                                          "gmtime", "time", "clock"};
  return s;
}

constexpr std::string_view kRuleLayering = "layering-include";
constexpr std::string_view kRuleLibm = "hotpath-libm";
constexpr std::string_view kRuleAlloc = "hotpath-alloc";
constexpr std::string_view kRuleLock = "hotpath-lock";
constexpr std::string_view kRuleFma = "bitexact-fma";
constexpr std::string_view kRuleContract = "bitexact-contract";
constexpr std::string_view kRuleAccum = "bitexact-accum-tag";
constexpr std::string_view kRuleEntropy = "determinism-entropy";
constexpr std::string_view kRuleClock = "determinism-clock";
constexpr std::string_view kRuleMemtrack = "memtrack-container";
constexpr std::string_view kRuleSuppression = "suppression-format";

// ---------------------------------------------------------------------------
// Path helpers
// ---------------------------------------------------------------------------

bool path_starts_with(std::string_view path, std::string_view prefix) {
  if (prefix.empty()) return false;
  if (prefix.back() == '/') return path.substr(0, prefix.size()) == prefix;
  if (path == prefix) return true;
  return path.size() > prefix.size() &&
         path.substr(0, prefix.size()) == prefix &&
         path[prefix.size()] == '/';
}

const LayerSpec* layer_of(const LintConfig& cfg, std::string_view path) {
  for (const LayerSpec& l : cfg.layers) {
    if (path_starts_with(path, l.path)) return &l;
  }
  return nullptr;
}

// Include targets resolve with the same first-matching-prefix rule as
// file attribution, so nested layers (obs_live, obs_mem) are seen as
// themselves rather than folding into their parent directory's layer.
const LayerSpec* layer_of_include(const LintConfig& cfg,
                                  std::string_view inc_path) {
  return layer_of(cfg, "src/" + std::string(inc_path));
}

std::string trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

constexpr std::string_view kSuppressionMarker = "tagnn-lint:";

void parse_suppressions(const std::string& path,
                        const std::vector<Comment>& comments,
                        std::vector<Suppression>* sups,
                        std::vector<Finding>* format_findings) {
  for (const Comment& c : comments) {
    // The directive must BE the comment (leading whitespace aside), so
    // prose that merely mentions the marker — docs, this file — is
    // never parsed as a suppression.
    std::size_t at = 0;
    while (at < c.text.size() &&
           std::isspace(static_cast<unsigned char>(c.text[at]))) {
      ++at;
    }
    if (c.text.compare(at, kSuppressionMarker.size(), kSuppressionMarker) !=
        0) {
      continue;
    }
    auto bad = [&](const std::string& why) {
      format_findings->push_back(
          {std::string(kRuleSuppression), path, c.line,
           "malformed suppression: " + why +
               " (expected 'tagnn-lint: allow(<rule>) -- <reason>' or "
               "allow-file)",
           ""});
    };
    std::string_view rest(c.text);
    rest.remove_prefix(at + kSuppressionMarker.size());
    std::size_t p = 0;
    while (p < rest.size() &&
           std::isspace(static_cast<unsigned char>(rest[p]))) {
      ++p;
    }
    std::string verb;
    while (p < rest.size() &&
           (ident_char(rest[p]) || rest[p] == '-')) {
      verb += rest[p++];
    }
    if (verb != "allow" && verb != "allow-file") {
      bad("unknown directive '" + verb + "'");
      continue;
    }
    if (p >= rest.size() || rest[p] != '(') {
      bad("missing '(' after '" + verb + "'");
      continue;
    }
    ++p;
    const std::size_t close = rest.find(')', p);
    if (close == std::string_view::npos) {
      bad("missing ')'");
      continue;
    }
    std::vector<std::string> rules;
    {
      std::string cur;
      for (std::size_t k = p; k <= close; ++k) {
        if (k == close || rest[k] == ',') {
          const std::string r = trim(cur);
          if (!r.empty()) rules.push_back(r);
          cur.clear();
        } else {
          cur += rest[k];
        }
      }
    }
    if (rules.empty()) {
      bad("empty rule list");
      continue;
    }
    p = close + 1;
    while (p < rest.size() &&
           std::isspace(static_cast<unsigned char>(rest[p]))) {
      ++p;
    }
    if (p + 1 >= rest.size() || rest[p] != '-' || rest[p + 1] != '-') {
      bad("missing '-- <reason>'");
      continue;
    }
    const std::string reason = trim(rest.substr(p + 2));
    if (reason.empty()) {
      bad("empty reason after '--'");
      continue;
    }
    bool ok = true;
    const auto& known = known_rules();
    for (const std::string& r : rules) {
      if (std::find(known.begin(), known.end(), r) == known.end()) {
        bad("unknown rule '" + r + "'");
        ok = false;
      }
    }
    if (!ok) continue;
    for (const std::string& r : rules) {
      sups->push_back({r, path, c.line, verb == "allow-file", reason, false});
    }
  }
}

// ---------------------------------------------------------------------------
// scan_source
// ---------------------------------------------------------------------------

void route(FileScan& fs, std::vector<Suppression>& sups, Finding f) {
  for (Suppression& s : sups) {
    if (s.rule != f.rule) continue;
    if (s.file_scope || s.line == f.line || s.line + 1 == f.line) {
      s.used = true;
      f.reason = s.reason;
      fs.suppressed.push_back(std::move(f));
      return;
    }
  }
  fs.findings.push_back(std::move(f));
}

}  // namespace

const std::vector<std::string>& known_rules() {
  static const std::vector<std::string> rules = {
      std::string(kRuleLayering), std::string(kRuleLibm),
      std::string(kRuleAlloc),    std::string(kRuleLock),
      std::string(kRuleFma),      std::string(kRuleContract),
      std::string(kRuleAccum),    std::string(kRuleEntropy),
      std::string(kRuleClock),    std::string(kRuleMemtrack),
      std::string(kRuleSuppression)};
  return rules;
}

FileScan scan_source(const std::string& path, std::string_view content,
                     const LintConfig& cfg) {
  FileScan fs;
  const Lexed lx = lex(content);

  std::vector<Suppression> sups;
  {
    std::vector<Finding> format_findings;
    parse_suppressions(path, lx.comments, &sups, &format_findings);
    for (Finding& f : format_findings) route(fs, sups, std::move(f));
  }

  const bool in_src = path_starts_with(path, "src");
  const bool hot =
      std::find(cfg.hotpath_paths.begin(), cfg.hotpath_paths.end(), path) !=
      cfg.hotpath_paths.end();
  const bool memtrack =
      std::find(cfg.memtrack_paths.begin(), cfg.memtrack_paths.end(), path) !=
      cfg.memtrack_paths.end();
  const bool det_allowed = [&] {
    for (const std::string& a : cfg.determinism_allow) {
      if (path_starts_with(path, a)) return true;
    }
    return false;
  }();
  const bool det_scope = in_src && !det_allowed;
  const bool fma_scope =
      in_src || path_starts_with(path, "tools") ||
      path_starts_with(path, "bench") || path_starts_with(path, "examples");

  // --- layering over #include edges ---
  const LayerSpec* own = in_src ? layer_of(cfg, path) : nullptr;
  if (in_src && own == nullptr && !cfg.layers.empty()) {
    route(fs, sups,
          {std::string(kRuleLayering), path, 1,
           "file is under src/ but matches no [layer.*] entry in the "
           "manifest; declare its layer in tools/layering.toml",
           ""});
  }
  if (own != nullptr) {
    for (const IncludeDirective& inc : lx.includes) {
      if (inc.system) continue;
      const std::size_t slash = inc.path.find('/');
      if (slash == std::string::npos) continue;  // sibling include
      const LayerSpec* target = layer_of_include(cfg, inc.path);
      if (target == nullptr || target == own) continue;
      if (std::find(own->allow.begin(), own->allow.end(), target->name) !=
          own->allow.end()) {
        continue;
      }
      std::string allowed = "itself";
      for (const std::string& a : own->allow) allowed += ", " + a;
      route(fs, sups,
            {std::string(kRuleLayering), path, inc.line,
             "layer '" + own->name + "' must not include \"" + inc.path +
                 "\" (layer '" + target->name + "'); it may include " +
                 allowed,
             ""});
    }
  }

  // --- hot-path purity: the kernel TUs must not include <cmath> ---
  if (hot) {
    for (const IncludeDirective& inc : lx.includes) {
      if (inc.system && (inc.path == "cmath" || inc.path == "math.h")) {
        route(fs, sups,
              {std::string(kRuleLibm), path, inc.line,
               "hot-path kernel TU includes <" + inc.path +
                   ">; libm calls are opaque scalar code and break the "
                   "mirrored-polynomial bit-exactness contract "
                   "(docs/PERFORMANCE.md)",
               ""});
      }
    }
  }

  // --- token rules ---
  const auto& toks = lx.toks;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Tok& t = toks[i];
    if (t.kind != Tok::Kind::kIdent) continue;
    const bool called =
        i + 1 < toks.size() && toks[i + 1].kind == Tok::Kind::kPunct &&
        toks[i + 1].text == "(";
    const Tok* prev = i > 0 ? &toks[i - 1] : nullptr;
    const bool member =
        prev != nullptr && prev->kind == Tok::Kind::kPunct &&
        (prev->text == "." || prev->text == "->");
    // Qualified by a namespace other than std (e.g. detail::exp_approx
    // never gets here because the identifier differs, but foo::exp
    // does) — treat as a different symbol.
    const bool foreign_qualified = [&] {
      if (prev == nullptr || prev->text != "::") return false;
      if (i < 2) return false;
      const Tok& q = toks[i - 2];
      return q.kind == Tok::Kind::kIdent && q.text != "std";
    }();
    // An identifier right before the name means a declaration ("Matrix
    // random(...)"), not a call — unless it is a statement keyword.
    const bool decl_context = [&] {
      if (prev == nullptr || prev->kind != Tok::Kind::kIdent) return false;
      const std::string& p = prev->text;
      return p != "return" && p != "co_return" && p != "co_await" &&
             p != "co_yield" && p != "throw" && p != "else" && p != "do";
    }();
    const bool plain_call =
        called && !member && !foreign_qualified && !decl_context;

    if (hot) {
      if (plain_call && libm_calls().count(t.text) != 0) {
        route(fs, sups,
              {std::string(kRuleLibm), path, t.line,
               "libm call '" + t.text +
                   "()' in a hot-path kernel TU; use the shared "
                   "polynomial approximations (activation_math.hpp) so "
                   "every ISA variant rounds identically",
               ""});
      }
      if (t.text == "new" || t.text == "delete") {
        route(fs, sups,
              {std::string(kRuleAlloc), path, t.line,
               "'" + t.text +
                   "' in a hot-path kernel TU; kernels must run "
                   "allocation-free (pre-size buffers in the caller)",
               ""});
      } else if (plain_call && alloc_calls().count(t.text) != 0) {
        route(fs, sups,
              {std::string(kRuleAlloc), path, t.line,
               "'" + t.text +
                   "()' in a hot-path kernel TU; kernels must run "
                   "allocation-free",
               ""});
      } else if (member && called && growth_members().count(t.text) != 0) {
        route(fs, sups,
              {std::string(kRuleAlloc), path, t.line,
               "container growth '." + t.text +
                   "()' in a hot-path kernel TU; kernels must not "
                   "allocate or reallocate",
               ""});
      }
      if (!member && lock_idents().count(t.text) != 0) {
        route(fs, sups,
              {std::string(kRuleLock), path, t.line,
               "'" + t.text +
                   "' in a hot-path kernel TU; kernels must be "
                   "lock-free (synchronise in the caller)",
               ""});
      }
    }

    if (fma_scope) {
      const bool fused_intrinsic =
          t.text.find("fmadd") != std::string::npos ||
          t.text.find("fmsub") != std::string::npos ||
          t.text.find("fnmadd") != std::string::npos ||
          t.text.find("fnmsub") != std::string::npos;
      const bool fma_call =
          plain_call &&
          (t.text == "fma" || t.text == "fmaf" || t.text == "fmal");
      if (fused_intrinsic || fma_call) {
        route(fs, sups,
              {std::string(kRuleFma), path, t.line,
               "fused multiply-add '" + t.text +
                   "' rounds once where mul+add rounds twice, breaking "
                   "cross-ISA bit-exactness (docs/PERFORMANCE.md); use "
                   "separate multiply and add",
               ""});
      }
    }

    if (det_scope) {
      if (!member && t.text == "random_device") {
        route(fs, sups,
              {std::string(kRuleEntropy), path, t.line,
               "std::random_device is non-deterministic; seed tagnn::Rng "
               "explicitly so runs are reproducible",
               ""});
      } else if (plain_call && entropy_calls().count(t.text) != 0) {
        route(fs, sups,
              {std::string(kRuleEntropy), path, t.line,
               "'" + t.text +
                   "()' draws ambient entropy; use tagnn::Rng with an "
                   "explicit seed so runs are reproducible",
               ""});
      }
      if (!member && clock_types().count(t.text) != 0) {
        route(fs, sups,
              {std::string(kRuleClock), path, t.line,
               "wall-clock read ('" + t.text +
                   "') outside the telemetry allowlist; simulated time "
                   "must come from the cycle model, not the host clock",
               ""});
      } else if (plain_call && !foreign_qualified &&
                 clock_calls().count(t.text) != 0) {
        route(fs, sups,
              {std::string(kRuleClock), path, t.line,
               "wall-clock read ('" + t.text +
                   "()') outside the telemetry allowlist; simulated time "
                   "must come from the cycle model, not the host clock",
               ""});
      }
    }

    if (memtrack) {
      // Storage TUs listed in [memtrack] feed the per-subsystem byte
      // accounting (/memory.json); a bare std::vector or raw new[]
      // holds bytes the tracker never sees, so the scale projection
      // silently under-reports.
      if (t.text == "vector" && prev != nullptr && prev->text == "::" &&
          i >= 2 && toks[i - 2].kind == Tok::Kind::kIdent &&
          toks[i - 2].text == "std") {
        route(fs, sups,
              {std::string(kRuleMemtrack), path, t.line,
               "bare std::vector in a [memtrack] storage TU; use "
               "obs::mem::vec so the bytes are attributed to a subsystem "
               "in /memory.json (docs/OBSERVABILITY.md)",
               ""});
      }
      if (t.text == "new" && !member) {
        // `new T[n]` — a '[' among the type tokens before any
        // initializer/terminator punctuation marks an array form.
        for (std::size_t j = i + 1; j < toks.size() && j <= i + 8; ++j) {
          const Tok& nx = toks[j];
          if (nx.kind != Tok::Kind::kPunct || nx.text == "::") continue;
          if (nx.text == "[") {
            route(fs, sups,
                  {std::string(kRuleMemtrack), path, t.line,
                   "raw 'new[]' in a [memtrack] storage TU; array storage "
                   "must use obs::mem::vec (TrackedAllocator) so the bytes "
                   "are attributed in /memory.json (docs/OBSERVABILITY.md)",
                   ""});
          }
          break;  // first punct after the type name decides the form
        }
      }
    }

    // Accumulation-order contract bookkeeping (checked across TUs).
    if (member && called &&
        (t.text == "register_gemm" || t.text == "register_spmm")) {
      fs.registers_fp_kernels = true;
      if (fs.register_line == 0) fs.register_line = t.line;
    }
  }

  // Accumulation-order tag from comments.
  for (const Comment& c : lx.comments) {
    constexpr std::string_view kTag = "tagnn-accum-order:";
    const std::size_t at = c.text.find(kTag);
    if (at == std::string::npos) continue;
    std::string_view rest(c.text);
    rest.remove_prefix(at + kTag.size());
    std::istringstream iss{std::string(rest)};
    std::string value;
    iss >> value;
    if (!value.empty()) fs.accum_tag = value;
  }

  fs.suppressions = std::move(sups);
  return fs;
}

std::vector<Finding> check_accum_tags(
    const std::vector<std::pair<std::string, FileScan>>& scans) {
  std::vector<Finding> out;
  std::vector<std::pair<std::string, std::string>> tagged;  // path, tag
  for (const auto& [path, scan] : scans) {
    if (!scan.registers_fp_kernels) continue;
    if (scan.accum_tag.empty()) {
      out.push_back({std::string(kRuleAccum), path, scan.register_line,
                     "TU registers gemm/spmm kernel variants but carries no "
                     "'tagnn-accum-order: <order>' comment; every "
                     "FP-accumulating variant must document its "
                     "accumulation order so cross-ISA bit-exactness is "
                     "auditable",
                     ""});
    } else {
      tagged.emplace_back(path, scan.accum_tag);
    }
  }
  std::sort(tagged.begin(), tagged.end());
  for (const auto& [path, tag] : tagged) {
    if (tag != tagged.front().second) {
      out.push_back({std::string(kRuleAccum), path, 1,
                     "accumulation-order tag '" + tag +
                         "' disagrees with '" + tagged.front().second +
                         "' (" + tagged.front().first +
                         "); all kernel variants of one op family must "
                         "share the same documented order",
                     ""});
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Compile-command rules
// ---------------------------------------------------------------------------

std::vector<std::string> split_command(std::string_view command) {
  std::vector<std::string> args;
  std::string cur;
  bool in_single = false, in_double = false, any = false;
  for (std::size_t i = 0; i < command.size(); ++i) {
    const char c = command[i];
    if (in_single) {
      if (c == '\'') {
        in_single = false;
      } else {
        cur += c;
      }
      continue;
    }
    if (in_double) {
      if (c == '"') {
        in_double = false;
      } else if (c == '\\' && i + 1 < command.size()) {
        cur += command[++i];
      } else {
        cur += c;
      }
      continue;
    }
    if (c == '\'') {
      in_single = any = true;
    } else if (c == '"') {
      in_double = any = true;
    } else if (c == '\\' && i + 1 < command.size()) {
      cur += command[++i];
      any = true;
    } else if (std::isspace(static_cast<unsigned char>(c))) {
      if (any || !cur.empty()) args.push_back(std::move(cur));
      cur.clear();
      any = false;
    } else {
      cur += c;
      any = true;
    }
  }
  if (any || !cur.empty()) args.push_back(std::move(cur));
  return args;
}

std::vector<Finding> lint_command(const std::string& path,
                                  const std::vector<std::string>& args) {
  std::vector<Finding> out;
  bool simd = false, contract_off = false;
  std::string simd_flag;
  for (const std::string& a : args) {
    if (a == "-mavx2" || a == "-mfma" || a == "-mavx512f" ||
        (a.rfind("-march=", 0) == 0 && a.find("avx") != std::string::npos)) {
      if (!simd) simd_flag = a;
      simd = true;
    }
    if (a == "-ffp-contract=off") contract_off = true;
    if (a == "-ffast-math" || a == "-funsafe-math-optimizations" ||
        a == "-Ofast" || a == "-ffp-contract=fast") {
      out.push_back({std::string(kRuleContract), path, 0,
                     "compile command carries '" + a +
                         "', which licenses value-changing FP rewrites and "
                         "breaks the bit-exactness contract "
                         "(docs/PERFORMANCE.md)",
                     ""});
    }
  }
  if (simd && !contract_off) {
    out.push_back({std::string(kRuleContract), path, 0,
                   "TU is compiled with '" + simd_flag +
                       "' but without '-ffp-contract=off'; the compiler "
                       "may fuse mul+add into FMA and silently change "
                       "last-ulp rounding (docs/PERFORMANCE.md)",
                   ""});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

bool parse_manifest(std::string_view text, LintConfig* out,
                    std::string* error) {
  LintConfig cfg;
  auto fail = [&](int line, const std::string& msg) {
    if (error != nullptr) {
      *error = "manifest line " + std::to_string(line) + ": " + msg;
    }
    return false;
  };

  // Parse one "value": "string" or ["a", "b"]. Returns list (strings
  // yield one element).
  auto parse_value = [](std::string_view v,
                        std::vector<std::string>* vals) -> bool {
    const std::string s = trim(v);
    if (!s.empty() && s.front() == '"') {
      if (s.size() < 2 || s.back() != '"') return false;
      vals->push_back(s.substr(1, s.size() - 2));
      return true;
    }
    if (!s.empty() && s.front() == '[') {
      if (s.back() != ']') return false;
      std::string inner = s.substr(1, s.size() - 2);
      std::string cur;
      bool in_str = false;
      for (const char c : inner) {
        if (c == '"') {
          if (in_str) {
            vals->push_back(cur);
            cur.clear();
          }
          in_str = !in_str;
        } else if (in_str) {
          cur += c;
        } else if (c != ',' && !std::isspace(static_cast<unsigned char>(c))) {
          return false;
        }
      }
      return !in_str;
    }
    return false;
  };

  std::string section;
  LayerSpec* layer = nullptr;
  int lineno = 0;
  std::size_t pos = 0;
  auto next_line = [&](std::string* out_line) {
    if (pos > text.size()) return false;
    const std::size_t nl = text.find('\n', pos);
    std::string line(text.substr(
        pos, nl == std::string_view::npos ? text.size() - pos : nl - pos));
    pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++lineno;
    // Strip comments (quotes never contain '#' in this manifest).
    bool in_str = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (line[i] == '"') in_str = !in_str;
      if (line[i] == '#' && !in_str) {
        line.resize(i);
        break;
      }
    }
    *out_line = trim(line);
    return true;
  };
  std::string line;
  while (next_line(&line)) {
    if (line.empty()) continue;
    // Multi-line arrays: join lines until the closing bracket.
    if (line.find('[') != std::string::npos && line.find('=') != std::string::npos &&
        line.find(']') == std::string::npos) {
      const int start = lineno;
      std::string cont;
      while (line.find(']') == std::string::npos && next_line(&cont)) {
        line += " " + cont;
      }
      if (line.find(']') == std::string::npos) {
        return fail(start, "unterminated array");
      }
    }
    if (line.front() == '[') {
      if (line.back() != ']') return fail(lineno, "unterminated section");
      section = trim(line.substr(1, line.size() - 2));
      layer = nullptr;
      if (section.rfind("layer.", 0) == 0) {
        const std::string name = section.substr(6);
        if (name.empty()) return fail(lineno, "empty layer name");
        for (const LayerSpec& l : cfg.layers) {
          if (l.name == name) {
            return fail(lineno, "duplicate layer '" + name + "'");
          }
        }
        cfg.layers.push_back({name, "", {}});
        layer = &cfg.layers.back();
      } else if (section != "hotpath" && section != "determinism" &&
                 section != "memtrack") {
        return fail(lineno, "unknown section '" + section + "'");
      }
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return fail(lineno, "expected 'key = value'");
    }
    const std::string key = trim(line.substr(0, eq));
    std::vector<std::string> vals;
    if (!parse_value(line.substr(eq + 1), &vals)) {
      return fail(lineno, "bad value for '" + key +
                              "' (want \"string\" or [\"a\", \"b\"])");
    }
    if (layer != nullptr) {
      if (key == "path" && vals.size() == 1) {
        layer->path = vals.front();
      } else if (key == "allow") {
        layer->allow = vals;
      } else {
        return fail(lineno, "unknown layer key '" + key + "'");
      }
    } else if (section == "hotpath" && key == "paths") {
      cfg.hotpath_paths = vals;
    } else if (section == "determinism" && key == "allow") {
      cfg.determinism_allow = vals;
    } else if (section == "memtrack" && key == "paths") {
      cfg.memtrack_paths = vals;
    } else {
      return fail(lineno,
                  "key '" + key + "' outside a known section/key pair");
    }
  }
  for (const LayerSpec& l : cfg.layers) {
    if (l.path.empty()) {
      return fail(0, "layer '" + l.name + "' has no path");
    }
    for (const std::string& a : l.allow) {
      bool found = false;
      for (const LayerSpec& o : cfg.layers) found = found || o.name == a;
      if (!found) {
        return fail(0, "layer '" + l.name + "' allows unknown layer '" + a +
                           "'");
      }
    }
  }
  if (cfg.layers.empty()) return fail(0, "no [layer.*] sections");
  *out = std::move(cfg);
  return true;
}

// ---------------------------------------------------------------------------
// Repo run
// ---------------------------------------------------------------------------

namespace {

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

// Minimal normalization: strip "/./" and "//" (compile DBs from CMake
// emit absolute paths, so ".." handling is not needed).
std::string normalize(std::string p) {
  std::string q;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p[i] == '/' && i + 1 < p.size() && p[i + 1] == '/') continue;
    if (p[i] == '/' && p.compare(i, 3, "/./") == 0) {
      ++i;
      continue;
    }
    q += p[i];
  }
  return q;
}

bool first_party(std::string_view rel) {
  return path_starts_with(rel, "src") || path_starts_with(rel, "tools") ||
         path_starts_with(rel, "tests") || path_starts_with(rel, "bench") ||
         path_starts_with(rel, "examples");
}

}  // namespace

bool lint_repo(const std::string& db_path, const std::string& root,
               const LintConfig& cfg, LintReport* out, std::string* error) {
  LintReport rep;
  std::string db_text;
  if (!read_file(db_path, &db_text)) {
    if (error != nullptr) *error = "cannot read compile DB: " + db_path;
    return false;
  }
  JsonValue db;
  std::string jerr;
  if (!json_parse(db_text, &db, &jerr) || !db.is_array()) {
    if (error != nullptr) {
      *error = "malformed compile DB " + db_path + ": " +
               (jerr.empty() ? "not a JSON array" : jerr);
    }
    return false;
  }

  std::string base = root;
  while (!base.empty() && base.back() == '/') base.pop_back();

  std::set<std::string> seen;  // rel paths already token-scanned
  std::vector<std::pair<std::string, FileScan>> scans;
  std::set<std::string> command_findings_seen;  // file|rule|message dedup

  auto scan_rel = [&](const std::string& rel) {
    if (!seen.insert(rel).second) return;
    std::string content;
    if (!read_file(base + "/" + rel, &content)) {
      rep.errors.push_back("cannot read " + rel);
      return;
    }
    scans.emplace_back(rel, scan_source(rel, content, cfg));
  };

  for (const JsonValue& entry : db.as_array()) {
    if (!entry.is_object()) continue;
    const std::string file = entry.string_at("file");
    const std::string dir = entry.string_at("directory");
    if (file.empty()) continue;
    std::string abs =
        (!file.empty() && file.front() == '/') ? file : dir + "/" + file;
    abs = normalize(std::move(abs));
    if (!path_starts_with(abs, base)) continue;  // external TU
    if (abs.size() <= base.size() + 1) continue;
    const std::string rel = abs.substr(base.size() + 1);
    if (path_starts_with(rel, "build") || !first_party(rel)) continue;

    std::vector<std::string> args;
    if (const JsonValue* arr = entry.find("arguments");
        arr != nullptr && arr->is_array()) {
      for (const JsonValue& a : arr->as_array()) {
        if (a.is_string()) args.push_back(a.as_string());
      }
    } else {
      args = split_command(entry.string_at("command"));
    }
    for (Finding& f : lint_command(rel, args)) {
      if (command_findings_seen.insert(f.file + "|" + f.rule + "|" + f.message)
              .second) {
        rep.findings.push_back(std::move(f));
      }
    }
    scan_rel(rel);
  }

  // Headers are not compile-DB entries but carry includes and inline
  // code; walk src/ so they obey the same rules.
  {
    std::vector<std::string> headers;
    std::error_code ec;
    const std::filesystem::path src_dir =
        std::filesystem::path(base) / "src";
    for (std::filesystem::recursive_directory_iterator
             it(src_dir, ec),
         end;
         !ec && it != end; it.increment(ec)) {
      if (!it->is_regular_file(ec)) continue;
      const std::string ext = it->path().extension().string();
      if (ext != ".hpp" && ext != ".h") continue;
      const std::string rel =
          "src" +
          it->path().string().substr(src_dir.string().size());
      headers.push_back(rel);
    }
    if (ec) rep.errors.push_back("header walk failed: " + ec.message());
    std::sort(headers.begin(), headers.end());
    for (const std::string& h : headers) scan_rel(h);
  }

  std::sort(scans.begin(), scans.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [rel, scan] : scans) {
    for (Finding& f : scan.findings) rep.findings.push_back(std::move(f));
    for (Finding& f : scan.suppressed) rep.suppressed.push_back(std::move(f));
    for (Suppression& s : scan.suppressions) {
      rep.suppressions.push_back(std::move(s));
    }
  }
  for (Finding& f : check_accum_tags(scans)) {
    rep.findings.push_back(std::move(f));
  }
  rep.files_scanned = seen.size();

  auto order = [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule, a.message) <
           std::tie(b.file, b.line, b.rule, b.message);
  };
  std::sort(rep.findings.begin(), rep.findings.end(), order);
  std::sort(rep.suppressed.begin(), rep.suppressed.end(), order);
  std::sort(rep.suppressions.begin(), rep.suppressions.end(),
            [](const Suppression& a, const Suppression& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  *out = std::move(rep);
  return true;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

namespace {

void write_escaped(std::ostream& os, std::string_view s) {
  os << '"' << json_escape(s) << '"';
}

void write_finding(std::ostream& os, const Finding& f, bool with_reason,
                   const char* indent) {
  os << indent << "{\"rule\": ";
  write_escaped(os, f.rule);
  os << ", \"file\": ";
  write_escaped(os, f.file);
  os << ", \"line\": " << f.line << ", \"message\": ";
  write_escaped(os, f.message);
  if (with_reason) {
    os << ", \"reason\": ";
    write_escaped(os, f.reason);
  }
  os << "}";
}

}  // namespace

void write_report_json(std::ostream& os, const LintReport& rep,
                       std::string_view db_path) {
  std::map<std::string, std::pair<int, int>> per_rule;  // findings, suppressed
  for (const std::string& r : known_rules()) per_rule[r] = {0, 0};
  for (const Finding& f : rep.findings) per_rule[f.rule].first++;
  for (const Finding& f : rep.suppressed) per_rule[f.rule].second++;

  os << "{\n  \"schema\": \"" << kLintSchema << "\",\n  \"db\": ";
  write_escaped(os, db_path);
  os << ",\n  \"files_scanned\": " << rep.files_scanned << ",\n";
  os << "  \"rules\": {\n";
  bool first = true;
  for (const auto& [rule, counts] : per_rule) {
    if (!first) os << ",\n";
    first = false;
    os << "    ";
    write_escaped(os, rule);
    os << ": {\"findings\": " << counts.first
       << ", \"suppressed\": " << counts.second << "}";
  }
  os << "\n  },\n  \"findings\": [";
  for (std::size_t i = 0; i < rep.findings.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n");
    write_finding(os, rep.findings[i], false, "    ");
  }
  os << (rep.findings.empty() ? "" : "\n  ") << "],\n  \"suppressed\": [";
  for (std::size_t i = 0; i < rep.suppressed.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n");
    write_finding(os, rep.suppressed[i], true, "    ");
  }
  os << (rep.suppressed.empty() ? "" : "\n  ")
     << "],\n  \"suppressions\": [";
  for (std::size_t i = 0; i < rep.suppressions.size(); ++i) {
    const Suppression& s = rep.suppressions[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"rule\": ";
    write_escaped(os, s.rule);
    os << ", \"file\": ";
    write_escaped(os, s.file);
    os << ", \"line\": " << s.line << ", \"scope\": \""
       << (s.file_scope ? "file" : "line") << "\", \"used\": "
       << (s.used ? "true" : "false") << ", \"reason\": ";
    write_escaped(os, s.reason);
    os << "}";
  }
  os << (rep.suppressions.empty() ? "" : "\n  ")
     << "],\n  \"errors\": [";
  for (std::size_t i = 0; i < rep.errors.size(); ++i) {
    os << (i == 0 ? "\n    " : ",\n    ");
    write_escaped(os, rep.errors[i]);
  }
  os << (rep.errors.empty() ? "" : "\n  ") << "],\n";
  os << "  \"summary\": {\"findings\": " << rep.findings.size()
     << ", \"suppressed\": " << rep.suppressed.size()
     << ", \"suppressions\": " << rep.suppressions.size()
     << ", \"errors\": " << rep.errors.size() << "}\n}\n";
}

void write_github_annotations(std::ostream& os, const LintReport& rep) {
  auto escape = [](std::string_view s) {
    std::string out;
    for (const char c : s) {
      if (c == '%') {
        out += "%25";
      } else if (c == '\n') {
        out += "%0A";
      } else if (c == '\r') {
        out += "%0D";
      } else {
        out += c;
      }
    }
    return out;
  };
  for (const Finding& f : rep.findings) {
    os << "::error file=" << escape(f.file);
    if (f.line > 0) os << ",line=" << f.line;
    os << ",title=tagnn_lint(" << escape(f.rule) << ")::" << escape(f.message)
       << "\n";
  }
}

}  // namespace tagnn::obs::analyze::lint
