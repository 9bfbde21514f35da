#include "rules.h"

#include <algorithm>
#include <array>
#include <set>

namespace pardsm::lint {

namespace {

bool is_ident(const Token& t, const char* text) {
  return t.kind == TokKind::kIdent && t.text == text;
}
bool is_punct(const Token& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

/// Index of the token matching the opener at `open` ("{"/"}", "("/")").
/// Returns tokens.size() when unbalanced (malformed input never loops).
std::size_t match_forward(const std::vector<Token>& toks, std::size_t open,
                          const char* opener, const char* closer) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (is_punct(toks[i], opener)) ++depth;
    else if (is_punct(toks[i], closer) && --depth == 0) return i;
  }
  return toks.size();
}

// ---------------------------------------------------------------------------
// R1: determinism — wall-clock / environment / libc-rand outside the
// wall-clock roots.  The simulation must be a pure function of
// (config, seed) at any thread count (docs/PARALLEL.md); only the real-time
// transport roots and the process bootstrap may read the host environment.
// ---------------------------------------------------------------------------

// layer/stem pairs allowed to touch wall clocks and the environment.
constexpr std::array<const char*, 2> kWallClockRoots = {
    "simnet/socket_transport",
    "apps/pardsm_node",
};

// Identifiers that are nondeterministic wherever they appear.
constexpr std::array<const char*, 10> kForbiddenIdents = {
    "rand",          "srand",          "random_device",
    "system_clock",  "steady_clock",   "high_resolution_clock",
    "getenv",        "gettimeofday",   "clock_gettime",
    "timespec_get",
};

// Identifiers forbidden only as direct calls (`time(...)`), so members and
// fields named `time`/`clock` stay legal.
constexpr std::array<const char*, 2> kForbiddenCalls = {"time", "clock"};

/// True when `name(` at token i reads as a call rather than a function
/// declaration or member access: declarations have a type / `&` / `*`
/// directly before the name, member calls have `.` or `->`.
bool looks_like_call(const std::vector<Token>& toks, std::size_t i) {
  if (i == 0) return true;
  const Token& prev = toks[i - 1];
  if (prev.kind != TokKind::kPunct) {
    // `return time(...)` / `co_return` are calls; `clock_t time(...)`,
    // `auto clock()` are declarations.
    return prev.text == "return" || prev.text == "co_return";
  }
  static const char* kCallPrefixes[] = {"::", "(", ",", ";", "{", "}", "=",
                                        "+",  "-", "!", "<", ">", "?", ":"};
  for (const char* p : kCallPrefixes) {
    if (prev.text == p) {
      // `x->time(` lexes '-' '>' — member access, not a call of ::time.
      if (prev.text == ">" && i >= 2 && is_punct(toks[i - 2], "-")) {
        return false;
      }
      return true;
    }
  }
  return false;
}

void rule_determinism(const FileScan& fs, std::vector<Diagnostic>& out) {
  const std::string key = fs.layer + "/" + fs.stem;
  for (const char* root : kWallClockRoots) {
    if (key == root) return;
  }
  const auto& toks = fs.lx.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    bool hit = false;
    for (const char* name : kForbiddenIdents) {
      if (t.text == name) {
        hit = true;
        break;
      }
    }
    if (!hit) {
      for (const char* name : kForbiddenCalls) {
        if (t.text == name && i + 1 < toks.size() &&
            is_punct(toks[i + 1], "(") && looks_like_call(toks, i)) {
          hit = true;
          break;
        }
      }
    }
    if (!hit) continue;
    out.push_back({fs.path, t.line, kRuleDeterminism,
                   "'" + t.text +
                       "' breaks (config, seed) determinism; use the "
                       "simulated clock / Rng, or move the call into a "
                       "wall-clock root (socket_transport, pardsm_node)"});
  }
}

// ---------------------------------------------------------------------------
// R2: rng-streams — <random> engines and distributions in simnet/mcs.
// Channel randomness must flow through simnet/rng.h (Rng, counter_rng):
// std:: distributions are not cross-platform deterministic and draw-order
// streams break the parallel engine's counter-based keying.
// ---------------------------------------------------------------------------

constexpr std::array<const char*, 27> kStdRandom = {
    "mt19937",
    "mt19937_64",
    "minstd_rand",
    "minstd_rand0",
    "default_random_engine",
    "knuth_b",
    "ranlux24",
    "ranlux48",
    "ranlux24_base",
    "ranlux48_base",
    "seed_seq",
    "uniform_int_distribution",
    "uniform_real_distribution",
    "normal_distribution",
    "lognormal_distribution",
    "bernoulli_distribution",
    "exponential_distribution",
    "poisson_distribution",
    "geometric_distribution",
    "binomial_distribution",
    "negative_binomial_distribution",
    "discrete_distribution",
    "piecewise_constant_distribution",
    "piecewise_linear_distribution",
    "cauchy_distribution",
    "gamma_distribution",
    "weibull_distribution",
};

void rule_rng_streams(const FileScan& fs, std::vector<Diagnostic>& out) {
  if (fs.layer != "simnet" && fs.layer != "mcs") return;
  if (fs.stem == "rng") return;  // the one place allowed to define streams
  for (const Include& inc : fs.lx.includes) {
    if (inc.angled && inc.target == "random") {
      out.push_back({fs.path, inc.line, kRuleRngStreams,
                     "#include <random> in " + fs.layer +
                         ": draw randomness from simnet/rng.h (Rng, "
                         "counter_rng) so streams stay deterministic and "
                         "coordinate-keyed"});
    }
  }
  for (const Token& t : fs.lx.tokens) {
    if (t.kind != TokKind::kIdent) continue;
    for (const char* name : kStdRandom) {
      if (t.text == name) {
        out.push_back({fs.path, t.line, kRuleRngStreams,
                       "'" + t.text +
                           "' bypasses the counter-based streams; use Rng / "
                           "counter_rng from simnet/rng.h"});
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// R3: pooled-reset — BodyPool keeps types with reset() constructed across
// recycles, so any member reset() does not clear carries the previous
// message's state into the next one (docs/HOTPATH.md, the
// unconditional-overwrite hazard).  Every member must either be cleared in
// reset() or carry an explicit `// pardsm-lint: overwritten-by-creator`
// annotation recording that every creation site overwrites it.
// ---------------------------------------------------------------------------

struct Member {
  std::string name;
  int line = 0;
};

struct PooledClass {
  std::string name;
  int first_line = 0;
  int last_line = 0;
  bool has_reset = false;
  std::set<std::string> reset_mentions;  ///< identifiers in reset()'s body
  std::vector<Member> members;
};

/// Scan one class body (tokens between body_open and its match) for data
/// members and the in-class reset() definition.
void scan_class_body(const std::vector<Token>& toks, std::size_t body_open,
                     std::size_t body_close, PooledClass& cls) {
  std::size_t j = body_open + 1;
  while (j < body_close) {
    const Token& t = toks[j];
    // Access specifiers.
    if ((is_ident(t, "public") || is_ident(t, "private") ||
         is_ident(t, "protected")) &&
        j + 1 < body_close && is_punct(toks[j + 1], ":")) {
      j += 2;
      continue;
    }
    // Nested types: skip their whole body (members belong to them).
    if (is_ident(t, "struct") || is_ident(t, "class") ||
        is_ident(t, "union") || is_ident(t, "enum")) {
      std::size_t k = j + 1;
      while (k < body_close && !is_punct(toks[k], "{") &&
             !is_punct(toks[k], ";")) {
        ++k;
      }
      if (k < body_close && is_punct(toks[k], "{")) {
        k = match_forward(toks, k, "{", "}");
      }
      while (k < body_close && !is_punct(toks[k], ";")) ++k;
      j = k + 1;
      continue;
    }
    // Declarations that are never data members.
    if (is_ident(t, "using") || is_ident(t, "typedef") ||
        is_ident(t, "friend") || is_ident(t, "static_assert")) {
      while (j < body_close && !is_punct(toks[j], ";")) ++j;
      ++j;
      continue;
    }
    if (is_punct(t, ";")) {
      ++j;
      continue;
    }

    // Generic declaration: scan ahead for the first structural stop.
    // Track the last depth-0 identifier (the declarator name) on the way.
    std::size_t k = j;
    std::string last_ident;
    int angle = 0, bracket = 0;
    std::size_t stop = body_close;
    char stop_kind = 0;
    while (k < body_close) {
      const Token& u = toks[k];
      if (u.kind == TokKind::kPunct) {
        const std::string& p = u.text;
        if (p == "<") ++angle;
        else if (p == ">" && angle > 0) --angle;
        else if (p == "[") ++bracket;
        else if (p == "]" && bracket > 0) --bracket;
        else if (angle == 0 && bracket == 0 &&
                 (p == "(" || p == "=" || p == "{" || p == ";")) {
          // alignas/decltype/noexcept parenthesized specifiers are part of
          // the declaration head, not a function signature.
          if (p == "(" && !last_ident.empty() &&
              (last_ident == "alignas" || last_ident == "decltype" ||
               last_ident == "noexcept")) {
            k = match_forward(toks, k, "(", ")") + 1;
            continue;
          }
          stop = k;
          stop_kind = p[0];
          break;
        }
      } else if (u.kind == TokKind::kIdent && angle == 0 && bracket == 0) {
        last_ident = u.text;
      }
      ++k;
    }
    if (stop >= body_close) break;

    if (stop_kind == '(') {
      // Member function (or constructor).  Skip the parameter list, then
      // everything up to the body or terminating ';'.
      const std::string fn = last_ident;
      std::size_t close = match_forward(toks, stop, "(", ")");
      std::size_t m = close + 1;
      while (m < body_close && !is_punct(toks[m], "{") &&
             !is_punct(toks[m], ";")) {
        if (is_punct(toks[m], "(")) {
          m = match_forward(toks, m, "(", ")");
        }
        ++m;
      }
      if (m < body_close && is_punct(toks[m], "{")) {
        const std::size_t end = match_forward(toks, m, "{", "}");
        if (fn == "reset") {
          cls.has_reset = true;
          for (std::size_t b = m + 1; b < end && b < body_close; ++b) {
            if (toks[b].kind == TokKind::kIdent) {
              cls.reset_mentions.insert(toks[b].text);
            }
          }
        }
        j = end + 1;
      } else {
        if (fn == "reset") cls.has_reset = true;  // out-of-line definition
        j = m + 1;
      }
      continue;
    }

    // Data member.  Record it, then consume through the initializer to ';'.
    if (!last_ident.empty()) {
      cls.members.push_back({last_ident, toks[stop].line});
    }
    std::size_t m = stop;
    while (m < body_close && !is_punct(toks[m], ";")) {
      if (is_punct(toks[m], "{")) m = match_forward(toks, m, "{", "}");
      else if (is_punct(toks[m], "(")) m = match_forward(toks, m, "(", ")");
      ++m;
    }
    j = m + 1;
  }
}

void rule_pooled_reset(const FileScan& fs, std::vector<Diagnostic>& out) {
  const auto& toks = fs.lx.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_ident(toks[i], "struct") && !is_ident(toks[i], "class")) continue;
    // Head: up to '{' (definition) or ';' (forward declaration).
    std::size_t head_end = i + 1;
    bool derives_body = false;
    bool saw_colon = false;
    std::string cls_name;
    while (head_end < toks.size() && !is_punct(toks[head_end], "{") &&
           !is_punct(toks[head_end], ";")) {
      const Token& u = toks[head_end];
      if (u.kind == TokKind::kIdent && cls_name.empty()) cls_name = u.text;
      if (is_punct(u, ":")) saw_colon = true;
      if (saw_colon && is_ident(u, "MessageBody")) derives_body = true;
      ++head_end;
    }
    if (head_end >= toks.size() || !is_punct(toks[head_end], "{") ||
        !derives_body) {
      continue;
    }
    const std::size_t body_close = match_forward(toks, head_end, "{", "}");
    PooledClass cls;
    cls.name = cls_name;
    cls.first_line = toks[i].line;
    cls.last_line =
        body_close < toks.size() ? toks[body_close].line : toks.back().line;
    scan_class_body(toks, head_end, body_close, cls);
    i = body_close;

    // Only types with reset() stay constructed across recycles; the rest
    // are destroyed and placement-new'ed, so they cannot carry stale state.
    if (!cls.has_reset) continue;

    for (const Member& m : cls.members) {
      if (cls.reset_mentions.count(m.name) > 0) continue;
      bool annotated = false;
      for (const FileScan::OverwriteAnno& a : fs.overwrites) {
        if (a.target_line < cls.first_line || a.target_line > cls.last_line) {
          continue;
        }
        if (a.names.empty() ? a.target_line == m.line
                            : std::find(a.names.begin(), a.names.end(),
                                        m.name) != a.names.end()) {
          annotated = true;
          break;
        }
      }
      if (annotated) continue;
      out.push_back(
          {fs.path, m.line, kRulePooledReset,
           "member '" + m.name + "' of pooled body '" + cls.name +
               "' is neither cleared in reset() nor annotated "
               "'// pardsm-lint: overwritten-by-creator' — a recycled slot "
               "would leak the previous message's state (docs/HOTPATH.md)"});
    }
  }
}

// ---------------------------------------------------------------------------
// R4: unordered-iter — hash-ordered containers where traversal order can
// reach messages or serialized output.  Two checks: (a) a range-for over an
// unordered container anywhere, (b) an unordered container declared in an
// order-sensitive layer (simnet, mcs, history, workload) — those must
// either move to an ordered/insertion-order container or carry an
// allow(unordered-iter) annotation justifying why they are never iterated.
// ---------------------------------------------------------------------------

constexpr std::array<const char*, 4> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

bool is_unordered_type(const Token& t) {
  if (t.kind != TokKind::kIdent) return false;
  for (const char* name : kUnorderedTypes) {
    if (t.text == name) return true;
  }
  return false;
}

void rule_unordered_iter(const FileScan& fs, std::vector<Diagnostic>& out) {
  const auto& toks = fs.lx.tokens;
  const bool order_sensitive = fs.layer == "simnet" || fs.layer == "mcs" ||
                               fs.layer == "history" ||
                               fs.layer == "workload";

  // Pass 1: unordered declarations — remember variable names, flag the
  // declaration itself in order-sensitive layers.
  std::set<std::string> unordered_vars;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_unordered_type(toks[i])) continue;
    const int decl_line = toks[i].line;
    const std::string type_name = toks[i].text;
    std::string var_name;
    if (i + 1 < toks.size() && is_punct(toks[i + 1], "<")) {
      int angle = 0;
      std::size_t k = i + 1;
      for (; k < toks.size(); ++k) {
        if (is_punct(toks[k], "<")) ++angle;
        else if (is_punct(toks[k], ">") && --angle == 0) break;
      }
      if (k + 1 < toks.size() && toks[k + 1].kind == TokKind::kIdent) {
        var_name = toks[k + 1].text;
        unordered_vars.insert(var_name);
      }
      i = k;
    }
    if (order_sensitive) {
      out.push_back(
          {fs.path, decl_line, kRuleUnorderedIter,
           "std::" + type_name +
               (var_name.empty() ? std::string()
                                 : " '" + var_name + "'") +
               " in order-sensitive code (" + fs.layer +
               "): hash order can leak into message or serialized order — "
               "use a sorted/insertion-order container, or annotate "
               "allow(unordered-iter) with why it is never iterated"});
    }
  }

  // Pass 2: range-for statements whose range names an unordered container.
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks[i], "for") || !is_punct(toks[i + 1], "(")) continue;
    const std::size_t close = match_forward(toks, i + 1, "(", ")");
    if (close >= toks.size()) continue;
    // The range-for ':' sits at depth 0 relative to the for-parens.
    std::size_t colon = toks.size();
    int depth = 0;
    for (std::size_t k = i + 2; k < close; ++k) {
      if (toks[k].kind != TokKind::kPunct) continue;
      const std::string& p = toks[k].text;
      if (p == "(" || p == "[" || p == "{") ++depth;
      else if (p == ")" || p == "]" || p == "}") --depth;
      else if (p == ":" && depth == 0) {
        colon = k;
        break;
      }
    }
    if (colon >= close) continue;
    for (std::size_t k = colon + 1; k < close; ++k) {
      if (toks[k].kind != TokKind::kIdent) continue;
      if (unordered_vars.count(toks[k].text) == 0 &&
          !is_unordered_type(toks[k])) {
        continue;
      }
      out.push_back(
          {fs.path, toks[i].line, kRuleUnorderedIter,
           "range-for over hash-ordered container '" + toks[k].text +
               "': traversal order depends on the hash seed/layout and is "
               "not a deterministic function of (config, seed)"});
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// R5: layer-dag — include edges must respect the layer order observed in
// the real include graph:
//   simnet <- history <- sharegraph <- workload <- mcs <- core <- apps
// (simnet is the foundation: check/rng/ids/transport; core hosts the
// paper-level analysis above the protocol layer).  A file may include its
// own layer and anything below it.
// ---------------------------------------------------------------------------

constexpr std::array<const char*, 7> kLayerOrder = {
    "simnet", "history", "sharegraph", "workload", "mcs", "core", "apps"};

void rule_layer_dag(const FileScan& fs, std::vector<Diagnostic>& out) {
  const int own = layer_rank(fs.layer);
  if (own < 0) return;  // not inside a ranked layer (tools, tests, fixtures)
  for (const Include& inc : fs.lx.includes) {
    if (inc.angled) continue;
    const std::size_t slash = inc.target.find('/');
    if (slash == std::string::npos) continue;
    const int dep = layer_rank(inc.target.substr(0, slash));
    if (dep < 0 || dep <= own) continue;
    out.push_back(
        {fs.path, inc.line, kRuleLayerDag,
         "layer '" + fs.layer + "' may not include '" + inc.target +
             "': the layer DAG is simnet <- history <- sharegraph <- "
             "workload <- mcs <- core <- apps (lower layers never depend "
             "on higher ones)"});
  }
}

}  // namespace

int layer_rank(const std::string& layer) {
  for (std::size_t i = 0; i < kLayerOrder.size(); ++i) {
    if (layer == kLayerOrder[i]) return static_cast<int>(i);
  }
  return -1;
}

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> names = {
      kRuleDeterminism, kRuleRngStreams, kRulePooledReset, kRuleUnorderedIter,
      kRuleLayerDag};
  return names;
}

void run_all_rules(const FileScan& fs, std::vector<Diagnostic>& out) {
  rule_determinism(fs, out);
  rule_rng_streams(fs, out);
  rule_pooled_reset(fs, out);
  rule_unordered_iter(fs, out);
  rule_layer_dag(fs, out);
}

}  // namespace pardsm::lint
