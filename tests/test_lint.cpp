// pardsm_lint rule-engine tests.  Two halves:
//
//  1. Unit tests over in-memory sources (scan_text / run_lint_on): lexer
//     corner cases, suppression targeting, annotation scoping, and the
//     call-vs-declaration heuristic of the determinism rule.
//  2. An integration sweep over tests/lint_fixtures/ — a tree shaped like
//     src/ with one seeded violation per rule plus one suppressed instance
//     of each.  The test pins every expected finding to its exact
//     file:line, so a rule that drifts (fires elsewhere, or not at all)
//     fails loudly.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "engine.h"
#include "lexer.h"
#include "rules.h"
#include "scan.h"

namespace lint = pardsm::lint;

namespace {

/// "file:line:rule" keys for order-insensitive comparison with readable
/// gtest diffs.
std::vector<std::string> keys(const std::vector<lint::Diagnostic>& diags) {
  std::vector<std::string> out;
  out.reserve(diags.size());
  for (const lint::Diagnostic& d : diags) {
    out.push_back(d.file + ":" + std::to_string(d.line) + ":" + d.rule);
  }
  return out;
}

lint::Report lint_one(std::string rel, std::string_view text) {
  return lint::run_lint_on({lint::scan_text(std::move(rel), text)});
}

}  // namespace

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(LintLexer, CommentsAndStringsProduceNoIdentTokens) {
  const auto lx = lint::lex(
      "// std::rand() in a comment\n"
      "/* system_clock in a block */\n"
      "const char* s = \"getenv mt19937\";\n"
      "const char* r = R\"(steady_clock)\";\n");
  for (const lint::Token& t : lx.tokens) {
    if (t.kind != lint::TokKind::kIdent) continue;
    EXPECT_NE(t.text, "rand");
    EXPECT_NE(t.text, "system_clock");
    EXPECT_NE(t.text, "getenv");
    EXPECT_NE(t.text, "mt19937");
    EXPECT_NE(t.text, "steady_clock");
  }
  ASSERT_EQ(lx.comments.size(), 2u);
  EXPECT_TRUE(lx.comments[0].standalone);
  EXPECT_TRUE(lx.comments[1].standalone);
}

TEST(LintLexer, RawStringWithCustomDelimiter) {
  // The ')"' inside the raw string is NOT the terminator; only ')delim"' is.
  const auto lx = lint::lex("auto s = R\"delim(x: )\" rand() )delim\"; int after;\n");
  bool saw_after = false;
  for (const lint::Token& t : lx.tokens) {
    if (t.kind == lint::TokKind::kIdent) {
      EXPECT_NE(t.text, "rand") << "raw-string contents leaked into tokens";
      if (t.text == "after") saw_after = true;
    }
  }
  EXPECT_TRUE(saw_after) << "lexer lost its footing after the raw string";
}

TEST(LintLexer, IncludeParsingAndTrailingCommentOnDirective) {
  const auto lx = lint::lex(
      "#include \"mcs/protocol.h\"\n"
      "#include <vector>\n"
      "#include \"apps/x.h\"  // pardsm-lint: allow(layer-dag)\n");
  ASSERT_EQ(lx.includes.size(), 3u);
  EXPECT_FALSE(lx.includes[0].angled);
  EXPECT_EQ(lx.includes[0].target, "mcs/protocol.h");
  EXPECT_TRUE(lx.includes[1].angled);
  EXPECT_EQ(lx.includes[1].target, "vector");
  EXPECT_EQ(lx.includes[2].line, 3);
  // The comment after the directive must survive as a trailing comment so
  // allow(...) markers work on #include lines.
  ASSERT_EQ(lx.comments.size(), 1u);
  EXPECT_EQ(lx.comments[0].line, 3);
  EXPECT_FALSE(lx.comments[0].standalone);
}

TEST(LintScan, LayerStemDerivationAndSuppressionTargeting) {
  const lint::FileScan fs = lint::scan_text(
      "mcs/engine_helpers.cpp",
      "int a;  // pardsm-lint: allow(determinism)\n"
      "// pardsm-lint: allow(rng-streams)\n"
      "int b;\n");
  EXPECT_EQ(fs.layer, "mcs");
  EXPECT_EQ(fs.stem, "engine_helpers");
  EXPECT_EQ(fs.base, "engine_helpers.cpp");
  EXPECT_TRUE(fs.allowed("determinism", 1));   // trailing: own line
  EXPECT_TRUE(fs.allowed("rng-streams", 3));   // standalone: next line
  EXPECT_FALSE(fs.allowed("rng-streams", 2));
  EXPECT_FALSE(fs.allowed("determinism", 3));
}

// ---------------------------------------------------------------------------
// R1 determinism: call-vs-declaration discrimination and the allowlist
// ---------------------------------------------------------------------------

TEST(LintRules, DeterminismFlagsCallsNotDeclarations) {
  const lint::Report r = lint_one(
      "mcs/clocky.cpp",
      "struct S {\n"
      "  long time = 0;\n"                       // member named time: legal
      "  long clock() const { return time; }\n"  // method named clock: legal
      "};\n"
      "long f() { return time(nullptr); }\n"     // line 5: a real call
      "long g(S& s) { return s.clock(); }\n");   // member call: legal
  EXPECT_EQ(keys(r.findings),
            (std::vector<std::string>{"mcs/clocky.cpp:5:determinism"}));
}

TEST(LintRules, DeterminismAllowlistCoversWallClockRoots) {
  const std::string body = "#include <chrono>\nauto t = std::chrono::steady_clock::now();\n";
  EXPECT_TRUE(lint_one("simnet/socket_transport.cpp", body).clean());
  EXPECT_TRUE(lint_one("apps/pardsm_node.cpp", body).clean());
  // The same text anywhere else fires, mcs/engine and
  // simnet/thread_runtime included.
  EXPECT_EQ(lint_one("mcs/engine.cpp", body).findings.size(), 1u);
  EXPECT_EQ(lint_one("simnet/thread_runtime.cpp", body).findings.size(), 1u);
  EXPECT_EQ(lint_one("mcs/engine_core.cpp", body).findings.size(), 1u);
  EXPECT_EQ(lint_one("core/api.cpp", body).findings.size(), 1u);
}

// ---------------------------------------------------------------------------
// R2 rng-streams: layer scoping and the rng.h carve-out
// ---------------------------------------------------------------------------

TEST(LintRules, RngStreamsOnlyInSimnetAndMcsAndNotInRngItself) {
  const std::string body = "#include <random>\nstd::mt19937 gen(1);\n";
  EXPECT_EQ(lint_one("simnet/channel.cpp", body).findings.size(), 2u);
  EXPECT_EQ(lint_one("mcs/proto.cpp", body).findings.size(), 2u);
  EXPECT_TRUE(lint_one("simnet/rng.h", body).clean());
  EXPECT_TRUE(lint_one("workload/gen.cpp", body).clean());  // other layers exempt
}

// ---------------------------------------------------------------------------
// R3 pooled-reset: annotation scoping across classes in one file
// ---------------------------------------------------------------------------

TEST(LintRules, PooledResetNamedAnnotationDoesNotLeakAcrossClasses) {
  // Both classes have a member `x`; only A's annotation names it.  B's `x`
  // must still fire even though the file contains an annotation for "x".
  const lint::Report r = lint_one(
      "mcs/two_bodies.cpp",
      "struct MessageBody {};\n"
      "struct A : MessageBody {\n"
      "  int x = 0;\n"
      "  // pardsm-lint: overwritten-by-creator(x)\n"
      "  void reset() {}\n"
      "};\n"
      "struct B : MessageBody {\n"
      "  int x = 0;\n"  // line 8
      "  void reset() {}\n"
      "};\n");
  EXPECT_EQ(keys(r.findings),
            (std::vector<std::string>{"mcs/two_bodies.cpp:8:pooled-reset"}));
}

TEST(LintRules, PooledResetSkipsTypesWithoutReset) {
  EXPECT_TRUE(lint_one("mcs/no_reset.cpp",
                       "struct MessageBody {};\n"
                       "struct P : MessageBody { int stale = 0; };\n")
                  .clean());
}

// ---------------------------------------------------------------------------
// R4 unordered-iter: layer sensitivity of the declaration check
// ---------------------------------------------------------------------------

TEST(LintRules, UnorderedDeclOnlyFlaggedInOrderSensitiveLayers) {
  const std::string decl = "#include <unordered_map>\nstd::unordered_map<int,int> m;\n";
  EXPECT_EQ(lint_one("history/h.cpp", decl).findings.size(), 1u);
  EXPECT_EQ(lint_one("workload/w.cpp", decl).findings.size(), 1u);
  EXPECT_TRUE(lint_one("core/c.cpp", decl).clean());
  EXPECT_TRUE(lint_one("apps/a.cpp", decl).clean());
  // ...but a range-for over one fires anywhere, core included.
  const lint::Report r = lint_one(
      "core/c.cpp",
      "#include <unordered_map>\n"
      "std::unordered_map<int,int> m;\n"
      "int f() { int s = 0; for (auto& kv : m) s += kv.second; return s; }\n");
  EXPECT_EQ(keys(r.findings),
            (std::vector<std::string>{"core/c.cpp:3:unordered-iter"}));
}

// ---------------------------------------------------------------------------
// R5 layer-dag: rank table and angled-include exemption
// ---------------------------------------------------------------------------

TEST(LintRules, LayerRankMatchesDocumentedOrder) {
  EXPECT_LT(lint::layer_rank("simnet"), lint::layer_rank("history"));
  EXPECT_LT(lint::layer_rank("history"), lint::layer_rank("sharegraph"));
  EXPECT_LT(lint::layer_rank("sharegraph"), lint::layer_rank("workload"));
  EXPECT_LT(lint::layer_rank("workload"), lint::layer_rank("mcs"));
  EXPECT_LT(lint::layer_rank("mcs"), lint::layer_rank("core"));
  EXPECT_LT(lint::layer_rank("core"), lint::layer_rank("apps"));
  EXPECT_EQ(lint::layer_rank("tools"), -1);
}

TEST(LintRules, LayerDagFlagsUpwardQuotedIncludesOnly) {
  const lint::Report r = lint_one(
      "simnet/foo.cpp",
      "#include \"simnet/check.h\"\n"   // own layer: fine
      "#include \"mcs/protocol.h\"\n"   // line 2: upward edge
      "#include <unordered_map>\n"      // angled: exempt from layer rule
      "#include \"local_helper.h\"\n"); // no layer prefix: fine
  // The unordered_map *include* is a directive, not a declaration token, so
  // the unordered-iter rule stays quiet even though simnet is sensitive.
  EXPECT_EQ(keys(r.findings),
            (std::vector<std::string>{"simnet/foo.cpp:2:layer-dag"}));
}

// ---------------------------------------------------------------------------
// Report rendering
// ---------------------------------------------------------------------------

TEST(LintReport, TextAndJsonRenderings) {
  const lint::Report r =
      lint_one("mcs/bad.cpp", "int f() { return std::rand(); }\n");
  ASSERT_EQ(r.findings.size(), 1u);
  const std::string text = lint::render_text(r);
  EXPECT_NE(text.find("mcs/bad.cpp:1: [determinism]"), std::string::npos);
  EXPECT_NE(text.find("1 file"), std::string::npos);
  const std::string json = lint::render_json(r);
  EXPECT_NE(json.find("\"schema\": \"pardsm-lint-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"clean\": false"), std::string::npos);
  EXPECT_NE(json.find("\"determinism\": 1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Fixture tree: every rule fires at its pinned line, suppressions hold
// ---------------------------------------------------------------------------

TEST(LintFixtures, EveryRuleFiresExactlyWhereSeeded) {
  lint::LintOptions opts;
  opts.roots = {LINT_FIXTURE_DIR};
  const lint::Report r = lint::run_lint(opts);

  EXPECT_EQ(r.files_scanned, 7);

  const std::vector<std::string> expected_findings = {
      "history/fixture_layer.cpp:6:layer-dag",
      "history/fixture_unordered.cpp:10:unordered-iter",
      "history/fixture_unordered.cpp:12:unordered-iter",
      "mcs/fixture_determinism.cpp:11:determinism",
      "mcs/fixture_determinism.cpp:15:determinism",
      "mcs/fixture_determinism.cpp:19:determinism",
      "mcs/fixture_pooled_reset.cpp:9:pooled-reset",
      "simnet/fixture_rng.cpp:4:rng-streams",
      "simnet/fixture_rng.cpp:9:rng-streams",
      "simnet/fixture_rng.cpp:13:rng-streams",
      "simnet/fixture_rng.cpp:14:rng-streams",
  };
  EXPECT_EQ(keys(r.findings), expected_findings);

  const std::vector<std::string> expected_suppressed = {
      "history/fixture_layer.cpp:7:layer-dag",
      "history/fixture_unordered.cpp:29:unordered-iter",
      "mcs/fixture_determinism.cpp:23:determinism",
      "mcs/fixture_determinism.cpp:27:determinism",
      "mcs/fixture_pooled_reset.cpp:18:pooled-reset",
      "simnet/fixture_rng.cpp:19:rng-streams",
  };
  EXPECT_EQ(keys(r.suppressed), expected_suppressed);

  // Every rule fired at least once — no silent dead rule.
  for (const std::string& rule : lint::rule_names()) {
    EXPECT_GT(r.by_rule.count(rule), 0u) << "rule never fired: " << rule;
  }

  // The lexer-trap and allowlist fixtures contribute zero diagnostics.
  for (const lint::Diagnostic& d : r.findings) {
    EXPECT_EQ(d.file.find("fixture_lexer_traps"), std::string::npos);
    EXPECT_EQ(d.file.find("socket_transport"), std::string::npos);
  }
}

TEST(LintFixtures, RuleNamesAreStable) {
  EXPECT_EQ(lint::rule_names(),
            (std::vector<std::string>{"determinism", "rng-streams",
                                      "pooled-reset", "unordered-iter",
                                      "layer-dag"}));
}
