// Pins halfback-lint's behaviour. Each flat fixture under
// tests/lint/fixtures/ runs as a one-file tree posing under a logical src/
// path (the path rules scope on); each mini-tree under
// tests/lint/fixtures/analyze/ runs through analyze_tree(), the exact code
// path the CLI and CI exercise. Red fixtures carry a known number of
// violations per rule, green ones carry none, every registered rule goes
// red on some fixture, and — the teeth — the live repository analyzes
// clean, with inline `// lint: <tag>(reason)` tags as the only exceptions.
#include <algorithm>
#include <filesystem>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "model.h"
#include "rules.h"

namespace lint = halfback::lint;

namespace {

std::filesystem::path fixture_dir() { return HALFBACK_LINT_FIXTURES; }
std::filesystem::path analyze_fixture_dir() { return fixture_dir() / "analyze"; }
std::filesystem::path repo_root() { return HALFBACK_REPO_ROOT; }

/// Text of a flat fixture file.
std::string fixture(const std::string& name) {
  return lint::read_file(fixture_dir() / name);
}

std::string describe(const std::vector<lint::Finding>& findings) {
  std::ostringstream out;
  for (const lint::Finding& f : findings) {
    out << f.path << ":" << f.line << ": [" << f.rule << "] " << f.message
        << "\n";
  }
  return std::move(out).str();
}

/// In-memory model over hand-written files — for cases a disk fixture
/// cannot express (single-file probes, files posing under other paths).
lint::ProjectModel model_of(
    std::vector<std::pair<std::string, std::string>> files) {
  lint::ProjectModel model;
  for (auto& [path, text] : files) {
    model.add_file(lint::SourceFile{path, std::move(text)});
  }
  model.finalize();
  return model;
}

/// Findings of `rule` (every rule when empty) on a one-file tree holding
/// `text` at `logical_path`.
std::vector<lint::Finding> run_rule(std::string logical_path, std::string text,
                                    std::string_view rule = {}) {
  return lint::analyze_model(
      model_of({{std::move(logical_path), std::move(text)}}), {}, rule);
}

std::vector<lint::Finding> analyze_fixture(const std::string& name,
                                           std::string_view only_rule = {}) {
  return lint::analyze_tree(analyze_fixture_dir() / name, only_rule);
}

/// The red flat fixtures: the file, the src/ path it poses under (the path
/// its rule scopes on), and the rule it exists to trip.
struct FlatFixture {
  const char* file;
  const char* logical_path;
  const char* rule;
};
constexpr FlatFixture kRedFlatFixtures[] = {
    {"alloc.cpp", "src/fixture/alloc.cpp", "naked-new-delete"},
    {"fire.h", "src/fixture/fire.h", "noexcept-fire"},
    {"hot.cpp", "src/fixture/hot.cpp", "hot-path-std-function"},
    {"no_pragma.h", "src/fixture/no_pragma.h", "pragma-once"},
    {"nondet.cpp", "src/fixture/nondet.cpp", "nondeterminism"},
    {"pod.h", "src/fixture/pod.h", "uninitialized-pod-member"},
    {"stdout.cpp", "src/fixture/stdout.cpp", "stdout-accounting"},
    {"units.h", "src/fixture/units.h", "raw-unit-type"},
    {"unordered.cpp", "src/exp/fixture_unordered.cpp", "unordered-iteration"},
};

/// The six model rules, in the order all_rules() runs them after the nine
/// token rules the flat fixtures above name.
constexpr std::string_view kModelRules[] = {
    "layering", "hot_path_reach", "shard_safety",
    "rng_taint", "effects", "sim_escape",
};

/// Findings of every rule but the nine token rules on a fixture tree. Some
/// trees put their cross-TU evidence on a naked `new` or an ambient RNG,
/// which naked-new-delete and nondeterminism flag as well; dropping only
/// those keeps an exact count over all six model rules.
std::vector<lint::Finding> model_rule_findings(const std::string& name) {
  auto findings = analyze_fixture(name);
  std::erase_if(findings, [](const lint::Finding& f) {
    return std::ranges::any_of(kRedFlatFixtures, [&](const FlatFixture& flat) {
      return f.rule == flat.rule;
    });
  });
  return findings;
}

// ---- token rules ------------------------------------------------------------

TEST(NondeterminismRule, FixtureHasExactlySixFindings) {
  const auto findings = run_rule("src/fixture/nondet.cpp",
                                 fixture("nondet.cpp"), "nondeterminism");
  EXPECT_EQ(findings.size(), 6u) << describe(findings);
}

TEST(NondeterminismRule, IgnoresFilesOutsideSrc) {
  EXPECT_TRUE(run_rule("tools/fixture/nondet.cpp", fixture("nondet.cpp"),
                       "nondeterminism")
                  .empty());
}

TEST(NondeterminismRule, AccessorDeclarationIsNotACall) {
  // The regression that motivated the declaration heuristic: an accessor
  // named like a banned function (sim::Simulator::random()).
  EXPECT_TRUE(run_rule("src/fixture/accessor.h",
                       "#pragma once\n"
                       "struct S {\n"
                       "  Random& random() { return rng_; }\n"
                       "  double time() const;\n"
                       "};\n",
                       "nondeterminism")
                  .empty());
}

TEST(NondeterminismRule, StatementKeywordBeforeNameIsACall) {
  EXPECT_EQ(run_rule("src/fixture/call.cpp",
                     "long f() { return time(nullptr); }\n", "nondeterminism")
                .size(),
            1u);
}

TEST(NondeterminismRule, SameLineSuppressionSilencesTheFinding) {
  EXPECT_TRUE(run_rule("src/fixture/sup.cpp",
                       "long f() { return rand(); }  // lint: nondet-ok(test)\n",
                       "nondeterminism")
                  .empty());
}

TEST(UnorderedIterationRule, FixtureHasExactlyTwoFindings) {
  const auto findings =
      run_rule("src/exp/fixture_unordered.cpp", fixture("unordered.cpp"),
               "unordered-iteration");
  EXPECT_EQ(findings.size(), 2u) << describe(findings);
}

TEST(UnorderedIterationRule, OnlyWatchesTraceHashedDirs) {
  // The same iteration is legal in, say, src/net/ — order there never
  // reaches a trace or a results table.
  EXPECT_TRUE(run_rule("src/net/fixture_unordered.cpp",
                       fixture("unordered.cpp"), "unordered-iteration")
                  .empty());
}

TEST(UnorderedIterationRule, MembersDeclaredInTheCompanionHeaderAreWatched) {
  // A class declares its unordered members in the header and iterates
  // them in the .cpp; the rule reads both.
  const auto findings =
      analyze_fixture("unordered_header", "unordered-iteration");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].path, "src/audit/books.cpp");
  EXPECT_EQ(findings[0].line, 7);
  EXPECT_NE(findings[0].message.find("'counts_'"), std::string::npos)
      << findings[0].message;
}

TEST(UnorderedIterationRule, OrderedOkSilencesTheCompanionHeaderCase) {
  const auto findings = analyze_fixture("unordered_header_ok");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(RawUnitTypeRule, FixtureHasExactlyThreeFindings) {
  const auto findings =
      run_rule("src/fixture/units.h", fixture("units.h"), "raw-unit-type");
  EXPECT_EQ(findings.size(), 3u) << describe(findings);
}

TEST(RawUnitTypeRule, OnlyWatchesHeaders) {
  EXPECT_TRUE(
      run_rule("src/fixture/units.cpp", fixture("units.h"), "raw-unit-type")
          .empty());
}

TEST(RawUnitTypeRule, SuggestsTheMatchingStrongType) {
  const auto findings =
      run_rule("src/fixture/units.h", fixture("units.h"), "raw-unit-type");
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_NE(findings[0].message.find("sim::Time"), std::string::npos)
      << findings[0].message;  // rtt_ms
  EXPECT_NE(findings[1].message.find("sim::Bytes"), std::string::npos)
      << findings[1].message;  // buffer_bytes
  EXPECT_NE(findings[2].message.find("sim::DataRate"), std::string::npos)
      << findings[2].message;  // rate_mbps
}

TEST(NakedNewDeleteRule, FixtureHasExactlyTwoFindings) {
  const auto findings = run_rule("src/fixture/alloc.cpp", fixture("alloc.cpp"),
                                 "naked-new-delete");
  EXPECT_EQ(findings.size(), 2u) << describe(findings);
}

TEST(UninitializedPodMemberRule, FixtureHasExactlyFourFindings) {
  const auto findings = run_rule("src/fixture/pod.h", fixture("pod.h"),
                                 "uninitialized-pod-member");
  EXPECT_EQ(findings.size(), 4u) << describe(findings);
  // The pointer member gets the sharper message.
  EXPECT_NE(findings[3].message.find("wild pointer"), std::string::npos)
      << findings[3].message;
}

TEST(PragmaOnceRule, FlagsGuardlessHeader) {
  const auto findings = run_rule("src/fixture/no_pragma.h",
                                 fixture("no_pragma.h"), "pragma-once");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 1);
}

TEST(PragmaOnceRule, IgnoresSourceFiles) {
  EXPECT_TRUE(
      run_rule("src/fixture/alloc.cpp", fixture("alloc.cpp"), "pragma-once")
          .empty());
}

TEST(HotPathFunctionRule, FixtureHasExactlyOneFinding) {
  const auto findings = run_rule("src/fixture/hot.cpp", fixture("hot.cpp"),
                                 "hot-path-std-function");
  EXPECT_EQ(findings.size(), 1u) << describe(findings);
}

TEST(HotPathFunctionRule, UnannotatedFilesAreExempt) {
  // Identical content minus the first line (the hot-path annotation).
  std::string text = fixture("hot.cpp");
  text.erase(0, text.find('\n') + 1);
  EXPECT_TRUE(run_rule("src/fixture/cold.cpp", std::move(text),
                       "hot-path-std-function")
                  .empty());
}

TEST(NoexceptFireRule, FixtureHasExactlyOneFinding) {
  const auto findings =
      run_rule("src/fixture/fire.h", fixture("fire.h"), "noexcept-fire");
  EXPECT_EQ(findings.size(), 1u) << describe(findings);
}

TEST(StdoutAccountingRule, FixtureHasExactlyFiveFindings) {
  const auto findings = run_rule("src/fixture/stdout.cpp",
                                 fixture("stdout.cpp"), "stdout-accounting");
  EXPECT_EQ(findings.size(), 5u) << describe(findings);
}

TEST(StdoutAccountingRule, ReportingLayersAndNonSrcAreExempt) {
  // The exporters (src/telemetry/) and renderers (src/stats/) are the
  // designated print layers; bench/tools code is out of scope entirely.
  for (const char* path : {"src/telemetry/fixture.cpp",
                           "src/stats/fixture.cpp", "bench/fixture.cpp"}) {
    EXPECT_TRUE(
        run_rule(path, fixture("stdout.cpp"), "stdout-accounting").empty())
        << path;
  }
}

TEST(StdoutAccountingRule, StderrAndBufferFormattingAreFine) {
  EXPECT_TRUE(run_rule("src/fixture/ok.cpp",
                       "void f(double v) {\n"
                       "  char buf[32];\n"
                       "  std::snprintf(buf, sizeof buf, \"%g\", v);\n"
                       "  std::fprintf(stderr, \"warn %g\\n\", v);\n"
                       "}\n",
                       "stdout-accounting")
                  .empty());
}

TEST(StdoutAccountingRule, SameLineSuppressionSilencesTheFinding) {
  EXPECT_TRUE(
      run_rule("src/fixture/sup.cpp",
               "void f() { std::printf(\"x\"); }  // lint: stdout-ok(test)\n",
               "stdout-accounting")
          .empty());
}

TEST(CleanFixture, ProducesZeroFindingsAcrossAllRules) {
  // Banned names live only in comments, strings, and raw strings here — a
  // tokenizer that leaked them into code tokens would fail this test.
  const auto findings = run_rule("src/fixture/clean.h", fixture("clean.h"));
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(BrokenFixture, TripsExactlyTheThreeExpectedRules) {
  // CI's red proof runs the CLI over this tree and asserts exit 1; this
  // test pins what it trips on so the proof cannot silently go stale.
  const auto findings = analyze_fixture("broken");
  std::set<std::string> rules;
  for (const lint::Finding& f : findings) rules.insert(f.rule);
  EXPECT_EQ(findings.size(), 3u) << describe(findings);
  EXPECT_EQ(rules, (std::set<std::string>{"naked-new-delete",
                                          "nondeterminism",
                                          "uninitialized-pod-member"}));
}

// ---- layering ---------------------------------------------------------------

TEST(LayeringRule, IncludeCycleFixtureTripsOnce) {
  const auto findings = analyze_fixture("cycle");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "layering");
  EXPECT_NE(findings[0].message.find("include cycle"), std::string::npos)
      << findings[0].message;
  // The cycle is spelled out end to end.
  EXPECT_NE(findings[0].message.find("src/net/cycle_a.h -> "
                                     "src/net/cycle_b.h -> "
                                     "src/net/cycle_a.h"),
            std::string::npos)
      << findings[0].message;
}

TEST(LayeringRule, UpwardIncludeFixtureTripsOnce) {
  const auto findings = analyze_fixture("upward");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "layering");
  EXPECT_EQ(findings[0].path, "src/net/uses_exp.h");
  EXPECT_NE(findings[0].message.find("may not include"), std::string::npos);
}

TEST(LayeringRule, SuppressionCommentSilencesAnUpwardInclude) {
  const auto model = model_of({
      {"src/exp/top.h", "#pragma once\n"},
      {"src/net/low.h",
       "#pragma once\n"
       "// lint: layer-ok(fixture: sanctioned exception)\n"
       "#include \"exp/top.h\"\n"},
  });
  const auto findings = lint::analyze_model(model, {}, "layering");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(LayeringRule, ObservabilityInterfaceHeadersAreSanctioned) {
  // net/ may include the telemetry hub and the recording header (track.h)
  // but not the rest of the telemetry layer: not the exporters, and not
  // the instruments a track records into (span.h), which only tracks name.
  const auto model = model_of({
      {"src/telemetry/hub.h", "#pragma once\n"},
      {"src/telemetry/track.h", "#pragma once\n"},
      {"src/telemetry/export.h", "#pragma once\n"},
      {"src/telemetry/span.h", "#pragma once\n"},
      {"src/net/a.h", "#pragma once\n#include \"telemetry/hub.h\"\n"},
      {"src/net/b.h", "#pragma once\n#include \"telemetry/export.h\"\n"},
      {"src/net/c.h", "#pragma once\n#include \"telemetry/track.h\"\n"},
      {"src/net/d.h", "#pragma once\n#include \"telemetry/span.h\"\n"},
  });
  const auto findings = lint::analyze_model(model, {}, "layering");
  ASSERT_EQ(findings.size(), 2u) << describe(findings);
  EXPECT_EQ(findings[0].path, "src/net/b.h");
  EXPECT_EQ(findings[1].path, "src/net/d.h");
}

TEST(LayeringRule, LayerGraphDotNamesLayersAndAggregatesEdges) {
  const auto model = model_of({
      {"src/sim/base.h", "#pragma once\n"},
      {"src/net/a.h", "#pragma once\n#include \"sim/base.h\"\n"},
      {"src/net/b.h", "#pragma once\n#include \"sim/base.h\"\n"},
  });
  const std::string dot = model.layer_graph_dot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("\"net\" -> \"sim\" [label=\"2\"]"), std::string::npos)
      << dot;
}

// ---- transitive hot-path proofs --------------------------------------------

TEST(HotPathReachRule, TransitiveAllocationFixtureTrips) {
  const auto findings = model_rule_findings("hotalloc");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "hot_path_reach");
  EXPECT_EQ(findings[0].path, "src/sim/deep.h");
  // The proof names the call chain from the fire() root.
  EXPECT_NE(findings[0].message.find("HotTimer::fire -> "
                                     "halfback::sim::deep_stage"),
            std::string::npos)
      << findings[0].message;
}

TEST(HotPathReachRule, UnreachableAllocationIsNotCharged) {
  // Same allocating helper, but nothing on the hot path calls it.
  const auto findings = run_rule(
      "src/sim/cold.h",
      "#pragma once\n"
      "namespace halfback::sim {\n"
      "inline int* setup_only() { return new int{4}; }\n"
      "}  // namespace halfback::sim\n",
      "hot_path_reach");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(HotPathReachRule, SuppressionAtTheEvidenceSiteSilences) {
  const auto findings = run_rule(
      "src/sim/ev.h",
      "#pragma once\n"
      "namespace halfback::sim {\n"
      "struct E {\n"
      "  void fire() noexcept override {\n"
      "    // lint: hot-ok(fixture: amortized)\n"
      "    buf_.push_back(1);\n"
      "  }\n"
      "  std::vector<int> buf_;\n"
      "};\n"
      "}  // namespace halfback::sim\n",
      "hot_path_reach");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(HotPathReachRule, SenderPipelineEntriesAreRootsAndVirtualDispatchTrips) {
  const auto findings = analyze_fixture("virtualhot");
  ASSERT_EQ(findings.size(), 2u) << describe(findings);
  // on_packet -> hook_->deliver(): a virtual call on the per-packet path.
  EXPECT_EQ(findings[0].rule, "hot_path_reach");
  EXPECT_EQ(findings[0].path, "src/transport/pipe.h");
  EXPECT_NE(findings[0].message.find("virtual call"), std::string::npos)
      << findings[0].message;
  EXPECT_NE(findings[0].message.find("'deliver'"), std::string::npos)
      << findings[0].message;
  // on_rto -> rearm_timer(): std::function construction one TU away.
  EXPECT_EQ(findings[1].path, "src/transport/slow_helper.h");
  EXPECT_NE(findings[1].message.find("std::function construction"),
            std::string::npos)
      << findings[1].message;
  EXPECT_NE(findings[1].message.find("StaticSender::on_rto -> "
                                     "halfback::transport::rearm_timer"),
            std::string::npos)
      << findings[1].message;
}

TEST(HotPathReachRule, NonVirtualMemberCallsAreNotFlagged) {
  // A member call whose name matches no virtual declaration is plain
  // devirtualized CRTP plumbing — no finding.
  const auto findings = run_rule(
      "src/transport/crtp.h",
      "#pragma once\n"
      "namespace halfback::transport {\n"
      "struct Policy {\n"
      "  void on_ack_hook(int n) { count_ += n; }\n"
      "  int count_ = 0;\n"
      "};\n"
      "struct S {\n"
      "  void on_packet(int n) { policy_.on_ack_hook(n); }\n"
      "  Policy policy_;\n"
      "};\n"
      "}  // namespace halfback::transport\n",
      "hot_path_reach");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(HotPathReachRule, SuppressionTagsTheSanctionedVirtualSeam) {
  const auto findings = run_rule(
      "src/transport/seam.h",
      "#pragma once\n"
      "namespace halfback::transport {\n"
      "struct Base {\n"
      "  virtual void on_segment(int seq) = 0;\n"
      "};\n"
      "struct Agent {\n"
      "  void on_packet(int seq) {\n"
      "    // lint: hot-ok(fixture: the one type-erased seam)\n"
      "    sender_->on_segment(seq);\n"
      "  }\n"
      "  Base* sender_ = nullptr;\n"
      "};\n"
      "}  // namespace halfback::transport\n",
      "hot_path_reach");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

// ---- shard safety -----------------------------------------------------------

TEST(ShardSafetyRule, HiddenGlobalsFixtureTripsBothKinds) {
  const auto findings = analyze_fixture("global");
  ASSERT_EQ(findings.size(), 2u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "shard_safety");
  EXPECT_NE(findings[0].message.find("halfback::net::g_total_packets"),
            std::string::npos);
  EXPECT_NE(findings[1].message.find("halfback::net::sequence::next"),
            std::string::npos);
}

TEST(ShardSafetyRule, ShardOkTaggedSitesAreClean) {
  // Identical state to `global`, but each site carries an inline
  // `// lint: shard-ok(reason)` justification.
  const auto findings = analyze_fixture("global_allowed");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(ShardSafetyRule, ConstAndConstexprStateIsNotInventoried) {
  const auto findings = run_rule(
      "src/net/tables.h",
      "#pragma once\n"
      "namespace halfback::net {\n"
      "constexpr int kWindow = 64;\n"
      "const char* const kName = \"halfback\";\n"
      "inline int lookup(int i) {\n"
      "  static constexpr int kTable[2] = {1, 2};\n"
      "  return kTable[i & 1];\n"
      "}\n"
      "}  // namespace halfback::net\n",
      "shard_safety");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(Model, StaticDeclsRecordEveryStorageKindWithItsConstness) {
  // One inventory serves three consumers: shard_safety and the effect
  // engine's global_mut read the mutable entries, sim_escape reads all.
  const auto model = model_of({
      {"src/net/s.h",
       "#pragma once\n"
       "namespace halfback::net {\n"
       "int g_count = 0;\n"
       "const int kLimit = 4;\n"
       "constexpr int kWindow = 64;\n"
       "struct Pool {\n"
       "  static int live;\n"
       "  int per_instance = 0;\n"
       "};\n"
       "inline int next() {\n"
       "  static int seq = 0;\n"
       "  static const int kStep = 1;\n"
       "  return seq += kStep;\n"
       "}\n"
       "}  // namespace halfback::net\n"},
  });
  std::vector<std::string> decls;
  for (const lint::StaticDecl& decl : model.static_decls()) {
    decls.push_back(decl.qualified + (decl.is_const ? " const" : "") +
                    (decl.is_local_static ? " local" : ""));
  }
  EXPECT_EQ(decls, (std::vector<std::string>{
                       "halfback::net::g_count",
                       "halfback::net::kLimit const",
                       "halfback::net::Pool::live",
                       "halfback::net::next::seq local",
                       "halfback::net::next::kStep const local",
                   }));
}

// ---- determinism taint ------------------------------------------------------

TEST(RngTaintRule, AmbientAndDefaultConstructionFixtureTrips) {
  const auto findings = model_rule_findings("rng");
  ASSERT_EQ(findings.size(), 2u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "rng_taint");
  EXPECT_NE(findings[0].message.find("default-constructed"),
            std::string::npos);
  EXPECT_NE(findings[1].message.find("ambient source"), std::string::npos);
}

TEST(RngTaintRule, SeedDerivedConstructionsAreClean) {
  const auto findings = run_rule(
      "src/sim/ok.h",
      "#pragma once\n"
      "namespace halfback::sim {\n"
      "struct S {\n"
      "  explicit S(const Random& parent) : rng_{parent.fork(0x11bbULL)} {}\n"
      "  Random rng_{0};\n"
      "};\n"
      "inline Random stream(unsigned long long seed) {\n"
      "  Random r{seed};\n"
      "  return r;\n"
      "}\n"
      "}  // namespace halfback::sim\n",
      "rng_taint");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(RngTaintRule, MemberInitFromAmbientSourceTrips) {
  // The ctor-init-list path: the member's RNG type is declared on one line,
  // the tainted construction happens in the initializer list.
  const auto findings = run_rule(
      "src/sim/bad_member.h",
      "#pragma once\n"
      "#include <random>\n"
      "namespace halfback::sim {\n"
      "struct S {\n"
      "  S() : gen_{std::random_device{}()} {}\n"
      "  std::mt19937 gen_{1};\n"
      "};\n"
      "}  // namespace halfback::sim\n",
      "rng_taint");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_NE(findings[0].message.find("ambient"), std::string::npos)
      << findings[0].message;
}

// ---- effect contracts -------------------------------------------------------

TEST(EffectsRule, UndeclaredDirectEffectFixtureTrips) {
  const auto findings = model_rule_findings("effects_undeclared");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "effects");
  EXPECT_EQ(findings[0].path, "src/sim/pure_claim.h");
  EXPECT_NE(findings[0].message.find("declares {pure} but 'alloc'"),
            std::string::npos)
      << findings[0].message;
}

TEST(EffectsRule, AllocatingTelemetryTapFixtureTrips) {
  // The span/tape record-path discipline: a telemetry tap reached from
  // the dispatch path must be pure stores on preallocated storage. This
  // fixture's tap claims HB_EFFECTS() but grows a vector on overflow —
  // the analyzer must catch the false claim.
  const auto findings = analyze_fixture("tapalloc", "effects");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "effects");
  EXPECT_EQ(findings[0].path, "src/telemetry/tap.h");
  EXPECT_NE(findings[0].message.find("declares {pure} but 'alloc'"),
            std::string::npos)
      << findings[0].message;
}

TEST(EffectsRule, TransitiveContractTooNarrowCarriesTheWitnessChain) {
  const auto findings = model_rule_findings("effects_narrow");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "effects");
  EXPECT_EQ(findings[0].path, "src/net/sender.h");
  // The witness names the chain down to the leaf evidence in the other TU.
  EXPECT_NE(findings[0].message.find(
                "halfback::net::open_window -> "
                "halfback::sim::check_window: throw"),
            std::string::npos)
      << findings[0].message;
  EXPECT_NE(findings[0].message.find("src/sim/guard.h:7"), std::string::npos)
      << findings[0].message;
}

TEST(EffectsRule, IndirectDispatchPropagatesConservatively) {
  // With no sanctioned seam, the virtual call's possible target charges its
  // alloc to the caller's contract.
  const auto findings = analyze_fixture("effects_indirect", "effects");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "effects");
  EXPECT_NE(findings[0].message.find("RingHook::deliver: alloc"),
            std::string::npos)
      << findings[0].message;
}

TEST(EffectsRule, SanctionedSeamCutsPropagationForBothEngines) {
  // Green twin of effects_indirect: the hot_seams.txt entry silences the
  // hot_path_reach dispatch report AND stops the effect engine from
  // charging the implementor's alloc to the caller — across every rule,
  // with no stale-seam finding.
  const auto findings = analyze_fixture("effects_seam");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(EffectsRule, ContractTooWideIsAFinding) {
  const auto findings = run_rule(
      "src/sim/wide.h",
      "#pragma once\n"
      "namespace halfback::sim {\n"
      "inline int twice(int v) HB_EFFECTS(alloc) { return v * 2; }\n"
      "}  // namespace halfback::sim\n",
      "effects");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_NE(findings[0].message.find("too wide"), std::string::npos)
      << findings[0].message;
}

TEST(EffectsRule, ConflictingDuplicateContractsAreAFinding) {
  const auto model = model_of({
      {"src/sim/a.h",
       "#pragma once\n"
       "namespace halfback::sim {\n"
       "void poke() HB_EFFECTS(alloc);\n"
       "}  // namespace halfback::sim\n"},
      {"src/sim/b.h",
       "#pragma once\n"
       "namespace halfback::sim {\n"
       "void poke() HB_EFFECTS(throw);\n"
       "}  // namespace halfback::sim\n"},
  });
  const auto findings = lint::analyze_model(model, {}, "effects");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_NE(findings[0].message.find("conflicting"), std::string::npos)
      << findings[0].message;
}

TEST(EffectsRule, UnknownEffectTokenIsAFinding) {
  const auto findings = run_rule(
      "src/sim/typo.h",
      "#pragma once\n"
      "namespace halfback::sim {\n"
      "inline void quiet() HB_EFFECTS(alloc, blocc) {}\n"
      "}  // namespace halfback::sim\n",
      "effects");
  // One unknown-token finding, plus "too wide" for alloc (the body is
  // pure). Same site, so the (path, line, message) sort puts "too wide"
  // first.
  ASSERT_EQ(findings.size(), 2u) << describe(findings);
  EXPECT_NE(findings[0].message.find("too wide"), std::string::npos)
      << findings[0].message;
  EXPECT_NE(findings[1].message.find("unknown effect token 'blocc'"),
            std::string::npos)
      << findings[1].message;
}

TEST(EffectsRule, SuppressionTagSilencesAContractSite) {
  const auto findings = run_rule(
      "src/sim/tagged.h",
      "#pragma once\n"
      "namespace halfback::sim {\n"
      "// lint: effects-ok(fixture: alloc is setup-only by construction)\n"
      "inline int* boot() HB_EFFECTS() { return new int{1}; }\n"
      "}  // namespace halfback::sim\n",
      "effects");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(EffectsRule, WritesToMutableStaticsAreGlobalMut) {
  // Namespace-scope variables and static data members alike. A const
  // static is no write target, so a local that shadows one stays pure.
  const auto findings = run_rule(
      "src/sim/g.h",
      "#pragma once\n"
      "namespace halfback::sim {\n"
      "int g_hits = 0;\n"
      "const int kCap = 8;\n"
      "struct Pool {\n"
      "  static int live;\n"
      "  void grow() HB_EFFECTS() { live += 1; }\n"
      "};\n"
      "inline void bump() HB_EFFECTS() { g_hits += 1; }\n"
      "inline int twice(int v) HB_EFFECTS() { int kCap = v; kCap *= 2; "
      "return kCap; }\n"
      "}  // namespace halfback::sim\n",
      "effects");
  ASSERT_EQ(findings.size(), 2u) << describe(findings);
  EXPECT_NE(findings[0].message.find("'halfback::sim::Pool::grow' declares "
                                     "{pure} but 'global_mut'"),
            std::string::npos)
      << findings[0].message;
  EXPECT_NE(findings[1].message.find("'halfback::sim::bump' declares {pure} "
                                     "but 'global_mut'"),
            std::string::npos)
      << findings[1].message;
}

// ---- simulator escape -------------------------------------------------------

TEST(SimEscapeRule, StaticInstanceCachesFixtureTripsBothStorageKinds) {
  const auto findings = analyze_fixture("escape_static");
  ASSERT_EQ(findings.size(), 2u) << describe(findings);
  EXPECT_EQ(findings[0].rule, "sim_escape");
  EXPECT_NE(findings[0].message.find("halfback::net::g_primary_sim"),
            std::string::npos);
  // The function-local static is qualified by its owning function.
  EXPECT_NE(findings[1].message.find("last_simulator::cached"),
            std::string::npos);
}

TEST(SimEscapeRule, CrossInstanceCaptureFixtureTripsAllThreeRoutes) {
  const auto findings = analyze_fixture("escape_capture");
  ASSERT_EQ(findings.size(), 3u) << describe(findings);
  for (const lint::Finding& f : findings) EXPECT_EQ(f.rule, "sim_escape");
  EXPECT_NE(findings[0].message.find("takes 2 Simulator parameters"),
            std::string::npos)
      << findings[0].message;
  EXPECT_NE(findings[1].message.find("holds 2 Simulator references"),
            std::string::npos)
      << findings[1].message;
  EXPECT_NE(findings[2].message.find("unclear Simulator provenance"),
            std::string::npos)
      << findings[2].message;
}

TEST(SimEscapeRule, SingleIdentifierProvenanceIsClean) {
  const auto findings = run_rule(
      "src/net/owner.h",
      "#pragma once\n"
      "namespace halfback::net {\n"
      "class Port {\n"
      " public:\n"
      "  explicit Port(sim::Simulator& simulator) : sim_{simulator} {}\n"
      " private:\n"
      "  sim::Simulator& sim_;\n"
      "};\n"
      "}  // namespace halfback::net\n",
      "sim_escape");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(SimEscapeRule, ConstexprStaticsAreExempt) {
  const auto findings = run_rule(
      "src/net/table.h",
      "#pragma once\n"
      "namespace halfback::net {\n"
      "inline int pick(int i) {\n"
      "  static constexpr int kPrimes[2] = {2, 3};\n"
      "  return kPrimes[i & 1];\n"
      "}\n"
      "}  // namespace halfback::net\n",
      "sim_escape");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(SimEscapeRule, EscapeOkTagSilencesASite) {
  // The inline tag is the one exception mechanism: it silences the tagged
  // cache and nothing else.
  const auto findings = run_rule(
      "src/net/c.h",
      "#pragma once\n"
      "namespace halfback::net {\n"
      "// lint: escape-ok(fixture: sanctioned)\n"
      "inline sim::Simulator* const g_cache = nullptr;\n"
      "inline sim::Simulator* const g_other = nullptr;\n"
      "}  // namespace halfback::net\n",
      "sim_escape");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_NE(findings[0].message.find("halfback::net::g_other"),
            std::string::npos)
      << findings[0].message;
}

// ---- seam inventory ---------------------------------------------------------

TEST(SeamInventory, ParsesEntriesAndFindsByCallerCalleePath) {
  lint::SeamInventory seams;
  std::string error;
  ASSERT_TRUE(lint::SeamInventory::parse(
      "# comment\n"
      "halfback::net::Link::send enqueue src/net/link.cpp the queue seam\n",
      seams, error))
      << error;
  ASSERT_EQ(seams.entries.size(), 1u);
  EXPECT_EQ(seams.entries[0].justification, "the queue seam");
  EXPECT_EQ(
      seams.find("halfback::net::Link::send", "enqueue", "src/net/link.cpp"),
      0u);
  EXPECT_EQ(seams.find("halfback::net::Link::send", "dequeue",
                       "src/net/link.cpp"),
            seams.entries.size());
}

TEST(SeamInventory, MalformedLineFailsTheParse) {
  lint::SeamInventory seams;
  std::string error;
  EXPECT_FALSE(lint::SeamInventory::parse("just_one_field\n", seams, error));
  EXPECT_FALSE(error.empty());
}

TEST(SeamInventory, StaleSeamEntryIsAHotPathFinding) {
  lint::SeamInventory seams;
  std::string error;
  ASSERT_TRUE(lint::SeamInventory::parse(
      "halfback::net::Link::send enqueue src/net/gone.cpp devirtualized\n",
      seams, error))
      << error;
  const auto model = model_of({
      {"src/net/quiet.h", "#pragma once\n"},
  });
  const auto findings = lint::analyze_model(model, seams, "hot_path_reach");
  ASSERT_EQ(findings.size(), 1u) << describe(findings);
  EXPECT_EQ(findings[0].path, "tools/lint/hot_seams.txt");
  EXPECT_NE(findings[0].message.find("stale seam entry"), std::string::npos)
      << findings[0].message;
}

// ---- the engine: one registry, checked inputs -------------------------------

TEST(CleanFixture, AnalyzesCleanAcrossAllRules) {
  const auto findings = analyze_fixture("clean");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(Registry, EveryRuleHasAStableIdAndDescription) {
  std::set<std::string_view> ids;
  for (const auto& rule : lint::all_rules()) {
    EXPECT_FALSE(rule->id().empty());
    EXPECT_FALSE(rule->description().empty());
    EXPECT_TRUE(ids.insert(rule->id()).second)
        << "duplicate rule id " << rule->id();
  }
  EXPECT_EQ(ids.size(), 15u);
}

TEST(Registry, EveryModelRuleHasAStableIdAndDescription) {
  // --rule filters and the live-tree tests below name the model rules by
  // these snake_case ids. The registry holds the nine token rules
  // first, then the six model rules, so the two live-tree tests between
  // them run every registered rule.
  const auto rules = lint::all_rules();
  const std::size_t token_rules = std::size(kRedFlatFixtures);
  ASSERT_EQ(rules.size(), token_rules + std::size(kModelRules));
  std::set<std::string_view> token_ids;
  for (std::size_t i = 0; i < token_rules; ++i) {
    token_ids.insert(rules[i]->id());
  }
  std::set<std::string_view> fixture_rules;
  for (const FlatFixture& flat : kRedFlatFixtures) {
    fixture_rules.insert(flat.rule);
  }
  EXPECT_EQ(token_ids, fixture_rules);
  for (std::size_t i = 0; i < std::size(kModelRules); ++i) {
    const lint::Rule& rule = *rules[token_rules + i];
    EXPECT_EQ(rule.id(), kModelRules[i]);
    EXPECT_FALSE(rule.description().empty()) << rule.id();
  }
}

TEST(Registry, EveryRuleGoesRedOnACommittedFixture) {
  // A rule no fixture trips could be dead and CI would never notice. Every
  // red flat fixture and every tree but the four green ones must report
  // findings.
  std::set<std::string> fired;
  for (const FlatFixture& flat : kRedFlatFixtures) {
    const auto findings = run_rule(flat.logical_path, fixture(flat.file));
    EXPECT_FALSE(findings.empty()) << flat.file << " went green";
    for (const lint::Finding& f : findings) fired.insert(f.rule);
  }
  const std::set<std::string> green{"clean", "effects_seam", "global_allowed",
                                    "unordered_header_ok"};
  for (const auto& tree :
       std::filesystem::directory_iterator{analyze_fixture_dir()}) {
    const std::string name = tree.path().filename().string();
    const auto findings = lint::analyze_tree(tree.path());
    if (green.contains(name)) {
      EXPECT_TRUE(findings.empty()) << name << ":\n" << describe(findings);
      continue;
    }
    EXPECT_FALSE(findings.empty()) << name << " went green";
    for (const lint::Finding& f : findings) fired.insert(f.rule);
  }
  std::set<std::string> registered;
  for (const auto& rule : lint::all_rules()) registered.emplace(rule->id());
  EXPECT_EQ(fired, registered);
}

TEST(Registry, TokenRulesOnlyReadSrcFiles) {
  // The src/ scope of all nine token rules lives in TokenRule: each red
  // fixture moved from src/ to tools/ must go silent under its rule.
  for (const FlatFixture& flat : kRedFlatFixtures) {
    const std::string outside =
        "tools/" + std::string{flat.logical_path}.substr(4);
    const auto findings = run_rule(outside, fixture(flat.file), flat.rule);
    EXPECT_TRUE(findings.empty()) << outside << ":\n" << describe(findings);
  }
}

TEST(Registry, UnknownRuleIdIsAnError) {
  // The kebab-case token ids and snake_case model ids share one registry;
  // a mixed-up id must fail loudly, naming the valid ids, rather than run
  // nothing and report clean.
  try {
    analyze_fixture("global", "shard-safety");
    FAIL() << "an unknown rule id analyzed clean";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string_view{e.what()}.find("shard_safety"),
              std::string_view::npos)
        << e.what();
  }
  EXPECT_EQ(analyze_fixture("global", "shard_safety").size(), 2u);
}

TEST(Model, BuildRejectsARootWithoutSrc) {
  // A mistyped --root must be an error, not an empty tree that analyzes
  // clean and turns the gate green.
  EXPECT_THROW(analyze_fixture("no_such_tree"), std::runtime_error);
  EXPECT_THROW(lint::ProjectModel::build(fixture_dir()), std::runtime_error);
}

// ---- the live tree ---------------------------------------------------------

TEST(Model, LiveTreeBuildsAndSeesTheHotPathRoots) {
  const auto model = lint::ProjectModel::build(repo_root());
  ASSERT_FALSE(model.files().empty());
  bool saw_fire_override = false;
  bool saw_link_send = false;
  for (const lint::FunctionDef& fn : model.functions()) {
    if (fn.is_fire_override &&
        model.file(fn.file).path().starts_with("src/")) {
      saw_fire_override = true;
    }
    if (fn.name == "send" && fn.class_name == "Link") saw_link_send = true;
  }
  EXPECT_TRUE(saw_fire_override);
  EXPECT_TRUE(saw_link_send);
  // The factory seam's one virtual is inventoried for the dispatch check.
  bool saw_sender_virtual = false;
  for (const lint::VirtualMethod& vm : model.virtual_methods()) {
    if (vm.name == "on_packet" && vm.class_name == "SenderBase") {
      saw_sender_virtual = true;
    }
  }
  EXPECT_TRUE(saw_sender_virtual);
  // The sanctioned observability edges are present and dashed in the dot.
  const std::string dot = model.layer_graph_dot();
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
}

TEST(Model, LayerGraphDotIsByteDeterministic) {
  // CI publishes the dot; two builds over the same tree must serialize to
  // the identical byte sequence (ordered containers end to end — no
  // pointer-keyed or hash-ordered iteration may leak into the output).
  const auto first = lint::ProjectModel::build(repo_root());
  const auto second = lint::ProjectModel::build(repo_root());
  EXPECT_EQ(first.layer_graph_dot(), second.layer_graph_dot());
}

TEST(Model, EveryLiveContractBindsToAModeledDefinition) {
  // A contract whose qualified name matches no definition checks nothing —
  // legal for pure-virtual interfaces, but the live annotation surface is
  // all concrete functions, so an unbound contract here means a rename or
  // a parser regression silently disabled verification.
  const auto model = lint::ProjectModel::build(repo_root());
  ASSERT_GE(model.contracts().size(), 40u)
      << "the HB_EFFECTS annotation surface shrank unexpectedly";
  std::set<std::string_view> defined;
  for (const lint::FunctionDef& fn : model.functions()) {
    defined.insert(fn.qualified);
  }
  for (const lint::EffectContract& contract : model.contracts()) {
    EXPECT_TRUE(defined.contains(contract.qualified))
        << "contract on '" << contract.qualified << "' ("
        << model.file(contract.file).path() << ":" << contract.line
        << ") matches no modeled definition";
  }
}

TEST(Tree, DiscoveryIsSortedAndFindsTheCore) {
  const auto model = lint::ProjectModel::build(repo_root());
  std::vector<std::filesystem::path> paths;
  for (const lint::SourceFile& file : model.files()) {
    paths.emplace_back(file.path());
    EXPECT_FALSE(file.path().starts_with("tests/lint/fixtures/"))
        << "fixtures are deliberately broken and stay off the model: "
        << file.path();
  }
  ASSERT_FALSE(paths.empty());
  EXPECT_TRUE(std::is_sorted(paths.begin(), paths.end()));
  EXPECT_TRUE(model.file_index("src/sim/simulator.h").has_value());
  EXPECT_TRUE(model.file_index("src/net/link.cpp").has_value());
}

TEST(Tree, SrcLintsCleanAgainstTheEmptyBaseline) {
  // The token rules' teeth: a banned call, raw unit type, naked new, or
  // missing #pragma once anywhere under src/ fails here with the full
  // finding text, mirroring the `lint-halfback` build target.
  const auto model = lint::ProjectModel::build(repo_root());
  for (const FlatFixture& flat : kRedFlatFixtures) {
    const auto findings = lint::analyze_model(model, {}, flat.rule);
    EXPECT_TRUE(findings.empty()) << describe(findings);
  }
}

TEST(Tree, LiveTreeAnalyzesCleanAgainstEmptyBaselineAndAllowlist) {
  // The model rules' teeth: an upward include, hot-path allocation, hidden
  // global, or ambient-seeded RNG anywhere in the repository fails here.
  // tools/lint/hot_seams.txt, the one allowlist left (of sanctioned
  // hot-path indirections), is loaded as the CLI loads it; an entry that
  // matches no call site fails too.
  const auto model = lint::ProjectModel::build(repo_root());
  const auto seams = lint::load_seams(repo_root());
  ASSERT_FALSE(seams.entries.empty());
  for (std::string_view rule : kModelRules) {
    const auto findings = lint::analyze_model(model, seams, rule);
    EXPECT_TRUE(findings.empty()) << describe(findings);
  }
}

}  // namespace
