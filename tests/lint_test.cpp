// lint_test.cpp — the lobster_lint rule engine against its fixture corpus.
//
// Every bad_* fixture must produce the finding its name promises; every
// good_* fixture must be clean.  The tree itself is linted by the separate
// `lint_tree` ctest entry, which runs the CLI over src/, tools/ and bench/.
#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/lint.hpp"
#include "lint/lockmodel.hpp"

namespace lint = lobster::lint;

namespace {

lint::Corpus fixture_corpus() {
  return lint::load_corpus({LOBSTER_LINT_FIXTURE_DIR});
}

std::vector<lint::Finding> findings_for(const lint::Corpus& corpus,
                                        const std::string& file_suffix,
                                        const lint::Options& opts = {}) {
  std::vector<lint::Finding> out;
  for (const auto& f : lint::run(corpus, opts)) {
    if (f.file.size() >= file_suffix.size() &&
        f.file.compare(f.file.size() - file_suffix.size(), file_suffix.size(),
                       file_suffix) == 0)
      out.push_back(f);
  }
  return out;
}

bool has_rule(const std::vector<lint::Finding>& fs, const std::string& rule) {
  return std::any_of(fs.begin(), fs.end(),
                     [&](const lint::Finding& f) { return f.rule == rule; });
}

}  // namespace

// ---- corpus-level expectations ---------------------------------------------

TEST(LintFixtures, EveryBadFixtureFlagsItsRule) {
  const lint::Corpus corpus = fixture_corpus();
  const struct {
    const char* file;
    const char* rule;
  } expected[] = {
      {"bad_random_device.cpp", "entropy"},
      {"bad_wallclock.cpp", "entropy"},
      {"bad_fp_sum.cpp", "ordered"},
      {"bad_rng_draw.cpp", "ordered"},
      {"bad_cross_file.cpp", "ordered"},
      {"bad_unguarded_members.hpp", "guarded"},
      {"bad_unguarded_steal_queue.hpp", "guarded"},
      {"bad_partial_annotations.hpp", "guarded"},
      {"bad_discardable_stats.hpp", "nodiscard"},
      {"bad_discardable_mean.hpp", "nodiscard"},
      {"bad_discardable_timeline.hpp", "nodiscard"},
      {"bad_empty_suppression.cpp", "suppression"},
      {"bad_lock_cycle.hpp", "lockorder"},
      {"bad_cross_class_order_a.hpp", "lockorder"},
      {"bad_cross_class_order_b.hpp", "lockorder"},
      {"bad_steal_lock_inversion.hpp", "lockorder"},
      {"bad_close_deliver_guarded_read.hpp", "guardeduse"},
      {"bad_cv_predicate.hpp", "guardeduse"},
      {"bad_atomic_relaxed_guarded.hpp", "guardeduse"},
      {"bad_counter_grammar.cpp", "counterplane"},
      {"bad_counter_duplicate.cpp", "counterplane"},
      {"bad_stale_suppression.cpp", "suppression"},
  };
  for (const auto& e : expected) {
    const auto fs = findings_for(corpus, e.file);
    EXPECT_TRUE(has_rule(fs, e.rule))
        << e.file << " should produce a [" << e.rule << "] finding";
  }
}

TEST(LintFixtures, GoodFixturesAreClean) {
  const lint::Corpus corpus = fixture_corpus();
  for (const char* file :
       {"good_seeded_rng.cpp", "good_sorted_keys.cpp",
        "good_annotated_members.hpp", "good_nodiscard_stats.hpp",
        "good_nodiscard_timeline.hpp", "good_lock_hierarchy.hpp",
        "good_guarded_access.hpp", "good_counterplane.cpp"}) {
    const auto fs = findings_for(corpus, file);
    EXPECT_TRUE(fs.empty()) << file << " should be clean; got ["
                            << (fs.empty() ? "" : fs.front().rule) << "] "
                            << (fs.empty() ? "" : fs.front().message);
  }
}

TEST(LintFixtures, WallclockFixtureFlagsBothSources) {
  const lint::Corpus corpus = fixture_corpus();
  const auto fs = findings_for(corpus, "bad_wallclock.cpp");
  // system_clock::now and time(nullptr) are two separate findings.
  EXPECT_GE(fs.size(), 2u);
}

TEST(LintFixtures, EntropyAllowlistSilencesHarnessFiles) {
  const lint::Corpus corpus = fixture_corpus();
  lint::Options opts;
  opts.entropy_allowlist.push_back("bad_wallclock.cpp");
  EXPECT_TRUE(findings_for(corpus, "bad_wallclock.cpp", opts).empty());
  // Other files keep their findings.
  EXPECT_FALSE(findings_for(corpus, "bad_random_device.cpp", opts).empty());
}

TEST(LintFixtures, CrossFileFindingIsInTheCpp) {
  const lint::Corpus corpus = fixture_corpus();
  // The container is declared in the header; the hazard is in the .cpp.
  EXPECT_TRUE(has_rule(findings_for(corpus, "bad_cross_file.cpp"), "ordered"));
  EXPECT_TRUE(findings_for(corpus, "bad_cross_file.hpp").empty());
}

TEST(LintFixtures, PartialAnnotationFlagsOnlyTheBareMember) {
  const lint::Corpus corpus = fixture_corpus();
  const auto fs = findings_for(corpus, "bad_partial_annotations.hpp");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs.front().rule, "guarded");
  EXPECT_NE(fs.front().message.find("capacity_"), std::string::npos);
}

// ---- suppression round-trip ------------------------------------------------

TEST(LintSuppressions, ValidSuppressionSilencesAndRemovalRestores) {
  const std::string bad_text =
      "#include <string>\n"
      "#include <unordered_map>\n"
      "double total(const std::unordered_map<std::string, double>& m_) {\n"
      "  double t = 0.0;\n"
      "  for (const auto& [k, v] : m_) t += v;\n"
      "  return t;\n"
      "}\n";
  const std::string suppressed_text =
      "#include <string>\n"
      "#include <unordered_map>\n"
      "double total(const std::unordered_map<std::string, double>& m_) {\n"
      "  double t = 0.0;\n"
      "  // lobster-lint: ordered-ok(sum is checked against a sorted fold)\n"
      "  for (const auto& [k, v] : m_) t += v;\n"
      "  return t;\n"
      "}\n";

  lint::Corpus bad;
  bad.files.push_back(lint::make_source("roundtrip.cpp", bad_text));
  const auto before = lint::run(bad, {});
  ASSERT_EQ(before.size(), 1u);
  EXPECT_EQ(before.front().rule, "ordered");
  EXPECT_EQ(before.front().line, 5u);

  lint::Corpus good;
  good.files.push_back(lint::make_source("roundtrip.cpp", suppressed_text));
  EXPECT_TRUE(lint::run(good, {}).empty());
}

TEST(LintSuppressions, EmptyReasonIsItsOwnFinding) {
  const lint::Corpus corpus = fixture_corpus();
  const auto fs = findings_for(corpus, "bad_empty_suppression.cpp");
  EXPECT_TRUE(has_rule(fs, "suppression"));
  // The empty suppression does NOT silence the ordered finding.
  EXPECT_TRUE(has_rule(fs, "ordered"));
}

TEST(LintSuppressions, MarkerInStringLiteralIsIgnored) {
  // The linter's own sources mention the marker inside string literals;
  // only a marker in a real // comment counts.
  const std::string text =
      "#include <string>\n"
      "const std::string kMsg = \"add // lobster-lint: ordered-ok()\";\n";
  lint::Corpus corpus;
  corpus.files.push_back(lint::make_source("strings.cpp", text));
  EXPECT_TRUE(lint::run(corpus, {}).empty());
}

// ---- engine unit checks ----------------------------------------------------

TEST(LintEngine, TokensInCommentsAndStringsNeverFlag) {
  const std::string text =
      "// std::random_device would be bad here\n"
      "/* system_clock::now() in a block comment */\n"
      "const char* kDoc = \"rand() time(nullptr) random_device\";\n";
  lint::Corpus corpus;
  corpus.files.push_back(lint::make_source("comments.cpp", text));
  EXPECT_TRUE(lint::run(corpus, {}).empty());
}

TEST(LintEngine, NodiscardOnPrecedingLineIsAccepted) {
  const std::string text =
      "#pragma once\n"
      "struct S {\n"
      "  [[nodiscard]]\n"
      "  double mean() const;\n"
      "};\n";
  lint::Corpus corpus;
  corpus.files.push_back(lint::make_source("wrapped.hpp", text));
  EXPECT_TRUE(lint::run(corpus, {}).empty());
}

TEST(LintEngine, HasTokenRespectsIdentifierBoundaries) {
  EXPECT_TRUE(lint::has_token("int rand();", "rand"));
  EXPECT_FALSE(lint::has_token("int randomize();", "rand"));
  EXPECT_FALSE(lint::has_token("int operand;", "rand"));
  EXPECT_TRUE(lint::has_token("x = rand", "rand"));
}

// ---- hotpath rule ----------------------------------------------------------

TEST(LintHotpath, MapMemberInDesHotPathIsFlagged) {
  const std::string text =
      "#pragma once\n"
      "class EventQueue {\n"
      " public:\n"
      "  void push();\n"
      " private:\n"
      "  std::unordered_map<void*, int> live_;\n"
      "  std::map<double, int> calendar_;\n"
      "};\n";
  lint::Corpus corpus;
  corpus.files.push_back(lint::make_source("src/des/event_queue.hpp", text));
  const auto fs = lint::run(corpus, {});
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_EQ(fs[0].rule, "hotpath");
  EXPECT_EQ(fs[0].line, 6u);
  EXPECT_EQ(fs[1].line, 7u);
}

TEST(LintHotpath, OutsideRootsAndLocalsAndReturnsAreClean) {
  // Same class text outside the hot-path roots: clean.
  const std::string text =
      "#pragma once\n"
      "class Registry {\n"
      "  std::map<std::string, int> counters_;\n"
      "};\n";
  lint::Corpus outside;
  outside.files.push_back(lint::make_source("src/util/registry.hpp", text));
  EXPECT_TRUE(lint::run(outside, {}).empty());

  // Inside the roots: function-local maps and map-returning member
  // functions are off the event path and stay clean.
  const std::string inside_text =
      "#pragma once\n"
      "class Exporter {\n"
      " public:\n"
      "  std::map<std::string, double> snapshot() const;\n"
      "  void flush() {\n"
      "    std::map<int, int> local;\n"
      "    local[1] = 2;\n"
      "  }\n"
      "};\n";
  lint::Corpus inside;
  inside.files.push_back(
      lint::make_source("src/lobsim/exporter.hpp", inside_text));
  EXPECT_TRUE(lint::run(inside, {}).empty());
}

TEST(LintHotpath, AuditedSuppressionSilencesAndCustomRootsApply) {
  const std::string text =
      "#pragma once\n"
      "class Engine {\n"
      "  // lobster-lint: hotpath-ok(cold path: touched once per campaign)\n"
      "  std::map<int, int> cold_;\n"
      "};\n";
  lint::Corpus corpus;
  corpus.files.push_back(lint::make_source("src/des/engine.hpp", text));
  EXPECT_TRUE(lint::run(corpus, {}).empty());

  // Custom roots move the rule elsewhere.
  lint::Options opts;
  opts.hotpath_roots = {"src/wq/"};
  lint::Corpus wq;
  wq.files.push_back(lint::make_source(
      "src/wq/master.hpp",
      "#pragma once\nstruct M {\n  std::unordered_map<int, int> m_;\n};\n"));
  const auto fs = lint::run(wq, opts);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "hotpath");
  // ...and the des/ tree is out of scope under those roots.
  lint::Corpus des;
  des.files.push_back(lint::make_source(
      "src/des/resource.hpp",
      "#pragma once\nstruct Q {\n  std::map<int, int> q_;\n};\n"));
  EXPECT_TRUE(lint::run(des, opts).empty());
}

TEST(LintHotpath, BraceInitializedMapMemberIsFlagged) {
  const std::string text =
      "#pragma once\n"
      "class SiteManager {\n"
      "  std::unordered_map<int, int> nodes_{};\n"
      "};\n";
  lint::Corpus corpus;
  corpus.files.push_back(lint::make_source("src/lobsim/sites.hpp", text));
  const auto fs = lint::run(corpus, {});
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "hotpath");
  EXPECT_EQ(fs[0].line, 3u);
}

// ---- lockorder rule --------------------------------------------------------

TEST(LintLockOrder, IntraClassCycleIsReportedOnce) {
  const lint::Corpus corpus = fixture_corpus();
  const auto fs = findings_for(corpus, "bad_lock_cycle.hpp");
  ASSERT_TRUE(has_rule(fs, "lockorder"));
  // One representative cycle per strongly connected component, not one
  // finding per participating method.
  std::size_t cycles = 0;
  for (const auto& f : fs)
    if (f.message.find("lock-order cycle") != std::string::npos) ++cycles;
  EXPECT_EQ(cycles, 1u);
  EXPECT_NE(fs.front().message.find("PairLedger::"), std::string::npos);
}

TEST(LintLockOrder, CrossClassCycleSpansTwoHeaders) {
  // The RelayHub/RelayPort inversion is split across two headers: the cycle
  // is witnessed once, and BOTH undeclared cross-class edges are reported
  // at the call sites that create them.
  const lint::Corpus corpus = fixture_corpus();
  const auto a = findings_for(corpus, "bad_cross_class_order_a.hpp");
  const auto b = findings_for(corpus, "bad_cross_class_order_b.hpp");
  bool cycle = false, edge_a = false, edge_b = false;
  for (const auto& f : a) {
    if (f.message.find("lock-order cycle") != std::string::npos) cycle = true;
    if (f.message.find("not in the declared hierarchy") != std::string::npos)
      edge_a = true;
  }
  for (const auto& f : b)
    if (f.message.find("not in the declared hierarchy") != std::string::npos)
      edge_b = true;
  EXPECT_TRUE(cycle);
  EXPECT_TRUE(edge_a);
  EXPECT_TRUE(edge_b);
}

TEST(LintLockOrder, StealGroupShapeFlagsTheUndeclaredProbeEdge) {
  // The PR 8 work-stealing bug shape: the group lock held across per-queue
  // depth probes, creating a group -> queue edge nobody declared.
  const lint::Corpus corpus = fixture_corpus();
  const auto fs = findings_for(corpus, "bad_steal_lock_inversion.hpp");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "lockorder");
  EXPECT_EQ(fs[0].line, 29u);
  EXPECT_NE(fs[0].message.find("RaiderGroup::group_mu_"), std::string::npos);
  EXPECT_NE(fs[0].message.find("RaidedQueue::raided_mu_"), std::string::npos);
  EXPECT_NE(fs[0].message.find("probe_depth"), std::string::npos);
}

TEST(LintLockOrder, DeclaredHierarchySilencesTheCrossClassEdge) {
  // good_lock_hierarchy.hpp takes the same two-lock shape but declares
  // panel_mu_ -> socket_mu_ with LOBSTER_ACQUIRED_BEFORE: clean.
  const lint::Corpus corpus = fixture_corpus();
  EXPECT_TRUE(findings_for(corpus, "good_lock_hierarchy.hpp").empty());
}

// ---- guardeduse rule -------------------------------------------------------

TEST(LintGuardedUse, CloseVsDeliverReadIsFlaggedAtTheUnlockedRead) {
  // The PR 8 lost-wakeup bug shape: `closed_` read before chute_mu_ is
  // taken, racing the close() that sets it under the lock.
  const lint::Corpus corpus = fixture_corpus();
  const auto fs = findings_for(corpus, "bad_close_deliver_guarded_read.hpp");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "guardeduse");
  EXPECT_EQ(fs[0].line, 13u);
  EXPECT_NE(fs[0].message.find("closed_"), std::string::npos);
  EXPECT_NE(fs[0].message.find("lock-set {}"), std::string::npos);
}

TEST(LintGuardedUse, CvWaitPredicateReportsTheWrongLockHeld) {
  // The lambda predicate runs under pump_mu_, but primed_ is guarded by
  // tank_mu_ — the finding names the lock-set actually held at the wait.
  const lint::Corpus corpus = fixture_corpus();
  const auto fs = findings_for(corpus, "bad_cv_predicate.hpp");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "guardeduse");
  EXPECT_EQ(fs[0].line, 14u);
  EXPECT_NE(fs[0].message.find("{pump_mu_}"), std::string::npos);
  EXPECT_NE(fs[0].message.find("tank_mu_"), std::string::npos);
}

TEST(LintGuardedUse, RelaxedAtomicLoadOfGuardedMemberIsFlagged) {
  const lint::Corpus corpus = fixture_corpus();
  const auto fs = findings_for(corpus, "bad_atomic_relaxed_guarded.hpp");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "guardeduse");
  EXPECT_EQ(fs[0].line, 13u);
}

// ---- lock-set scope tracker ------------------------------------------------

TEST(LintLockModel, ScopeExitDropsTheLock) {
  const std::string text =
      "#pragma once\n"
      "#include <mutex>\n"
      "class Tracker {\n"
      " public:\n"
      "  void work() {\n"
      "    {\n"
      "      std::lock_guard<std::mutex> lock(mu_);\n"
      "      inside_ = 1;\n"
      "    }\n"
      "    outside_ = 2;\n"
      "  }\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "  int inside_ LOBSTER_GUARDED_BY(mu_) = 0;\n"
      "  int outside_ LOBSTER_GUARDED_BY(mu_) = 0;\n"
      "};\n";
  lint::Corpus corpus;
  corpus.files.push_back(lint::make_source("tracker.hpp", text));

  const lint::LockModel model = lint::build_lock_model(corpus);
  const lint::MethodModel* work = nullptr;
  for (const auto& m : model.methods)
    if (m.cls == "Tracker" && m.name == "work") work = &m;
  ASSERT_NE(work, nullptr);
  ASSERT_EQ(work->accesses.size(), 2u);
  EXPECT_EQ(work->accesses[0].name, "inside_");
  ASSERT_EQ(work->accesses[0].held.size(), 1u);
  EXPECT_EQ(work->accesses[0].held[0].name, "mu_");
  EXPECT_EQ(work->accesses[1].name, "outside_");
  EXPECT_TRUE(work->accesses[1].held.empty());

  // ...and the engine turns exactly the unlocked access into a finding.
  const auto fs = lint::run(corpus, {});
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "guardeduse");
  EXPECT_EQ(fs[0].line, 10u);
}

TEST(LintLockModel, RequiresSeedsTheEntryLockSet) {
  const std::string text =
      "#pragma once\n"
      "#include <mutex>\n"
      "class Ledger {\n"
      " public:\n"
      "  void post() {\n"
      "    std::lock_guard<std::mutex> lock(mu_);\n"
      "    post_locked();\n"
      "  }\n"
      " private:\n"
      "  void post_locked() LOBSTER_REQUIRES(mu_) { total_ = total_ + 1; }\n"
      "  std::mutex mu_;\n"
      "  int total_ LOBSTER_GUARDED_BY(mu_) = 0;\n"
      "};\n";
  lint::Corpus corpus;
  corpus.files.push_back(lint::make_source("ledger.hpp", text));
  EXPECT_TRUE(lint::run(corpus, {}).empty());
}

TEST(LintLockModel, DeferLockAcquiresNothing) {
  const std::string text =
      "#pragma once\n"
      "#include <mutex>\n"
      "class Vault {\n"
      " public:\n"
      "  void stash() {\n"
      "    std::unique_lock<std::mutex> lk(mu_, std::defer_lock);\n"
      "    coins_ = coins_ + 1;\n"
      "  }\n"
      " private:\n"
      "  std::mutex mu_;\n"
      "  int coins_ LOBSTER_GUARDED_BY(mu_) = 0;\n"
      "};\n";
  lint::Corpus corpus;
  corpus.files.push_back(lint::make_source("vault.hpp", text));
  const auto fs = lint::run(corpus, {});
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "guardeduse");
  EXPECT_EQ(fs[0].line, 7u);
}

// ---- counterplane rule -----------------------------------------------------

TEST(LintCounterPlane, DocReferencedCountersMustExistInCode) {
  lint::Corpus corpus;
  corpus.files.push_back(lint::make_source(
      "src/util/plane.cpp",
      "void reg(Registry& r) {\n"
      "  r.counter(\"layer.plane.hits\");\n"
      "  r.counter(\"layer.plane.misses\");\n"
      "}\n"));
  corpus.docs.push_back(lint::make_doc(
      "README.md",
      "Counters: `layer.plane.{hits,misses}` exist in code, but\n"
      "`layer.plane.ghost` is registered nowhere.\n"));
  const auto fs = lint::run(corpus, {});
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "counterplane");
  EXPECT_EQ(fs[0].file, "README.md");
  EXPECT_EQ(fs[0].line, 2u);
  EXPECT_NE(fs[0].message.find("layer.plane.ghost"), std::string::npos);
}

// ---- baseline & machine-readable output ------------------------------------

namespace {

lint::Finding mk(const char* file, std::size_t line, const char* rule,
                 const char* msg) {
  lint::Finding f;
  f.file = file;
  f.line = line;
  f.rule = rule;
  f.message = msg;
  return f;
}

}  // namespace

TEST(LintBaseline, NormalizePathStripsTheCheckoutPrefix) {
  EXPECT_EQ(lint::normalize_path("/home/ci/repo/src/util/trace.hpp"),
            "src/util/trace.hpp");
  EXPECT_EQ(lint::normalize_path("tools/lint/lint.cpp"),
            "tools/lint/lint.cpp");
  EXPECT_EQ(lint::normalize_path("elsewhere/file.hpp"), "elsewhere/file.hpp");
}

TEST(LintBaseline, RoundTripAndBothDriftDirections) {
  const std::vector<lint::Finding> findings = {
      mk("src/a.cpp", 10, "lockorder", "cycle here"),
      mk("src/a.cpp", 20, "lockorder", "cycle here"),
      mk("src/b.cpp", 5, "guardeduse", "unlocked read"),
  };
  const lint::Baseline parsed = lint::parse_baseline_json(
      lint::baseline_to_json(lint::make_baseline(findings)));
  ASSERT_EQ(parsed.entries.size(), 2u);

  // Identical findings: no drift.
  lint::BaselineDiff d = lint::diff_against_baseline(parsed, findings);
  EXPECT_TRUE(d.fresh.empty());
  EXPECT_TRUE(d.stale.empty());

  // A new finding is fresh (a regression)...
  auto extra = findings;
  extra.push_back(mk("src/c.cpp", 1, "counterplane", "bad name"));
  d = lint::diff_against_baseline(parsed, extra);
  ASSERT_EQ(d.fresh.size(), 1u);
  EXPECT_EQ(d.fresh[0].file, "src/c.cpp");
  EXPECT_TRUE(d.stale.empty());

  // ...and fixing one leaves its entry stale (the baseline lies).
  auto fewer = findings;
  fewer.pop_back();
  d = lint::diff_against_baseline(parsed, fewer);
  EXPECT_TRUE(d.fresh.empty());
  ASSERT_EQ(d.stale.size(), 1u);
  EXPECT_EQ(d.stale[0].rule, "guardeduse");
}

TEST(LintBaseline, LineNumbersDoNotChurnTheBaseline) {
  const lint::Baseline b =
      lint::make_baseline({mk("src/a.cpp", 10, "lockorder", "cycle here")});
  const lint::BaselineDiff d = lint::diff_against_baseline(
      b, {mk("src/a.cpp", 99, "lockorder", "cycle here")});
  EXPECT_TRUE(d.fresh.empty());
  EXPECT_TRUE(d.stale.empty());
}

TEST(LintBaseline, MalformedJsonThrows) {
  EXPECT_THROW(lint::parse_baseline_json("not json"), std::runtime_error);
  EXPECT_THROW(lint::parse_baseline_json("{\"version\": 2, \"findings\": []}"),
               std::runtime_error);
  EXPECT_THROW(lint::parse_baseline_json(
                   "{\"version\": 1, \"findings\": [{\"rule\": \"x\"}]}"),
               std::runtime_error);
  EXPECT_THROW(lint::parse_baseline_json(
                   "{\"version\": 1, \"surprise\": []}"),
               std::runtime_error);
}

TEST(LintBaseline, SarifNamesRuleAndLocation) {
  const std::string sarif = lint::findings_to_sarif(
      {mk("/ci/repo/src/a.cpp", 10, "lockorder", "cycle here")});
  EXPECT_NE(sarif.find("\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("{\"id\": \"lockorder\"}"), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/a.cpp\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 10"), std::string::npos);
}
