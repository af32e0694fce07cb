//===- tests/support/BuildConfigDocsTest.cpp - Build options vs docs ------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//
//
// CMake only warns about an unused -D, so a preset or a README line
// that names a deleted option would quietly configure the default
// build. These checks keep CMakePresets.json and README.md in lockstep
// with the option(PDT_...) declarations of the top-level CMakeLists.txt,
// keep every build and test preset pointing at a configure preset and
// a documented environment, and keep README's environment table equal
// to the PDT_* variables the code reads.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace pdt;

namespace {

std::string readFile(const std::filesystem::path &Path) {
  std::ifstream In(Path);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

std::string readRepoFile(const std::string &Relative) {
  return readFile(std::filesystem::path(PDT_REPO_ROOT) / Relative);
}

/// Capture group 1 of every match of \p Pattern in \p Text.
std::set<std::string> captures(const std::string &Text, const char *Pattern) {
  std::set<std::string> Out;
  std::regex Re(Pattern);
  for (std::sregex_iterator I(Text.begin(), Text.end(), Re), E; I != E; ++I)
    Out.insert((*I)[1]);
  return Out;
}

std::set<std::string> declaredOptions() {
  return captures(readRepoFile("CMakeLists.txt"), R"(\boption\((PDT_\w+))");
}

/// The variables of README's environment table, one per row.
std::set<std::string> readmeEnvironmentTable() {
  return captures(readRepoFile("README.md"), R"(\n\| `(PDT_\w+)=)");
}

json::Value presets() {
  std::string Error;
  std::optional<json::Value> Presets =
      json::parse(readRepoFile("CMakePresets.json"), &Error);
  EXPECT_TRUE(Presets) << "CMakePresets.json: " << Error;
  return Presets ? *Presets : json::Value();
}

/// The presets of one kind ("configurePresets", ...); empty if absent.
std::vector<json::Value> presetsOf(const json::Value &Presets,
                                   const char *Kind) {
  const json::Value *List = Presets.find(Kind);
  return List && List->isArray() ? List->asArray() : std::vector<json::Value>();
}

} // namespace

TEST(BuildConfigDocs, PresetsSetOnlyDeclaredOptions) {
  std::set<std::string> Options = declaredOptions();
  ASSERT_FALSE(Options.empty()) << "no option(PDT_...) in CMakeLists.txt";
  for (const json::Value &Preset : presetsOf(presets(), "configurePresets")) {
    const json::Value *Vars = Preset.find("cacheVariables");
    if (!Vars)
      continue;
    for (const json::Member &Var : Vars->asObject())
      EXPECT_TRUE(Var.first == "CMAKE_BUILD_TYPE" || Options.count(Var.first))
          << "preset " << Preset.stringAt("name").value_or("?")
          << " sets undeclared cache variable " << Var.first;
  }
}

TEST(BuildConfigDocs, PresetsNameExistingConfigurePresets) {
  // A build or test preset left pointing at a deleted configure preset
  // fails only when someone runs it.
  json::Value Presets = presets();
  std::set<std::string> Configure;
  for (const json::Value &Preset : presetsOf(Presets, "configurePresets"))
    Configure.insert(Preset.stringAt("name").value_or(""));
  ASSERT_FALSE(Configure.empty()) << "no configure presets";
  for (const char *Kind : {"buildPresets", "testPresets"})
    for (const json::Value &Preset : presetsOf(Presets, Kind))
      EXPECT_TRUE(Configure.count(
          Preset.stringAt("configurePreset").value_or("")))
          << Kind << " " << Preset.stringAt("name").value_or("?")
          << " names a missing configure preset";
}

TEST(BuildConfigDocs, TestPresetEnvironmentIsDocumented) {
  // Every variable a test preset sets must be a knob of README's
  // environment table, so a misspelt one cannot silently run the
  // default configuration.
  std::set<std::string> Documented = readmeEnvironmentTable();
  ASSERT_FALSE(Documented.empty()) << "README.md has no environment table";
  for (const json::Value &Preset : presetsOf(presets(), "testPresets")) {
    const json::Value *Env = Preset.find("environment");
    if (!Env)
      continue;
    for (const json::Member &Var : Env->asObject())
      EXPECT_TRUE(Documented.count(Var.first))
          << "test preset " << Preset.stringAt("name").value_or("?")
          << " sets " << Var.first
          << ", which README's environment table does not list";
  }
}

TEST(BuildConfigDocs, ReadmeNamesExactlyTheDeclaredOptions) {
  std::set<std::string> Options = declaredOptions();
  ASSERT_FALSE(Options.empty()) << "no option(PDT_...) in CMakeLists.txt";
  std::string Readme = readRepoFile("README.md");
  ASSERT_FALSE(Readme.empty()) << "README.md missing or unreadable";
  EXPECT_EQ(captures(Readme, R"(-D(PDT_\w+))"), Options);
}

TEST(BuildConfigDocs, ReadmeEnvironmentTableListsExactlyTheKnobsTheCodeReads) {
  // A knob the code reads but README omits is undocumented; a row
  // whose knob no code reads any more documents a deleted knob.
  std::string Sources;
  for (const char *Dir : {"src", "examples", "bench"})
    for (const std::filesystem::directory_entry &Entry :
         std::filesystem::recursive_directory_iterator(
             std::filesystem::path(PDT_REPO_ROOT) / Dir))
      if (Entry.is_regular_file() && (Entry.path().extension() == ".cpp" ||
                                      Entry.path().extension() == ".h"))
        Sources += readFile(Entry.path());
  std::set<std::string> Read = captures(
      Sources, R"re(\b(?:envInt|envPath|envChoice|getenv)\(\s*"(PDT_\w+)")re");
  ASSERT_FALSE(Read.empty()) << "found no PDT_* environment read";
  EXPECT_EQ(readmeEnvironmentTable(), Read);
}

TEST(BuildConfigDocs, EveryKnobUnderSrcIsReadAtOneSite) {
  // A second read of a knob is a second arming path, free to disagree
  // with the first on order, parsing, or whether a binary links it at
  // all. (A tool may read a knob again to pick its own mode, as
  // examples/depfuzz.cpp does with PDT_FAULT_INJECT; that is outside
  // src/.)
  std::map<std::string, std::vector<std::string>> Sites;
  std::regex Read(
      R"re(\b(?:envInt|envPath|envChoice|getenv)\(\s*"(PDT_\w+)")re");
  std::filesystem::path Src = std::filesystem::path(PDT_REPO_ROOT) / "src";
  for (const std::filesystem::directory_entry &Entry :
       std::filesystem::recursive_directory_iterator(Src)) {
    if (!Entry.is_regular_file() || (Entry.path().extension() != ".cpp" &&
                                     Entry.path().extension() != ".h"))
      continue;
    std::string Text = readFile(Entry.path());
    for (std::sregex_iterator I(Text.begin(), Text.end(), Read), E; I != E;
         ++I) {
      auto Line = std::count(Text.begin(), Text.begin() + I->position(), '\n');
      Sites[(*I)[1]].push_back(
          std::filesystem::relative(Entry.path(), Src).string() + ":" +
          std::to_string(Line + 1));
    }
  }
  ASSERT_FALSE(Sites.empty()) << "found no PDT_* environment read under src/";
  for (const auto &[Name, Where] : Sites) {
    std::string List;
    for (const std::string &Site : Where)
      List += " " + Site;
    EXPECT_EQ(Where.size(), 1u) << Name << " is read at" << List;
  }
}
