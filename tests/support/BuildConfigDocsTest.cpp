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
// with the option(PDT_...) declarations of the top-level CMakeLists.txt.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <string>

using namespace pdt;

namespace {

std::string readRepoFile(const std::string &Relative) {
  std::ifstream In(std::string(PDT_REPO_ROOT) + "/" + Relative);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
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

} // namespace

TEST(BuildConfigDocs, PresetsSetOnlyDeclaredOptions) {
  std::set<std::string> Options = declaredOptions();
  ASSERT_FALSE(Options.empty()) << "no option(PDT_...) in CMakeLists.txt";
  std::string Error;
  std::optional<json::Value> Presets =
      json::parse(readRepoFile("CMakePresets.json"), &Error);
  ASSERT_TRUE(Presets) << "CMakePresets.json: " << Error;
  const json::Value *Configure = Presets->find("configurePresets");
  ASSERT_TRUE(Configure && Configure->isArray());
  for (const json::Value &Preset : Configure->asArray()) {
    const json::Value *Vars = Preset.find("cacheVariables");
    if (!Vars)
      continue;
    for (const json::Member &Var : Vars->asObject())
      EXPECT_TRUE(Var.first == "CMAKE_BUILD_TYPE" || Options.count(Var.first))
          << "preset " << Preset.stringAt("name").value_or("?")
          << " sets undeclared cache variable " << Var.first;
  }
}

TEST(BuildConfigDocs, ReadmeNamesExactlyTheDeclaredOptions) {
  std::set<std::string> Options = declaredOptions();
  ASSERT_FALSE(Options.empty()) << "no option(PDT_...) in CMakeLists.txt";
  std::string Readme = readRepoFile("README.md");
  ASSERT_FALSE(Readme.empty()) << "README.md missing or unreadable";
  EXPECT_EQ(captures(Readme, R"(-D(PDT_\w+))"), Options);
}
