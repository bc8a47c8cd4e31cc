// Per-test scratch names. gtest_discover_tests runs every test case as its
// own process and `ctest -j` runs them side by side, so a fixture's files
// and sockets must not be shared by two test cases, or by two builds
// testing at once.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

namespace satd {

/// `prefix`, the running test's name and the process id, joined by '_'
/// ('/' of parameterized names becomes '_' too).
inline std::string unique_test_name(const std::string& prefix) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = prefix + "_" + info->name() + "_" +
                     std::to_string(::getpid());
  std::replace(name.begin(), name.end(), '/', '_');
  return name;
}

/// unique_test_name(prefix) under the system temp directory.
inline std::filesystem::path unique_temp_path(const std::string& prefix) {
  return std::filesystem::temp_directory_path() / unique_test_name(prefix);
}

}  // namespace satd
