#pragma once

// Per-process paths in testing::TempDir() for the suites that write files
// or bind sockets there (sweep_test, sweep_checkpoint_test,
// sweep_fuzz_test), so two suite runs at once — a Release and a sanitizer
// build sharing one /tmp — never read, overwrite or unlink each other's
// files.

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace sunmap::testing_util {

/// testing::TempDir() + "<pid>_" + name. The pid adds at most 11 bytes, so
/// the socket names the suites use stay far below sun_path's 108-byte
/// limit under the default /tmp/.
inline std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + std::to_string(::getpid()) + "_" + name;
}

}  // namespace sunmap::testing_util
