#pragma once

// The one writer behind every perf probe's JSON. A probe builds a Probe at
// the top of main(), which peels `--json[=path]` off argv before
// google-benchmark sees it and starts the probe's wall clock, records what
// it measured, and returns finish()'s status. Every probe file has the same
// shape, which scripts/check_bench_regression.py gates and
// scripts/bench_delta_summary.py renders without per-probe code:
//
//   {"benchmark": "<probe>",            binary name without "bench_"
//    "wall_ms": <ms>,                   gated at a ratio of the baseline
//    "invariants": {<key>: <value>},    equal to the baseline; booleans true
//    "metrics": {<key>: <value>},       informational scalars
//    "sub_benchmarks": {<leg>: <ms>},   each gated at a ratio of the baseline
//    "tables": {<name>: [{<column>: <value>}, ...]}}  informational rows
//
// `--json` writes BENCH_<probe>.json, `--json=<path>` writes <path>.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace sunmap::bench {

/// One JSON scalar, rendered when it is built. A double is written with 15
/// significant digits when they read back exactly (every timing), else with
/// the 17 that always do, so every recorded value reads back bit-identically.
class Value {
 public:
  Value(bool v) : json_(v ? "true" : "false"), is_false_(!v) {}
  template <typename T, std::enable_if_t<std::is_integral_v<T> &&
                                             !std::is_same_v<T, bool>,
                                         int> = 0>
  Value(T v) : json_(std::to_string(v)) {}
  Value(double v) {
    char text[32] = "null";
    if (std::isfinite(v)) {
      std::snprintf(text, sizeof text, "%.15g", v);
      if (std::strtod(text, nullptr) != v) {
        std::snprintf(text, sizeof text, "%.17g", v);
      }
    }
    json_ = text;
  }
  Value(const std::string& v) : json_("\"") {
    for (const char c : v) {
      if (c == '"' || c == '\\') json_ += '\\';
      json_ += c;
    }
    json_ += '"';
  }
  Value(const char* v) : Value(std::string(v)) {}

  [[nodiscard]] const std::string& json() const { return json_; }
  [[nodiscard]] bool is_false() const { return is_false_; }

 private:
  std::string json_;
  bool is_false_ = false;
};

class Probe {
 public:
  using Entries = std::vector<std::pair<std::string, Value>>;

  Probe(std::string name, int& argc, char** argv) : name_(std::move(name)) {
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0) {
        path_ = "BENCH_" + name_ + ".json";
      } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
        path_ = argv[i] + 7;
      } else {
        argv[kept++] = argv[i];
      }
    }
    argv[kept] = nullptr;
    argc = kept;
  }

  /// Replaces the default wall clock (construction to finish()) when the
  /// probe's tracked wall time is one measured section.
  void wall_ms(double ms) { wall_ms_ = ms; }
  void invariant(std::string key, Value value) {
    invariants_.emplace_back(std::move(key), std::move(value));
  }
  void metric(std::string key, Value value) {
    metrics_.emplace_back(std::move(key), std::move(value));
  }
  void sub_benchmark(std::string key, double ms) {
    sub_benchmarks_.emplace_back(std::move(key), ms);
  }
  /// Appends one row to the named table, creating it on first use.
  void row(const std::string& table, Entries cells) {
    for (auto& [name, rows] : tables_) {
      if (name == table) {
        rows.push_back(std::move(cells));
        return;
      }
    }
    tables_.emplace_back(table, std::vector<Entries>{std::move(cells)});
  }

  /// Names every false boolean invariant on stderr, writes the JSON when
  /// `--json` asked for it, and returns the exit status: nonzero when an
  /// invariant is false or the file cannot be written.
  [[nodiscard]] int finish() {
    if (wall_ms_ < 0.0) {
      wall_ms_ = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start_)
                     .count();
    }
    int status = 0;
    for (const auto& [key, value] : invariants_) {
      if (value.is_false()) {
        std::fprintf(stderr, "FAIL: %s: invariant %s is false\n",
                     name_.c_str(), key.c_str());
        status = 1;
      }
    }
    if (path_.empty()) return status;
    std::ofstream out(path_);
    out << "{\n  \"benchmark\": " << Value(name_).json()
        << ",\n  \"wall_ms\": " << Value(wall_ms_).json() << ",\n";
    write_object(out, "invariants", invariants_);
    write_object(out, "metrics", metrics_);
    write_object(out, "sub_benchmarks", sub_benchmarks_);
    out << "  \"tables\": {";
    for (std::size_t t = 0; t < tables_.size(); ++t) {
      out << (t == 0 ? "\n" : ",\n") << "    \"" << tables_[t].first
          << "\": [";
      const auto& rows = tables_[t].second;
      for (std::size_t r = 0; r < rows.size(); ++r) {
        out << (r == 0 ? "\n      {" : ",\n      {");
        for (std::size_t c = 0; c < rows[r].size(); ++c) {
          out << (c == 0 ? "\"" : ", \"") << rows[r][c].first
              << "\": " << rows[r][c].second.json();
        }
        out << "}";
      }
      out << "\n    ]";
    }
    out << (tables_.empty() ? "}\n}\n" : "\n  }\n}\n");
    if (!out.flush()) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path_.c_str());
    return status;
  }

 private:
  static void write_object(std::ostream& out, const char* key,
                           const Entries& entries) {
    out << "  \"" << key << "\": {";
    for (std::size_t i = 0; i < entries.size(); ++i) {
      out << (i == 0 ? "\n    \"" : ",\n    \"") << entries[i].first
          << "\": " << entries[i].second.json();
    }
    out << (entries.empty() ? "},\n" : "\n  },\n");
  }

  std::string name_;
  std::string path_;
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  double wall_ms_ = -1.0;
  Entries invariants_;
  Entries metrics_;
  Entries sub_benchmarks_;
  std::vector<std::pair<std::string, std::vector<Entries>>> tables_;
};

}  // namespace sunmap::bench
