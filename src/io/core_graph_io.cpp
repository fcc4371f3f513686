#include "io/core_graph_io.h"

#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace sunmap::io {

namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  throw std::runtime_error("core graph line " + std::to_string(line) + ": " +
                           message);
}

double parse_number(const std::string& token, int line) {
  try {
    std::size_t used = 0;
    const double value = std::stod(token, &used);
    if (used != token.size()) fail(line, "trailing junk in number " + token);
    return value;
  } catch (const std::logic_error&) {
    fail(line, "expected a number, got '" + token + "'");
  }
}

}  // namespace

mapping::CoreGraph read_core_graph(std::istream& in) {
  std::optional<mapping::CoreGraph> app;
  struct PendingFlow {
    std::string src, dst;
    double mbps;
    int line;
  };
  std::vector<PendingFlow> flows;

  std::string raw;
  int line = 0;
  while (std::getline(in, raw)) {
    ++line;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    std::istringstream tokens(raw);
    std::string keyword;
    if (!(tokens >> keyword)) continue;  // blank line

    if (keyword == "app") {
      std::string name;
      if (!(tokens >> name)) fail(line, "app needs a name");
      if (app.has_value()) fail(line, "duplicate app statement");
      app.emplace(name);
    } else if (keyword == "core") {
      if (!app.has_value()) fail(line, "core before app statement");
      std::string name;
      std::string second;
      if (!(tokens >> name >> second)) fail(line, "core needs a name and shape");
      fplan::BlockShape shape;
      if (second == "hard") {
        std::string w, h;
        if (!(tokens >> w >> h)) fail(line, "hard core needs width height");
        shape = fplan::BlockShape::hard_block(parse_number(w, line),
                                              parse_number(h, line));
      } else if (second == "soft") {
        std::string area, lo, hi;
        if (!(tokens >> area >> lo >> hi)) {
          fail(line, "soft core needs area min_aspect max_aspect");
        }
        shape = fplan::BlockShape::soft_block(parse_number(area, line));
        shape.min_aspect = parse_number(lo, line);
        shape.max_aspect = parse_number(hi, line);
      } else {
        shape = fplan::BlockShape::soft_block(parse_number(second, line));
      }
      try {
        app->add_core(name, shape);
      } catch (const std::invalid_argument& e) {
        fail(line, e.what());
      }
    } else if (keyword == "flow") {
      if (!app.has_value()) fail(line, "flow before app statement");
      std::string src, dst, mbps;
      if (!(tokens >> src >> dst >> mbps)) {
        fail(line, "flow needs src dst bandwidth");
      }
      flows.push_back(PendingFlow{src, dst, parse_number(mbps, line), line});
    } else {
      fail(line, "unknown keyword '" + keyword + "'");
    }
    std::string extra;
    if (tokens >> extra) fail(line, "unexpected token '" + extra + "'");
  }

  if (!app.has_value()) {
    throw std::runtime_error("core graph: missing app statement");
  }
  for (const auto& flow : flows) {
    try {
      app->add_flow(app->core_index(flow.src), app->core_index(flow.dst),
                    flow.mbps);
    } catch (const std::exception& e) {
      fail(flow.line, e.what());
    }
  }
  return *std::move(app);
}

mapping::CoreGraph read_core_graph_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("core graph: cannot open " + path);
  }
  return read_core_graph(in);
}

void write_core_graph(const mapping::CoreGraph& app, std::ostream& out) {
  out << "app " << app.name() << "\n";
  for (int c = 0; c < app.num_cores(); ++c) {
    const auto& core = app.core(c);
    out << "core " << core.name << " ";
    if (core.shape.soft) {
      out << "soft " << core.shape.area_mm2 << " " << core.shape.min_aspect
          << " " << core.shape.max_aspect << "\n";
    } else {
      out << "hard " << core.shape.width_mm << " " << core.shape.height_mm
          << "\n";
    }
  }
  for (const auto& e : app.graph().edges()) {
    out << "flow " << app.core(e.src).name << " " << app.core(e.dst).name
        << " " << e.weight << "\n";
  }
}

std::string core_graph_to_string(const mapping::CoreGraph& app) {
  std::ostringstream out;
  write_core_graph(app, out);
  return out.str();
}

}  // namespace sunmap::io
