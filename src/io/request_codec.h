#pragma once

#include <string>

#include "select/explorer.h"

namespace sunmap::io {

/// One exploration request in the vocabulary sunmap_cli's flags, the sweep
/// daemon's protocol and `sunmap_cli --call` share.
struct DecodedRequest {
  /// Built-in application name (apps::by_name); empty when none is named.
  std::string app;
  /// Add the octagon/star extension topologies to the library.
  bool extensions = false;
  /// Every axis and base field the keys set. `app`, `library` and
  /// `context_pool` stay null: the caller binds them.
  select::ExplorationRequest request;
};

/// Parses newline-separated `key=value` lines: the daemon protocol, whose
/// keys sweep/daemon.h lists, one per request flag of sunmap_cli, with the
/// flags' spellings. Blank lines and a trailing '\r' are ignored; comma-
/// separated values are sweep axes. Throws std::invalid_argument naming the
/// key for an unknown or repeated key, and the key and the value for a bad
/// value.
[[nodiscard]] DecodedRequest decode_request(const std::string& text);

/// The canonical text of a request: one line per key whose value differs
/// from a default request's, in a fixed key order, in the short spellings,
/// with every double in its shortest exact form. decode_request() of the
/// text reproduces `request` field for field. Throws std::invalid_argument
/// when the request sets a field no key carries (the annealing budget,
/// floorplan options that are not an engine x sizing-pass grid).
[[nodiscard]] std::string encode_request(const DecodedRequest& request);

/// Parses the whole of `text` as an int; throws std::invalid_argument
/// naming `name` (a key or a flag) and the text. The CLI parses its own
/// numeric flags with it.
[[nodiscard]] int parse_int(const std::string& name, const std::string& text);

}  // namespace sunmap::io
