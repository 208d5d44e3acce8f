// libFuzzer harness for util/json — the one JSON type behind the
// rdt-bench-v2 / rdt-trace-v1 pipeline (tools/rdt_stats feeds the parser
// files from disk, i.e. untrusted bytes). Same contract as the other
// parsers: arbitrary input either parses into a Value or throws
// std::invalid_argument; logic_error, bad_alloc, deep-recursion crashes and
// signals are bugs. Whatever parses must also survive the writer:
// parse(dump(parse(x))) == parse(x), numbers compared by value.
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string_view>

#include "util/json.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  // Reports and traces are small; bound pathological inputs.
  if (size > (1u << 20)) return 0;
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  rdt::json::Value v;
  try {
    v = rdt::json::parse(text);
  } catch (const std::invalid_argument&) {
    return 0;  // Malformed input, correctly rejected.
  }
  // Exercise the typed accessors' error paths too.
  (void)v.find("schema");
  if (v.is_object()) (void)v.as_object().size();
  if (v.is_array()) (void)v.as_array().size();
  // Outside the try on purpose: the writer's output must parse, and read
  // back as the same document.
  if (!(rdt::json::parse(v.dump()) == v)) __builtin_trap();
  return 0;
}
