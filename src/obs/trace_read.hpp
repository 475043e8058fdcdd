// Offline trace reader: the inverse of TraceSink::write_jsonl, consumed
// by the smttrace analysis tool and by tests.
//
// Each JSONL event line decodes back into the TraceEvent it was written
// from, numeric codes and all, so write_jsonl(read_trace(t)) reproduces
// t byte for byte and write_chrome() can export a read trace exactly as
// it would the live sink. Keys and names come from obs/trace_schema.hpp.
// Rows of the retired policy_switch kind, which older traces carry, are
// skipped.
//
// Input is untrusted: nesting deeper than the schema's two levels and a
// non-integer, negative or out-of-range value in an integer field are
// TraceReadErrors, never a crash or a silently wrapped number. Chrome
// exports are rejected with a pointed error.
#pragma once

#include <iosfwd>
#include <optional>
#include <stdexcept>
#include <vector>

#include "obs/trace_event.hpp"
#include "obs/trace_sink.hpp"

namespace smt::obs {

/// Malformed or unsupported trace input (bad JSON, unknown event kind,
/// out-of-range field, chrome-format input). what() carries the line
/// number.
struct TraceReadError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct ReadTrace {
  /// build_info provenance; nullopt when the trace has no header line.
  std::optional<RunInfo> build;
  std::vector<TraceEvent> events;
};

/// Read a whole JSONL trace. Throws TraceReadError on malformed input.
[[nodiscard]] ReadTrace read_trace(std::istream& is);

}  // namespace smt::obs
