#include "obs/trace_schema.hpp"

#include <ostream>
#include <string>

#include "obs/cpi_stack.hpp"

namespace smt::obs {

namespace {

template <std::size_t N>
void put_names(std::ostream& os, const std::array<std::string_view, N>& v) {
  os << '[';
  for (std::size_t i = 0; i < N; ++i) {
    os << (i > 0 ? "," : "") << '"' << v[i] << '"';
  }
  os << ']';
}

}  // namespace

void write_schema(std::ostream& os) {
  os << "{\"event_kinds\":";
  put_names(os, kEventKindNames);
  os << ",\n\"stall_causes\":";
  put_names(os, kStallCauseNames);
  os << ",\n\"cpi_causes\":";
  put_names(os, kCpiCauseNames);
  os << ",\n\"event_keys\":[";
  for (std::size_t i = 0; i < kTraceKeys.size(); ++i) {
    const TraceKeySpec& k = kTraceKeys[i];
    os << (i > 0 ? "," : "") << "{\"key\":\"" << k.key << "\",\"only\":"
       << (k.only ? '"' + std::string(name(*k.only)) + '"' : "null") << '}';
  }
  os << "],\n\"build_info_event\":\"" << kBuildInfoEvent
     << "\",\n\"build_info_keys\":";
  put_names(os, kBuildInfoKeys);
  os << ",\n\"pipe_stages\":";
  put_names(os, kPipeStageNames);
  os << ",\n\"contend_slots\":" << kCpiMaxThreads << "}\n";
}

}  // namespace smt::obs
