#include "common/host_info.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <optional>

#include "common/cli.hpp"

namespace smt {

namespace {

std::string read_cpu_model() {
  // First "model name" line of /proc/cpuinfo (Linux). Absent (non-Linux,
  // restricted /proc, some ARM kernels) degrades to "unknown" rather
  // than failing: provenance is best-effort, never load-bearing.
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    std::size_t start = colon + 1;
    while (start < line.size() && (line[start] == ' ' || line[start] == '\t')) {
      ++start;
    }
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    if (start < line.size()) return line.substr(start);
    break;
  }
  return "unknown";
}

HostInfo gather() {
  HostInfo info;
  info.cpu_model = read_cpu_model();
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  info.cores = n > 0 ? static_cast<unsigned>(n) : 0;
  info.smt_jobs = smt_jobs_from_env();
  return info;
}

}  // namespace

std::size_t smt_jobs_from_env() {
  const char* env = std::getenv("SMT_JOBS");
  const std::optional<std::uint64_t> v = parse_u64(env ? env : "");
  if (!v.has_value() || *v == 0) return 1;
  return static_cast<std::size_t>(std::min<std::uint64_t>(*v, 64));
}

const HostInfo& host_info() {
  static const HostInfo info = gather();
  return info;
}

}  // namespace smt
