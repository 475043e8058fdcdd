// smtprof — host-profile reporter.
//
//   smtprof folded FILE     per-phase breakdown of an `smtsim
//                           --prof-folded` folded-stack file (exclusive
//                           ns per phase path, share of total; call
//                           counts live in --stats-json, not here)
//
// Exit codes: 0 success, 2 usage error, 3 unreadable or malformed input.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/cli.hpp"
#include "common/exit_codes.hpp"
#include "common/table.hpp"

namespace {

constexpr const char* kUsage = R"(usage: smtprof <command> FILE

commands:
  folded FILE      per-phase breakdown of an `smtsim --prof-folded` file
  --help           this text

exit codes:
  0  success
  2  usage error (unknown command, wrong arguments)
  3  input error (unreadable, empty or malformed file)
)";

std::string fmt_ms(std::uint64_t ns) {
  return smt::Table::num(static_cast<double>(ns) / 1e6, 2);
}

int cmd_folded(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "smtprof: cannot read '" << path << "'\n";
    return smt::kExitConfig;
  }
  struct Row {
    std::string stack;
    std::uint64_t ns = 0;
  };
  std::vector<Row> rows;
  std::uint64_t total = 0;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos || sp == 0 || sp + 1 >= line.size()) {
      std::cerr << "smtprof: " << path << ':' << lineno
                << ": not a folded stack line: '" << line << "'\n";
      return smt::kExitConfig;
    }
    const std::optional<std::uint64_t> ns =
        smt::parse_u64(std::string_view(line).substr(sp + 1));
    if (!ns.has_value()) {
      std::cerr << "smtprof: " << path << ':' << lineno
                << ": malformed exclusive-ns value: '" << line << "'\n";
      return smt::kExitConfig;
    }
    rows.push_back({line.substr(0, sp), *ns});
    total += *ns;
  }
  if (rows.empty()) {
    std::cerr << "smtprof: '" << path << "' has no folded stacks\n";
    return smt::kExitConfig;
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Row& a, const Row& b) { return a.ns > b.ns; });
  smt::Table t({"phase", "excl_ms", "share"});
  for (const Row& r : rows) {
    const double share = total > 0 ? 100.0 * static_cast<double>(r.ns) /
                                         static_cast<double>(total)
                                   : 0.0;
    t.add_row({r.stack, fmt_ms(r.ns), smt::Table::num(share, 1) + "%"});
  }
  t.print(std::cout);
  std::cout << "total " << fmt_ms(total) << " ms exclusive across "
            << rows.size() << " phases\n";
  return smt::kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty() || args[0] == "--help" || args[0] == "help") {
    std::cout << kUsage;
    return args.empty() ? smt::kExitUsage : smt::kExitOk;
  }
  const std::string& cmd = args[0];
  if (cmd == "folded") {
    if (args.size() != 2) {
      std::cerr << "smtprof: '" << cmd << "' takes exactly one file\n\n"
                << kUsage;
      return smt::kExitUsage;
    }
    return cmd_folded(args[1]);
  }
  std::cerr << "smtprof: unknown command '" << cmd << "'\n\n" << kUsage;
  return smt::kExitUsage;
}
