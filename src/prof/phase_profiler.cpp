#include "prof/phase_profiler.hpp"

#include <algorithm>
#include <ostream>

#include "obs/metrics.hpp"

namespace smt::prof {

namespace {

/// Metric path segments and folded frames use '.' and ';' as structure.
std::string sanitize(std::string_view name) {
  std::string out(name.empty() ? std::string_view("_") : name);
  for (char& c : out) {
    if (c == '.' || c == ';' || c == ' ' || c == '\n') c = '_';
  }
  return out;
}

}  // namespace

PhaseProfiler::PhaseProfiler() {
  NodeData root;
  root.name = "run";
  root.parent = kRoot;
  nodes_.push_back(std::move(root));
}

PhaseProfiler::Node PhaseProfiler::child(Node parent, std::string_view name) {
  const std::string clean = sanitize(name);
  for (const Node c : nodes_[parent].children) {
    if (nodes_[c].name == clean) return c;
  }
  const Node id = static_cast<Node>(nodes_.size());
  NodeData n;
  n.name = clean;
  n.parent = parent;
  nodes_.push_back(std::move(n));
  nodes_[parent].children.push_back(id);
  return id;
}

void PhaseProfiler::add(Node n, std::uint64_t ticks,
                        std::uint64_t count) noexcept {
  NodeData& d = nodes_[n];
  d.count += count;
  d.incl_ticks += ticks;
  d.min_ticks = std::min(d.min_ticks, ticks);
  d.max_ticks = std::max(d.max_ticks, ticks);
}

std::uint64_t PhaseProfiler::min_ticks(Node n) const {
  const NodeData& d = nodes_[n];
  return d.count == 0 ? 0 : d.min_ticks;
}

std::uint64_t PhaseProfiler::exclusive_ticks(Node n) const {
  const NodeData& d = nodes_[n];
  std::uint64_t kids = 0;
  for (const Node c : d.children) kids += nodes_[c].incl_ticks;
  return kids >= d.incl_ticks ? 0 : d.incl_ticks - kids;
}

std::string PhaseProfiler::path(Node n, char sep) const {
  std::vector<std::string_view> segs;
  Node cur = n;
  for (;;) {
    segs.push_back(nodes_[cur].name);
    if (cur == kRoot) break;
    cur = nodes_[cur].parent;
  }
  std::string out;
  for (auto it = segs.rbegin(); it != segs.rend(); ++it) {
    if (!out.empty()) out += sep;
    out += *it;
  }
  return out;
}

void PhaseProfiler::export_metrics(obs::MetricsRegistry& reg) const {
  reg.set("prof.ticks_per_ns", ticks_per_ns());
  for (Node n = 0; n < nodes_.size(); ++n) {
    if (nodes_[n].count == 0) continue;
    const std::string base = "prof." + path(n, '.') + '.';
    reg.set(base + "count", nodes_[n].count);
    reg.set(base + "incl_ns", ticks_to_ns(nodes_[n].incl_ticks));
    reg.set(base + "excl_ns", ticks_to_ns(exclusive_ticks(n)));
    reg.set(base + "min_ns", ticks_to_ns(min_ticks(n)));
    reg.set(base + "max_ns", ticks_to_ns(nodes_[n].max_ticks));
  }
}

void PhaseProfiler::write_folded(std::ostream& os) const {
  // Preorder via an explicit stack keeps sibling order stable (creation
  // order), which makes the output deterministic for a given tree shape.
  std::vector<Node> stack{kRoot};
  while (!stack.empty()) {
    const Node n = stack.back();
    stack.pop_back();
    const NodeData& d = nodes_[n];
    for (auto it = d.children.rbegin(); it != d.children.rend(); ++it) {
      stack.push_back(*it);
    }
    if (d.count == 0) continue;
    os << path(n, ';') << ' ' << ticks_to_ns(exclusive_ticks(n)) << '\n';
  }
}

}  // namespace smt::prof
