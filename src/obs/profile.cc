#include "src/obs/profile.h"

#include <algorithm>
#include <cstring>
#include <tuple>
#include <utility>

#include "src/obs/clock.h"
#include "src/obs/json_lite.h"
#include "src/obs/report.h"
#include "src/obs/trace.h"

namespace vodrep::obs {

namespace {

/// The forest under construction.  nodes[0] is a synthetic root whose
/// children are the root phases; links are indices because the vector
/// reallocates as new paths appear.
struct PathNode {
  const char* name = nullptr;
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;
  std::uint64_t count = 0;
  std::vector<std::size_t> children;
};

/// The child of `parent` carrying `name`, added on first sight.  Linear
/// scan: phase fan-out is a handful of named stages.
std::size_t child_named(std::vector<PathNode>& nodes, std::size_t parent,
                        const char* name) {
  for (const std::size_t child : nodes[parent].children) {
    if (std::strcmp(nodes[child].name, name) == 0) return child;
  }
  nodes.emplace_back().name = name;
  nodes[parent].children.push_back(nodes.size() - 1);
  return nodes.size() - 1;
}

/// True when `outer` is a span of `inner`'s thread, sits shallower, and its
/// wall interval contains `inner`'s.
bool encloses(const TraceEvent& outer, const TraceEvent& inner) {
  return outer.tid == inner.tid && outer.depth < inner.depth &&
         outer.ts_ns <= inner.ts_ns &&
         inner.ts_ns + inner.dur_ns <= outer.ts_ns + outer.dur_ns;
}

/// The children of nodes[parent] as a name-sorted PhaseStats forest.
std::vector<PhaseStats> forest_of(const std::vector<PathNode>& nodes,
                                  std::size_t parent) {
  std::vector<PhaseStats> forest;
  for (const std::size_t index : nodes[parent].children) {
    const PathNode& node = nodes[index];
    forest.push_back(PhaseStats{node.name, node.wall_ns, node.cpu_ns,
                                node.count, forest_of(nodes, index)});
  }
  std::sort(forest.begin(), forest.end(),
            [](const PhaseStats& a, const PhaseStats& b) {
              return a.name < b.name;
            });
  return forest;
}

JsonValue phase_to_json(const PhaseStats& phase) {
  JsonValue node = JsonValue::object();
  node.set("name", JsonValue::string(phase.name));
  node.set("wall_ns", JsonValue::integer_u64(phase.wall_ns));
  node.set("cpu_ns", JsonValue::integer_u64(phase.cpu_ns));
  node.set("count", JsonValue::integer_u64(phase.count));
  JsonValue children = JsonValue::array();
  for (const PhaseStats& child : phase.children) {
    children.push_back(phase_to_json(child));
  }
  node.set("children", std::move(children));
  return node;
}

}  // namespace

ProfileSnapshot profile_snapshot(const TraceRecorder& recorder) {
  // Each thread's spans in start order.  A parent opens no later than its
  // children and sits shallower, so it sorts before them.
  std::vector<TraceEvent> spans = recorder.events();
  std::stable_sort(spans.begin(), spans.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return std::tie(a.tid, a.ts_ns, a.depth) <
                            std::tie(b.tid, b.ts_ns, b.depth);
                   });
  std::vector<PathNode> nodes(1);
  // The spans enclosing the current one, innermost last, with their nodes.
  std::vector<std::pair<const TraceEvent*, std::size_t>> open;
  for (const TraceEvent& span : spans) {
    while (!open.empty() && !encloses(*open.back().first, span)) {
      open.pop_back();
    }
    // Only an enclosing span exactly one level up is the parent; when that
    // level was never recorded the span is a root.
    const bool has_parent =
        !open.empty() && open.back().first->depth + 1 == span.depth;
    const std::size_t index =
        child_named(nodes, has_parent ? open.back().second : 0, span.name);
    PathNode& node = nodes[index];
    node.wall_ns += span.dur_ns;
    node.cpu_ns += span.cpu_ns;
    node.count += 1;
    open.emplace_back(&span, index);
  }
  ProfileSnapshot out;
  out.phases = forest_of(nodes, 0);
  out.max_rss_kb = max_rss_kb();
  return out;
}

JsonValue profile_json(const TraceRecorder& recorder) {
  const ProfileSnapshot snap = profile_snapshot(recorder);
  JsonValue root = JsonValue::object();
  root.set("profile_version", JsonValue::integer(kRunProfileVersion));
  root.set("max_rss_kb", JsonValue::integer_u64(snap.max_rss_kb));
  JsonValue trace = JsonValue::object();
  trace.set("recorded", JsonValue::integer_u64(recorder.events_recorded()));
  trace.set("dropped", JsonValue::integer_u64(recorder.events_dropped()));
  root.set("trace", std::move(trace));
  JsonValue phases = JsonValue::array();
  for (const PhaseStats& phase : snap.phases) {
    phases.push_back(phase_to_json(phase));
  }
  root.set("phases", std::move(phases));
  return root;
}

}  // namespace vodrep::obs
