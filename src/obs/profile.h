// The run profile: a per-path view over the recorded trace spans.
//
// Every span TraceRecorder holds (src/obs/trace.h) carries its wall time,
// its thread-CPU time and its nesting depth on its thread, so the profile
// needs no instrumentation of its own.  profile_snapshot() rebuilds each
// thread's nesting from depth and start time, then merges the spans by
// name path — same path, same node, summed wall/CPU/count — into one
// forest with children sorted by name, so the profile is identical however
// the threads were scheduled and a phase run by four pool workers appears
// once with 4x the CPU.  A span whose enclosing span was never recorded
// (its lane was full, or recording was disabled before it closed) becomes a
// root and is never attributed to another span.  The profile is therefore
// bounded by the lane capacity, and profile_json() carries the recorder's
// dropped count so a profile is self-describing about span loss.
//
// Spans still open when the view is taken are not in it: take it after the
// run, the same quiesce-then-export discipline the metrics and trace
// exports use.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace vodrep::obs {

class JsonValue;
class TraceRecorder;

/// One node of the merged phase forest.
struct PhaseStats {
  std::string name;
  std::uint64_t wall_ns = 0;  ///< total wall time inside the phase
  std::uint64_t cpu_ns = 0;   ///< total CPU time of the threads in the phase
  std::uint64_t count = 0;    ///< times the phase was entered
  std::vector<PhaseStats> children;  ///< sorted by name
};

/// Merged view of a recorder's spans.
struct ProfileSnapshot {
  std::vector<PhaseStats> phases;  ///< root phases, sorted by name
  std::uint64_t max_rss_kb = 0;    ///< process high-water RSS at snapshot
};

/// The per-path aggregate of `recorder`'s spans (see the file comment),
/// stamped with the process max-RSS.
[[nodiscard]] ProfileSnapshot profile_snapshot(const TraceRecorder& recorder);

/// Versioned JSON export: {"profile_version":1,"max_rss_kb":...,
/// "trace":{"recorded":...,"dropped":...},"phases":[{name,wall_ns,cpu_ns,
/// count,children},...]} — the run report's `profile` section.
[[nodiscard]] JsonValue profile_json(const TraceRecorder& recorder);

}  // namespace vodrep::obs
