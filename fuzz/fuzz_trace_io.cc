// Fuzz target: request-trace reader.
//
// Oracle: every input is either accepted by load_trace or rejected with
// InvalidArgumentError, and an accepted trace survives a save_trace /
// load_trace round trip bit for bit (times, video ids, watch fractions and
// the horizon).  Any other outcome is a finding: std::bad_alloc from a
// buffer sized by a forged header count, another exception type, a
// sanitizer report, or a round trip that changes a value.
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>

#include "fuzz/fuzz_support.h"
#include "src/util/error.h"
#include "src/workload/trace.h"

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_trace(const vodrep::RequestTrace& a, const vodrep::RequestTrace& b) {
  if (!same_bits(a.horizon, b.horizon) || a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const vodrep::Request& x = a.requests[i];
    const vodrep::Request& y = b.requests[i];
    if (!same_bits(x.arrival_time, y.arrival_time) || x.video != y.video ||
        !same_bits(x.watch_fraction, y.watch_fraction)) {
      return false;
    }
  }
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(data), size));
  vodrep::RequestTrace trace;
  try {
    trace = vodrep::load_trace(in);
  } catch (const vodrep::InvalidArgumentError&) {
    return 0;  // clean reject
  }

  std::ostringstream saved;
  vodrep::save_trace(saved, trace);
  std::istringstream reload_in(saved.str());
  vodrep::RequestTrace reloaded;
  try {
    reloaded = vodrep::load_trace(reload_in);
  } catch (const vodrep::InvalidArgumentError& err) {
    VODREP_FUZZ_FAIL("round-tripped trace failed to reload: %s", err.what());
  }
  if (!same_trace(trace, reloaded)) {
    VODREP_FUZZ_FAIL("save/load round trip changed the trace");
  }
  return 0;
}
