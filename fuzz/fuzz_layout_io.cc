// Fuzz target: layout reader against the LayoutAuditor oracle.
//
// Any placement load_placement accepts must (a) pass the auditor's
// structural Eq. 6/7 checks — distinct in-range servers, 1..N replicas per
// video, layout realizing its implied plan — (b) hold exactly the server
// ids the file lists, none narrowed into the layout's 32 bits, and (c)
// survive a save/load round trip bit-exactly.  A parser that admits a layout the
// auditor rejects, or that round-trips to a different placement, is a
// finding.  Malformed input must reject cleanly with InvalidArgumentError
// (the reader's allocation is bounded by the bytes actually present, which
// ASan enforces here against forged headers).
#include <sstream>
#include <string>

#include "fuzz/fuzz_support.h"
#include "src/audit/audit.h"
#include "src/core/layout_io.h"
#include "src/util/error.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(data), size));
  vodrep::PlacementFile placement;
  try {
    placement = vodrep::load_placement(in);
  } catch (const vodrep::InvalidArgumentError&) {
    return 0;  // clean reject
  }

  // Oracle 1: the auditor re-derives Eqs. 6/7 from the raw layout; an
  // accepted file must satisfy them (the exchange format carries no
  // storage/bandwidth limits, so those checks stay disabled).
  vodrep::LayoutAuditor::Limits limits;
  limits.num_servers = placement.num_servers;
  limits.capacity_per_server =
      placement.layout.num_videos() * placement.num_servers;
  const vodrep::LayoutAuditor auditor(limits);
  const vodrep::ReplicationPlan plan = placement.plan();
  const vodrep::AuditReport report = auditor.audit(placement.layout, &plan);
  if (!report.ok()) {
    VODREP_FUZZ_FAIL("load_placement accepted a layout the auditor rejects: %s",
                     report.summary().c_str());
  }

  // Oracle 2: the records read again at full width list the same ids (a
  // wrap would load 2^32 + 1 as server 1, which the auditor accepts).
  std::istringstream wide(
      std::string(reinterpret_cast<const char*>(data), size));
  std::string magic;
  std::size_t num_videos = 0;
  std::size_t num_servers = 0;
  wide >> magic >> num_videos >> num_servers;
  for (std::size_t i = 0; i < num_videos; ++i) {
    std::size_t video = 0;
    std::size_t replicas = 0;
    wide >> video >> replicas;
    const auto hosts = placement.layout.hosts(video);
    for (std::size_t k = 0; k < replicas; ++k) {
      std::size_t server = 0;
      wide >> server;
      if (server != hosts[k]) {
        VODREP_FUZZ_FAIL("load_placement read server %zu as %u", server,
                         static_cast<unsigned>(hosts[k]));
      }
    }
  }

  // Oracle 3: save/load round trip must reproduce the placement exactly.
  std::ostringstream saved;
  try {
    vodrep::save_placement(saved, placement);
  } catch (const vodrep::InvalidArgumentError& err) {
    VODREP_FUZZ_FAIL("save_placement rejected a loaded placement: %s",
                     err.what());
  }
  std::istringstream reload_in(saved.str());
  vodrep::PlacementFile reloaded;
  try {
    reloaded = vodrep::load_placement(reload_in);
  } catch (const vodrep::InvalidArgumentError& err) {
    VODREP_FUZZ_FAIL("round-tripped placement failed to reload: %s",
                     err.what());
  }
  if (reloaded.num_servers != placement.num_servers ||
      reloaded.layout != placement.layout) {
    VODREP_FUZZ_FAIL("save/load round trip changed the placement");
  }
  return 0;
}
