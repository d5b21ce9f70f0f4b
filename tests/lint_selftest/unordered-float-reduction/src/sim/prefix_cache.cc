// Lint self-test fixture: deliberately violates `unordered-float-reduction`
// on the path of the edge tier's byte accounting.  Summing resident entry
// sizes over an unordered_map makes the used-byte total depend on the hash
// table's unspecified iteration order: float addition is not associative,
// so the fit test against the capacity could flip in the last bits.
#include <cstddef>
#include <unordered_map>

namespace vodrep {

double resident_bytes(const std::unordered_map<std::size_t, double>& entries) {
  double used_bytes = 0.0;
  for (const auto& [video, bytes] : entries) {
    used_bytes += bytes;
  }
  return used_bytes;
}

}  // namespace vodrep
