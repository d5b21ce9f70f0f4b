#include "src/workload/sampler.h"

#include <limits>
#include <vector>

#include "src/util/error.h"

namespace vodrep {

DiscreteSampler::DiscreteSampler(const std::vector<double>& probabilities) {
  require(!probabilities.empty(), "DiscreteSampler: empty distribution");
  require(probabilities.size() <= std::numeric_limits<std::uint32_t>::max(),
          "DiscreteSampler: more outcomes than 32-bit aliases address");
  double sum = 0.0;
  for (double p : probabilities) {
    require(p >= 0.0, "DiscreteSampler: negative probability");
    sum += p;
  }
  require(sum > 0.0, "DiscreteSampler: probabilities sum to zero");

  // Vose's alias construction: scale to mean 1 (in place in prob_), split
  // into small/large piles, and pair each small bucket with a donor large
  // bucket.  Both piles are stacks in one worklist: the small pile grows up
  // from the front, the large pile down from the back.  Every index sits in
  // at most one pile, so they never meet.
  const std::size_t n = probabilities.size();
  const auto scale = static_cast<double>(n);
  prob_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    prob_[i] = probabilities[i] / sum * scale;
  }
  alias_.resize(n);
  std::vector<std::uint32_t> work(n);
  std::size_t small = 0;  // work[0, small) is the small pile
  std::size_t large = n;  // work[large, n) is the large pile, top at `large`
  for (std::size_t i = 0; i < n; ++i) {
    if (prob_[i] < 1.0) {
      work[small++] = static_cast<std::uint32_t>(i);
    } else {
      work[--large] = static_cast<std::uint32_t>(i);
    }
  }
  while (small > 0 && large < n) {
    const std::uint32_t s = work[--small];
    const std::uint32_t l = work[large];
    alias_[s] = l;
    prob_[l] = (prob_[l] + prob_[s]) - 1.0;
    if (prob_[l] < 1.0) {
      ++large;
      work[small++] = l;
    }
  }
  // Whatever remains (the donors, plus numerical residue) keeps prob 1 /
  // self-alias.
  for (std::size_t k = 0; k < small; ++k) {
    prob_[work[k]] = 1.0;
    alias_[work[k]] = work[k];
  }
  for (std::size_t k = large; k < n; ++k) {
    prob_[work[k]] = 1.0;
    alias_[work[k]] = work[k];
  }
}

std::size_t DiscreteSampler::sample(Rng& rng) const {
  const std::size_t bucket = static_cast<std::size_t>(
      rng.uniform_index(static_cast<std::uint64_t>(prob_.size())));
  return rng.uniform() < prob_[bucket] ? bucket : alias_[bucket];
}

double DiscreteSampler::probability(std::size_t i) const {
  require(i < prob_.size(), "DiscreteSampler::probability: out of range");
  // Bucket i keeps prob_[i] of its 1/n; every other bucket aliased to i
  // gives it the rest of its share.
  double mass = prob_[i];
  for (std::size_t b = 0; b < prob_.size(); ++b) {
    if (b != i && alias_[b] == i) mass += 1.0 - prob_[b];
  }
  return mass / static_cast<double>(prob_.size());
}

}  // namespace vodrep
