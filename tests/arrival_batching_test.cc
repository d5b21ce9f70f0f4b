// Block Poisson arrival generation (poisson_arrivals_block), proven
// against its per-event counterpart: block generation is bit-for-bit the
// per-event RNG stream — at block size 1 and at every other block size,
// generate_trace's kArrivalBlock among them — down to the generator state
// left behind after a mid-block horizon crossing (the snapshot/rewind
// contract).
#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/error.h"
#include "src/util/rng.h"
#include "src/workload/arrivals.h"
#include "src/workload/trace.h"

namespace vodrep {
namespace {

/// Compares the full post-call generator states by drawing from both.
void expect_same_rng_state(Rng a, Rng b) {
  for (int i = 0; i < 16; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

// ---------------------------------------------------------------------------
// poisson_arrivals_block == poisson_arrivals, times and RNG stream.
// ---------------------------------------------------------------------------

TEST(ArrivalBatching, BlockSizeOneReplaysThePerEventStream) {
  for (const std::uint64_t seed : {1ULL, 42ULL, 0xdeadbeefULL}) {
    Rng reference(seed);
    Rng blocked(seed);
    const std::vector<double> expected =
        poisson_arrivals(reference, 3.0, 250.0);
    const std::vector<double> actual =
        poisson_arrivals_block(blocked, 3.0, 250.0, 1);
    EXPECT_EQ(expected, actual);
    expect_same_rng_state(reference, blocked);
  }
}

TEST(ArrivalBatching, EveryBlockSizeIsBitIdentical) {
  const std::array<std::size_t, 6> blocks = {1, 2, 3, 7, kArrivalBlock, 4096};
  for (const std::uint64_t seed : {7ULL, 99ULL, 0xabcdefULL}) {
    for (const double rate : {0.5, 4.0, 50.0}) {
      Rng reference(seed);
      const std::vector<double> expected =
          poisson_arrivals(reference, rate, 100.0);
      for (const std::size_t block : blocks) {
        Rng rng(seed);
        const std::vector<double> actual =
            poisson_arrivals_block(rng, rate, 100.0, block);
        ASSERT_EQ(expected, actual)
            << "seed " << seed << " rate " << rate << " block " << block;
        expect_same_rng_state(reference, rng);
      }
    }
  }
}

TEST(ArrivalBatching, DegenerateInputsMatchPerEvent) {
  Rng a(5);
  Rng b(5);
  EXPECT_TRUE(poisson_arrivals_block(a, 0.0, 100.0, 64).empty());
  EXPECT_TRUE(poisson_arrivals(b, 0.0, 100.0).empty());
  expect_same_rng_state(a, b);
  EXPECT_TRUE(poisson_arrivals_block(a, 3.0, 0.0, 64).empty());
  EXPECT_TRUE(poisson_arrivals(b, 3.0, 0.0).empty());
  expect_same_rng_state(a, b);
  // A tiny horizon: the very first draw usually crosses, exercising the
  // rewind on the first block element.
  const std::vector<double> blocked = poisson_arrivals_block(a, 1.0, 1e-9, 64);
  const std::vector<double> ref = poisson_arrivals(b, 1.0, 1e-9);
  EXPECT_EQ(ref, blocked);
  expect_same_rng_state(a, b);
  EXPECT_THROW(poisson_arrivals_block(a, 1.0, 1.0, 0), InvalidArgumentError);
}

}  // namespace
}  // namespace vodrep
