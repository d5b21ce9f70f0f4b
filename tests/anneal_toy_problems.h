// Toy 1-D landscapes for the annealer tests, through the engine's move API.
#pragma once

#include <algorithm>

#include "src/util/rng.h"

namespace vodrep {

/// A 1-D integer landscape through the move API: a move tries x + step for
/// a problem-drawn step, and the scratch keeps the best x it committed.
template <typename Landscape>
struct MoveProblem {
  using State = int;
  struct Scratch {
    int committed = 0;
    int tentative = 0;
    int best = 0;
  };

  State initial(Rng& rng) const { return Landscape::initial(rng); }
  double cost(const State& x) const { return Landscape::cost(x); }
  Scratch make_scratch(State s) const { return {s, s, s}; }
  bool propose(Scratch& s, Rng& rng) const {
    const int candidate = s.committed + Landscape::step(rng);
    if (candidate < Landscape::kFloor) return false;  // no-op move
    s.tentative = candidate;
    return true;
  }
  double delta_cost(const Scratch& s) const {
    return cost(s.tentative) - cost(s.committed);
  }
  void commit(Scratch& s) const {
    s.committed = s.tentative;
    if (cost(s.committed) < cost(s.best)) s.best = s.committed;
  }
  void revert(Scratch& s) const { s.tentative = s.committed; }
  State extract_best(Scratch& s) const { return s.best; }
};

/// Quadratic over a discrete grid: cost (x - 37)^2, steps +-1.
struct Quadratic {
  static constexpr int kFloor = -1'000'000;
  static int initial(Rng& rng) {
    return static_cast<int>(rng.uniform_index(200));
  }
  static double cost(int x) {
    const double d = x - 37.0;
    return d * d;
  }
  static int step(Rng& rng) { return rng.bernoulli(0.5) ? 1 : -1; }
};
using QuadraticProblem = MoveProblem<Quadratic>;

/// A rugged landscape with a deep global minimum at 80 hidden behind a
/// local minimum at 20: tests that annealing escapes local minima.
struct Rugged {
  static constexpr int kFloor = -1'000'000;
  static int initial(Rng&) { return 15; }
  static double cost(int x) {
    const double local = 0.5 * (x - 20.0) * (x - 20.0);
    const double global = (x - 80.0) * (x - 80.0) - 500.0;
    return std::min(local, global);
  }
  // Long-range jumps let the chain cross the barrier.
  static int step(Rng& rng) {
    return static_cast<int>(rng.uniform_index(21)) - 10;
  }
};
using RuggedProblem = MoveProblem<Rugged>;

/// x^2 with a floor at 0: steps below the floor are no-op moves the engine
/// must skip without evaluating them, and still find the optimum.
struct FlooredQuadratic {
  static constexpr int kFloor = 0;
  static int initial(Rng&) { return 60; }
  static double cost(int x) {
    const double d = static_cast<double>(x);
    return d * d;
  }
  static int step(Rng& rng) { return rng.bernoulli(0.5) ? 1 : -1; }
};
using FlooredProblem = MoveProblem<FlooredQuadratic>;

}  // namespace vodrep
