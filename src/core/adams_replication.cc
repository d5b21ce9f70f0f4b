#include "src/core/adams_replication.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <tuple>
#include <utility>

namespace vodrep {
namespace {

// Video i's (j+1)-th replica is granted at the key fl(p_i / j), j = 1..N-1:
// its per-replica weight while it holds j replicas.  Correctly rounded
// division is monotone, so a video's keys never rise with j.

/// How many of the keys fl(p / j), j = 1..cap, lie strictly above t >= 0
/// (inv_t = 1 / t): the largest such j, since the keys fall with j.
std::size_t keys_above(double p, double t, double inv_t, std::size_t cap) {
  if (!(p > t)) return 0;  // the largest key, j = 1, is p itself
  // The real count is ceil(p / t) - 1; the estimate lands within one of it,
  // and the exact keys settle the rest.
  const double q = p * inv_t;
  std::size_t j = q < static_cast<double>(cap)
                      ? std::max<std::size_t>(1, static_cast<std::size_t>(q))
                      : cap;
  while (j > 1 && !(p / static_cast<double>(j) > t)) --j;
  while (j < cap && p / static_cast<double>(j + 1) > t) ++j;
  return j;
}

/// The double halfway between lo and hi (both >= +0) in bit order, so each
/// bisection halves the doubles left between them.
double bisect(double lo, double hi) {
  const auto a = std::bit_cast<std::uint64_t>(lo);
  const auto b = std::bit_cast<std::uint64_t>(hi);
  return std::bit_cast<double>(a + (b - a) / 2);
}

/// Model-guided probes before the search falls back to bisection alone.
constexpr int kModelProbes = 8;
/// A bracket this narrow is settled by selection, without another probe.
constexpr std::size_t kSettled = 1024;

}  // namespace

ReplicationPlan AdamsReplication::replicate(
    const std::vector<double>& popularity, std::size_t num_servers,
    std::size_t budget) const {
  return replicate_traced(popularity, num_servers, budget, nullptr);
}

ReplicationPlan AdamsReplication::replicate_traced(
    const std::vector<double>& popularity, std::size_t num_servers,
    std::size_t budget, std::vector<AdamsStep>* steps) const {
  check_replication_inputs(popularity, num_servers, budget);
  const std::size_t m = popularity.size();
  const std::size_t cap = num_servers - 1;  // keys per video
  const std::size_t grants = budget - m;

  // With room for every key, every video reaches the cap.
  const bool all_keys = cap > 0 && grants / m >= cap;
  ReplicationPlan plan;
  plan.replicas.assign(m, all_keys ? num_servers : 1);
  if (!all_keys && cap > 0 && grants > 0) {
    // Bracket the grants-th largest key t*: lo < t* <= hi, with at least
    // `grants` keys above lo and fewer above hi.  Until a probe finds a lo,
    // the lower end lies below every key (all are >= 0), and the bracket
    // counts as unbounded.
    double lo = 0.0;
    // No key lies above the largest popularity.
    double hi = *std::max_element(popularity.begin(), popularity.end());
    bool has_lo = false;
    std::size_t above_lo = std::numeric_limits<std::size_t>::max();
    std::size_t above_hi = 0;
    // The videos with a key above lo, in index order: only they can own a
    // key inside the bracket.
    std::vector<std::size_t> live;
    std::vector<std::size_t> next;
    const auto for_live = [&](const auto& visit) {
      if (has_lo) {
        for (std::size_t i : live) visit(i);
      } else {
        for (std::size_t i = 0; i < m; ++i) visit(i);
      }
    };

    const auto target = static_cast<double>(grants);
    // Popularity sums to 1 and a video below the cap has more than
    // p_i / t - 1 keys above t, so at least `grants` keys lie above the
    // first probe unless caps bind: it usually finds a lo at once, and later
    // probes visit only the videos it leaves live.
    double t = 1.0 / (target + static_cast<double>(m));
    double previous_t = 0.0;
    std::size_t previous_keys = 0;
    std::size_t width = std::numeric_limits<std::size_t>::max();
    bool tied = false;
    for (int probe = 1;; ++probe) {
      const double inv_t = 1.0 / t;
      std::size_t keys = 0;
      next.clear();
      for_live([&](std::size_t i) {
        const std::size_t k = keys_above(popularity[i], t, inv_t, cap);
        if (k == 0) return;
        next.push_back(i);
        keys += k;
      });
      if (keys >= grants) {
        lo = t;
        has_lo = true;
        above_lo = keys;
        live.swap(next);
      } else {
        hi = t;
        above_hi = keys;
      }
      // Every key in (lo, hi] equals hi once no double lies between them.
      tied = has_lo ? std::nextafter(lo, hi) == hi : hi == 0.0;
      // Probe on while the bracket holds more keys than there are videos,
      // or while probes still narrow it (ties can stop them).
      const std::size_t previous_width = width;
      width = above_lo - above_hi;
      if (tied || width <= kSettled || (width <= m && width == previous_width)) {
        break;
      }
      // The next probe fits a power law, keys ~ t^-a, through the last two
      // probes (a = 1 after the first); Zipf catalogues follow one.  A probe
      // that counted as many keys as the one before learned nothing about
      // the slope, so the step doubles instead.  The probe must land
      // strictly inside the bracket, else the bracket is bisected.
      double step = keys >= grants ? 2.0 : 0.5;
      if (keys != previous_keys) {
        double exponent = 1.0;
        if (previous_keys > 0 && keys > 0) {
          exponent = std::log(static_cast<double>(keys) /
                              static_cast<double>(previous_keys)) /
                     std::log(previous_t / t);
        }
        step = std::pow(static_cast<double>(keys) / (target - 0.5),
                        1.0 / exponent);
      }
      previous_t = t;
      previous_keys = keys;
      t *= step;
      if (probe > kModelProbes || !(t > lo && t < hi)) {
        t = has_lo ? bisect(lo, hi) : 0.0;
      }
    }

    // Grant every key above hi.  The keys in (lo, hi] decide the rest in
    // the greedy's order, key descending and then video ascending: tied
    // keys in index order, others by selection.
    std::size_t left = grants - above_hi;
    std::vector<std::pair<double, std::size_t>> bracket;
    if (!tied) bracket.reserve(width);
    const double inv_hi = 1.0 / hi;
    const double inv_lo = 1.0 / lo;
    for_live([&](std::size_t i) {
      const double p = popularity[i];
      const std::size_t from = keys_above(p, hi, inv_hi, cap);
      const std::size_t to = has_lo ? keys_above(p, lo, inv_lo, cap) : cap;
      plan.replicas[i] += from;
      if (tied) {
        const std::size_t take = std::min(left, to - from);
        plan.replicas[i] += take;
        left -= take;
      } else {
        for (std::size_t j = from + 1; j <= to; ++j) {
          bracket.emplace_back(p / static_cast<double>(j), i);
        }
      }
    });
    if (!tied) {
      const auto nth = bracket.begin() + static_cast<std::ptrdiff_t>(left - 1);
      std::nth_element(bracket.begin(), nth, bracket.end(),
                       [](const auto& a, const auto& b) {
                         return std::tie(b.first, a.second) <
                                std::tie(a.first, b.second);
                       });
      for (auto it = bracket.begin(); it <= nth; ++it) {
        ++plan.replicas[it->second];
      }
    }
  }

  if (steps != nullptr) {
    // The heap greedy's grant order: key descending, video ascending, j
    // ascending.
    const auto first = static_cast<std::ptrdiff_t>(steps->size());
    for (std::size_t i = 0; i < m; ++i) {
      const double p = popularity[i];
      for (std::size_t r = 2; r <= plan.replicas[i]; ++r) {
        steps->push_back(AdamsStep{i, r, p / static_cast<double>(r - 1),
                                   p / static_cast<double>(r)});
      }
    }
    std::sort(steps->begin() + first, steps->end(),
              [](const AdamsStep& a, const AdamsStep& b) {
                return std::tie(b.weight_before, a.video, a.new_replicas) <
                       std::tie(a.weight_before, b.video, b.new_replicas);
              });
  }
  return plan;
}

}  // namespace vodrep
