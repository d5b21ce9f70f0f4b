#include "src/core/striping.h"

#include <algorithm>
#include <cmath>

#include "src/util/error.h"

namespace vodrep {

double striped_video_availability(double server_survival,
                                  std::size_t stripe_width) {
  require(server_survival >= 0.0 && server_survival <= 1.0,
          "striped_video_availability: survival must be a probability");
  require(stripe_width >= 1, "striped_video_availability: bad stripe width");
  return std::pow(server_survival, static_cast<double>(stripe_width));
}

double replicated_video_availability(double server_survival,
                                     std::size_t replicas) {
  require(server_survival >= 0.0 && server_survival <= 1.0,
          "replicated_video_availability: survival must be a probability");
  require(replicas >= 1, "replicated_video_availability: bad replica count");
  return 1.0 -
         std::pow(1.0 - server_survival, static_cast<double>(replicas));
}

double hybrid_video_availability(double server_survival,
                                 std::size_t stripe_width,
                                 std::size_t group_replicas) {
  require(group_replicas >= 1, "hybrid_video_availability: bad replica count");
  const double group_alive =
      striped_video_availability(server_survival, stripe_width);
  return 1.0 - std::pow(1.0 - group_alive,
                        static_cast<double>(group_replicas));
}

void HybridLayout::validate(std::size_t num_servers) const {
  for (const auto& video_groups : groups) {
    require(!video_groups.empty(), "HybridLayout: video has no group");
    std::vector<std::size_t> all_members;
    for (const auto& group : video_groups) {
      require(!group.empty(), "HybridLayout: empty stripe group");
      for (std::size_t server : group) {
        require(server < num_servers,
                "HybridLayout: server index out of range");
        all_members.push_back(server);
      }
    }
    std::sort(all_members.begin(), all_members.end());
    require(std::adjacent_find(all_members.begin(), all_members.end()) ==
                all_members.end(),
            "HybridLayout: a video's groups share a server");
  }
}

HybridLayout make_hybrid_layout(std::size_t num_videos,
                                std::size_t num_servers,
                                std::size_t stripe_width,
                                std::size_t group_replicas) {
  require(num_servers >= 1, "make_hybrid_layout: need a server");
  require(stripe_width >= 1 && group_replicas >= 1,
          "make_hybrid_layout: bad dimensions");
  require(stripe_width * group_replicas <= num_servers,
          "make_hybrid_layout: disjoint copies need k*r <= N");
  HybridLayout layout;
  layout.groups.resize(num_videos);
  const std::size_t footprint = stripe_width * group_replicas;
  for (std::size_t video = 0; video < num_videos; ++video) {
    // Stagger the whole k*r footprint per video, then carve it into r
    // contiguous disjoint groups.
    const std::size_t start = (video * footprint) % num_servers;
    layout.groups[video].resize(group_replicas);
    for (std::size_t r = 0; r < group_replicas; ++r) {
      auto& group = layout.groups[video][r];
      group.reserve(stripe_width);
      for (std::size_t j = 0; j < stripe_width; ++j) {
        group.push_back((start + r * stripe_width + j) % num_servers);
      }
    }
  }
  return layout;
}

}  // namespace vodrep
