#include "src/exp/experiments.h"

#include <algorithm>
#include <functional>
#include <sstream>
#include <tuple>
#include <utility>

#include "src/analysis/erlang.h"
#include "src/audit/audit.h"
#include "src/core/adams_replication.h"
#include "src/core/greedy_scalable.h"
#include "src/core/objective.h"
#include "src/core/pipeline.h"
#include "src/core/sa_solver.h"
#include "src/core/slf_placement.h"
#include "src/core/striping.h"
#include "src/core/zipf_interval_replication.h"
#include "src/disk/disk_model.h"
#include "src/exp/runner.h"
#include "src/exp/scenario.h"
#include "src/hetero/hetero_cluster.h"
#include "src/hetero/hetero_placement.h"
#include "src/online/adaptation_study.h"
#include "src/online/provisioner.h"
#include "src/sim/hybrid_policy.h"
#include "src/sim/prefix_cache.h"
#include "src/sim/replicated_policy.h"
#include "src/sim/sharded_engine.h"
#include "src/util/error.h"
#include "src/util/units.h"
#include "src/workload/multiclass.h"
#include "src/workload/popularity.h"

namespace vodrep {
namespace {

constexpr double kDegrees[] = {1.0, 1.2, 1.4, 1.6, 1.8};

/// The one formatter of every label and caption: the parts as a default
/// stream prints them, so a double reads in its shortest %g form
/// ("d=1.2", "W=10min", "theta = 0.75").
template <typename... Parts>
std::string str(const Parts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return os.str();
}

long long count(std::size_t n) { return static_cast<long long>(n); }

Table::Cell percent(const OnlineStats& stats) { return Measured{stats, 100.0}; }

/// E16 and E19's verdict column: zipf+slf rejects no more than
/// classification+round-robin.
std::string ranking_holds(const CellStats& best, const CellStats& baseline) {
  return best.rejection_rate.mean() <= baseline.rejection_rate.mean() + 1e-9
             ? "yes"
             : "NO";
}

Layout provision_layout(const PaperScenario& scenario,
                        const AlgorithmCombo& combo) {
  const auto replication = make_replication_policy(combo.replication);
  const auto placement = make_placement_policy(combo.placement);
  return provision(scenario.problem(), *replication, *placement,
                   scenario.replica_budget())
      .layout;
}

/// One column of a sweep(): `metric` of the row's cell `replay`, in %.
struct Column {
  std::string label;
  std::size_t replay;
  OnlineStats CellStats::*metric = &CellStats::rejection_rate;
};

std::vector<Column> one_per_replay(
    const std::vector<std::string>& labels,
    OnlineStats CellStats::*metric = &CellStats::rejection_rate) {
  std::vector<Column> columns;
  for (std::size_t r = 0; r < labels.size(); ++r) {
    columns.push_back({labels[r], r, metric});
  }
  return columns;
}

/// The rows x columns helper: a row per value of `rows`, one
/// cell(row, replay) per replay the columns read, and a column per entry of
/// `columns`.  The cells of a row share run_cell's seeds, so the columns
/// compare on the same workloads.
Table sweep(std::string row_label, const std::vector<double>& rows,
            const std::vector<Column>& columns,
            const std::function<CellStats(double, std::size_t)>& cell) {
  std::vector<std::string> headers{std::move(row_label)};
  std::size_t replays = 0;
  for (const Column& column : columns) {
    headers.push_back(column.label);
    replays = std::max(replays, column.replay + 1);
  }
  Table table(std::move(headers));
  table.set_precision(2);
  for (double row : rows) {
    std::vector<CellStats> cells;
    for (std::size_t r = 0; r < replays; ++r) cells.push_back(cell(row, r));
    std::vector<Table::Cell> out{row};
    for (const Column& column : columns) {
      out.push_back(percent(cells[column.replay].*column.metric));
    }
    table.add_row(std::move(out));
  }
  return table;
}

/// Figures 4-6 and E10: 20 runs per cell, 12 (6 quick) arrival rates from
/// 10% to 120% of saturation, M = 300 (100).  The quick grid keeps all 20
/// runs: at fewer, the Student-t margins of the verdict tests do not
/// resolve E4's degree step or E6's fall past saturation.
struct PaperGrid {
  RunnerOptions runner;
  std::size_t points;
  std::size_t videos;
};

PaperGrid paper_grid(Grid grid) {
  const bool quick = grid == Grid::kQuick;
  return {RunnerOptions{20u, 0x0DDB1A5E5BA5E5EDULL}, quick ? 6u : 12u,
          quick ? 100u : 300u};
}

/// A row per arrival rate, a column per layout (replicated organization).
Table layout_sweep(const PaperScenario& scenario,
                   const std::vector<double>& rates,
                   const std::vector<Layout>& layouts,
                   const std::vector<std::string>& labels,
                   OnlineStats CellStats::*metric, const RunnerOptions& runner,
                   ThreadPool& pool) {
  return sweep("arrival_rate_per_min", rates, one_per_replay(labels, metric),
               [&](double rate, std::size_t c) {
                 return run_cell(layouts[c], scenario.sim_config(),
                                 scenario.trace_spec(rate), runner, &pool);
               });
}

/// Figure 4 and the Figure 6 merge panel: one combination across kDegrees.
Table degree_panel(const PaperGrid& g, const AlgorithmCombo& combo,
                   double theta, const std::string& prefix,
                   OnlineStats CellStats::*metric, double fraction_hi,
                   ThreadPool& pool) {
  PaperScenario scenario;
  scenario.theta = theta;
  scenario.num_videos = g.videos;
  std::vector<Layout> layouts;
  std::vector<std::string> labels;
  for (double degree : kDegrees) {
    scenario.replication_degree = degree;
    layouts.push_back(provision_layout(scenario, combo));
    labels.push_back(str(prefix, "d=", degree));
  }
  return layout_sweep(scenario,
                      arrival_rate_sweep(scenario, g.points, 0.1, fraction_hi),
                      layouts, labels, metric, g.runner, pool);
}

/// Figures 5 and 6: the four paper combinations at one degree.
Table combo_panel(const PaperGrid& g, double theta, double degree,
                  const std::string& prefix, OnlineStats CellStats::*metric,
                  ThreadPool& pool) {
  PaperScenario scenario;
  scenario.theta = theta;
  scenario.num_videos = g.videos;
  scenario.replication_degree = degree;
  std::vector<Layout> layouts;
  std::vector<std::string> labels;
  for (const AlgorithmCombo& combo : paper_combos()) {
    layouts.push_back(provision_layout(scenario, combo));
    labels.push_back(prefix + combo.label());
  }
  return layout_sweep(scenario, arrival_rate_sweep(scenario, g.points),
                      layouts, labels, metric, g.runner, pool);
}

Table replica_table(const std::vector<double>& popularity,
                    const ReplicationPlan& plan) {
  Table table({"video", "popularity", "replicas", "weight_p/r"});
  table.set_precision(5);
  for (std::size_t i = 0; i < popularity.size(); ++i) {
    table.add_row({count(i + 1), popularity[i], count(plan.replicas[i]),
                   popularity[i] / static_cast<double>(plan.replicas[i])});
  }
  return table;
}

std::vector<Section> fig1(Grid /*grid*/, ThreadPool& /*pool*/) {
  const std::size_t m = 5, n = 3, capacity = 3;
  const auto popularity = zipf_popularity(m, 0.75);
  std::vector<AdamsStep> steps;
  const ReplicationPlan plan =
      AdamsReplication().replicate_traced(popularity, n, n * capacity, &steps);
  Table trace({"iteration", "granted_to_video", "replicas_after",
               "weight_before", "weight_after"});
  trace.set_precision(5);
  for (std::size_t i = 0; i < steps.size(); ++i) {
    trace.add_row({count(i + 1), count(steps[i].video + 1),
                   count(steps[i].new_replicas), steps[i].weight_before,
                   steps[i].weight_after});
  }
  return {{str("grant trace: M=", m, " videos, N=", n, " servers, budget ",
               n * capacity, " replicas"),
           std::move(trace)},
          {str("final plan (optimal for Eq. 8): max weight = ",
               plan.max_weight(popularity), ", replication degree = ",
               plan.degree()),
           replica_table(popularity, plan)}};
}

std::vector<Section> fig2(Grid /*grid*/, ThreadPool& /*pool*/) {
  const std::size_t m = 7, n = 4;
  const double u = 2.0;
  const auto popularity = zipf_popularity(m, 0.6);
  const auto budget = static_cast<std::size_t>(1.75 * static_cast<double>(m));
  const auto boundaries =
      ZipfIntervalReplication::interval_boundaries(popularity.front(), n, u);
  Table boundary_table({"interval_k", "replicas_if_inside", "lower_edge_z_k"});
  boundary_table.set_precision(5);
  for (std::size_t k = 1; k <= n; ++k) {
    boundary_table.add_row({count(k), count(n - k + 1),
                            k < n ? boundaries[k - 1] : 0.0});
  }
  const ReplicationPlan plan =
      ZipfIntervalReplication().replicate(popularity, n, budget);
  return {{str("generate(u=", u, ") interval boundaries: M=", m,
               " videos, N=", n, " servers, budget ", budget, " replicas"),
           std::move(boundary_table)},
          {str("assignment after the binary search on u: total replicas = ",
               plan.total_replicas(), " (budget ", budget, "), degree = ",
               plan.degree()),
           replica_table(popularity, plan)}};
}

std::vector<Section> fig3(Grid /*grid*/, ThreadPool& /*pool*/) {
  const std::size_t m = 8, n = 4;
  const auto popularity = zipf_popularity(m, 0.75);
  const auto budget = static_cast<std::size_t>(1.5 * static_cast<double>(m));
  const std::size_t capacity = (budget + n - 1) / n;
  const ReplicationPlan plan =
      AdamsReplication().replicate(popularity, n, budget);
  std::vector<SmallestLoadFirstPlacement::Step> steps;
  const Layout layout = SmallestLoadFirstPlacement().place_traced(
      plan, popularity, n, capacity, &steps);
  Table trace({"round", "video", "weight", "server", "server_load_after"});
  trace.set_precision(5);
  for (const auto& step : steps) {
    trace.add_row({count(step.round + 1), count(step.video + 1), step.weight,
                   count(step.server + 1), step.server_load_after});
  }
  const auto loads = layout.expected_loads(popularity, n);
  Table load_table({"server", "expected_load"});
  load_table.set_precision(5);
  for (std::size_t s = 0; s < n; ++s) {
    load_table.add_row({count(s + 1), loads[s]});
  }
  return {{str("round trace: M=", m, " videos, N=", n, " servers, ", budget,
               " replicas, capacity ", capacity, " per server"),
           std::move(trace)},
          {str("final expected loads: load spread = ", load_spread(loads),
               " (Theorem 4.2 bound: ",
               plan.max_weight(popularity) - plan.min_weight(popularity),
               "), L (Eq. 2) = ", imbalance_max_relative(loads)),
           std::move(load_table)}};
}

std::vector<Section> fig4(Grid grid, ThreadPool& pool) {
  const PaperGrid g = paper_grid(grid);
  const AlgorithmCombo best{"zipf", "slf"};
  const AlgorithmCombo baseline{"classification", "round-robin"};
  std::vector<Section> out;
  for (const auto& [tag, combo, theta] :
       {std::tuple{"(a)", best, 0.75}, std::tuple{"(b)", baseline, 0.75},
        std::tuple{"(c)", best, 0.25}, std::tuple{"(d)", baseline, 0.25}}) {
    out.push_back({str(tag, " ", combo.label(), ", theta = ", theta),
                   degree_panel(g, combo, theta, "reject%_",
                                &CellStats::rejection_rate, 1.2, pool)});
  }
  return out;
}

std::vector<Section> fig5(Grid grid, ThreadPool& pool) {
  const PaperGrid g = paper_grid(grid);
  std::vector<Section> out;
  for (const auto& [tag, degree, theta] :
       {std::tuple{"(a)", 1.2, 0.75}, std::tuple{"(b)", 1.4, 0.75},
        std::tuple{"(c)", 1.2, 0.25}, std::tuple{"(d)", 1.4, 0.25}}) {
    out.push_back({str(tag, " replication degree ", degree, ", theta = ",
                       theta),
                   combo_panel(g, theta, degree, "reject%_",
                               &CellStats::rejection_rate, pool)});
  }
  return out;
}

/// Figure 6's L is the time-averaged (max_j l_j - l_bar) / B: normalized by
/// the link capacity B, the only normalization that yields the paper's
/// rise-peak-fall curve (EXPERIMENTS.md E6; the Eq. 2/3 variants are E11).
std::vector<Section> fig6(Grid grid, ThreadPool& pool) {
  const PaperGrid g = paper_grid(grid);
  const double theta = 1.0;
  std::vector<Section> out;
  for (const auto& [tag, degree] :
       {std::pair{"(a)", 1.2}, std::pair{"(b)", 1.4}}) {
    out.push_back({str(tag, " replication degree ", degree, ", theta = ",
                       theta),
                   combo_panel(g, theta, degree, "L%_",
                               &CellStats::mean_imbalance_capacity, pool)});
  }
  out.push_back({str("zipf+slf degree sweep to 1.5x saturation, theta = ",
                     theta),
                 degree_panel(g, {"zipf", "slf"}, theta, "L%_",
                              &CellStats::mean_imbalance_capacity, 1.5,
                              pool)});
  return out;
}

double mean_rate_mbps(const ScalableSolution& s, const BitrateLadder& ladder) {
  OnlineStats stats;
  for (double rate : s.bitrates(ladder)) stats.add(units::to_mbps(rate));
  return stats.mean();
}

double degree_of(const ScalableSolution& s) {
  OnlineStats stats;
  for (const auto& servers : s.placement) {
    stats.add(static_cast<double>(servers.size()));
  }
  return stats.mean();
}

std::vector<Section> sa_scalable(Grid grid, ThreadPool& pool) {
  const bool quick = grid == Grid::kQuick;
  const std::size_t n = 8;
  const double lambda_per_min = 30.0;
  ScalableProblem problem;
  problem.videos.duration_sec = units::minutes(90);
  problem.videos.popularity = zipf_popularity(quick ? 40 : 100, 0.75);
  problem.cluster.num_servers = n;
  problem.cluster.bandwidth_bps_per_server = units::gbps(1.8);
  problem.ladder.rates_bps = {units::mbps(1), units::mbps(2), units::mbps(3),
                              units::mbps(4), units::mbps(6), units::mbps(8)};
  problem.expected_peak_requests = lambda_per_min * 90.0;
  problem.weights.alpha = 1.0;
  problem.weights.beta = 1.0;

  SaSolverOptions options;
  options.anneal.moves_per_temperature = quick ? 60 : 400;
  options.anneal.final_temperature = 1e-3;
  options.anneal.stall_steps = quick ? 15 : 60;
  options.chains = quick ? 2 : 4;
  const std::uint64_t seed = 2002;

  // Fixed-rate reference: everything at 4 Mb/s, optimal replication at the
  // largest storage point.
  FixedRateProblem fixed;
  fixed.videos = problem.videos;
  fixed.cluster = problem.cluster;
  fixed.cluster.storage_bytes_per_server = units::gigabytes(240);
  fixed.bitrate_bps = units::mbps(4);
  const ReplicationPlan reference = AdamsReplication().replicate(
      fixed.videos.popularity, n,
      std::min(fixed.total_replica_capacity(), fixed.videos.count() * n));

  Table table({"storage_GB_per_server", "objective_initial",
               "objective_greedy", "objective_sa_paper_nbhd", "objective_sa",
               "mean_rate_Mbps", "mean_degree", "L_eq2%", "feasible"});
  table.set_precision(3);
  for (double storage_gb : {30.0, 60.0, 120.0, 240.0}) {
    problem.cluster.storage_bytes_per_server = units::gigabytes(storage_gb);
    // The paper's neighborhood verbatim (growth + repair only) stalls on the
    // storage-full plateau; shrink moves let the annealer re-pack storage.
    SaSolverOptions paper_options = options;
    paper_options.shrink_probability = 0.0;
    const SaSolverResult paper_result =
        solve_scalable(problem, seed, paper_options, &pool);
    const SaSolverResult result = solve_scalable(problem, seed, options, &pool);
    const ServerUsage usage = compute_usage(problem, result.solution);
    table.add_row(
        {storage_gb,
         solution_objective(problem, lowest_rate_round_robin(problem)),
         solution_objective(problem, greedy_scalable(problem)),
         paper_result.objective, result.objective,
         mean_rate_mbps(result.solution, problem.ladder),
         degree_of(result.solution),
         100.0 * imbalance_max_relative(usage.bandwidth_bps),
         std::string(result.feasible ? "yes" : "no")});
  }
  return {{str("M=", problem.videos.count(), " videos, N=", n,
               " servers, lambda=", lambda_per_min,
               " req/min, ladder {1,2,3,4,6,8} Mb/s; fixed-rate (4 Mb/s) "
               "Adams+SLF reference at 240 GB: degree ",
               reference.degree(), ", mean rate 4.000 Mb/s"),
           std::move(table)}};
}

std::vector<Section> bound_check(Grid /*grid*/, ThreadPool& /*pool*/) {
  const auto replication = make_replication_policy("zipf");
  const auto placement = make_placement_policy("slf");
  std::vector<Section> out;
  for (double theta : {0.25, 0.75, 1.0}) {
    PaperScenario scenario;
    scenario.theta = theta;
    Table table({"degree", "total_replicas", "max_weight", "spread",
                 "bound_maxw_minus_minw", "expected_L%_eq2"});
    table.set_precision(5);
    for (double degree : kDegrees) {
      scenario.replication_degree = degree;
      const ProvisioningResult result =
          provision(scenario.problem(), *replication, *placement,
                    scenario.replica_budget());
      table.add_row({degree, count(result.plan.total_replicas()),
                     result.max_weight, load_spread(result.expected_loads),
                     result.spread_bound,
                     100.0 * imbalance_max_relative(result.expected_loads)});
    }
    out.push_back({str("theta = ", theta), std::move(table)});
  }
  return out;
}

std::vector<Section> redirect(Grid grid, ThreadPool& pool) {
  const PaperGrid g = paper_grid(grid);
  PaperScenario scenario;
  scenario.num_videos = g.videos;
  const Layout layout = provision_layout(scenario, {"zipf", "slf"});
  std::vector<SimConfig> configs(3, scenario.sim_config());
  configs[1].redirect = RedirectMode::kOtherHolders;
  configs[2].redirect = RedirectMode::kBackboneProxy;
  // Backbone sized at one server's outgoing link: the proxied detour shares
  // the cluster interconnect, it is not free capacity.
  configs[2].backbone_bps = units::gbps(scenario.server_bandwidth_gbps);
  std::vector<Column> columns = one_per_replay(
      {"reject%_static_rr", "reject%_other_holders", "reject%_backbone_proxy"});
  columns.push_back({"redirected_share%", 2, &CellStats::redirected_fraction});
  return {{str("zipf+slf, theta=", scenario.theta, ", degree=",
               scenario.replication_degree),
           sweep("arrival_rate_per_min",
                 arrival_rate_sweep(scenario, g.points), columns,
                 [&](double rate, std::size_t c) {
                   return run_cell(layout, configs[c],
                                   scenario.trace_spec(rate), g.runner, &pool);
                 })}};
}

std::vector<Section> imbalance_defn(Grid grid, ThreadPool& pool) {
  const bool quick = grid == Grid::kQuick;
  PaperScenario scenario;
  scenario.theta = 1.0;
  scenario.num_videos = quick ? 100 : 300;
  RunnerOptions runner;
  runner.runs = quick ? 5 : 20;
  const std::vector<Column> columns = {
      {"L_eq2%", 0, &CellStats::mean_imbalance_eq2},
      {"L_eq3_cv%", 0, &CellStats::mean_imbalance_cv},
      {"L_capacity%", 0, &CellStats::mean_imbalance_capacity},
      {"peak_L_eq2%", 0, &CellStats::peak_imbalance_eq2}};
  std::vector<Section> out;
  for (const AlgorithmCombo& combo : paper_combos()) {
    const Layout layout = provision_layout(scenario, combo);
    out.push_back(
        {str(combo.label(), ", theta=", scenario.theta, ", degree=",
             scenario.replication_degree),
         sweep("arrival_rate_per_min",
               arrival_rate_sweep(scenario, quick ? 4 : 8), columns,
               [&](double rate, std::size_t) {
                 return run_cell(layout, scenario.sim_config(),
                                 scenario.trace_spec(rate), runner, &pool);
               })});
  }
  return out;
}

std::vector<Section> striping(Grid grid, ThreadPool& pool) {
  const bool quick = grid == Grid::kQuick;
  PaperScenario scenario;
  scenario.num_videos = quick ? 100 : 300;
  const RunnerOptions runner{quick ? 5u : 20u, 0x57121280};
  const std::size_t m = scenario.num_videos, n = scenario.num_servers;
  const Layout replica_layout = provision_layout(scenario, {"zipf", "slf"});
  // Two replicated 4-wide stripe groups per video cost 2x storage, the same
  // as degree-2 replication.
  const HybridLayout organizations[] = {
      make_striped_layout(m, n, n), make_striped_layout(m, n, 4),
      make_striped_layout(m, n, 2), make_hybrid_layout(m, n, 4, 2)};
  const std::vector<double> rates =
      arrival_rate_sweep(scenario, quick ? 5 : 8, 0.2, 1.1);

  std::vector<Section> out;
  for (const bool crash : {false, true}) {
    SimConfig config = scenario.sim_config();
    if (crash) config.failures = {ServerFailure{units::minutes(45), 0}};
    // All five organizations replay through the same simulate(); only the
    // StoragePolicy differs.
    std::vector<Replay> replays;
    for (const HybridLayout& organization : organizations) {
      replays.emplace_back([&organization, config](const RequestTrace& t) {
        return simulate(HybridPolicy(organization, config), t);
      });
    }
    replays.emplace_back([&replica_layout, config](const RequestTrace& t) {
      return simulate(ReplicatedPolicy(replica_layout, config), t);
    });
    std::vector<Column> columns = one_per_replay(
        {"reject%_stripe_k8", "reject%_stripe_k4", "reject%_stripe_k2",
         "reject%_hybrid_k4r2", "reject%_replication"});
    if (crash) {
      columns.insert(columns.end(),
                     {{"disrupt%_stripe_k8", 0, &CellStats::disrupted_fraction},
                      {"disrupt%_hybrid_k4r2", 3,
                       &CellStats::disrupted_fraction},
                      {"disrupt%_replication", 4,
                       &CellStats::disrupted_fraction}});
    }
    out.push_back(
        {crash ? "one server crashes at minute 45"
               : str("fault-free peak (striping pools bandwidth perfectly); "
                     "M=", m, ", N=", n, ", theta=", scenario.theta,
                     "; replication degree ", scenario.replication_degree,
                     " (storage cost ", scenario.replication_degree,
                     "x vs 1x for striping)"),
         sweep("arrival_rate_per_min", rates, columns,
               [&](double rate, std::size_t r) {
                 return run_cell(replays[r], scenario.trace_spec(rate),
                                 runner, &pool);
               })});
  }

  Table avail({"survival_p", "stripe_k2", "stripe_k4", "stripe_k8",
               "replicas_1", "replicas_2", "replicas_3", "hybrid_k4_r2"});
  avail.set_precision(4);
  for (double p : {0.90, 0.95, 0.99, 0.999}) {
    avail.add_row({p, striped_video_availability(p, 2),
                   striped_video_availability(p, 4),
                   striped_video_availability(p, 8),
                   replicated_video_availability(p, 1),
                   replicated_video_availability(p, 2),
                   replicated_video_availability(p, 3),
                   hybrid_video_availability(p, 4, 2)});
  }
  out.push_back({"closed-form per-video availability, independent server "
                 "survival p",
                 std::move(avail)});
  return out;
}

std::vector<Section> online_adaptation(Grid grid, ThreadPool& /*pool*/) {
  const bool quick = grid == Grid::kQuick;
  const double lambda_per_min = 38.0;
  const std::uint64_t seed = 20020407;
  AdaptationStudyConfig config;
  config.num_videos = quick ? 100 : 300;
  config.epochs = quick ? 6 : 14;
  config.arrival_rate_per_sec = lambda_per_min / 60.0;
  const DriftSpec gradual{DriftKind::kRankSwap, 0.05};
  config.drift = gradual;
  Table gradual_table = run_adaptation_study(config, seed);
  config.drift = DriftSpec{DriftKind::kHotSwap, 2.0};
  Table abrupt_table = run_adaptation_study(config, seed ^ 0xD1F7);
  config.drift = gradual;
  config.incremental_placement = false;
  Table scratch_table = run_adaptation_study(config, seed);
  return {{str("gradual drift: 5% of the catalogue swaps rank every day; M=",
               config.num_videos, ", degree ", config.replication_degree,
               ", lambda ", lambda_per_min, " req/min, ", config.epochs,
               " daily epochs"),
           std::move(gradual_table)},
          {"abrupt drift: two chart-topping releases every day",
           std::move(abrupt_table)},
          {"gradual drift with from-scratch SLF re-placement instead of "
           "migration-aware incremental placement (compare migrated_GB)",
           std::move(scratch_table)}};
}

std::vector<Section> batching(Grid grid, ThreadPool& pool) {
  const bool quick = grid == Grid::kQuick;
  PaperScenario scenario;
  scenario.num_videos = quick ? 100 : 300;
  RunnerOptions runner;
  runner.runs = quick ? 5 : 20;
  const double windows_min[] = {0.0, 0.5, 2.0, 5.0, 10.0};
  std::vector<std::string> labels;
  for (double w : windows_min) labels.push_back(str("reject%_W=", w, "min"));
  std::vector<Column> columns = one_per_replay(labels);
  columns.push_back({str("batched%_W=", windows_min[4], "min"), 4,
                     &CellStats::batched_fraction});

  std::vector<Section> out;
  for (double theta : {0.75, 0.25}) {
    scenario.theta = theta;
    const Layout layout = provision_layout(scenario, {"zipf", "slf"});
    for (const BatchingMode mode :
         {BatchingMode::kPiggyback, BatchingMode::kPatching}) {
      std::vector<SimConfig> configs;
      for (double w : windows_min) {
        configs.push_back(scenario.sim_config());
        configs.back().batching_window_sec = w * 60.0;
        configs.back().batching_mode = mode;
      }
      out.push_back(
          {str("theta = ", theta, ", ",
               mode == BatchingMode::kPiggyback
                   ? "piggyback (free joins, upper bound)"
                   : "patching (joins pay the missed prefix)"),
           sweep("arrival_rate_per_min",
                 arrival_rate_sweep(scenario, quick ? 4 : 6, 0.5, 1.5),
                 columns, [&](double rate, std::size_t w) {
                   return run_cell(layout, configs[w],
                                   scenario.trace_spec(rate), runner, &pool);
                 })});
    }
  }
  return out;
}

std::vector<Section> hetero_cluster(Grid grid, ThreadPool& pool) {
  const bool quick = grid == Grid::kQuick;
  const std::size_t m = quick ? 100 : 300, points = quick ? 5 : 8;
  const RunnerOptions runner{quick ? 5u : 20u, 0x4E7E20};
  const double theta = 0.75, degree = 1.4;
  // Two tiers: 4 servers at 2.4 Gb/s, 4 at 1.2 Gb/s, the same 14.4 Gb/s
  // aggregate as the paper's homogeneous cluster, with a 2:1 storage split.
  const auto budget = static_cast<std::size_t>(degree * static_cast<double>(m));
  const double replica_bytes =
      units::video_bytes(units::minutes(90), units::mbps(4));
  const std::size_t small_slots = (budget + 11) / 12;
  const HeteroClusterSpec cluster = make_two_tier_cluster(
      4, units::gbps(2.4),
      static_cast<double>(small_slots * 2) * replica_bytes, 4,
      units::gbps(1.2), static_cast<double>(small_slots) * replica_bytes);

  PaperScenario scenario;
  scenario.num_videos = m;
  scenario.theta = theta;
  const auto popularity = zipf_popularity(m, theta);
  const ReplicationPlan plan =
      make_replication_policy("zipf")->replicate(popularity, 8, budget);
  const std::vector<std::size_t> slots =
      cluster.replica_slots(units::minutes(90), units::mbps(4));
  // The blind baseline runs the same greedy placement as if all links were
  // equal (still respecting the true per-server storage), isolating the
  // value of bandwidth awareness.
  const Layout layouts[] = {
      weighted_greedy_place(plan, popularity,
                            std::vector<double>(8, units::gbps(1.8)), slots),
      weighted_greedy_place(plan, popularity, cluster.bandwidth_bps, slots)};
  SimConfig config = scenario.sim_config();
  config.per_server_bandwidth_bps = cluster.bandwidth_bps;

  const double saturation =
      cluster.total_bandwidth_bps() / units::mbps(4) / 90.0;
  std::vector<double> rates;
  for (std::size_t k = 0; k < points; ++k) {
    rates.push_back(saturation * (0.3 + 0.8 * static_cast<double>(k) /
                                            static_cast<double>(points - 1)));
  }
  return {{str("4x2.4 Gb/s + 4x1.2 Gb/s (saturation ", saturation,
               " req/min); M=", m, ", theta=", theta, ", degree=", degree),
           sweep("arrival_rate_per_min", rates,
                 {{"reject%_blind_slf", 0},
                  {"reject%_weighted_slf", 1},
                  {"L_util%_blind", 0, &CellStats::mean_imbalance_eq2},
                  {"L_util%_weighted", 1, &CellStats::mean_imbalance_eq2}},
                 [&](double rate, std::size_t c) {
                   return run_cell(layouts[c], config,
                                   scenario.trace_spec(rate), runner, &pool);
                 })}};
}

std::vector<Section> abandonment(Grid grid, ThreadPool& pool) {
  const bool quick = grid == Grid::kQuick;
  PaperScenario scenario;
  scenario.num_videos = quick ? 100 : 300;
  RunnerOptions runner;
  runner.runs = quick ? 5 : 20;
  const double rate = 44.0;
  const Layout best = provision_layout(scenario, {"zipf", "slf"});
  const Layout baseline =
      provision_layout(scenario, {"classification", "round-robin"});
  Table table({"completion_prob", "reject%_zipf+slf",
               "reject%_classification+rr", "ranking_holds"});
  table.set_precision(2);
  for (double completion : {1.0, 0.9, 0.75, 0.5, 0.25}) {
    TraceSpec spec = scenario.trace_spec(rate);
    spec.abandonment.completion_probability = completion;
    const CellStats a =
        run_cell(best, scenario.sim_config(), spec, runner, &pool);
    const CellStats b =
        run_cell(baseline, scenario.sim_config(), spec, runner, &pool);
    table.add_row({completion, percent(a.rejection_rate),
                   percent(b.rejection_rate), ranking_holds(a, b)});
  }
  return {{str("lambda = ", rate, " req/min (above nominal saturation); "
               "abandoners quit uniformly in [5%, 100%) of the video"),
           std::move(table)}};
}

/// Erlang-B, the steady-state loss of an M/G/c/c system, against the
/// simulated peak, which starts empty and lasts one holding time (every
/// arrival comes before every departure), so the formula bounds the
/// simulation from one side only: the pooled formula is ideal wide
/// striping, the balanced split (N systems fed lambda/N) is perfectly
/// balanced replication.
std::vector<Section> erlang_validation(Grid grid, ThreadPool& pool) {
  const bool quick = grid == Grid::kQuick;
  PaperScenario scenario;
  scenario.num_videos = quick ? 100 : 300;
  scenario.replication_degree = 1.4;
  RunnerOptions runner;
  runner.runs = quick ? 8 : 30;
  const std::size_t n = scenario.num_servers;
  const std::size_t channels_per_server = 450;  // 1.8 Gb/s / 4 Mb/s
  const double holding_min = scenario.duration_minutes;
  const Layout replica_layout = provision_layout(scenario, {"zipf", "slf"});
  const HybridLayout wide = make_striped_layout(scenario.num_videos, n, n);
  const SimConfig config = scenario.sim_config();

  Table table({"arrival_rate_per_min", "offered_erlangs", "ErlangB_pooled%",
               "sim_wide_striping%", "ErlangB_split%", "sim_zipf_slf%"});
  table.set_precision(3);
  for (double rate : {36.0, 38.0, 40.0, 42.0, 44.0, 48.0}) {
    const double erlangs = rate * holding_min;  // lambda * T
    const CellStats striped = run_cell(
        [&](const RequestTrace& t) {
          return simulate(HybridPolicy(wide, config), t);
        },
        scenario.trace_spec(rate), runner, &pool);
    const CellStats replicated = run_cell(
        replica_layout, config, scenario.trace_spec(rate), runner, &pool);
    table.add_row(
        {rate, erlangs,
         100.0 * erlang_b(erlangs, n * channels_per_server),
         percent(striped.rejection_rate),
         100.0 * balanced_split_blocking(erlangs, n, channels_per_server),
         percent(replicated.rejection_rate)});
  }
  return {{str("pooled system: ", n * channels_per_server,
               " channels; per-server: ", channels_per_server,
               " channels; holding time ", holding_min, " min"),
           std::move(table)}};
}

std::vector<Section> disk_bottleneck(Grid /*grid*/, ThreadPool& /*pool*/) {
  const double network = units::gbps(1.8);
  const double bitrate = units::mbps(4.0);
  const std::pair<const char*, DiskSpec> generations[] = {
      {"2002 SCSI (40 MB/s)", DiskSpec{0.005, 0.00417, 320e6}},
      {"2002 IDE (25 MB/s)", DiskSpec{0.009, 0.00556, 200e6}},
      {"fast array (80 MB/s)", DiskSpec{0.0035, 0.003, 640e6}},
  };
  std::vector<Section> out;
  for (const auto& [name, spec] : generations) {
    Table table({"disks_per_server", "disk_streams", "memory_streams",
                 "sustainable", "bottleneck"});
    for (std::size_t disks : {2u, 4u, 8u, 12u, 16u, 24u}) {
      StorageSubsystem subsystem;
      subsystem.disk = spec;
      subsystem.num_disks = disks;
      const ServerCapacityBreakdown capacity =
          server_capacity(subsystem, network, bitrate);
      table.add_row({count(disks), count(capacity.disk_streams),
                     count(capacity.memory_streams),
                     count(capacity.sustainable()),
                     std::string(capacity.bottleneck())});
    }
    out.push_back({out.empty()
                       ? str(name, "; the network link sustains ",
                             static_cast<std::size_t>(network / bitrate),
                             " streams at ", units::to_mbps(bitrate), " Mb/s")
                       : std::string(name),
                   std::move(table)});
  }
  Table tuning({"memory_GB", "best_round_sec", "disk_streams_at_best",
                "memory_streams_at_best"});
  tuning.set_precision(2);
  for (double memory_gb : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    StorageSubsystem subsystem;
    subsystem.num_disks = 12;
    subsystem.memory_bytes = units::gigabytes(memory_gb);
    const double best = best_round_length(subsystem, bitrate);
    subsystem.round_sec = best;
    tuning.add_row({memory_gb, best,
                    count(max_streams_disk(subsystem, bitrate)),
                    count(max_streams_memory(subsystem, bitrate))});
  }
  out.push_back({"service-round tuning (2002 SCSI, 12 disks): longer rounds "
                 "amortize seeks until buffers bind",
                 std::move(tuning)});
  return out;
}

/// The headline comparison re-run while one scenario parameter varies,
/// with the arrival rate at each configuration's own saturation point.
std::vector<Section> sensitivity(Grid grid, ThreadPool& pool) {
  const bool quick = grid == Grid::kQuick;
  const double load_fraction = 1.0;
  RunnerOptions runner;
  runner.runs = quick ? 5 : 20;
  PaperScenario base;
  if (quick) base.num_videos = 100;
  std::vector<std::pair<std::string, PaperScenario>> rows{
      {"baseline (paper setting)", base}};
  auto vary = [&](const char* label, auto&& change) {
    PaperScenario scenario = base;
    change(scenario);
    rows.emplace_back(label, scenario);
  };
  vary("videos M = 150", [&](auto& s) { s.num_videos = quick ? 60 : 150; });
  vary("videos M = 600", [&](auto& s) { s.num_videos = quick ? 150 : 600; });
  vary("duration 60 min", [](auto& s) { s.duration_minutes = 60.0; });
  vary("duration 120 min", [](auto& s) { s.duration_minutes = 120.0; });
  vary("servers N = 4", [](auto& s) { s.num_servers = 4; });
  vary("servers N = 16", [](auto& s) { s.num_servers = 16; });
  vary("bandwidth 0.9 Gb/s", [](auto& s) { s.server_bandwidth_gbps = 0.9; });
  vary("bandwidth 3.6 Gb/s", [](auto& s) { s.server_bandwidth_gbps = 3.6; });
  vary("bit rate 2 Mb/s", [](auto& s) { s.bitrate_mbps = 2.0; });
  vary("bit rate 8 Mb/s", [](auto& s) { s.bitrate_mbps = 8.0; });

  Table table({"configuration", "saturation_req_min", "reject%_zipf+slf",
               "reject%_class+rr", "ranking_holds"});
  table.set_precision(2);
  for (const auto& [label, scenario] : rows) {
    const double rate = load_fraction * scenario.saturation_rate_per_min();
    const CellStats a =
        run_cell(provision_layout(scenario, {"zipf", "slf"}),
                 scenario.sim_config(), scenario.trace_spec(rate), runner,
                 &pool);
    const CellStats b =
        run_cell(provision_layout(scenario, {"classification", "round-robin"}),
                 scenario.sim_config(), scenario.trace_spec(rate), runner,
                 &pool);
    table.add_row({label, scenario.saturation_rate_per_min(),
                   percent(a.rejection_rate), percent(b.rejection_rate),
                   ranking_holds(a, b)});
  }
  return {{str("at ", 100.0 * load_fraction,
               "% of each configuration's saturation rate (degree ",
               base.replication_degree, ", theta ", base.theta, ")"),
           std::move(table)}};
}

/// Two classes, each owning half the id space with a Zipf(theta) inside it,
/// over six hours in 30-minute segments with 90-minute peaks: aligned on
/// segments [4, 7), or staggered to [2, 5) and [7, 10).
MulticlassSpec two_class_spec(std::size_t videos, double theta,
                              double peak_rate, bool staggered) {
  const std::size_t segments = 12;
  const double base_rate = units::per_minute(2.0);
  const auto zipf = zipf_popularity(videos / 2, theta);
  MulticlassSpec spec;
  spec.segment_sec = units::minutes(30);
  for (std::size_t c = 0; c < 2; ++c) {
    ClassProfile profile;
    profile.popularity_by_id.assign(videos, 0.0);
    std::copy(zipf.begin(), zipf.end(),
              profile.popularity_by_id.begin() +
                  static_cast<std::ptrdiff_t>(c * (videos / 2)));
    const std::size_t first = staggered ? 2 + 5 * c : 4;
    profile.rate_per_segment = single_peak_profile(
        segments, first, first + 3, base_rate, peak_rate);
    spec.classes.push_back(std::move(profile));
  }
  return spec;
}

std::vector<Section> staggered_peaks(Grid grid, ThreadPool& pool) {
  const bool quick = grid == Grid::kQuick;
  const std::size_t videos = quick ? 100 : 300;
  const RunnerOptions runner{quick ? 5u : 20u, 0x5746};
  const double theta = 0.75;
  // Provisioned the paper's way: one shot at the combined popularity (both
  // classes equally likely overall), in id space because the trace
  // addresses videos by id.
  PaperScenario scenario;
  scenario.num_videos = videos;
  std::vector<double> combined(videos, 0.0);
  const auto zipf = zipf_popularity(videos / 2, theta);
  for (std::size_t i = 0; i < videos / 2; ++i) {
    combined[i] = 0.5 * zipf[i];
    combined[videos / 2 + i] = 0.5 * zipf[i];
  }
  const std::size_t budget = scenario.replica_budget();
  const Layout layout =
      provision_by_id(combined, *make_replication_policy("zipf"),
                      *make_placement_policy("slf"), scenario.num_servers,
                      budget,
                      (budget + scenario.num_servers - 1) /
                          scenario.num_servers)
          .layout;
  const SimConfig config = scenario.sim_config();
  const Replay replay = [&](const RequestTrace& trace) {
    return simulate(ReplicatedPolicy(layout, config), trace);
  };
  return {{str("two classes x ", videos / 2,
               " videos; 6-hour evening; 90-minute class peaks; degree ",
               scenario.replication_degree),
           sweep("per_class_peak_req_min", {12.0, 16.0, 20.0, 24.0, 28.0, 32.0},
                 {{"aligned_reject%", 0}, {"staggered_reject%", 1}},
                 [&](double peak, std::size_t staggered) {
                   const MulticlassSpec spec = two_class_spec(
                       videos, theta, units::per_minute(peak), staggered != 0);
                   // The staggered trace draws from a child stream of the
                   // run's generator.
                   return run_cell(
                       replay,
                       [&](Rng& rng) {
                         Rng stream = staggered != 0 ? rng.split(1) : rng;
                         return generate_multiclass_trace(stream, spec);
                       },
                       runner, &pool);
                 })}};
}

/// Equal storage two ways: whole replicas at degree d, or a degree-1
/// origin whose replica surplus becomes an edge prefix cache, byte for byte.
std::vector<Section> prefix_cache(Grid grid, ThreadPool& pool) {
  const bool quick = grid == Grid::kQuick;
  PaperScenario scenario;
  scenario.num_videos = quick ? 100 : 300;
  RunnerOptions runner;
  runner.runs = quick ? 2 : 5;
  const double prefix_fraction = 0.25;
  const std::size_t m = scenario.num_videos, n = scenario.num_servers;
  const std::size_t budget = scenario.replica_budget();
  const Layout full_layout = provision_layout(scenario, {"zipf", "slf"});
  const Layout origin_layout =
      provision(scenario.problem(), *make_replication_policy("uniform"),
                *make_placement_policy("slf"), m)
          .layout;
  for (const auto& [layout, replicas] :
       {std::pair{&full_layout, budget}, std::pair{&origin_layout, m}}) {
    LayoutAuditor::Limits limits;
    limits.num_servers = n;
    limits.capacity_per_server = (replicas + n - 1) / n;
    const ReplicationPlan plan = layout->implied_plan();
    const AuditReport report = LayoutAuditor(limits).audit(*layout, &plan);
    require(report.ok(), [&] {
      return "prefix-cache experiment: layout failed audit: " +
             report.summary();
    });
  }
  const double cache_bytes =
      static_cast<double>(budget - m) *
      units::video_bytes(units::minutes(scenario.duration_minutes),
                         units::mbps(scenario.bitrate_mbps));
  const SimConfig config = scenario.sim_config();
  PrefixCacheOptions tiers[2];
  for (PrefixCacheOptions& tier : tiers) {
    tier.capacity_bytes = cache_bytes;
    tier.uniform_prefix_fraction = prefix_fraction;
  }
  tiers[0].eviction = CacheEvictionPolicy::kLru;
  tiers[1].eviction = CacheEvictionPolicy::kLfu;
  // Every run's rejected_by_reason must sum to its rejected count; the
  // cache path adds the cache_miss_origin_busy reason.
  auto reconciled = [](SimResult result) {
    std::size_t sum = 0;
    for (std::size_t c : result.rejected_by_reason) sum += c;
    require(sum == result.rejected,
            "prefix-cache experiment: rejected_by_reason does not sum to "
            "rejected");
    return result;
  };
  const Replay replays[] = {
      [&](const RequestTrace& t) {
        return reconciled(simulate(ReplicatedPolicy(full_layout, config), t));
      },
      [&](const RequestTrace& t) {
        return reconciled(
            simulate(ReplicatedPolicy(origin_layout, config, tiers[0]), t));
      },
      [&](const RequestTrace& t) {
        return reconciled(
            simulate(ReplicatedPolicy(origin_layout, config, tiers[1]), t));
      }};
  return {{str("theta = ", scenario.theta, ", degree ",
               scenario.replication_degree,
               " full-replica vs degree-1 origin + ",
               units::to_gigabytes(cache_bytes),
               " GB edge prefix cache (fraction ", prefix_fraction, ")"),
           sweep("arrival_rate_per_min",
                 arrival_rate_sweep(scenario, quick ? 3 : 5, 0.6, 1.2),
                 {{"reject%_full", 0},
                  {"reject%_lru", 1},
                  {"reject%_lfu", 2},
                  {"hit%_lru", 1, &CellStats::cache_hit_ratio},
                  {"hit%_lfu", 2, &CellStats::cache_hit_ratio}},
                 [&](double rate, std::size_t r) {
                   return run_cell(replays[r], scenario.trace_spec(rate),
                                   runner, &pool);
                 })}};
}

}  // namespace

std::vector<AlgorithmCombo> paper_combos() {
  return {
      AlgorithmCombo{"zipf", "slf"},
      AlgorithmCombo{"zipf", "round-robin"},
      AlgorithmCombo{"classification", "slf"},
      AlgorithmCombo{"classification", "round-robin"},
  };
}

const std::vector<Experiment>& experiments() {
  static const std::vector<Experiment> catalogue = {
      {"E1", "Figure 1: bounded Adams monotone divisor replication", fig1},
      {"E2", "Figure 2: Zipf-like-distribution-based replication", fig2},
      {"E3", "Figure 3: smallest-load-first placement", fig3},
      {"E4", "Figure 4: rejection rate (%) per replication degree vs arrival "
             "rate (req/min)",
       fig4},
      {"E5", "Figure 5: rejection rate (%) per replication+placement "
             "combination vs arrival rate (req/min)",
       fig5},
      {"E6", "Figure 6: load-imbalance degree L (%) = time-averaged "
             "(max_j l_j - l_bar) / B vs arrival rate (req/min)",
       fig6},
      {"E7", "Section 4.3: simulated annealing for scalable bit rates",
       sa_scalable},
      {"E8", "Theorems 4.2/4.3: SLF spread <= max w - min w on every row; "
             "max w non-increasing in degree; the bound itself may rise up "
             "to 3% between adjacent degrees",
       bound_check},
      {"E10", "Section 6: static round-robin dispatch vs backbone redirection",
       redirect},
      {"E11", "Section 3.2: imbalance definition Eq. 2 (max-relative) vs "
              "Eq. 3 (CV)",
       imbalance_defn},
      {"E12", "Striping vs replication on the paper's cluster", striping},
      {"E13", "Section 4.1.2: dynamic re-replication under popularity drift",
       online_adaptation},
      {"E14", "Stream sharing (batching) vs rejection rate", batching},
      {"E15", "Two-tier fleet: bandwidth-weighted vs blind SLF",
       hetero_cluster},
      {"E16", "Viewer abandonment: does the ranking survive?", abandonment},
      {"E17", "Erlang-B validation: theory vs discrete-event simulation",
       erlang_validation},
      {"E18", "Disk vs network bottleneck (round-based admission, R = 1 s, "
              "1 GB buffer pool)",
       disk_bottleneck},
      {"E19", "Section 5.2 sensitivity sweep: does the ranking ever flip?",
       sensitivity},
      {"E20", "Same-peak conservatism: aligned vs staggered class peaks",
       staggered_peaks},
      {"E21", "Full replicas vs an edge prefix cache at equal storage",
       prefix_cache},
  };
  return catalogue;
}

const Experiment* find_experiment(std::string_view id) {
  for (const Experiment& entry : experiments()) {
    if (entry.id == id) return &entry;
  }
  return nullptr;
}

}  // namespace vodrep
