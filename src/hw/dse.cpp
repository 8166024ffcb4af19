#include "hw/dse.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>

#include "common/logging.hpp"
#include "common/strings.hpp"
#include "hw/plan_core.hpp"

namespace condor::hw {
namespace {

constexpr std::string_view kTag = "dse";

using SharedTopology = std::shared_ptr<const nn::Topology>;

/// evaluate_design_point() for a network whose annotations already passed
/// validate_annotations(*topology).
Result<DsePoint> evaluate(HwNetwork network, const SharedTopology& topology,
                          const DseOptions& options) {
  CONDOR_ASSIGN_OR_RETURN(AcceleratorPlan plan,
                          plan_accelerator(std::move(network), topology));
  DsePoint point;
  CONDOR_ASSIGN_OR_RETURN(point.resources,
                          estimate_resources(plan, options.cost));
  if (point.resources.total.max_utilization(plan.board.capacity) >
      options.max_utilization) {
    return unsynthesizable(strings::format(
        "utilization %.1f%% exceeds DSE headroom %.1f%%",
        100.0 * point.resources.total.max_utilization(plan.board.capacity),
        100.0 * options.max_utilization));
  }
  point.achieved_mhz =
      achieved_frequency_mhz(plan, point.resources, options.timing);
  CONDOR_ASSIGN_OR_RETURN(
      point.performance,
      estimate_performance(plan, point.resources, point.achieved_mhz));
  point.config = std::move(plan.source);
  return point;
}

/// Sum of per-PE steady-state service times — the secondary objective that
/// lets the walk cross throughput plateaus (tied bottlenecks, clock steps).
std::uint64_t total_interval(const DsePoint& point) {
  std::uint64_t total = 0;
  for (const PeTiming& pe : point.performance.pes) {
    total += pe.service_cycles();
  }
  return total;
}

/// One clustering's hill climb over the parallelism knobs. An infeasible
/// starting point is reported, not an error — the fusion search skips such
/// clusterings while the caller decides what a dead baseline means.
struct ClimbOutcome {
  bool feasible = false;
  Status start_failure = Status::ok();  ///< set when !feasible
  DsePoint best;
  std::vector<DsePoint> trajectory;
};

/// The tolerant steepest-ascent walk of the file header, with the PE
/// clustering held fixed at `network`'s pe_group annotations, which passed
/// validate_annotations(*topology). Every candidate changes only `hw`, so
/// all of them share the one analyzed topology. Evaluation counters
/// accumulate into `counters` so a multi-clustering exploration reports its
/// true search volume.
Result<ClimbOutcome> climb(const HwNetwork& network,
                           const SharedTopology& topology,
                           const DseOptions& options, DseResult& counters) {
  const auto& shapes = topology->shapes;

  ClimbOutcome outcome;
  auto start = evaluate(network, topology, options);
  ++counters.points_evaluated;
  if (!start.is_ok()) {
    outcome.start_failure = start.status();
    return outcome;
  }
  outcome.feasible = true;
  ++counters.points_feasible;
  outcome.trajectory.push_back(start.value());
  DsePoint current = std::move(start).value();
  DsePoint best = current;

  for (std::size_t move = 0; move < options.max_moves; ++move) {
    CONDOR_ASSIGN_OR_RETURN(AcceleratorPlan plan,
                            plan_accelerator(current.config, topology));

    // Candidate generation: for every PE, double parallel_out / parallel_in
    // (clamped to the layers' map counts), applied to all of its layers.
    struct Move {
      bool is_out;
      std::size_t degree;
    };
    struct Candidate {
      DsePoint point;
      std::size_t pe;
      Move move;
    };
    std::optional<Candidate> winner;

    for (std::size_t p = 0; p < plan.pes.size(); ++p) {
      const PePlan& pe = plan.pes[p];
      std::size_t max_out = 1;
      std::size_t max_in = 1;
      for (const std::size_t index : pe.layer_indices) {
        const nn::LayerSpec& layer = current.config.net.layers()[index];
        if (layer.kind == nn::LayerKind::kConvolution ||
            layer.kind == nn::LayerKind::kPooling) {
          max_out = std::max(max_out, shapes[index].output[0]);
          max_in = std::max(max_in, shapes[index].input[0]);
        } else if (layer.kind == nn::LayerKind::kInnerProduct) {
          max_out = std::max(max_out, shapes[index].output.element_count());
          max_in = std::max(max_in, shapes[index].input.element_count());
        }
      }
      max_out = std::min(max_out, options.max_parallel_degree);
      max_in = std::min(max_in, options.max_parallel_degree);

      const std::size_t layer0 = pe.layer_indices.front();
      const LayerHw& annot = current.config.hw.layers[layer0];
      std::vector<Move> moves;
      if (annot.parallel_out * 2 <= max_out) {
        moves.push_back({true, annot.parallel_out * 2});
      }
      if (options.explore_parallel_in && annot.parallel_in * 2 <= max_in) {
        moves.push_back({false, annot.parallel_in * 2});
      }

      for (const Move& m : moves) {
        HwNetwork candidate_net = current.config;
        for (const std::size_t index : pe.layer_indices) {
          LayerHw& layer_hw = candidate_net.hw.layers[index];
          (m.is_out ? layer_hw.parallel_out : layer_hw.parallel_in) = m.degree;
        }
        if (!candidate_net.validate_annotations(*topology).is_ok()) {
          continue;  // degree exceeds a fused layer's map count
        }
        auto evaluated = evaluate(std::move(candidate_net), topology, options);
        ++counters.points_evaluated;
        if (!evaluated.is_ok()) {
          continue;  // out of resources / past the headroom budget
        }
        ++counters.points_feasible;
        Candidate candidate{std::move(evaluated).value(), p, m};

        // Acceptance test against the CURRENT point: a candidate qualifies
        // by strict throughput gain, or as a plateau-escape move (bounded
        // regression bought with a substantial total-interval shrink).
        const double current_gflops = current.gflops();
        const std::uint64_t current_total = total_interval(current);
        const bool strict_gain =
            candidate.point.gflops() > current_gflops * 1.001;
        const bool plateau_escape =
            candidate.point.gflops() >=
                current_gflops * (1.0 - options.regression_tolerance) &&
            total_interval(candidate.point) <
                static_cast<std::uint64_t>(
                    static_cast<double>(current_total) *
                    (1.0 - options.interval_shrink_required));
        if (!strict_gain && !plateau_escape) {
          continue;
        }

        // Among qualifying candidates, take the best (throughput, then the
        // smaller total interval).
        const bool better_than_winner =
            !winner.has_value() ||
            candidate.point.gflops() > winner->point.gflops() * 1.0001 ||
            (candidate.point.gflops() > winner->point.gflops() * 0.9999 &&
             total_interval(candidate.point) < total_interval(winner->point));
        if (better_than_winner) {
          winner = std::move(candidate);
        }
      }
    }

    if (!winner.has_value()) {
      break;  // no qualifying move left
    }

    CONDOR_LOG_DEBUG(kTag) << "accept " << plan.pes[winner->pe].name << ' '
                           << (winner->move.is_out ? "Pout" : "Pin") << '='
                           << winner->move.degree << " -> "
                           << strings::format("%.2f GFLOPS @ %.0f MHz",
                                              winner->point.gflops(),
                                              winner->point.achieved_mhz);
    current = std::move(winner->point);
    outcome.trajectory.push_back(current);
    if (current.gflops() > best.gflops()) {
      best = current;
    }
  }

  outcome.best = std::move(best);
  return outcome;
}

/// Enumerates fusion clusterings (paper §3.2: several layers
/// time-multiplexed on one PE) as starting points for the climb.
///
/// Units are the base plan's feature PEs; a maximal run of units where each
/// PE's tail layer feeds exactly the next PE's head layer (single producer,
/// single consumer, contiguous layer indices — the planner's own chain
/// conditions) forms a segment. Per segment the fusion degree d groups
/// blocks of d consecutive units under a fresh pe_group; the cross product
/// over segments is walked odometer-style and truncated at
/// options.max_clusterings. The all-ones combo (the base clustering itself)
/// is skipped — the caller climbs it unconditionally.
Result<std::vector<HwNetwork>> enumerate_fusion_clusterings(
    const HwNetwork& base, const SharedTopology& topology,
    const DseOptions& options) {
  std::vector<HwNetwork> clusterings;
  CONDOR_ASSIGN_OR_RETURN(AcceleratorPlan plan,
                          plan_accelerator(base, topology));
  const auto& consumers = topology->consumers;

  std::vector<std::vector<std::size_t>> segments;  // runs of plan PE indices
  std::vector<std::size_t> run;
  const auto flush_run = [&] {
    if (run.size() >= 2) {
      segments.push_back(run);
    }
    run.clear();
  };
  for (std::size_t p = 0; p < plan.pes.size(); ++p) {
    const PePlan& pe = plan.pes[p];
    if (pe.kind != PeKind::kFeature) {
      flush_run();
      continue;
    }
    if (!run.empty()) {
      const PePlan& prev = plan.pes[run.back()];
      const std::size_t tail = prev.layer_indices.back();
      const std::size_t head = pe.layer_indices.front();
      const auto& prods = topology->producers[head];
      const bool chained = head == tail + 1 && prods.size() == 1 &&
                           prods.front() == tail &&
                           consumers[tail].size() == 1;
      if (!chained) {
        flush_run();
      }
    }
    run.push_back(p);
  }
  flush_run();
  if (segments.empty()) {
    return clusterings;
  }

  // Fresh group ids, clear of anything the base annotations already use.
  int next_group = 0;
  for (const LayerHw& layer : base.hw.layers) {
    next_group = std::max(next_group, layer.pe_group + 1);
  }

  const auto degree_limit = [&](std::size_t s) {
    return std::min<std::size_t>(segments[s].size(),
                                 std::max<std::size_t>(options.max_fused, 1));
  };
  std::vector<std::size_t> degrees(segments.size(), 1);
  for (;;) {
    // Advance the odometer; starting from all-ones means the base clustering
    // itself is never emitted.
    std::size_t s = 0;
    while (s < degrees.size()) {
      if (++degrees[s] <= degree_limit(s)) {
        break;
      }
      degrees[s] = 1;
      ++s;
    }
    if (s == degrees.size()) {
      break;  // wrapped: every combo emitted
    }

    HwNetwork candidate = base;
    int group = next_group;
    for (std::size_t seg = 0; seg < segments.size(); ++seg) {
      const std::size_t d = degrees[seg];
      if (d < 2) {
        continue;
      }
      const std::vector<std::size_t>& units = segments[seg];
      for (std::size_t u = 0; u < units.size(); u += d) {
        const std::size_t span = std::min(d, units.size() - u);
        if (span < 2) {
          continue;  // a lone tail unit keeps its dedicated PE
        }
        for (std::size_t m = 0; m < span; ++m) {
          for (const std::size_t index : plan.pes[units[u + m]].layer_indices) {
            candidate.hw.layers[index].pe_group = group;
          }
        }
        ++group;
      }
    }
    if (candidate.validate_annotations(*topology).is_ok()) {
      clusterings.push_back(std::move(candidate));
    }
    if (clusterings.size() >= options.max_clusterings) {
      break;
    }
  }
  return clusterings;
}

}  // namespace

Result<DsePoint> evaluate_design_point(const HwNetwork& network,
                                       const DseOptions& options) {
  CONDOR_ASSIGN_OR_RETURN(nn::Topology topology, network.analyze());
  return evaluate(network,
                  std::make_shared<const nn::Topology>(std::move(topology)),
                  options);
}

Result<DseResult> explore(const HwNetwork& network, const DseOptions& options) {
  CONDOR_ASSIGN_OR_RETURN(nn::Topology analyzed, network.analyze());
  const SharedTopology topology =
      std::make_shared<const nn::Topology>(std::move(analyzed));

  DseResult result;
  // The base clustering climbs unconditionally; its infeasibility is the
  // caller's error (nothing at all fits the board).
  CONDOR_ASSIGN_OR_RETURN(ClimbOutcome base,
                          climb(network, topology, options, result));
  result.clusterings_explored = 1;
  if (!base.feasible) {
    return Status(base.start_failure.code(),
                  "DSE starting point infeasible: " +
                      base.start_failure.message());
  }
  DsePoint best = std::move(base.best);
  std::vector<DsePoint> trajectory = std::move(base.trajectory);

  // Fusion-aware search: every enumerated clustering seeds its own climb —
  // a fused PE frees window memory and compute units the walk can then
  // spend on higher parallel degrees elsewhere. Clusterings whose start is
  // unsynthesizable on this board are skipped, not fatal.
  if (options.max_fused > 1) {
    CONDOR_ASSIGN_OR_RETURN(std::vector<HwNetwork> clusterings,
                            enumerate_fusion_clusterings(network, topology,
                                                         options));
    for (const HwNetwork& clustering : clusterings) {
      CONDOR_ASSIGN_OR_RETURN(ClimbOutcome outcome,
                              climb(clustering, topology, options, result));
      ++result.clusterings_explored;
      if (!outcome.feasible) {
        continue;
      }
      const bool better =
          outcome.best.gflops() > best.gflops() ||
          (outcome.best.gflops() == best.gflops() &&
           total_interval(outcome.best) < total_interval(best));
      if (better) {
        best = std::move(outcome.best);
        trajectory = std::move(outcome.trajectory);
      }
    }
  }

  result.best = std::move(best);
  result.trajectory = std::move(trajectory);
  CONDOR_LOG_INFO(kTag) << "explored " << result.points_evaluated
                        << " points over " << result.clusterings_explored
                        << " clustering(s), best "
                        << strings::format("%.2f GFLOPS @ %.0f MHz",
                                           result.best.gflops(),
                                           result.best.achieved_mhz);
  return result;
}

}  // namespace condor::hw
