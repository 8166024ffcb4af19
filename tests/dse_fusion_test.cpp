// Fusion-aware DSE: PE clustering as a search variable.
//
// With max_fused > 1 the explorer enumerates fusion degrees per feature
// chain segment, seeds a hill climb from every enumerated clustering and
// keeps the best point across clusterings. Fusing time-multiplexes layers
// on one PE but shares a single window memory subsystem and frees DSP/LUT
// the climb can spend on deeper parallelism — so on tight boards the
// searched front must dominate (or at worst match) the fixed clustering.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "hw/accel_plan.hpp"
#include "hw/dse.hpp"
#include "nn/models.hpp"
#include "test_util.hpp"

namespace condor::hw {
namespace {

/// Largest fused chain in a point's plan (1 == nothing fused).
std::size_t max_chain(const DsePoint& point) {
  const auto plan = plan_accelerator(point.config);
  std::size_t chain = 1;
  for (const PePlan& pe : plan.value().pes) {
    chain = std::max(chain, pe.layer_indices.size());
  }
  return chain;
}

TEST(DseFusion, MaxFusedOneKeepsSingleClustering) {
  DseOptions options;
  options.max_fused = 1;
  auto result = explore(
      with_default_annotations(nn::make_lenet().feature_extraction_prefix()),
      options);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().clusterings_explored, 1U);
  EXPECT_EQ(max_chain(result.value().best), 1U);
}

TEST(DseFusion, EnumeratesPerSegmentDegrees) {
  // lenet-features is one chain segment of four feature PEs; max_fused=3
  // enumerates degrees {2, 3} on top of the base clustering.
  DseOptions options;
  options.max_fused = 3;
  auto result = explore(
      with_default_annotations(nn::make_lenet().feature_extraction_prefix()),
      options);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().clusterings_explored, 3U);
  EXPECT_GT(result.value().points_evaluated, 0U);
}

TEST(DseFusion, ClusteringCapBoundsEnumeration) {
  DseOptions options;
  options.max_fused = 4;
  options.max_clusterings = 1;
  auto result = explore(
      with_default_annotations(nn::make_lenet().feature_extraction_prefix()),
      options);
  ASSERT_TRUE(result.is_ok());
  // Base clustering + at most max_clusterings fused candidates.
  EXPECT_LE(result.value().clusterings_explored, 2U);
}

TEST(DseFusion, SearchedFusionNeverLosesToFixedClustering) {
  // The invariant that makes fusion a safe search variable: the fused front
  // contains the unfused front (the base clustering always climbs too), so
  // enabling the search can only improve modeled throughput.
  for (const char* board : {"zc706", "aws-f1"}) {
    DseOptions fixed;
    fixed.max_fused = 1;
    DseOptions fused = fixed;
    fused.max_fused = 3;
    const HwNetwork net = with_default_annotations(
        nn::make_lenet().feature_extraction_prefix(), board, 150.0);
    auto fixed_result = explore(net, fixed);
    auto fused_result = explore(net, fused);
    ASSERT_TRUE(fixed_result.is_ok()) << board;
    ASSERT_TRUE(fused_result.is_ok()) << board;
    EXPECT_GE(fused_result.value().best.gflops(),
              fixed_result.value().best.gflops())
        << board;
  }
}

TEST(DseFusion, TightBoardWinsWithFusion) {
  // On the resource-constrained zc706 the fixed 18-PE VGG-16 feature stage
  // runs out of fabric before the climb saturates (19.4 GFLOPS at a reduced
  // clock); fusing shares window memories and lets the freed area buy
  // deeper parallelism and the full 150 MHz clock (35.9 GFLOPS). The
  // searched design must strictly beat the fixed-clustering front and
  // actually be fused.
  DseOptions fixed;
  fixed.max_fused = 1;
  DseOptions fused = fixed;
  fused.max_fused = 4;
  const HwNetwork net = with_default_annotations(
      nn::make_vgg16().feature_extraction_prefix(), "zc706", 150.0);
  auto fixed_result = explore(net, fixed);
  auto fused_result = explore(net, fused);
  ASSERT_TRUE(fixed_result.is_ok()) << fixed_result.status().to_string();
  ASSERT_TRUE(fused_result.is_ok()) << fused_result.status().to_string();
  EXPECT_GT(fused_result.value().best.gflops(),
            fixed_result.value().best.gflops());
  EXPECT_GT(max_chain(fused_result.value().best), 1U);
}

TEST(DseFusion, FusedWinnerStaysWithinUtilization) {
  DseOptions options;
  options.max_fused = 3;
  const HwNetwork net = with_default_annotations(
      nn::make_lenet().feature_extraction_prefix(), "zc706", 150.0);
  auto result = explore(net, options);
  ASSERT_TRUE(result.is_ok());
  const DsePoint& best = result.value().best;
  const BoardSpec board = find_board(best.config.hw.board_id).value();
  EXPECT_LE(best.resources.lut_percent(board), 100.0 * options.max_utilization);
  EXPECT_LE(best.resources.dsp_percent(board), 100.0 * options.max_utilization);
  EXPECT_LE(best.resources.bram_percent(board),
            100.0 * options.max_utilization);
}

/// One pinned exploration (fixed8 presets on aws-f1). Sharing the analyzed
/// topology across the search must not change the design it finds or the
/// number of points it evaluates.
struct DsePin {
  const char* model;
  std::size_t max_fused;
  std::size_t points_evaluated;
  std::size_t points_feasible;
  std::size_t clusterings_explored;
  std::size_t trajectory;
  double gflops;
  double achieved_mhz;
  std::vector<LayerHw> best;  ///< {parallel_in, parallel_out, pe_group}
};

TEST(DseFusion, ExplorationIsPinned) {
  const std::vector<DsePin> pins = {
      {"lenet", 1, 351, 349, 1, 40, 720.75722092115529, 200,
       {{1, 1, -1}, {1, 16, -1}, {4, 1, -1}, {4, 32, -1}, {1, 1, -1},
        {8, 64, -1}, {1, 4, -1}, {1, 1, -1}}},
      {"lenet", 4, 727, 724, 4, 32, 720.75722092115529, 200,
       {{1, 1, -1}, {1, 16, 0}, {1, 16, 0}, {4, 32, 1}, {4, 32, 1},
        {8, 64, -1}, {1, 4, -1}, {1, 1, -1}}},
      {"tiny_resnet", 1, 362, 362, 1, 36, 65.209444985394356, 200,
       {{1, 1, -1}, {1, 2, -1}, {1, 8, -1}, {1, 8, -1}, {1, 1, -1},
        {1, 8, -1}, {1, 8, -1}, {1, 1, -1}, {1, 1, -1}, {1, 1, -1},
        {1, 4, -1}, {1, 1, -1}}},
      {"tiny_resnet", 4, 1063, 1063, 4, 25, 65.209444985394356, 200,
       {{1, 1, -1}, {1, 2, -1}, {2, 8, 0}, {2, 8, 0}, {1, 1, -1},
        {2, 8, 1}, {2, 8, 1}, {1, 1, -1}, {1, 1, -1}, {1, 1, -1},
        {1, 4, -1}, {1, 1, -1}}},
      {"tc1", 1, 110, 110, 1, 16, 28.749886104783599, 200,
       {{1, 1, -1}, {1, 4, -1}, {1, 1, -1}, {1, 4, -1}, {1, 1, -1},
        {1, 2, -1}, {1, 1, -1}}},
      {"tc1", 4, 205, 205, 4, 13, 28.749886104783599, 200,
       {{1, 1, -1}, {1, 4, 0}, {1, 4, 0}, {1, 4, 1}, {1, 4, 1},
        {1, 2, -1}, {1, 1, -1}}},
  };
  for (const DsePin& pin : pins) {
    SCOPED_TRACE(std::string(pin.model) + " max_fused=" +
                 std::to_string(pin.max_fused));
    HwNetwork network =
        with_default_annotations(nn::make_model(pin.model).value());
    network.hw.data_type = nn::DataType::kFixed8;
    DseOptions options;
    options.max_fused = pin.max_fused;
    options.cost = cost_model_for(nn::DataType::kFixed8);
    options.timing = timing_model_for(nn::DataType::kFixed8);
    auto result = explore(network, options);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    const DseResult& dse = result.value();
    EXPECT_EQ(dse.points_evaluated, pin.points_evaluated);
    EXPECT_EQ(dse.points_feasible, pin.points_feasible);
    EXPECT_EQ(dse.clusterings_explored, pin.clusterings_explored);
    EXPECT_EQ(dse.trajectory.size(), pin.trajectory);
    EXPECT_DOUBLE_EQ(dse.best.gflops(), pin.gflops);
    EXPECT_DOUBLE_EQ(dse.best.achieved_mhz, pin.achieved_mhz);
    const std::vector<LayerHw>& best = dse.best.config.hw.layers;
    ASSERT_EQ(best.size(), pin.best.size());
    for (std::size_t i = 0; i < best.size(); ++i) {
      EXPECT_EQ(best[i].parallel_in, pin.best[i].parallel_in) << i;
      EXPECT_EQ(best[i].parallel_out, pin.best[i].parallel_out) << i;
      EXPECT_EQ(best[i].pe_group, pin.best[i].pe_group) << i;
    }
  }
}

}  // namespace
}  // namespace condor::hw
