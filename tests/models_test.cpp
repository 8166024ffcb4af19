// Tests for the analytical models: resources, performance, timing closure,
// and the automated design space exploration.
#include <gtest/gtest.h>

#include <cmath>

#include "hw/dse.hpp"
#include "hw/performance_model.hpp"
#include "hw/resource_model.hpp"
#include "hw/timing_model.hpp"
#include "nn/models.hpp"
#include "test_util.hpp"

namespace condor::hw {
namespace {

AcceleratorPlan lenet_plan() {
  return plan_accelerator(with_default_annotations(nn::make_lenet())).value();
}

AcceleratorPlan tc1_plan() {
  return plan_accelerator(with_default_annotations(nn::make_tc1())).value();
}

// ---- Resource model ---------------------------------------------------------

TEST(ResourceModel, FifoMappingThreshold) {
  const CostModel cost;
  EXPECT_EQ(fifo_cost(0, cost).luts, 0u);
  // Shallow FIFOs use LUTRAM.
  EXPECT_EQ(fifo_cost(16, cost).bram36, 0u);
  EXPECT_GT(fifo_cost(16, cost).luts, 0u);
  EXPECT_EQ(fifo_cost(cost.fifo_lutram_threshold, cost).bram36, 0u);
  // Deep FIFOs use BRAM.
  EXPECT_GE(fifo_cost(cost.fifo_lutram_threshold + 1, cost).bram36, 1u);
  // 10k floats = 40 KB -> ceil(40960/4608) = 9 blocks.
  EXPECT_EQ(fifo_cost(10240, cost).bram36, 9u);
}

TEST(ResourceModel, LeNetClassifierDominatesBram) {
  auto report = estimate_resources(lenet_plan());
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  // ip1 stores 400500 floats on chip: ~348 BRAM.
  std::uint64_t ip1_bram = 0;
  for (const ModuleEstimate& module : report.value().modules) {
    if (module.name.find("ip1") != std::string::npos) {
      ip1_bram = module.resources.bram36;
    }
  }
  EXPECT_GE(ip1_bram, 300u);
  EXPECT_GT(ip1_bram * 2, report.value().total.bram36);  // more than half
}

TEST(ResourceModel, Tc1TinyBramFootprint) {
  auto report = estimate_resources(tc1_plan());
  ASSERT_TRUE(report.is_ok());
  EXPECT_LT(report.value().bram_percent(aws_f1_board()), 3.0);
}

TEST(ResourceModel, DspGrowsWithParallelism) {
  HwNetwork net = with_default_annotations(nn::make_lenet());
  auto base = estimate_resources(plan_accelerator(net).value());
  ASSERT_TRUE(base.is_ok());
  net.hw.layers[1].parallel_out = 4;
  auto wide = estimate_resources(plan_accelerator(net).value());
  ASSERT_TRUE(wide.is_ok());
  EXPECT_GT(wide.value().total.dsps, base.value().total.dsps);
  EXPECT_GT(wide.value().total.luts, base.value().total.luts);
}

TEST(ResourceModel, TanhCostsDsps) {
  // TC1's conv PEs embed tanh pipelines; compare against a ReLU clone.
  nn::Network relu_tc1 = nn::make_tc1();
  for (nn::LayerSpec& layer : relu_tc1.layers()) {
    if (layer.activation == nn::Activation::kTanH) {
      layer.activation = nn::Activation::kReLU;
    }
  }
  auto tanh_report = estimate_resources(tc1_plan());
  auto relu_report =
      estimate_resources(plan_accelerator(with_default_annotations(relu_tc1)).value());
  ASSERT_TRUE(tanh_report.is_ok());
  ASSERT_TRUE(relu_report.is_ok());
  EXPECT_GT(tanh_report.value().total.dsps, relu_report.value().total.dsps + 100);
}

TEST(ResourceModel, LeNetRejectedAtPlanningOnZedboard) {
  // LeNet's on-chip classifier weights (1.6 MiB) exceed the ZedBoard's BRAM
  // budget, so the *planner* already refuses the mapping.
  HwNetwork net = with_default_annotations(nn::make_lenet(), "zedboard", 100.0);
  auto plan = plan_accelerator(net);
  ASSERT_FALSE(plan.is_ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kUnsynthesizable);
}

TEST(ResourceModel, Tc1RejectedAtEstimationOnZedboard) {
  // TC1 plans fine (tiny weights) but its tanh pipelines alone exceed the
  // ZedBoard's 220 DSPs, so the resource estimate rejects the design.
  HwNetwork net = with_default_annotations(nn::make_tc1(), "zedboard", 100.0);
  auto plan = plan_accelerator(net);
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  auto report = estimate_resources(plan.value());
  EXPECT_FALSE(report.is_ok());
  EXPECT_EQ(report.status().code(), StatusCode::kUnsynthesizable);
  // The unchecked variant still reports the overflow numbers.
  auto unchecked = estimate_resources_unchecked(plan.value());
  EXPECT_FALSE(unchecked.total.fits_within(plan.value().board.capacity));
}

TEST(ResourceModel, ReportFormatsUtilization) {
  auto report = estimate_resources(tc1_plan());
  ASSERT_TRUE(report.is_ok());
  const std::string text = report.value().to_string(aws_f1_board());
  EXPECT_NE(text.find("platform"), std::string::npos);
  EXPECT_NE(text.find("TOTAL"), std::string::npos);
  EXPECT_NE(text.find("utilization"), std::string::npos);
}

// ---- Performance model --------------------------------------------------------

TEST(PerformanceModel, LeNetIntervalFormulas) {
  const AcceleratorPlan plan = lenet_plan();
  auto resources = estimate_resources(plan);
  ASSERT_TRUE(resources.is_ok());
  auto perf = estimate_performance(plan, resources.value(), 180.0);
  ASSERT_TRUE(perf.is_ok()) << perf.status().to_string();
  ASSERT_EQ(perf.value().pes.size(), 6u);
  // conv1: 1 in-map * 20 out-maps * 24*24 points.
  EXPECT_EQ(perf.value().pes[0].compute_interval, 20ull * 24 * 24);
  // pool1: 20 maps * 12*12 points.
  EXPECT_EQ(perf.value().pes[1].compute_interval, 20ull * 12 * 12);
  // conv2: 20 * 50 * 8*8.
  EXPECT_EQ(perf.value().pes[2].compute_interval, 20ull * 50 * 64);
  // ip1: 800 * 500 MACs at 1/cycle.
  EXPECT_EQ(perf.value().pes[4].compute_interval, 800ull * 500);
  // The bottleneck is ip1 — LeNet is FC-bound at Table 1 settings.
  EXPECT_GE(perf.value().bottleneck_interval, 400000ull);
  // Softmax runs on the host: accelerator FLOPs exclude it.
  EXPECT_EQ(perf.value().flops_per_image,
            nn::make_lenet().total_flops().value() - 30);
}

TEST(PerformanceModel, ParallelismDividesInterval) {
  HwNetwork net = with_default_annotations(nn::make_lenet());
  net.hw.layers[3].parallel_in = 2;
  net.hw.layers[3].parallel_out = 5;
  const auto plan = plan_accelerator(net).value();
  auto resources = estimate_resources(plan);
  ASSERT_TRUE(resources.is_ok());
  auto perf = estimate_performance(plan, resources.value(), 180.0);
  ASSERT_TRUE(perf.is_ok());
  // conv2: ceil(20/2) * ceil(50/5) * 64 = 10 * 10 * 64.
  EXPECT_EQ(perf.value().pes[2].compute_interval, 6400ull);
}

TEST(PerformanceModel, SteadyStateThroughputFormula) {
  PerformanceEstimate estimate;
  estimate.frequency_mhz = 100.0;
  estimate.bottleneck_interval = 1000;
  estimate.flops_per_image = 1'000'000;
  EXPECT_NEAR(estimate.images_per_second(), 100e3, 1.0);
  EXPECT_NEAR(estimate.gflops(), 100.0, 0.01);
}

TEST(PerformanceModel, WindowFillLatency) {
  const AcceleratorPlan plan = lenet_plan();
  auto resources = estimate_resources(plan);
  auto perf = estimate_performance(plan, resources.value(), 180.0);
  ASSERT_TRUE(perf.is_ok());
  // conv1: (5-1)*28 + 5 + module depth 12 = 129.
  EXPECT_EQ(perf.value().pes[0].fill_latency, 129ull);
  EXPECT_EQ(perf.value().pes[0].service_cycles(),
            perf.value().pes[0].interval() + 129ull);
}

TEST(PerformanceModel, VggSpillsAddDdrTraffic) {
  // VGG-16's early conv layers cannot stage their input set on chip (3.2M
  // floats at conv1_2): the resource model flags the spill and the
  // performance model charges the re-streamed input as DDR traffic.
  const auto plan = plan_accelerator(with_default_annotations(
                        nn::make_vgg16().feature_extraction_prefix()))
                        .value();
  auto report = estimate_resources(plan);
  ASSERT_TRUE(report.is_ok());
  std::size_t spilled = 0;
  for (const bool spill : report.value().spills_to_ddr) {
    spilled += spill ? 1 : 0;
  }
  EXPECT_GT(spilled, 0u);
  auto perf = estimate_performance(plan, report.value(), 185.0);
  ASSERT_TRUE(perf.is_ok());
  // conv1_2 (PE index 1) re-streams its 12.8 MiB input once per output map:
  // far more traffic than its 144 KiB of weights alone.
  EXPECT_TRUE(report.value().spills_to_ddr[1]);
  EXPECT_GT(perf.value().pes[1].ddr_bytes_per_image, 100ull << 20);
  EXPECT_GT(perf.value().pes[1].memory_interval, 0u);
  // LeNet never spills (tiny maps).
  const auto lenet = lenet_plan();
  auto lenet_report = estimate_resources(lenet);
  ASSERT_TRUE(lenet_report.is_ok());
  for (const bool spill : lenet_report.value().spills_to_ddr) {
    EXPECT_FALSE(spill);
  }
}

TEST(PerformanceModel, RejectsBadArguments) {
  const AcceleratorPlan plan = lenet_plan();
  auto resources = estimate_resources(plan);
  EXPECT_FALSE(estimate_performance(plan, resources.value(), 0.0).is_ok());
  ResourceReport mismatched = resources.value();
  mismatched.spills_to_ddr.pop_back();
  EXPECT_FALSE(estimate_performance(plan, mismatched, 100.0).is_ok());
}

// ---- Timing closure ------------------------------------------------------------

TEST(TimingModel, PaperClocksReproduced) {
  // TC1 closes at 100 MHz (tanh pipelines), LeNet at 180 MHz (BRAM pressure).
  auto tc1 = tc1_plan();
  auto lenet = lenet_plan();
  const double tc1_mhz =
      achieved_frequency_mhz(tc1, estimate_resources(tc1).value());
  const double lenet_mhz =
      achieved_frequency_mhz(lenet, estimate_resources(lenet).value());
  EXPECT_DOUBLE_EQ(tc1_mhz, 100.0);
  EXPECT_DOUBLE_EQ(lenet_mhz, 180.0);
}

TEST(TimingModel, QuantizedToClockSteps) {
  auto plan = lenet_plan();
  auto report = estimate_resources(plan).value();
  const TimingModel model;
  const double mhz = achieved_frequency_mhz(plan, report, model);
  EXPECT_EQ(std::fmod(mhz, model.quantum_mhz), 0.0);
}

TEST(TimingModel, TargetCapsAchieved) {
  HwNetwork net = with_default_annotations(nn::make_lenet(), "aws-f1", 100.0);
  auto plan = plan_accelerator(net).value();
  auto report = estimate_resources(plan).value();
  EXPECT_LE(achieved_frequency_mhz(plan, report), 100.0);
}

TEST(TimingModel, WiderUnrollsSlowTheClock) {
  HwNetwork net = with_default_annotations(nn::make_lenet(), "aws-f1", 250.0);
  auto narrow = plan_accelerator(net).value();
  net.hw.layers[3].parallel_out = 10;
  auto wide = plan_accelerator(net).value();
  EXPECT_LT(pe_fmax_mhz(wide, 2), pe_fmax_mhz(narrow, 2));
}

// ---- Design space exploration ---------------------------------------------------

TEST(Dse, ImprovesLeNetFeatures) {
  HwNetwork net = with_default_annotations(
      nn::make_lenet().feature_extraction_prefix(), "aws-f1", 250.0);
  auto result = explore(net);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  ASSERT_GE(result.value().trajectory.size(), 2u);
  EXPECT_GT(result.value().best.gflops(),
            result.value().trajectory.front().gflops() * 2.0);
  EXPECT_GE(result.value().points_feasible, 2u);
}

TEST(Dse, RespectsUtilizationHeadroom) {
  HwNetwork net = with_default_annotations(
      nn::make_lenet().feature_extraction_prefix(), "aws-f1", 250.0);
  DseOptions options;
  options.max_utilization = 0.30;
  auto result = explore(net, options);
  ASSERT_TRUE(result.is_ok());
  EXPECT_LE(result.value().best.resources.total.max_utilization(
                aws_f1_board().capacity),
            0.30);
}

TEST(Dse, EvaluateRejectsOverUtilization) {
  HwNetwork net = with_default_annotations(nn::make_lenet());
  DseOptions options;
  options.max_utilization = 0.05;  // platform alone exceeds this
  auto point = evaluate_design_point(net, options);
  EXPECT_FALSE(point.is_ok());
  EXPECT_EQ(point.status().code(), StatusCode::kUnsynthesizable);
}

TEST(Dse, TrajectoryGflopsBestIsMax) {
  HwNetwork net = with_default_annotations(
      nn::make_tc1().feature_extraction_prefix(), "aws-f1", 250.0);
  auto result = explore(net);
  ASSERT_TRUE(result.is_ok());
  double max_seen = 0.0;
  for (const DsePoint& point : result.value().trajectory) {
    max_seen = std::max(max_seen, point.gflops());
  }
  EXPECT_DOUBLE_EQ(result.value().best.gflops(), max_seen);
}

}  // namespace
}  // namespace condor::hw
