// Tests for the batch timing of the PE pipeline (the closed form behind
// Figure 5) and the accelerator-level wrapper around it.
#include <gtest/gtest.h>

#include "hw/dse.hpp"
#include "nn/models.hpp"
#include "sim/accel_sim.hpp"

namespace condor::sim {
namespace {

/// A pipeline of `stages` at 100 MHz, 1 MFLOP per image.
AcceleratorSim pipeline(std::vector<StageSpec> stages) {
  AcceleratorSim sim;
  sim.stages = std::move(stages);
  sim.frequency_mhz = 100.0;
  sim.flops_per_image = 1'000'000;
  return sim;
}

Cycle total_cycles(const AcceleratorSim& sim, std::size_t batch) {
  auto point = simulate_batch(sim, batch);
  EXPECT_TRUE(point.is_ok()) << point.status().to_string();
  return point.is_ok() ? point.value().total_cycles : 0;
}

TEST(Pipeline, SingleStageIsSequential) {
  EXPECT_EQ(total_cycles(pipeline({{"s", 100}}), 10), 1000u);
}

TEST(Pipeline, SteadyStateMatchesBottleneck) {
  // Three stages, bottleneck 100: total(B) -> fill + (B-1)*100.
  const AcceleratorSim sim = pipeline({{"a", 30}, {"b", 100}, {"c", 20}});
  const double marginal =
      static_cast<double>(total_cycles(sim, 108) - total_cycles(sim, 8)) /
      100.0;
  EXPECT_NEAR(marginal, 100.0, 1.0);
}

TEST(Pipeline, MeanPerImageDecreasesMonotonically) {
  const AcceleratorSim sim =
      pipeline({{"a", 50}, {"b", 80}, {"c", 80}, {"d", 40}});
  double last = 1e300;
  for (const std::size_t batch : {1, 2, 4, 8, 16, 32, 64}) {
    const double mean = static_cast<double>(total_cycles(sim, batch)) /
                        static_cast<double>(batch);
    EXPECT_LE(mean, last) << "batch " << batch;
    last = mean;
  }
  // Plateau approaches the bottleneck service time: 250 + 63 * 80 cycles.
  EXPECT_EQ(total_cycles(sim, 64), 5290u);
  EXPECT_NEAR(last, 80.0, 4.0);
}

TEST(Pipeline, SingleImageLatencyIsSumOfStages) {
  EXPECT_EQ(total_cycles(pipeline({{"a", 10}, {"b", 20}, {"c", 30}}), 1), 60u);
}

TEST(Pipeline, FastStageCannotRunAheadOfSlowDownstream) {
  // The slow stage sets the pace: 1 + 100 for the first image, 100 for
  // each further one.
  EXPECT_EQ(total_cycles(pipeline({{"fast", 1}, {"slow", 100}}), 50), 5001u);
}

TEST(Pipeline, BatchPointDerivesTimeAndGflopsFromCycles) {
  auto point = simulate_batch(pipeline({{"s", 100}}), 10);
  ASSERT_TRUE(point.is_ok());
  EXPECT_EQ(point.value().batch, 10u);
  // 1000 cycles at 100 MHz: 10 us for 10 images of 1 MFLOP each.
  EXPECT_DOUBLE_EQ(point.value().mean_ms_per_image,
                   1000.0 / 100e6 * 1e3 / 10.0);
  EXPECT_DOUBLE_EQ(point.value().gflops, 1e6 * 10.0 / (1000.0 / 100e6) / 1e9);
}

TEST(Pipeline, RejectsDegenerateInputs) {
  EXPECT_FALSE(simulate_batch(pipeline({}), 4).is_ok());
  EXPECT_FALSE(simulate_batch(pipeline({{"s", 0}}), 4).is_ok());
  EXPECT_FALSE(simulate_batch(pipeline({{"s", 1}}), 0).is_ok());
}

// ---- Accelerator-level wrapper ---------------------------------------------

TEST(AccelSim, Figure5ShapeForTc1) {
  hw::HwNetwork net = hw::with_default_annotations(nn::make_tc1());
  auto point = hw::evaluate_design_point(net);
  ASSERT_TRUE(point.is_ok());
  const AcceleratorSim accel = build_accelerator_sim(point.value().performance);
  auto sweep = sweep_batches(accel, {1, 2, 4, 8, 16, 32, 64, 128, 256});
  ASSERT_TRUE(sweep.is_ok());
  // Monotonically decreasing mean time per image.
  for (std::size_t i = 1; i < sweep.value().size(); ++i) {
    EXPECT_LE(sweep.value()[i].mean_ms_per_image,
              sweep.value()[i - 1].mean_ms_per_image);
  }
  // Convergence: batch >= #layers is close to the plateau (paper Fig. 5).
  const double plateau = sweep.value().back().mean_ms_per_image;
  const double at_layers = sweep.value()[3].mean_ms_per_image;  // batch 8 > 7
  EXPECT_LT((at_layers - plateau) / plateau, 0.30);
}

TEST(AccelSim, StagesAreThePesServiceTimes) {
  hw::HwNetwork net = hw::with_default_annotations(nn::make_tc1());
  auto point = hw::evaluate_design_point(net);
  ASSERT_TRUE(point.is_ok());
  const hw::PerformanceEstimate& perf = point.value().performance;
  const AcceleratorSim accel = build_accelerator_sim(perf);
  EXPECT_EQ(accel.frequency_mhz, perf.frequency_mhz);
  EXPECT_EQ(accel.flops_per_image, perf.flops_per_image);
  ASSERT_EQ(accel.stages.size(), perf.pes.size());
  for (std::size_t p = 0; p < perf.pes.size(); ++p) {
    EXPECT_EQ(accel.stages[p].name, perf.pes[p].name);
    EXPECT_EQ(accel.stages[p].service_cycles,
              perf.pes[p].interval() + perf.pes[p].fill_latency);
  }
}

TEST(AccelSim, SteadyStateMatchesAnalyticalGflops) {
  hw::HwNetwork net = hw::with_default_annotations(nn::make_lenet());
  auto point = hw::evaluate_design_point(net);
  ASSERT_TRUE(point.is_ok());
  const AcceleratorSim accel = build_accelerator_sim(point.value().performance);
  auto gflops = steady_state_gflops(accel, 512);
  ASSERT_TRUE(gflops.is_ok());
  // The 512-image batch and the estimate's steady state agree within a few
  // percent on LeNet: both divide by the slowest stage's service time, and
  // 512 images amortize the first image's pass through the other stages.
  EXPECT_NEAR(gflops.value(), point.value().performance.gflops(),
              point.value().performance.gflops() * 0.05);
}

}  // namespace
}  // namespace condor::sim
