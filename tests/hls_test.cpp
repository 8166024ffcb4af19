// Tests for the HLS code generator and the simulated synthesis reports.
#include <gtest/gtest.h>

#include "hls/codegen.hpp"
#include "hls/cosim.hpp"
#include "hls/synthesis.hpp"
#include "nn/models.hpp"
#include "nn/weights.hpp"
#include "test_util.hpp"

namespace condor::hls {
namespace {

hw::AcceleratorPlan lenet_plan() {
  return hw::plan_accelerator(hw::with_default_annotations(nn::make_lenet()))
      .value();
}

TEST(Codegen, ConvPeSourceHasExpectedStructure) {
  const auto plan = lenet_plan();
  auto source = generate_pe_source(plan, 0);  // conv1
  ASSERT_TRUE(source.is_ok()) << source.status().to_string();
  const std::string& code = source.value().code;
  EXPECT_EQ(source.value().file_name, "pe0_conv1.cpp");
  EXPECT_NE(code.find("hls::stream<data_t>& port_4_4"), std::string::npos);
  EXPECT_NE(code.find("#pragma HLS PIPELINE II=1"), std::string::npos);
  EXPECT_NE(code.find("#pragma HLS ARRAY_PARTITION variable=win complete"),
            std::string::npos);
  EXPECT_NE(code.find("weight_stream"), std::string::npos);
  EXPECT_NE(code.find("convolution 'conv1' 5x5"), std::string::npos);
}

TEST(Codegen, PoolPeSourceUsesComparisons) {
  const auto plan = lenet_plan();
  auto source = generate_pe_source(plan, 1);  // pool1 (max)
  ASSERT_TRUE(source.is_ok());
  EXPECT_NE(source.value().code.find("win[k] > r"), std::string::npos);
  // Max pooling carries no weight stream.
  EXPECT_EQ(source.value().code.find("weight_stream"), std::string::npos);
}

TEST(Codegen, FcPeIsSingleInSingleOut1x1Conv) {
  const auto plan = lenet_plan();
  auto source = generate_pe_source(plan, 4);  // ip1
  ASSERT_TRUE(source.is_ok());
  const std::string& code = source.value().code;
  EXPECT_NE(code.find("1x1 single-input/single-output"), std::string::npos);
  EXPECT_NE(code.find("hls::stream<data_t>& in_stream"), std::string::npos);
  EXPECT_EQ(code.find("port_0_0"), std::string::npos);  // no memory subsystem
  EXPECT_NE(code.find("RAM_2P_BRAM"), std::string::npos);  // on-chip weights
}

TEST(Codegen, TanhActivationEmitted) {
  const auto plan =
      hw::plan_accelerator(hw::with_default_annotations(nn::make_tc1())).value();
  auto source = generate_pe_source(plan, 0);
  ASSERT_TRUE(source.is_ok());
  EXPECT_NE(source.value().code.find("hls::tanhf"), std::string::npos);
}

TEST(Codegen, FusedPeKeepsIntermediatePassesLocal) {
  // conv1+pool1 fused on one PE: pass 0 reads the window ports, pass 1
  // gathers from the retained PE-local buffer and only the last pass
  // touches out_stream — no pass after the first re-enters the ports.
  hw::HwNetwork net = hw::with_default_annotations(nn::make_lenet());
  net.hw.layers[1].pe_group = 0;  // conv1
  net.hw.layers[2].pe_group = 0;  // pool1
  const auto plan = hw::plan_accelerator(net).value();
  ASSERT_EQ(plan.pes[0].layer_indices.size(), 2u);
  auto source = generate_pe_source(plan, 0);
  ASSERT_TRUE(source.is_ok()) << source.status().to_string();
  const std::string& code = source.value().code;
  // Ping-pong locality buffers declared, sized for the intermediate blob.
  EXPECT_NE(code.find("static data_t fused_a"), std::string::npos);
  EXPECT_NE(code.find("static data_t fused_b"), std::string::npos);
  // Pass 0 (conv) writes into the local buffer, not the output stream.
  EXPECT_NE(code.find("fused_a[oc *"), std::string::npos);
  // Pass 1 (pool) gathers its window from the retained blob.
  EXPECT_NE(code.find("? fused_a[c *"), std::string::npos);
  // Exactly one pass emits to out_stream (the final one).
  std::size_t writes = 0;
  for (std::size_t at = code.find("out_stream.write");
       at != std::string::npos; at = code.find("out_stream.write", at + 1)) {
    ++writes;
  }
  EXPECT_EQ(writes, 1u);
}

TEST(Codegen, UnfusedPeHasNoLocalityBuffers) {
  const auto plan = lenet_plan();
  auto source = generate_pe_source(plan, 0);
  ASSERT_TRUE(source.is_ok());
  EXPECT_EQ(source.value().code.find("fused_a"), std::string::npos);
}

TEST(Codegen, FilterSourceStatesInequalities) {
  const auto plan = lenet_plan();
  auto source = generate_filter_source(plan, 0, hw::WindowAccess{3, 1});
  ASSERT_TRUE(source.is_ok());
  const std::string& code = source.value().code;
  EXPECT_NE(code.find("const int KY = 3, KX = 1;"), std::string::npos);
  EXPECT_NE(code.find("ry % stride == 0"), std::string::npos);
  EXPECT_NE(code.find("ry / stride < out_h"), std::string::npos);
  EXPECT_NE(code.find("next_filter.write(v)"), std::string::npos);
}

TEST(Codegen, TailFilterHasNoDownstream) {
  const auto plan = lenet_plan();
  auto source = generate_filter_source(plan, 0, hw::WindowAccess{0, 0});
  ASSERT_TRUE(source.is_ok());
  EXPECT_EQ(source.value().code.find("next_filter"), std::string::npos);
}

TEST(Codegen, FilterForClassifierPeRejected) {
  const auto plan = lenet_plan();
  EXPECT_FALSE(generate_filter_source(plan, 4, hw::WindowAccess{0, 0}).is_ok());
  EXPECT_FALSE(generate_pe_source(plan, 99).is_ok());
}

TEST(Codegen, TopLevelDeclaresStreamsAndInterfaces) {
  const auto plan = lenet_plan();
  auto source = generate_top_source(plan);
  ASSERT_TRUE(source.is_ok());
  const std::string& code = source.value().code;
  EXPECT_NE(code.find("#pragma HLS DATAFLOW"), std::string::npos);
  EXPECT_NE(code.find("m_axi port=gmem_in"), std::string::npos);
  EXPECT_NE(code.find("s_axilite port=batch"), std::string::npos);
  for (const hw::PePlan& pe : plan.pes) {
    EXPECT_NE(code.find(pe.name), std::string::npos) << pe.name;
  }
  // FIFO depths from the plan appear as STREAM pragmas.
  EXPECT_NE(code.find("#pragma HLS STREAM"), std::string::npos);
}

TEST(Codegen, AllSourcesCoverEveryModule) {
  const auto plan = lenet_plan();
  auto sources = generate_all_sources(plan);
  ASSERT_TRUE(sources.is_ok());
  // 1 top + 6 PEs + filters (25 for each 5x5 conv, 4 for each 2x2 pool).
  std::size_t expected_filters = 0;
  for (const hw::PePlan& pe : plan.pes) {
    if (pe.memory.has_value()) {
      expected_filters += pe.memory->filters.size();
    }
  }
  EXPECT_EQ(sources.value().size(), 1 + plan.pes.size() + expected_filters);
  // File names are unique.
  std::set<std::string> names;
  for (const GeneratedSource& source : sources.value()) {
    EXPECT_TRUE(names.insert(source.file_name).second) << source.file_name;
  }
}

TEST(Synthesis, ReportCoversEveryPe) {
  const auto plan = lenet_plan();
  auto report = synthesize(plan);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report.value().modules.size(), plan.pes.size());
  EXPECT_DOUBLE_EQ(report.value().achieved_clock_mhz, 180.0);
  EXPECT_DOUBLE_EQ(report.value().target_clock_mhz, 200.0);
  EXPECT_FALSE(report.value().timing_met);  // 180 < 200
  for (const ModuleReport& module : report.value().modules) {
    EXPECT_GT(module.interval_cycles, 0u) << module.module;
    EXPECT_GE(module.latency_cycles, module.interval_cycles);
    EXPECT_GT(module.estimated_clock_mhz, 0.0);
  }
  const std::string text = report.value().to_string(plan.board);
  EXPECT_NE(text.find("synthesis report"), std::string::npos);
  EXPECT_NE(text.find("NOT met"), std::string::npos);
}

TEST(Synthesis, TimingMetWhenTargetModest) {
  hw::HwNetwork net =
      hw::with_default_annotations(nn::make_lenet(), "aws-f1", 150.0);
  auto report = synthesize(hw::plan_accelerator(net).value());
  ASSERT_TRUE(report.is_ok());
  EXPECT_TRUE(report.value().timing_met);
  EXPECT_DOUBLE_EQ(report.value().achieved_clock_mhz, 150.0);
}

TEST(Cosim, Tc1PassesFunctionalAndCycleLevel) {
  // Every datapath checks against its own oracle: the float reference
  // would read a fixed-point plan's rounding as a mismatch.
  for (const nn::DataType type : {nn::DataType::kFloat32,
                                  nn::DataType::kFixed16,
                                  nn::DataType::kFixed8}) {
    SCOPED_TRACE(std::string(nn::to_string(type)));
    hw::HwNetwork net = hw::with_default_annotations(nn::make_tc1());
    net.hw.data_type = type;
    const auto plan = hw::plan_accelerator(net).value();
    auto weights = nn::initialize_weights(nn::make_tc1(), 17);
    ASSERT_TRUE(weights.is_ok());
    auto report = cosimulate(plan, weights.value(), /*batch=*/2);
    ASSERT_TRUE(report.is_ok()) << report.status().to_string();
    EXPECT_TRUE(report.value().functional_pass);
    EXPECT_EQ(report.value().max_abs_diff, 0.0F);
    // TC1's four feature PEs all stall-free with planned FIFO capacities.
    EXPECT_EQ(report.value().pes.size(), 4u);
    for (const CosimPeReport& pe : report.value().pes) {
      EXPECT_TRUE(pe.stall_free) << pe.name;
      EXPECT_GT(pe.cycles, 0u);
    }
    EXPECT_TRUE(report.value().pass());
    const std::string text = report.value().to_string();
    EXPECT_NE(text.find("co-simulation"), std::string::npos);
    EXPECT_NE(text.find("PASS"), std::string::npos);
  }
}

TEST(Cosim, MismatchedWeightsRejected) {
  const auto plan = hw::plan_accelerator(
                        hw::with_default_annotations(nn::make_tc1()))
                        .value();
  auto wrong = nn::initialize_weights(nn::make_lenet(), 17);
  ASSERT_TRUE(wrong.is_ok());
  EXPECT_FALSE(cosimulate(plan, wrong.value()).is_ok());
}

TEST(Synthesis, UnsynthesizableDesignFails) {
  hw::HwNetwork net =
      hw::with_default_annotations(nn::make_tc1(), "zedboard", 100.0);
  auto report = synthesize(hw::plan_accelerator(net).value());
  EXPECT_FALSE(report.is_ok());
  EXPECT_EQ(report.status().code(), StatusCode::kUnsynthesizable);
}

}  // namespace
}  // namespace condor::hls
