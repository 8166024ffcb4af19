// Tests for the hardware core logic: board database, the Condor JSON
// network representation, and the accelerator planner (filter chains and
// their data domains, non-uniform FIFO sizing, PE fusion, unsynthesizable
// designs).
#include <gtest/gtest.h>

#include "hw/accel_plan.hpp"
#include "hw/hw_ir.hpp"
#include "nn/models.hpp"
#include "test_util.hpp"

namespace condor::hw {
namespace {

TEST(Board, DatabaseLookup) {
  EXPECT_EQ(find_board("aws-f1").value().part, "xcvu9p-flgb2104-2-i");
  EXPECT_EQ(find_board("AWS-F1").value().id, "aws-f1");  // case-insensitive
  EXPECT_TRUE(find_board("aws-f1").value().cloud);
  EXPECT_FALSE(find_board("zedboard").value().cloud);
  EXPECT_FALSE(find_board("virtex2").is_ok());
  EXPECT_EQ(aws_f1_board().capacity.dsps, 6840u);
}

TEST(Board, ResourceArithmetic) {
  Resources a{10, 20, 2, 1};
  Resources b{5, 5, 5, 5};
  const Resources sum = a + b;
  EXPECT_EQ(sum.luts, 15u);
  EXPECT_EQ(sum.dsps, 7u);
  EXPECT_EQ(a.scaled(3).ffs, 60u);
  EXPECT_TRUE(a.fits_within(Resources{10, 20, 2, 1}));
  EXPECT_FALSE(sum.fits_within(Resources{10, 20, 2, 1}));
  EXPECT_DOUBLE_EQ((Resources{50, 0, 0, 0}).max_utilization({100, 10, 10, 10}), 0.5);
}

TEST(HwIr, JsonRoundTrip) {
  HwNetwork original = with_default_annotations(nn::make_lenet(), "zc706", 150.0);
  original.hw.layers[1].parallel_out = 4;
  original.hw.layers[3].parallel_in = 2;
  original.hw.layers[3].pe_group = 1;
  original.hw.layers[4].pe_group = 1;

  const std::string text = to_json_text(original);
  auto restored = from_json_text(text);
  ASSERT_TRUE(restored.is_ok()) << restored.status().to_string();
  EXPECT_EQ(restored.value().net.name(), "lenet");
  EXPECT_EQ(restored.value().hw.board_id, "zc706");
  EXPECT_DOUBLE_EQ(restored.value().hw.target_frequency_mhz, 150.0);
  ASSERT_EQ(restored.value().net.layer_count(), original.net.layer_count());
  EXPECT_EQ(restored.value().hw.layers[1].parallel_out, 4u);
  EXPECT_EQ(restored.value().hw.layers[3].parallel_in, 2u);
  EXPECT_EQ(restored.value().hw.layers[3].pe_group, 1);
  auto original_shapes = original.net.infer_shapes().value();
  auto restored_shapes = restored.value().net.infer_shapes().value();
  for (std::size_t i = 0; i < original_shapes.size(); ++i) {
    EXPECT_EQ(restored_shapes[i].output, original_shapes[i].output) << i;
  }
}

TEST(HwIr, ValidateRejectsBadAnnotations) {
  // Unknown board.
  {
    HwNetwork net = with_default_annotations(nn::make_tc1(), "not-a-board");
    EXPECT_FALSE(net.validate().is_ok());
  }
  // Frequency above the board ceiling.
  {
    HwNetwork net = with_default_annotations(nn::make_tc1(), "zedboard", 400.0);
    EXPECT_FALSE(net.validate().is_ok());
  }
  // parallel_out exceeding the output map count.
  {
    HwNetwork net = with_default_annotations(nn::make_tc1());
    net.hw.layers[1].parallel_out = 64;  // conv1 has 6 maps
    EXPECT_FALSE(net.validate().is_ok());
  }
  // Zero parallelism.
  {
    HwNetwork net = with_default_annotations(nn::make_tc1());
    net.hw.layers[1].parallel_in = 0;
    EXPECT_FALSE(net.validate().is_ok());
  }
  // Non-contiguous PE group.
  {
    HwNetwork net = with_default_annotations(nn::make_lenet());
    net.hw.layers[1].pe_group = 0;
    net.hw.layers[3].pe_group = 0;  // skips layer 2
    EXPECT_FALSE(net.validate().is_ok());
  }
  // Group mixing feature and classifier layers.
  {
    HwNetwork net = with_default_annotations(nn::make_lenet());
    net.hw.layers[4].pe_group = 2;  // pool2
    net.hw.layers[5].pe_group = 2;  // ip1
    EXPECT_FALSE(net.validate().is_ok());
  }
}

TEST(HwIr, FromJsonErrors) {
  EXPECT_FALSE(from_json_text("[]").is_ok());
  EXPECT_FALSE(from_json_text("{}").is_ok());  // no input
  EXPECT_FALSE(
      from_json_text(R"({"input": {"channels": 1, "height": 8, "width": 8}})")
          .is_ok());  // no layers array
  // A layer entry of kind input is rejected.
  EXPECT_FALSE(from_json_text(R"({
    "input": {"channels": 1, "height": 8, "width": 8},
    "layers": [{"name": "x", "type": "input"}]
  })")
                   .is_ok());
}

// ---- Filter chains (non-uniform memory partitioning) ---------------------

TEST(FilterChain, LexicographicallyInverseOrder) {
  const auto chain = plan_filter_chain(3, 3, 10);
  ASSERT_EQ(chain.size(), 9u);
  // Head = newest access (2,2); tail = oldest (0,0).
  EXPECT_EQ(chain.front().access.ky, 2u);
  EXPECT_EQ(chain.front().access.kx, 2u);
  EXPECT_EQ(chain.back().access.ky, 0u);
  EXPECT_EQ(chain.back().access.kx, 0u);
  // Strictly decreasing in lexicographic order.
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    const auto& a = chain[i].access;
    const auto& b = chain[i + 1].access;
    EXPECT_TRUE(a.ky > b.ky || (a.ky == b.ky && a.kx > b.kx));
  }
}

TEST(FilterChain, FifoDepthsAreSpatialDistances) {
  const std::size_t map_w = 28;
  const auto chain = plan_filter_chain(5, 5, map_w);
  ASSERT_EQ(chain.size(), 25u);
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    const auto& a = chain[i].access;
    const auto& b = chain[i + 1].access;
    const std::size_t expected =
        (a.ky * map_w + a.kx) - (b.ky * map_w + b.kx);
    EXPECT_EQ(chain[i].fifo_to_next_depth, expected) << i;
    // Within a row the distance is 1; across rows map_w - (Kw - 1).
    if (a.ky == b.ky) {
      EXPECT_EQ(chain[i].fifo_to_next_depth, 1u);
    } else {
      EXPECT_EQ(chain[i].fifo_to_next_depth, map_w - 4);
    }
  }
  EXPECT_EQ(chain.back().fifo_to_next_depth, 0u);
}

TEST(FilterChain, TotalBufferingIsLiveWindowSpan) {
  // Paper/DAC'14: only the span between first and last access is buffered:
  // (Kh-1)*W + (Kw-1) elements.
  for (const auto& [kh, kw, w] :
       {std::tuple{2, 2, 16}, std::tuple{3, 3, 28}, std::tuple{5, 5, 224},
        std::tuple{1, 1, 8}, std::tuple{3, 5, 64}}) {
    MemoryPipelinePlan plan;
    plan.window_h = static_cast<std::size_t>(kh);
    plan.window_w = static_cast<std::size_t>(kw);
    plan.map_w = static_cast<std::size_t>(w);
    plan.filters = plan_filter_chain(plan.window_h, plan.window_w, plan.map_w);
    EXPECT_EQ(plan.buffered_elements(),
              static_cast<std::size_t>((kh - 1) * w + (kw - 1)))
        << kh << "x" << kw << " over width " << w;
  }
}

// ---- Filter domain inequalities -------------------------------------------

/// Brute-force oracle: (y, x) is in the domain of access (ky, kx) iff some
/// output point (oy, ox) reads it at that window position.
bool brute_force_in_domain(const WindowAccess& access, std::size_t stride,
                           std::size_t out_h, std::size_t out_w, std::size_t y,
                           std::size_t x) {
  for (std::size_t oy = 0; oy < out_h; ++oy) {
    for (std::size_t ox = 0; ox < out_w; ++ox) {
      if (oy * stride + access.ky == y && ox * stride + access.kx == x) {
        return true;
      }
    }
  }
  return false;
}

struct DomainParam {
  std::size_t in = 8;
  std::size_t window = 3;
  std::size_t stride = 1;
};

class FilterDomain : public ::testing::TestWithParam<DomainParam> {};

TEST_P(FilterDomain, MatchesBruteForceOracle) {
  const DomainParam& param = GetParam();
  const std::size_t out = (param.in - param.window) / param.stride + 1;
  for (std::size_t ky = 0; ky < param.window; ++ky) {
    for (std::size_t kx = 0; kx < param.window; ++kx) {
      const WindowAccess access{ky, kx};
      for (std::size_t y = 0; y < param.in; ++y) {
        for (std::size_t x = 0; x < param.in; ++x) {
          EXPECT_EQ(in_domain(access, param.stride, out, out, y, x),
                    brute_force_in_domain(access, param.stride, out, out, y, x))
              << "access (" << ky << "," << kx << ") element (" << y << "," << x
              << ")";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DomainSweep, FilterDomain,
                         ::testing::Values(DomainParam{8, 3, 1},
                                           DomainParam{8, 2, 2},
                                           DomainParam{9, 3, 2},
                                           DomainParam{12, 5, 1},
                                           DomainParam{10, 1, 1},
                                           DomainParam{10, 4, 3}));

TEST(FilterDomain, MatchCountEqualsOutputPoints) {
  // Every access contributes exactly one element per output point.
  const std::size_t in = 11;
  const std::size_t window = 4;
  const std::size_t stride = 2;
  const std::size_t out = (in - window) / stride + 1;
  for (std::size_t ky = 0; ky < window; ++ky) {
    for (std::size_t kx = 0; kx < window; ++kx) {
      std::size_t matches = 0;
      for (std::size_t y = 0; y < in; ++y) {
        for (std::size_t x = 0; x < in; ++x) {
          matches += in_domain({ky, kx}, stride, out, out, y, x) ? 1 : 0;
        }
      }
      EXPECT_EQ(matches, out * out);
    }
  }
}

// ---- Accelerator planning -------------------------------------------------

TEST(AccelPlan, LeNetDefaultIsOnePePerLayer) {
  auto plan = plan_accelerator(with_default_annotations(nn::make_lenet()));
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  // conv1, pool1, conv2, pool2, ip1, ip2 — softmax goes to the host.
  EXPECT_EQ(plan.value().pes.size(), 6u);
  EXPECT_TRUE(plan.value().softmax_on_host);
  EXPECT_EQ(plan.value().pipeline_depth(), 6u);
  // Edge chain: datamover -> 6 PEs -> datamover = 7 edges.
  EXPECT_EQ(plan.value().edges.size(), 7u);
  EXPECT_EQ(plan.value().edges.front().from_pe, StreamEdge::kDatamover);
  EXPECT_EQ(plan.value().edges.back().to_pe, StreamEdge::kDatamover);
  // Feature PEs carry a memory subsystem, classifiers do not.
  EXPECT_TRUE(plan.value().pes[0].memory.has_value());
  EXPECT_FALSE(plan.value().pes[4].memory.has_value());
  EXPECT_EQ(plan.value().pes[0].memory->window_h, 5u);
  EXPECT_EQ(plan.value().pes[0].memory->map_w, 28u);
}

TEST(AccelPlan, FusionMergesLikeLayers) {
  HwNetwork net = with_default_annotations(nn::make_lenet());
  net.hw.layers[1].pe_group = 0;  // conv1
  net.hw.layers[2].pe_group = 0;  // pool1
  net.hw.layers[5].pe_group = 3;  // ip1
  net.hw.layers[6].pe_group = 3;  // ip2
  auto plan = plan_accelerator(net);
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  // conv1+pool1 | conv2 | pool2 | ip1+ip2 -> 4 PEs.
  ASSERT_EQ(plan.value().pes.size(), 4u);
  EXPECT_EQ(plan.value().pes[0].layer_indices.size(), 2u);
  EXPECT_EQ(plan.value().pes[3].layer_indices.size(), 2u);
  // The fused feature PE uses the largest window (conv1's 5x5) and the
  // largest map (28x28) for its memory subsystem.
  EXPECT_EQ(plan.value().pes[0].memory->window_h, 5u);
  EXPECT_EQ(plan.value().pes[0].memory->map_w, 28u);
}

TEST(AccelPlan, TanhMarksTranscendental) {
  auto plan = plan_accelerator(with_default_annotations(nn::make_tc1()));
  ASSERT_TRUE(plan.is_ok());
  EXPECT_TRUE(plan.value().pes[0].uses_transcendental);   // conv1 + tanh
  EXPECT_FALSE(plan.value().pes[1].uses_transcendental);  // pool1
}

TEST(AccelPlan, PaddedLayerGrowsMemoryMap) {
  testing::TinyNetConfig config;
  config.in_size = 8;
  config.pad = 1;
  auto plan = plan_accelerator(
      with_default_annotations(testing::make_tiny_net(config)));
  ASSERT_TRUE(plan.is_ok());
  EXPECT_EQ(plan.value().pes[0].memory->map_w, 10u);  // 8 + 2*pad
}

TEST(AccelPlan, Vgg16FcUnsynthesizable) {
  auto plan = plan_accelerator(with_default_annotations(nn::make_vgg16()));
  ASSERT_FALSE(plan.is_ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kUnsynthesizable);
  EXPECT_NE(plan.status().message().find("fc6"), std::string::npos);
}

TEST(AccelPlan, Vgg16FeaturesSynthesizable) {
  auto plan = plan_accelerator(
      with_default_annotations(nn::make_vgg16().feature_extraction_prefix()));
  ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
  EXPECT_EQ(plan.value().pes.size(), 18u);  // 13 conv + 5 pool
}

TEST(AccelPlan, MacsPerCycleTracksParallelism) {
  HwNetwork net = with_default_annotations(nn::make_lenet());
  auto base = plan_accelerator(net);
  ASSERT_TRUE(base.is_ok());
  EXPECT_EQ(base.value().pes[0].macs_per_cycle, 25u);  // 5x5 window
  net.hw.layers[1].parallel_out = 4;
  auto parallel = plan_accelerator(net);
  ASSERT_TRUE(parallel.is_ok());
  EXPECT_EQ(parallel.value().pes[0].macs_per_cycle, 100u);
}

TEST(AccelPlan, DescribeListsAllPes) {
  auto plan = plan_accelerator(with_default_annotations(nn::make_tc1()));
  ASSERT_TRUE(plan.is_ok());
  const std::string text = describe(plan.value());
  for (const PePlan& pe : plan.value().pes) {
    EXPECT_NE(text.find(pe.name), std::string::npos) << pe.name;
  }
}

}  // namespace
}  // namespace condor::hw
