// Accelerator planning: the core-logic "Layer Creation" and "Network
// Creation" modules (paper §3.1.2, §3.2, §3.3 steps 3-5).
//
// From a hardware-annotated network this derives the complete structural
// description of the dataflow accelerator:
//
//  * one PE per layer cluster (pe_group fusion, or 1:1 spatial unfolding),
//  * for every feature-extraction PE, the memory subsystem: per parallel
//    input map, a pipeline of filters interleaved by FIFOs implementing
//    non-uniform memory partitioning (Cong et al., DAC'14). Filters are
//    ordered in lexicographically inverse order of their window access and
//    each inter-filter FIFO is sized as the spatial distance between the two
//    accesses it separates, so exactly the live span of the sliding window
//    ((Kh-1)*W + Kw-1 elements) is buffered on chip,
//  * fully-connected layers planned as single-input/single-output 1x1
//    convolution PEs without a memory subsystem (§3.3 step 4),
//  * the inter-PE stream edges and the datamover attachment points.
//
// The plan is consumed by three backends: the resource model (area), the
// HLS code generator (C sources), and the dataflow engine (simulation).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "hw/hw_ir.hpp"

namespace condor::hw {

enum class PeKind {
  kFeature,     ///< convolution / pooling (possibly fused run of them)
  kClassifier,  ///< fully-connected layers as 1x1 convolutions
  kElementwise, ///< standalone activation / upsample that could not be fused
  kJoin,        ///< two-input eltwise-add / concat merge point of a DAG
};

/// One access point of the sliding window, identified by its (ky, kx)
/// offset within the window.
struct WindowAccess {
  std::size_t ky = 0;
  std::size_t kx = 0;
};

/// The data domain of a filter (paper §3.2): whether padded-frame element
/// (y, x) is the `access` entry of some output point of a window walked at
/// `stride` over an out_h x out_w output. The inequalities, per axis:
///
///     y >= ky      (y - ky) mod stride == 0      (y - ky) / stride < out_h
///
/// and the same for x with kx and out_w.
[[nodiscard]] inline bool in_domain(const WindowAccess& access,
                                    std::size_t stride, std::size_t out_h,
                                    std::size_t out_w, std::size_t y,
                                    std::size_t x) noexcept {
  if (y < access.ky || x < access.kx) {
    return false;
  }
  const std::size_t ry = y - access.ky;
  const std::size_t rx = x - access.kx;
  return ry % stride == 0 && rx % stride == 0 && ry / stride < out_h &&
         rx / stride < out_w;
}

/// One filter in a memory pipeline plus the FIFO connecting it to the next
/// filter downstream (depth 0 for the last filter in the chain).
struct FilterNode {
  WindowAccess access;
  std::size_t fifo_to_next_depth = 0;
};

/// The reuse-buffer pipeline for ONE concurrently-read input feature map.
/// A PE with parallel_in = P instantiates P copies.
struct MemoryPipelinePlan {
  std::size_t window_h = 0;  ///< largest window among the fused layers
  std::size_t window_w = 0;
  std::size_t map_h = 0;     ///< largest input map among the fused layers
  std::size_t map_w = 0;     ///< (governs FIFO sizing, paper §3.2)
  std::vector<FilterNode> filters;  ///< lexicographically inverse order

  /// Total elements held in inter-filter FIFOs = (Kh-1)*W + (Kw-1).
  [[nodiscard]] std::size_t buffered_elements() const noexcept;
};

/// One processing element of the high-level pipeline.
struct PePlan {
  std::string name;
  PeKind kind = PeKind::kFeature;
  std::vector<std::size_t> layer_indices;  ///< network layer indices, in order
  std::size_t parallel_in = 1;
  std::size_t parallel_out = 1;
  std::optional<MemoryPipelinePlan> memory;  ///< feature PEs only

  // Derived figures used by the resource/performance models.
  std::size_t weight_elements = 0;  ///< on-chip weight+bias storage (floats)
  std::size_t macs_per_cycle = 0;   ///< concurrent MAC datapaths
  bool uses_transcendental = false; ///< tanh/sigmoid present (DSP-heavy)
};

/// A FIFO stream edge between PEs (or datamover endpoints). The edge list
/// carries the plan's DAG: a PE appearing as from_pe on several edges fans
/// its output blob out to every consumer, and a join PE receives its two
/// operands on to_port 0 and 1 (matching its layer's `inputs` order).
struct StreamEdge {
  std::size_t from_pe = 0;  ///< index into pes, or kDatamover
  std::size_t to_pe = 0;
  std::size_t to_port = 0;  ///< operand index at the consumer (joins: 0/1)
  std::size_t fifo_depth = 0;
  static constexpr std::size_t kDatamover = static_cast<std::size_t>(-1);
};

/// Complete structural plan of one accelerator.
struct AcceleratorPlan {
  HwNetwork source;
  /// source.net's analyzed topology (producers, consumers, order, shapes),
  /// shared by every copy of the plan. Backends and models read shapes here.
  std::shared_ptr<const nn::Topology> topology;
  /// FLOPs the accelerator performs per image (a host-side softmax is not
  /// counted).
  std::uint64_t flops_per_image = 0;
  BoardSpec board;
  std::vector<PePlan> pes;       ///< topological pipeline order
  std::vector<StreamEdge> edges; ///< the inter-PE DAG, datamover at the rims
  bool softmax_on_host = false;  ///< final softmax deferred to host code

  /// Depth of the high-level pipeline (#PEs) — governs the batch size at
  /// which Figure 5's mean-time-per-image curve converges.
  [[nodiscard]] std::size_t pipeline_depth() const noexcept { return pes.size(); }

  /// Numeric datapath selected by the source annotations; honored by the
  /// dataflow engine, the HLS code generator and the cost/timing models.
  [[nodiscard]] nn::DataType data_type() const noexcept {
    return source.hw.data_type;
  }
};

/// Derives the filter chain for a Kh x Kw window over a map_w-wide input:
/// accesses in lexicographically inverse order, FIFO depths equal to the
/// spatial distance to the next access. Exposed for direct unit testing.
std::vector<FilterNode> plan_filter_chain(std::size_t window_h, std::size_t window_w,
                                          std::size_t map_w);

/// Builds the accelerator plan. Fails with kUnsynthesizable when a layer
/// cannot be mapped (e.g. a classifier layer whose weight storage exceeds
/// any single PE's addressable BRAM — the VGG-16 FC case from the paper).
Result<AcceleratorPlan> plan_accelerator(const HwNetwork& network);

/// Human-readable plan dump (one line per PE + memory subsystem summary).
std::string describe(const AcceleratorPlan& plan);

}  // namespace condor::hw
