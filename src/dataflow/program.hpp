// PeProgram: the per-image schedule of a PE.
//
// A PE may implement several fused logical layers (paper §3.2: "an
// additional outer loop that iterates through the implemented layers, and a
// set of conditionals to infer which input ports must be read"). The
// program lists one LayerPass per fused layer. Pass 0's input blob arrives
// on the PE's input edge; the PE runs every pass and keeps each
// intermediate blob on chip, indexing the next pass's windows in it
// (dataflow/pe.hpp). Every module derives its stream traffic from the same
// program, so the stream contents stay deterministic without control
// tokens — exactly like the synthesized hardware, where the schedule is
// compiled into each module's loop nest.
#pragma once

#include <cstddef>
#include <vector>

#include "common/status.hpp"
#include "hw/accel_plan.hpp"
#include "nn/network.hpp"
#include "nn/weights.hpp"

namespace condor::dataflow {

enum class PassKind {
  kConvolution,
  kPooling,
  kElementwise,
  kInnerProduct,
  kEltwiseAdd,  ///< two-input join: element-wise sum (join PEs only)
  kConcat,      ///< two-input join: channel concatenation (join PEs only)
  kUpsample,    ///< nearest-neighbour spatial replication by `scale`
};

/// One fused layer's geometry and parameters as seen by the dataflow
/// modules. Spatial coordinates are in the *padded* frame: the PE indexes
/// its windows in the input blob surrounded by a zero border of `pad` per
/// side, so the window arithmetic needs no padding logic.
struct LayerPass {
  PassKind kind = PassKind::kConvolution;
  // Input geometry (padded).
  std::size_t in_channels = 0;
  std::size_t in_h = 0;  ///< includes 2*pad
  std::size_t in_w = 0;
  std::size_t pad = 0;   ///< zero border per side of the padded frame
  // Window.
  std::size_t window_h = 1;
  std::size_t window_w = 1;
  std::size_t stride = 1;
  /// Nearest-neighbour replication factor (kUpsample only). Kept apart from
  /// `stride`, which every windowed pass interprets as subsampling.
  std::size_t scale = 1;
  // Output geometry.
  std::size_t out_channels = 0;
  std::size_t out_h = 0;
  std::size_t out_w = 0;
  // Operation details.
  nn::PoolMethod pool_method = nn::PoolMethod::kMax;
  nn::Activation activation = nn::Activation::kNone;
  bool has_bias = false;
  const nn::LayerParameters* params = nullptr;  ///< conv / inner-product

  [[nodiscard]] std::size_t input_elements() const noexcept {
    return in_channels * in_h * in_w;
  }
  [[nodiscard]] std::size_t output_elements() const noexcept {
    return out_channels * out_h * out_w;
  }
};

/// The full schedule of one PE.
struct PeProgram {
  std::vector<LayerPass> passes;

  /// Weight elements the datamover streams to this PE, in canonical order
  /// (per weighted pass: all weights oc-major, then the biases). Every PE
  /// receives this exactly once per compiled design (weight residency: the
  /// slices latch on chip at the first run and every warm run moves zero
  /// weight bytes — see pe.hpp).
  [[nodiscard]] std::size_t weight_stream_elements() const noexcept;

  /// Elements the PE reads from its input edge per image (pass 0 input,
  /// unpadded).
  [[nodiscard]] std::size_t external_input_elements() const noexcept;
  /// Elements the PE emits downstream (last pass output).
  [[nodiscard]] std::size_t output_elements() const noexcept {
    return passes.empty() ? 0 : passes.back().output_elements();
  }
};

/// Builds the program for plan.pes[pe_index], resolving weights from
/// `weights` (pointers remain owned by the store — it must outlive the run).
Result<PeProgram> build_pe_program(const hw::AcceleratorPlan& plan,
                                   std::size_t pe_index,
                                   const nn::WeightStore& weights);

}  // namespace condor::dataflow
