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
//
// Weighted passes also carry their chip-resident weights (paper §3.2: PEs
// keep their weights on chip): build_pe_program derives them once per
// compiled design from the WeightStore, which stands in for the weight
// regions of on-board memory, and the PEs read them as const data. The
// one-time DDR-to-chip weight load itself lives where it costs something:
// HLS codegen (the gmem_weights port and each PE's weight stream), the
// resource model's on-chip weight storage and the performance model's
// weight_load_cycles.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "hw/accel_plan.hpp"
#include "nn/network.hpp"
#include "nn/numeric.hpp"
#include "nn/weights.hpp"

namespace condor::dataflow {

enum class PassKind {
  kConvolution,
  kPooling,
  kElementwise,
  kInnerProduct,
  kEltwiseAdd,  ///< two-input join: element-wise sum
  kConcat,      ///< two-input join: channel concatenation
  kUpsample,    ///< nearest-neighbour spatial replication by `scale`
};

/// A two-input join pass: it reads its second operand from the PE's second
/// in-port, so it only ever runs as a PE's pass 0.
[[nodiscard]] constexpr bool is_join(PassKind kind) noexcept {
  return kind == PassKind::kEltwiseAdd || kind == PassKind::kConcat;
}

/// Whether the inner product on `data_type` keeps its weights as 8-bit row
/// pairs (ResidentWeights::pair_blocks) instead of a packed block: the one
/// test that both the block derivation and the PE's kernel choice read.
[[nodiscard]] constexpr bool inner_product_uses_pair_blocks(
    nn::DataType data_type) noexcept {
  return data_type == nn::DataType::kFixed8;
}

/// Chip-resident weight blocks of one weighted pass, in the layout the
/// pass's microkernel reads: convolution (ic, ky, kx, oc), inner product
/// transposed (in, out) — output channel innermost either way — except the
/// fixed8 inner product, which keeps its codes at the datapath's own width
/// as 8-bit row pairs in 64-output blocks (nn/kernels.hpp,
/// pack_fixed8_inner_product). The float datapath fills `packed` and
/// `bias`; the fixed datapaths fill the code blocks, quantized with the
/// QuantizedEngine's per-blob dynamic formats (one over the full weight
/// tensor, one over the bias), so the codes are identical by construction.
struct ResidentWeights {
  std::vector<float> packed;               ///< float: packed weights
  std::vector<float> bias;                 ///< float: raw bias seeds
  std::vector<std::int32_t> packed_codes;  ///< fixed: packed weight codes
  std::vector<std::int8_t> pair_blocks;    ///< fixed8 inner product
  std::vector<std::int32_t> bias_codes;    ///< fixed: bias codes
  int weight_frac = 0;
  int bias_frac = 0;

  /// Bytes of every block above: what the pass holds on chip.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return (packed.size() + bias.size()) * sizeof(float) +
           (packed_codes.size() + bias_codes.size()) * sizeof(std::int32_t) +
           pair_blocks.size();
  }
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
  /// Derived from `params` on the plan's datapath (weighted passes only).
  ResidentWeights resident;

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

  /// Weight elements latched on chip for this PE (per weighted pass: the
  /// weights plus the biases), once per compiled design; warm runs move
  /// none (weight residency — see pe.hpp).
  [[nodiscard]] std::size_t weight_elements() const noexcept;

  /// Bytes of every weighted pass's resident blocks, in the layouts the
  /// kernels read.
  [[nodiscard]] std::size_t resident_bytes() const noexcept;

  /// Elements the PE reads from its input edge per image (pass 0 input,
  /// unpadded).
  [[nodiscard]] std::size_t external_input_elements() const noexcept;
  /// Elements the PE emits downstream (last pass output).
  [[nodiscard]] std::size_t output_elements() const noexcept {
    return passes.empty() ? 0 : passes.back().output_elements();
  }
};

/// Builds the program for plan.pes[pe_index], resolving weights from
/// `weights` (pointers remain owned by the store — it must outlive the run)
/// and deriving every weighted pass's resident blocks on the plan's
/// datapath.
Result<PeProgram> build_pe_program(const hw::AcceleratorPlan& plan,
                                   std::size_t pe_index,
                                   const nn::WeightStore& weights);

}  // namespace condor::dataflow
