// Fixed-point quantization study (extension).
//
// The paper's accelerator computes in single-precision float; contemporary
// work it cites (Qiu et al., FPGA'16 [14]) shows dynamic-precision fixed
// point cuts bandwidth and resources "with negligible impact on the
// resulting accuracy". The numeric primitives (formats, rounding,
// quantize/dequantize codes) live in nn/numeric.hpp and are shared with the
// dataflow engine; this module provides the layer-level golden reference:
// weight quantization and a fixed-point inference engine that executes the
// canonical integer datapath the accelerator PEs implement, used both by
// the quantization ablation bench (accuracy cost on the model zoo) and as
// the bit-exactness oracle for `condor validate --data-type fixed16|fixed8`.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "nn/network.hpp"
#include "nn/numeric.hpp"
#include "nn/reference.hpp"
#include "nn/weights.hpp"

namespace condor::nn {

/// Quantizes all weights/biases of a store (per-blob dynamic formats,
/// weights and bias of a layer each get their own format).
Result<WeightStore> quantize_weights(const WeightStore& weights, DataType type);

/// One weighted layer's parameter blobs as fixed-point codes: one dynamic
/// format over the weight tensor, one over the bias.
struct QuantizedParameters {
  std::vector<std::int32_t> weights;
  int weight_frac = 0;
  std::vector<std::int32_t> bias;
  int bias_frac = 0;
};

/// Inference at a selected DataType.
///
/// float32 delegates to the float ReferenceEngine unchanged. The fixed
/// types execute the canonical integer datapath (see nn/numeric.hpp):
/// blobs are integer codes with a dynamic per-blob format, MACs accumulate
/// raw codes in a widened integer, and every layer boundary dequantizes,
/// applies the activation in float, and requantizes the whole blob with a
/// fresh format. The dataflow executor performs the identical operations
/// (integer sums are exact and order-independent; the float conversions
/// happen at the same points with the same inputs), so executor outputs are
/// bit-exact against this engine per DataType.
class QuantizedEngine {
 public:
  /// Keeps the RAW float weights (the float32 path runs on them) and, for a
  /// fixed type, quantizes every weighted layer's blobs once, here — what
  /// the dataflow PEs do with the raw weight stream, so both sides derive
  /// identical codes and formats, and forward() never touches a parameter
  /// float.
  static Result<QuantizedEngine> create(Network network, WeightStore weights,
                                        DataType type);

  Result<Tensor> forward(const Tensor& input) const;

  [[nodiscard]] DataType data_type() const noexcept { return type_; }

 private:
  QuantizedEngine(ReferenceEngine engine, DataType type, int total_bits,
                  std::vector<QuantizedParameters> params)
      : engine_(std::move(engine)),
        type_(type),
        total_bits_(total_bits),
        params_(std::move(params)) {}

  ReferenceEngine engine_;
  DataType type_;
  int total_bits_;
  /// Indexed by layer; empty for unweighted layers and for float32.
  std::vector<QuantizedParameters> params_;
};

/// Error metrics between a float reference output and a quantized output.
struct QuantizationError {
  float max_abs_error = 0.0F;
  float mean_abs_error = 0.0F;
  bool argmax_match = true;
};
QuantizationError compare_outputs(const Tensor& reference, const Tensor& quantized);

}  // namespace condor::nn
