// Layer descriptors for the CNN intermediate representation.
//
// Condor accelerates inference of sequential CNNs made of the layer types
// described in paper §2: convolution (with optional fused activation),
// sub-sampling/pooling (max or average), fully-connected (inner product),
// standalone activations, and a final softmax normalization. The descriptors
// are pure data — shape inference and execution live in network.cpp and
// reference.cpp.
#pragma once

#include <cmath>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "tensor/tensor.hpp"

namespace condor::nn {

enum class LayerKind {
  kInput,         ///< declares the input blob shape (CHW)
  kConvolution,   ///< 2-D convolution, paper eq. (1)-(2)
  kPooling,       ///< sub-sampling, paper eq. (3)
  kInnerProduct,  ///< fully-connected, paper eq. (4)
  kActivation,    ///< element-wise non-linearity as a standalone layer
  kSoftmax,       ///< normalization layer, paper eq. (5)
  kEltwiseAdd,    ///< element-wise sum of two producer blobs (residual join)
  kConcat,        ///< channel concatenation of two producer blobs (route join)
  kUpsample,      ///< nearest-neighbour spatial upsampling by `stride`
};

enum class Activation {
  kNone,
  kReLU,       ///< f(x) = max(0, x)
  kSigmoid,    ///< f(x) = 1 / (1 + e^-x)
  kTanH,       ///< f(x) = tanh(x)
  kLeakyReLU,  ///< f(x) = x > 0 ? x : kLeakyReluSlope * x
};

/// Negative-side slope of Activation::kLeakyReLU. Fixed at the Darknet/YOLO
/// convention; importers accept only models whose alpha matches.
inline constexpr float kLeakyReluSlope = 0.1F;

enum class PoolMethod { kMax, kAverage };

std::string_view to_string(LayerKind kind) noexcept;
std::string_view to_string(Activation activation) noexcept;
std::string_view to_string(PoolMethod method) noexcept;

/// Parses the lowercase identifiers produced by to_string (and the Caffe
/// spellings "MAX"/"AVE" for pool methods).
Result<LayerKind> parse_layer_kind(std::string_view text);
Result<Activation> parse_activation(std::string_view text);
Result<PoolMethod> parse_pool_method(std::string_view text);

/// One layer of the network DAG. Fields not applicable to a kind are
/// ignored (and validated to be at defaults by Network::validate()).
struct LayerSpec {
  std::string name;
  LayerKind kind = LayerKind::kConvolution;

  /// Names of the producer layers whose output blobs this layer consumes.
  /// Empty means "the previous layer in declaration order" — the implicit
  /// linear chain every pre-DAG network uses, kept byte-for-byte compatible.
  /// Join kinds (kEltwiseAdd, kConcat) name exactly two producers; every
  /// other kind names at most one.
  std::vector<std::string> inputs;

  // kInput
  std::size_t input_channels = 0;
  std::size_t input_height = 0;
  std::size_t input_width = 0;

  // kConvolution / kPooling common window geometry
  std::size_t kernel_h = 0;
  std::size_t kernel_w = 0;
  std::size_t stride = 1;
  std::size_t pad = 0;

  // kConvolution / kInnerProduct
  std::size_t num_output = 0;  ///< output feature maps / neurons
  bool has_bias = true;

  // kPooling
  PoolMethod pool_method = PoolMethod::kMax;

  // kConvolution fused activation, or the function of a kActivation layer.
  Activation activation = Activation::kNone;

  /// True for layers mapped to feature-extraction PEs (sliding window),
  /// i.e. convolution and pooling. Paper §3.2 clusters only like layers.
  [[nodiscard]] bool is_feature_extraction() const noexcept {
    return kind == LayerKind::kConvolution || kind == LayerKind::kPooling;
  }

  /// True for layers that own trainable parameters.
  [[nodiscard]] bool has_weights() const noexcept {
    return kind == LayerKind::kConvolution || kind == LayerKind::kInnerProduct;
  }

  /// True for the two-input join kinds that merge producer blobs.
  [[nodiscard]] bool is_join() const noexcept {
    return kind == LayerKind::kEltwiseAdd || kind == LayerKind::kConcat;
  }
};

/// Output spatial size of a sliding-window layer along one axis, paper
/// eq. (2) for convolutions (stride 1, pad 0 reduces to old - f + 1) and
/// eq. (3) for pooling. Returns an error when the window does not fit.
Result<std::size_t> window_output_extent(std::size_t input, std::size_t kernel,
                                         std::size_t stride, std::size_t pad);

/// Floating-point operation count of one layer given its input/output
/// shapes. MACs count as 2 FLOPs (multiply + add), matching the convention
/// used by the paper's GFLOPS figures; pooling counts one op per window
/// element (compare or add).
std::uint64_t layer_flops(const LayerSpec& layer, const Shape& input,
                          const Shape& output) noexcept;

/// Applies an activation function to a single value. Inline: every pass
/// boundary of both engines and every PE pass calls it once per element.
inline float apply_activation(Activation activation, float x) noexcept {
  switch (activation) {
    case Activation::kNone:
      return x;
    case Activation::kReLU:
      return x > 0.0F ? x : 0.0F;
    case Activation::kSigmoid:
      return 1.0F / (1.0F + std::exp(-x));
    case Activation::kTanH:
      return std::tanh(x);
    case Activation::kLeakyReLU:
      return x > 0.0F ? x : kLeakyReluSlope * x;
  }
  return x;
}

}  // namespace condor::nn
