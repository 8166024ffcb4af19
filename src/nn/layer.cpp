#include "nn/layer.hpp"

#include "common/strings.hpp"

namespace condor::nn {

std::string_view to_string(LayerKind kind) noexcept {
  switch (kind) {
    case LayerKind::kInput:
      return "input";
    case LayerKind::kConvolution:
      return "convolution";
    case LayerKind::kPooling:
      return "pooling";
    case LayerKind::kInnerProduct:
      return "inner_product";
    case LayerKind::kActivation:
      return "activation";
    case LayerKind::kSoftmax:
      return "softmax";
    case LayerKind::kEltwiseAdd:
      return "eltwise_add";
    case LayerKind::kConcat:
      return "concat";
    case LayerKind::kUpsample:
      return "upsample";
  }
  return "?";
}

std::string_view to_string(Activation activation) noexcept {
  switch (activation) {
    case Activation::kNone:
      return "none";
    case Activation::kReLU:
      return "relu";
    case Activation::kSigmoid:
      return "sigmoid";
    case Activation::kTanH:
      return "tanh";
    case Activation::kLeakyReLU:
      return "leaky_relu";
  }
  return "?";
}

std::string_view to_string(PoolMethod method) noexcept {
  switch (method) {
    case PoolMethod::kMax:
      return "max";
    case PoolMethod::kAverage:
      return "average";
  }
  return "?";
}

Result<LayerKind> parse_layer_kind(std::string_view text) {
  const std::string lower = strings::to_lower(text);
  if (lower == "input") {
    return LayerKind::kInput;
  }
  if (lower == "convolution" || lower == "conv") {
    return LayerKind::kConvolution;
  }
  if (lower == "pooling" || lower == "pool") {
    return LayerKind::kPooling;
  }
  if (lower == "inner_product" || lower == "innerproduct" || lower == "fc") {
    return LayerKind::kInnerProduct;
  }
  if (lower == "activation" || lower == "relu" || lower == "sigmoid" ||
      lower == "tanh" || lower == "leaky_relu") {
    return LayerKind::kActivation;
  }
  if (lower == "softmax") {
    return LayerKind::kSoftmax;
  }
  if (lower == "eltwise_add" || lower == "eltwise" || lower == "add" ||
      lower == "shortcut") {
    return LayerKind::kEltwiseAdd;
  }
  if (lower == "concat" || lower == "route") {
    return LayerKind::kConcat;
  }
  if (lower == "upsample") {
    return LayerKind::kUpsample;
  }
  return invalid_input("unknown layer kind '" + std::string(text) + "'");
}

Result<Activation> parse_activation(std::string_view text) {
  const std::string lower = strings::to_lower(text);
  if (lower == "none" || lower.empty()) {
    return Activation::kNone;
  }
  if (lower == "relu") {
    return Activation::kReLU;
  }
  if (lower == "sigmoid") {
    return Activation::kSigmoid;
  }
  if (lower == "tanh") {
    return Activation::kTanH;
  }
  if (lower == "leaky_relu" || lower == "leaky") {
    return Activation::kLeakyReLU;
  }
  return invalid_input("unknown activation '" + std::string(text) + "'");
}

Result<PoolMethod> parse_pool_method(std::string_view text) {
  const std::string lower = strings::to_lower(text);
  if (lower == "max") {
    return PoolMethod::kMax;
  }
  if (lower == "average" || lower == "ave" || lower == "avg") {
    return PoolMethod::kAverage;
  }
  return invalid_input("unknown pool method '" + std::string(text) + "'");
}

Result<std::size_t> window_output_extent(std::size_t input, std::size_t kernel,
                                         std::size_t stride, std::size_t pad) {
  if (kernel == 0 || stride == 0) {
    return invalid_input("window kernel and stride must be positive");
  }
  std::size_t padded = 0;
  if (__builtin_mul_overflow(pad, std::size_t{2}, &padded) ||
      __builtin_add_overflow(input, padded, &padded)) {
    return invalid_input(strings::format(
        "window input extent %zu with pad %zu overflows size_t", input, pad));
  }
  if (padded < kernel) {
    return invalid_input(strings::format(
        "window %zu does not fit input extent %zu (pad %zu)", kernel, input, pad));
  }
  // Paper eq. (2)/(3): floor((in - f) / stride) + 1.
  return (padded - kernel) / stride + 1;
}

std::uint64_t layer_flops(const LayerSpec& layer, const Shape& input,
                          const Shape& output) noexcept {
  switch (layer.kind) {
    case LayerKind::kInput:
      return 0;
    case LayerKind::kConvolution: {
      // Per output point: Cin * Kh * Kw MACs (2 FLOPs each) + optional bias add.
      const std::uint64_t out_points = output.element_count();
      const std::uint64_t macs_per_point =
          static_cast<std::uint64_t>(input[0]) * layer.kernel_h * layer.kernel_w;
      std::uint64_t flops = out_points * macs_per_point * 2;
      if (layer.has_bias) {
        flops += out_points;
      }
      if (layer.activation != Activation::kNone) {
        flops += out_points;
      }
      return flops;
    }
    case LayerKind::kPooling: {
      // One compare/add per window element per output point.
      return output.element_count() *
             static_cast<std::uint64_t>(layer.kernel_h) * layer.kernel_w;
    }
    case LayerKind::kInnerProduct: {
      const std::uint64_t in_count = input.element_count();
      const std::uint64_t out_count = output.element_count();
      std::uint64_t flops = in_count * out_count * 2;
      if (layer.has_bias) {
        flops += out_count;
      }
      if (layer.activation != Activation::kNone) {
        flops += out_count;
      }
      return flops;
    }
    case LayerKind::kActivation:
      return output.element_count();
    case LayerKind::kSoftmax:
      // exp + add + divide per element.
      return output.element_count() * 3;
    case LayerKind::kEltwiseAdd: {
      // One add per output element, plus the optional fused activation.
      std::uint64_t flops = output.element_count();
      if (layer.activation != Activation::kNone) {
        flops += output.element_count();
      }
      return flops;
    }
    case LayerKind::kConcat:
    case LayerKind::kUpsample:
      // Pure data movement: no arithmetic.
      return 0;
  }
  return 0;
}

}  // namespace condor::nn
