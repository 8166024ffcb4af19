#include "nn/quantization.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

namespace condor::nn {
namespace {

/// A fixed-point blob: integer codes plus the dynamic format they carry.
/// value[i] = codes[i] * 2^-frac_bits.
struct FixedBlob {
  Shape shape;
  std::vector<std::int32_t> codes;
  int frac_bits = 0;
};

/// Dequantizes, activates, and requantizes a finished layer output: the
/// canonical layer-boundary step of the fixed datapath. `raw` holds one
/// accumulator (or pooled code) per output element at scale `raw_frac`.
FixedBlob requantize_layer_output(Shape shape, std::span<const std::int64_t> raw,
                                  int raw_frac, Activation activation,
                                  int total_bits) {
  std::vector<float> values(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    values[i] = apply_activation(activation, dequantize_code(raw[i], raw_frac));
  }
  FixedBlob out;
  out.shape = std::move(shape);
  out.frac_bits = quantize_span(values, total_bits, out.codes).frac_bits;
  return out;
}

Result<FixedBlob> fixed_convolution(const LayerSpec& layer, const FixedBlob& in,
                                    const QuantizedParameters& params,
                                    int total_bits) {
  const std::size_t in_c = in.shape[0];
  const std::size_t in_h = in.shape[1];
  const std::size_t in_w = in.shape[2];
  CONDOR_ASSIGN_OR_RETURN(
      std::size_t out_h,
      window_output_extent(in_h, layer.kernel_h, layer.stride, layer.pad));
  CONDOR_ASSIGN_OR_RETURN(
      std::size_t out_w,
      window_output_extent(in_w, layer.kernel_w, layer.stride, layer.pad));
  const std::size_t out_c = layer.num_output;
  if (params.weights.size() != out_c * in_c * layer.kernel_h * layer.kernel_w) {
    return invalid_input("convolution '" + layer.name + "': weight shape mismatch");
  }
  const int acc_frac = params.weight_frac + in.frac_bits;

  // Zero-padded code frame — code 0 is exactly value 0, so the border is
  // neutral for the accumulation just as in the float engine.
  const std::size_t frame_h = in_h + 2 * layer.pad;
  const std::size_t frame_w = in_w + 2 * layer.pad;
  const std::int32_t* frame = in.codes.data();
  std::vector<std::int32_t> padded;
  if (layer.pad != 0) {
    padded.assign(in_c * frame_h * frame_w, 0);
    for (std::size_t ic = 0; ic < in_c; ++ic) {
      for (std::size_t y = 0; y < in_h; ++y) {
        std::memcpy(&padded[(ic * frame_h + y + layer.pad) * frame_w + layer.pad],
                    in.codes.data() + (ic * in_h + y) * in_w,
                    in_w * sizeof(std::int32_t));
      }
    }
    frame = padded.data();
  }

  // Integer accumulation is exact, so any iteration order yields the same
  // accumulator value — no need to mirror the float engine's schedule.
  std::vector<std::int64_t> acc(out_c * out_h * out_w);
  for (std::size_t oc = 0; oc < out_c; ++oc) {
    const std::int64_t seed =
        layer.has_bias
            ? realign_code(params.bias[oc], params.bias_frac, acc_frac)
            : 0;
    for (std::size_t oy = 0; oy < out_h; ++oy) {
      for (std::size_t ox = 0; ox < out_w; ++ox) {
        std::int64_t sum = seed;
        for (std::size_t ic = 0; ic < in_c; ++ic) {
          const std::int32_t* channel = frame + ic * frame_h * frame_w;
          const std::int32_t* wrow =
              params.weights.data() +
              (oc * in_c + ic) * layer.kernel_h * layer.kernel_w;
          for (std::size_t ky = 0; ky < layer.kernel_h; ++ky) {
            const std::int32_t* xrow =
                channel + (oy * layer.stride + ky) * frame_w + ox * layer.stride;
            for (std::size_t kx = 0; kx < layer.kernel_w; ++kx) {
              sum += static_cast<std::int64_t>(wrow[ky * layer.kernel_w + kx]) *
                     xrow[kx];
            }
          }
        }
        acc[(oc * out_h + oy) * out_w + ox] = sum;
      }
    }
  }
  return requantize_layer_output(Shape{out_c, out_h, out_w}, acc, acc_frac,
                                 layer.activation, total_bits);
}

Result<FixedBlob> fixed_pooling(const LayerSpec& layer, const FixedBlob& in,
                                int total_bits) {
  if (layer.pad != 0) {
    return invalid_input("pooling '" + layer.name +
                         "' with padding is not supported");
  }
  const std::size_t channels = in.shape[0];
  const std::size_t in_h = in.shape[1];
  const std::size_t in_w = in.shape[2];
  CONDOR_ASSIGN_OR_RETURN(
      std::size_t out_h,
      window_output_extent(in_h, layer.kernel_h, layer.stride, 0));
  CONDOR_ASSIGN_OR_RETURN(
      std::size_t out_w,
      window_output_extent(in_w, layer.kernel_w, layer.stride, 0));

  const bool is_max = layer.pool_method == PoolMethod::kMax;
  const float window_size = static_cast<float>(layer.kernel_h * layer.kernel_w);
  std::vector<float> values(channels * out_h * out_w);
  for (std::size_t c = 0; c < channels; ++c) {
    const std::int32_t* map = in.codes.data() + c * in_h * in_w;
    for (std::size_t oy = 0; oy < out_h; ++oy) {
      for (std::size_t ox = 0; ox < out_w; ++ox) {
        // Dequantization is monotone, so max over codes is max over values;
        // the average sums codes exactly and divides once in float.
        std::int64_t acc = is_max ? std::numeric_limits<std::int64_t>::min() : 0;
        for (std::size_t ky = 0; ky < layer.kernel_h; ++ky) {
          const std::int32_t* row =
              map + (oy * layer.stride + ky) * in_w + ox * layer.stride;
          for (std::size_t kx = 0; kx < layer.kernel_w; ++kx) {
            acc = is_max ? std::max<std::int64_t>(acc, row[kx]) : acc + row[kx];
          }
        }
        float value = dequantize_code(acc, in.frac_bits);
        if (!is_max) {
          value /= window_size;
        }
        values[(c * out_h + oy) * out_w + ox] =
            apply_activation(layer.activation, value);
      }
    }
  }
  FixedBlob out;
  out.shape = Shape{channels, out_h, out_w};
  out.frac_bits = quantize_span(values, total_bits, out.codes).frac_bits;
  return out;
}

Result<FixedBlob> fixed_inner_product(const LayerSpec& layer, const FixedBlob& in,
                                      const QuantizedParameters& params,
                                      int total_bits) {
  const std::size_t in_count = in.codes.size();
  const std::size_t out_count = layer.num_output;
  if (params.weights.size() != out_count * in_count) {
    return invalid_input("inner product '" + layer.name +
                         "': weight shape mismatch");
  }
  const int acc_frac = params.weight_frac + in.frac_bits;

  std::vector<std::int64_t> acc(out_count);
  for (std::size_t o = 0; o < out_count; ++o) {
    std::int64_t sum =
        layer.has_bias
            ? realign_code(params.bias[o], params.bias_frac, acc_frac)
            : 0;
    const std::int32_t* row = params.weights.data() + o * in_count;
    for (std::size_t i = 0; i < in_count; ++i) {
      sum += static_cast<std::int64_t>(row[i]) * in.codes[i];
    }
    acc[o] = sum;
  }
  return requantize_layer_output(Shape{out_count}, acc, acc_frac,
                                 layer.activation, total_bits);
}

FixedBlob fixed_activation(Activation activation, const FixedBlob& in,
                           int total_bits) {
  std::vector<float> values(in.codes.size());
  for (std::size_t i = 0; i < in.codes.size(); ++i) {
    values[i] =
        apply_activation(activation, dequantize_code(in.codes[i], in.frac_bits));
  }
  FixedBlob out;
  out.shape = in.shape;
  out.frac_bits = quantize_span(values, total_bits, out.codes).frac_bits;
  return out;
}

Result<FixedBlob> fixed_eltwise_add(const LayerSpec& layer, const FixedBlob& a,
                                    const FixedBlob& b, int total_bits) {
  if (a.shape != b.shape) {
    return invalid_input("eltwise_add '" + layer.name +
                         "': input shapes disagree");
  }
  // Realign both operands to the finer of the two dynamic formats — an
  // exact shift left in int64 — then add: the sum carries frac = max(fa,fb)
  // and feeds the canonical dequantize→activate→requantize boundary step.
  // The executor's PE module mirrors this arithmetic exactly in its
  // eltwise-add pass.
  const int common = std::max(a.frac_bits, b.frac_bits);
  std::vector<std::int64_t> raw(a.codes.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    raw[i] = realign_code(a.codes[i], a.frac_bits, common) +
             realign_code(b.codes[i], b.frac_bits, common);
  }
  return requantize_layer_output(a.shape, raw, common, layer.activation,
                                 total_bits);
}

Result<FixedBlob> fixed_concat(const LayerSpec& layer, const FixedBlob& a,
                               const FixedBlob& b, int total_bits) {
  if (a.shape.rank() != 3 || b.shape.rank() != 3 || a.shape[1] != b.shape[1] ||
      a.shape[2] != b.shape[2]) {
    return invalid_input("concat '" + layer.name +
                         "': input spatial extents disagree");
  }
  // The operands carry different dynamic formats, so the joined blob is
  // rebuilt in value space and requantized with one fresh format.
  std::vector<float> values(a.codes.size() + b.codes.size());
  for (std::size_t i = 0; i < a.codes.size(); ++i) {
    values[i] = apply_activation(layer.activation,
                                 dequantize_code(a.codes[i], a.frac_bits));
  }
  for (std::size_t i = 0; i < b.codes.size(); ++i) {
    values[a.codes.size() + i] = apply_activation(
        layer.activation, dequantize_code(b.codes[i], b.frac_bits));
  }
  FixedBlob out;
  out.shape = Shape{a.shape[0] + b.shape[0], a.shape[1], a.shape[2]};
  out.frac_bits = quantize_span(values, total_bits, out.codes).frac_bits;
  return out;
}

FixedBlob fixed_upsample(const LayerSpec& layer, const FixedBlob& in,
                         int total_bits) {
  const std::size_t channels = in.shape[0];
  const std::size_t in_h = in.shape[1];
  const std::size_t in_w = in.shape[2];
  const std::size_t scale = layer.stride;
  std::vector<float> values(channels * in_h * scale * in_w * scale);
  const std::size_t out_w = in_w * scale;
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t y = 0; y < in_h; ++y) {
      for (std::size_t x = 0; x < in_w; ++x) {
        const float value = apply_activation(
            layer.activation,
            dequantize_code(in.codes[(c * in_h + y) * in_w + x], in.frac_bits));
        for (std::size_t sy = 0; sy < scale; ++sy) {
          float* row =
              values.data() + ((c * in_h + y) * scale + sy) * out_w + x * scale;
          for (std::size_t sx = 0; sx < scale; ++sx) {
            row[sx] = value;
          }
        }
      }
    }
  }
  FixedBlob out;
  out.shape = Shape{channels, in_h * scale, in_w * scale};
  out.frac_bits = quantize_span(values, total_bits, out.codes).frac_bits;
  return out;
}

Tensor dequantize_blob(const FixedBlob& blob) {
  Tensor out(blob.shape);
  const auto view = out.data();
  for (std::size_t i = 0; i < blob.codes.size(); ++i) {
    view[i] = dequantize_code(blob.codes[i], blob.frac_bits);
  }
  return out;
}

}  // namespace

Result<WeightStore> quantize_weights(const WeightStore& weights, DataType type) {
  if (type == DataType::kFloat32) {
    return weights;
  }
  const int bits = total_bits(type);
  WeightStore quantized;
  for (const auto& [name, params] : weights.all()) {
    LayerParameters out;
    out.weights = params.weights;
    quantize_tensor(out.weights, bits);
    if (!params.bias.empty()) {
      out.bias = params.bias;
      quantize_tensor(out.bias, bits);
    }
    quantized.set(name, std::move(out));
  }
  return quantized;
}

Result<QuantizedEngine> QuantizedEngine::create(Network network,
                                                WeightStore weights,
                                                DataType type) {
  CONDOR_ASSIGN_OR_RETURN(
      ReferenceEngine engine,
      ReferenceEngine::create(std::move(network), std::move(weights)));
  const int bits = total_bits(type);
  std::vector<QuantizedParameters> params;
  if (is_fixed_point(type)) {
    // One dynamic format for the full weight blob, one for the bias — the
    // same blobs the PEs see on the weight stream, so the codes match by
    // construction.
    const auto& layers = engine.network().layers();
    params.resize(layers.size());
    for (std::size_t i = 0; i < layers.size(); ++i) {
      if (!layers[i].has_weights()) {
        continue;
      }
      const LayerParameters* raw = engine.weights().find(layers[i].name);
      if (raw == nullptr) {
        return not_found("no weights for '" + layers[i].name + "'");
      }
      QuantizedParameters& codes = params[i];
      codes.weight_frac =
          quantize_span(raw->weights.data(), bits, codes.weights).frac_bits;
      codes.bias_frac = bits - 1;
      if (layers[i].has_bias) {
        codes.bias_frac =
            quantize_span(raw->bias.data(), bits, codes.bias).frac_bits;
      }
    }
  }
  return QuantizedEngine(std::move(engine), type, bits, std::move(params));
}

Result<Tensor> QuantizedEngine::forward(const Tensor& input) const {
  if (type_ == DataType::kFloat32) {
    return engine_.forward(input);
  }
  // The integer datapath: quantize the image once, then carry codes along
  // the topologically sorted DAG, requantizing each output blob with a
  // fresh dynamic format (see nn/numeric.hpp for the conventions). Producer
  // blobs are released once their last consumer has fired.
  const Network& net = engine_.network();
  CONDOR_ASSIGN_OR_RETURN(const auto order, net.topological_order());
  CONDOR_ASSIGN_OR_RETURN(const auto consumer_table, net.consumers());
  std::vector<std::size_t> remaining(net.layer_count());
  for (std::size_t i = 0; i < remaining.size(); ++i) {
    remaining[i] = consumer_table[i].size();
  }
  FixedBlob image;
  image.shape = input.shape();
  image.frac_bits =
      quantize_span(input.data(), total_bits_, image.codes).frac_bits;
  std::vector<FixedBlob> blobs(net.layer_count());
  for (std::size_t i : order) {
    const LayerSpec& layer = net.layers()[i];
    CONDOR_ASSIGN_OR_RETURN(const auto prods, net.producers(i));
    const FixedBlob& in0 = prods.empty() ? image : blobs[prods[0]];
    switch (layer.kind) {
      case LayerKind::kInput:
        blobs[i] = image;
        break;
      case LayerKind::kConvolution: {
        CONDOR_ASSIGN_OR_RETURN(
            blobs[i], fixed_convolution(layer, in0, params_[i], total_bits_));
        break;
      }
      case LayerKind::kPooling: {
        CONDOR_ASSIGN_OR_RETURN(blobs[i],
                                fixed_pooling(layer, in0, total_bits_));
        break;
      }
      case LayerKind::kInnerProduct: {
        CONDOR_ASSIGN_OR_RETURN(
            blobs[i], fixed_inner_product(layer, in0, params_[i], total_bits_));
        break;
      }
      case LayerKind::kActivation:
        blobs[i] = fixed_activation(layer.activation, in0, total_bits_);
        break;
      case LayerKind::kSoftmax:
        // The normalization runs on the host in float (see the planner):
        // dequantize and finish in floating point, no requantization.
        // validate() pins softmax as the network's unique sink.
        return forward_softmax(dequantize_blob(in0));
      case LayerKind::kEltwiseAdd: {
        CONDOR_ASSIGN_OR_RETURN(
            blobs[i],
            fixed_eltwise_add(layer, in0, blobs[prods[1]], total_bits_));
        break;
      }
      case LayerKind::kConcat: {
        CONDOR_ASSIGN_OR_RETURN(
            blobs[i], fixed_concat(layer, in0, blobs[prods[1]], total_bits_));
        break;
      }
      case LayerKind::kUpsample:
        blobs[i] = fixed_upsample(layer, in0, total_bits_);
        break;
    }
    for (std::size_t p : prods) {
      if (--remaining[p] == 0) {
        blobs[p] = FixedBlob{};
      }
    }
  }
  return dequantize_blob(blobs.back());
}

QuantizationError compare_outputs(const Tensor& reference, const Tensor& quantized) {
  QuantizationError error;
  const auto ref = reference.data();
  const auto quant = quantized.data();
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const float diff = std::fabs(ref[i] - quant[i]);
    error.max_abs_error = std::max(error.max_abs_error, diff);
    error.mean_abs_error += diff;
  }
  if (!ref.empty()) {
    error.mean_abs_error /= static_cast<float>(ref.size());
  }
  error.argmax_match = argmax(reference) == argmax(quantized);
  return error;
}

}  // namespace condor::nn
