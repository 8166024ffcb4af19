#include "nn/reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/strings.hpp"
#include "nn/kernels.hpp"

namespace condor::nn {
namespace {

/// Minimum multiply-accumulate count before a convolution is worth sharding
/// over output channels (below it the fork-join overhead dominates).
constexpr std::size_t kConvShardMacThreshold = 1 << 15;

}  // namespace

Result<Tensor> forward_convolution(const LayerSpec& layer, const Tensor& input,
                                   const LayerParameters& params,
                                   ThreadPool* pool) {
  if (input.shape().rank() != 3) {
    return invalid_input("convolution input must be CHW");
  }
  const std::size_t in_c = input.shape()[0];
  const std::size_t in_h = input.shape()[1];
  const std::size_t in_w = input.shape()[2];
  CONDOR_ASSIGN_OR_RETURN(
      std::size_t out_h,
      window_output_extent(in_h, layer.kernel_h, layer.stride, layer.pad));
  CONDOR_ASSIGN_OR_RETURN(
      std::size_t out_w,
      window_output_extent(in_w, layer.kernel_w, layer.stride, layer.pad));
  const std::size_t out_c = layer.num_output;

  if (params.weights.shape() !=
      Shape{out_c, in_c, layer.kernel_h, layer.kernel_w}) {
    return invalid_input("convolution '" + layer.name + "': weight shape mismatch");
  }

  // Zero-padded input frame: the microkernel then reads raw rows without
  // border logic. The explicit zero terms leave every accumulation chain's
  // value unchanged (x + 0*w == x), matching the skip-the-border schedule
  // and the dataflow PE's padded frame alike.
  const std::size_t frame_h = in_h + 2 * layer.pad;
  const std::size_t frame_w = in_w + 2 * layer.pad;
  const Tensor* frame = &input;
  Tensor padded;
  if (layer.pad != 0) {
    padded = Tensor(Shape{in_c, frame_h, frame_w});
    for (std::size_t ic = 0; ic < in_c; ++ic) {
      for (std::size_t y = 0; y < in_h; ++y) {
        std::memcpy(&padded.at(ic, y + layer.pad, layer.pad),
                    input.raw() + (ic * in_h + y) * in_w, in_w * sizeof(float));
      }
    }
    frame = &padded;
  }

  const std::size_t tap_count = layer.kernel_h * layer.kernel_w;
  const std::vector<float> packed = kernels::pack_conv_weights(
      params.weights.data(), out_c, in_c, layer.kernel_h, layer.kernel_w);

  Tensor output(Shape{out_c, out_h, out_w});
  const std::size_t map_points = out_h * out_w;

  // Output-channel sharding: each shard owns a disjoint oc slice with its
  // own accumulator tile, so results are byte-identical at any shard count
  // (an output element's chain never leaves its shard). This gives batch=1
  // inference intra-image parallelism on multi-core hosts.
  std::size_t shards = 1;
  if (pool != nullptr && out_c > 1 &&
      map_points * in_c * tap_count * out_c >= kConvShardMacThreshold) {
    shards = std::min(out_c, pool->worker_count());
  }
  const std::size_t chunk = (out_c + shards - 1) / shards;

  const auto run_slice = [&](std::size_t shard) {
    const std::size_t oc0 = shard * chunk;
    const std::size_t oc1 = std::min(out_c, oc0 + chunk);
    if (oc0 >= oc1) {
      return;
    }
    const std::size_t width = oc1 - oc0;
    // Point-major accumulator tile (map point, oc) seeded with the bias:
    // the microkernel's innermost loop stays contiguous over oc.
    std::vector<float> acc(map_points * width);
    for (std::size_t point = 0; point < map_points; ++point) {
      for (std::size_t j = 0; j < width; ++j) {
        acc[point * width + j] = layer.has_bias ? params.bias[oc0 + j] : 0.0F;
      }
    }
    std::vector<const float*> taps(tap_count);
    for (std::size_t ic = 0; ic < in_c; ++ic) {
      const float* channel = frame->raw() + ic * frame_h * frame_w;
      const float* packed_ic = packed.data() + ic * tap_count * out_c + oc0;
      for (std::size_t oy = 0; oy < out_h; ++oy) {
        for (std::size_t ky = 0; ky < layer.kernel_h; ++ky) {
          for (std::size_t kx = 0; kx < layer.kernel_w; ++kx) {
            taps[ky * layer.kernel_w + kx] =
                channel + (oy * layer.stride + ky) * frame_w + kx;
          }
        }
        kernels::conv_accumulate_row(acc.data() + oy * out_w * width, width,
                                     out_w, taps.data(), tap_count,
                                     layer.stride, packed_ic, out_c);
      }
    }
    // Transpose the tile into the (oc, oy, ox) output, applying the
    // activation (each shard writes a disjoint contiguous output block).
    float* out_base = output.raw() + oc0 * map_points;
    for (std::size_t j = 0; j < width; ++j) {
      for (std::size_t point = 0; point < map_points; ++point) {
        out_base[j * map_points + point] =
            apply_activation(layer.activation, acc[point * width + j]);
      }
    }
  };
  if (shards == 1) {
    run_slice(0);
  } else {
    pool->parallel_shards(shards, run_slice);
  }
  return output;
}

Result<Tensor> forward_pooling(const LayerSpec& layer, const Tensor& input) {
  if (input.shape().rank() != 3) {
    return invalid_input("pooling input must be CHW");
  }
  if (layer.pad != 0) {
    // A zero border is not a neutral element for max pooling, so padding
    // cannot be lowered onto the shared windowed datapath. Reject instead
    // of silently computing the pad-0 result.
    return invalid_input("pooling '" + layer.name +
                         "' with padding is not supported");
  }
  const std::size_t channels = input.shape()[0];
  const std::size_t in_h = input.shape()[1];
  const std::size_t in_w = input.shape()[2];
  CONDOR_ASSIGN_OR_RETURN(
      std::size_t out_h,
      window_output_extent(in_h, layer.kernel_h, layer.stride, 0));
  CONDOR_ASSIGN_OR_RETURN(
      std::size_t out_w,
      window_output_extent(in_w, layer.kernel_w, layer.stride, 0));

  Tensor output(Shape{channels, out_h, out_w});
  const float window_size =
      static_cast<float>(layer.kernel_h * layer.kernel_w);
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t oy = 0; oy < out_h; ++oy) {
      for (std::size_t ox = 0; ox < out_w; ++ox) {
        float acc = layer.pool_method == PoolMethod::kMax
                        ? -std::numeric_limits<float>::infinity()
                        : 0.0F;
        for (std::size_t ky = 0; ky < layer.kernel_h; ++ky) {
          for (std::size_t kx = 0; kx < layer.kernel_w; ++kx) {
            const float value =
                input.at(c, oy * layer.stride + ky, ox * layer.stride + kx);
            if (layer.pool_method == PoolMethod::kMax) {
              acc = std::max(acc, value);
            } else {
              acc += value;
            }
          }
        }
        if (layer.pool_method == PoolMethod::kAverage) {
          acc /= window_size;
        }
        output.at(c, oy, ox) = apply_activation(layer.activation, acc);
      }
    }
  }
  return output;
}

Result<Tensor> forward_inner_product(const LayerSpec& layer, const Tensor& input,
                                     const LayerParameters& params) {
  const std::size_t in_count = input.size();
  const std::size_t out_count = layer.num_output;
  if (params.weights.shape() != Shape{out_count, in_count}) {
    return invalid_input("inner product '" + layer.name +
                         "': weight shape mismatch");
  }
  Tensor output(Shape{out_count});
  const auto in = input.data();
  const auto weights = params.weights.data();
  for (std::size_t o = 0; o < out_count; ++o) {
    float acc = layer.has_bias ? params.bias[o] : 0.0F;
    const float* row = weights.data() + o * in_count;
    for (std::size_t i = 0; i < in_count; ++i) {
      acc += row[i] * in[i];
    }
    output[o] = apply_activation(layer.activation, acc);
  }
  return output;
}

Tensor forward_activation(Activation activation, const Tensor& input) {
  Tensor output = input;
  for (float& value : output.data()) {
    value = apply_activation(activation, value);
  }
  return output;
}

Result<Tensor> forward_eltwise_add(const LayerSpec& layer, const Tensor& a,
                                   const Tensor& b) {
  if (a.shape() != b.shape()) {
    return invalid_input("eltwise_add '" + layer.name +
                         "': input shapes disagree: " + a.shape().to_string() +
                         " vs " + b.shape().to_string());
  }
  Tensor output(a.shape());
  const auto va = a.data();
  const auto vb = b.data();
  const auto out = output.data();
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = apply_activation(layer.activation, va[i] + vb[i]);
  }
  return output;
}

Result<Tensor> forward_concat(const LayerSpec& layer, const Tensor& a,
                              const Tensor& b) {
  if (a.shape().rank() != 3 || b.shape().rank() != 3 ||
      a.shape()[1] != b.shape()[1] || a.shape()[2] != b.shape()[2]) {
    return invalid_input("concat '" + layer.name +
                         "': input spatial extents disagree: " +
                         a.shape().to_string() + " vs " +
                         b.shape().to_string());
  }
  Tensor output(Shape{a.shape()[0] + b.shape()[0], a.shape()[1], a.shape()[2]});
  std::memcpy(output.raw(), a.raw(), a.size() * sizeof(float));
  std::memcpy(output.raw() + a.size(), b.raw(), b.size() * sizeof(float));
  if (layer.activation != Activation::kNone) {
    for (float& value : output.data()) {
      value = apply_activation(layer.activation, value);
    }
  }
  return output;
}

Result<Tensor> forward_upsample(const LayerSpec& layer, const Tensor& input) {
  if (input.shape().rank() != 3) {
    return invalid_input("upsample input must be CHW");
  }
  if (layer.stride == 0) {
    return invalid_input("upsample '" + layer.name +
                         "' must have a positive scale (stride)");
  }
  const std::size_t channels = input.shape()[0];
  const std::size_t in_h = input.shape()[1];
  const std::size_t in_w = input.shape()[2];
  const std::size_t scale = layer.stride;
  Tensor output(Shape{channels, in_h * scale, in_w * scale});
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t y = 0; y < in_h; ++y) {
      // Build one scaled row, then replicate it `scale` times.
      float* out_row = &output.at(c, y * scale, 0);
      for (std::size_t x = 0; x < in_w; ++x) {
        const float value =
            apply_activation(layer.activation, input.at(c, y, x));
        for (std::size_t sx = 0; sx < scale; ++sx) {
          out_row[x * scale + sx] = value;
        }
      }
      for (std::size_t sy = 1; sy < scale; ++sy) {
        std::memcpy(&output.at(c, y * scale + sy, 0), out_row,
                    in_w * scale * sizeof(float));
      }
    }
  }
  return output;
}

Tensor forward_softmax(const Tensor& input) {
  Tensor output = input;
  const auto view = output.data();
  // Standard max-shift for numerical stability; paper eq. (5).
  float max_value = -std::numeric_limits<float>::infinity();
  for (const float value : view) {
    max_value = std::max(max_value, value);
  }
  float sum = 0.0F;
  for (float& value : view) {
    value = std::exp(value - max_value);
    sum += value;
  }
  for (float& value : view) {
    value /= sum;
  }
  return output;
}

namespace {

/// Dispatches one layer of the topological DAG walk. `in0`/`in1` are the
/// resolved producer blobs (`in1` only for the two-input joins); `image` is
/// the network input consumed by the kInput layer.
Result<Tensor> forward_layer(const LayerSpec& layer, const WeightStore& weights,
                             const Tensor& image, const Tensor& in0,
                             const Tensor* in1, ThreadPool* pool) {
  switch (layer.kind) {
    case LayerKind::kInput:
      return image;  // pass-through: output is the declared input blob
    case LayerKind::kConvolution: {
      const LayerParameters* params = weights.find(layer.name);
      if (params == nullptr) {
        return not_found("no weights for '" + layer.name + "'");
      }
      return forward_convolution(layer, in0, *params, pool);
    }
    case LayerKind::kPooling:
      return forward_pooling(layer, in0);
    case LayerKind::kInnerProduct: {
      const LayerParameters* params = weights.find(layer.name);
      if (params == nullptr) {
        return not_found("no weights for '" + layer.name + "'");
      }
      return forward_inner_product(layer, in0, *params);
    }
    case LayerKind::kActivation:
      return forward_activation(layer.activation, in0);
    case LayerKind::kSoftmax:
      return forward_softmax(in0);
    case LayerKind::kEltwiseAdd:
      return forward_eltwise_add(layer, in0, *in1);
    case LayerKind::kConcat:
      return forward_concat(layer, in0, *in1);
    case LayerKind::kUpsample:
      return forward_upsample(layer, in0);
  }
  return internal_error("unhandled layer kind");
}

}  // namespace

Result<ReferenceEngine> ReferenceEngine::create(Network network,
                                                WeightStore weights) {
  CONDOR_RETURN_IF_ERROR(network.validate());
  CONDOR_RETURN_IF_ERROR(weights.validate_against(network));
  return ReferenceEngine(std::move(network), std::move(weights));
}

Result<std::vector<Tensor>> ReferenceEngine::forward_all(const Tensor& input,
                                                         ThreadPool* pool) const {
  CONDOR_ASSIGN_OR_RETURN(Shape expected, network_.input_shape());
  if (input.shape() != expected) {
    return invalid_input(strings::format(
        "input shape %s does not match network input %s",
        input.shape().to_string().c_str(), expected.to_string().c_str()));
  }
  CONDOR_ASSIGN_OR_RETURN(const auto order, network_.topological_order());
  std::vector<Tensor> outputs(network_.layer_count());
  for (std::size_t i : order) {
    const LayerSpec& layer = network_.layers()[i];
    CONDOR_ASSIGN_OR_RETURN(const auto prods, network_.producers(i));
    const Tensor& in0 = prods.empty() ? input : outputs[prods[0]];
    const Tensor* in1 = prods.size() > 1 ? &outputs[prods[1]] : nullptr;
    CONDOR_ASSIGN_OR_RETURN(
        outputs[i], forward_layer(layer, weights_, input, in0, in1, pool));
  }
  return outputs;
}

Result<Tensor> ReferenceEngine::forward(const Tensor& input,
                                        ThreadPool* pool) const {
  CONDOR_ASSIGN_OR_RETURN(Shape expected, network_.input_shape());
  if (input.shape() != expected) {
    return invalid_input(strings::format(
        "input shape %s does not match network input %s",
        input.shape().to_string().c_str(), expected.to_string().c_str()));
  }
  // Same DAG walk as forward_all, but with per-tensor liveness: a producer
  // blob is released as soon as its last consumer has fired, so peak memory
  // follows the width of the live DAG cut instead of the full layer list.
  CONDOR_ASSIGN_OR_RETURN(const auto order, network_.topological_order());
  CONDOR_ASSIGN_OR_RETURN(const auto consumer_table, network_.consumers());
  std::vector<std::size_t> remaining(network_.layer_count());
  for (std::size_t i = 0; i < remaining.size(); ++i) {
    remaining[i] = consumer_table[i].size();
  }
  std::vector<Tensor> outputs(network_.layer_count());
  for (std::size_t i : order) {
    const LayerSpec& layer = network_.layers()[i];
    CONDOR_ASSIGN_OR_RETURN(const auto prods, network_.producers(i));
    const Tensor& in0 = prods.empty() ? input : outputs[prods[0]];
    const Tensor* in1 = prods.size() > 1 ? &outputs[prods[1]] : nullptr;
    CONDOR_ASSIGN_OR_RETURN(
        outputs[i], forward_layer(layer, weights_, input, in0, in1, pool));
    for (std::size_t p : prods) {
      if (--remaining[p] == 0) {
        outputs[p] = Tensor();
      }
    }
  }
  // validate() guarantees the unique sink is the last declared layer.
  return std::move(outputs.back());
}

Result<std::vector<Tensor>> ReferenceEngine::forward_batch(
    const std::vector<Tensor>& inputs, ThreadPool& pool) const {
  std::vector<Tensor> outputs(inputs.size());
  std::vector<Status> statuses(inputs.size());
  // One task per image; inside each, the convolutions additionally shard
  // over output channels (parallel_shards is nested-safe), so a batch of 1
  // on a multi-core host still fills the pool.
  pool.parallel_for(inputs.size(), [&](std::size_t i) {
    auto result = forward(inputs[i], &pool);
    if (result.is_ok()) {
      outputs[i] = std::move(result).value();
    } else {
      statuses[i] = result.status();
    }
  });
  for (const Status& status : statuses) {
    if (!status.is_ok()) {
      return status;
    }
  }
  return outputs;
}

}  // namespace condor::nn
