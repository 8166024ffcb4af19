#include "dataflow/pe.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

#include "nn/kernels.hpp"
#include "nn/layer.hpp"

namespace condor::dataflow {
namespace {

/// Casts a blob of code-carrying float words back to integer codes (codes
/// fit 16 bits, so the float representation is exact).
void codes_from_floats(std::span<const float> words,
                       std::vector<std::int32_t>& codes) {
  codes.resize(words.size());
  for (std::size_t i = 0; i < words.size(); ++i) {
    codes[i] = static_cast<std::int32_t>(words[i]);
  }
}

/// Accumulates every input channel of a convolution pass into the
/// point-major tile `acc` (all out_channels per map point), indexing the
/// padded `frame` in place with the golden reference's tap arithmetic: tap
/// (ky, kx) of output row oy starts at (oy*stride + ky)*in_w + kx, and
/// consecutive output columns are `stride` apart. Channels walk in
/// ascending order, so each output element's chain is its seed, then
/// ic-major (ky, kx) adds. `taps` is tap_count-entry pointer scratch.
template <typename T, typename Acc>
void accumulate_conv(const LayerPass& pass, const T* frame, const T* packed,
                     Acc* acc, const T** taps) {
  const std::size_t tap_count = pass.window_h * pass.window_w;
  const std::size_t channel_size = pass.in_h * pass.in_w;
  for (std::size_t ic = 0; ic < pass.in_channels; ++ic) {
    const T* channel = frame + ic * channel_size;
    const T* packed_ic = packed + ic * tap_count * pass.out_channels;
    for (std::size_t oy = 0; oy < pass.out_h; ++oy) {
      for (std::size_t ky = 0; ky < pass.window_h; ++ky) {
        for (std::size_t kx = 0; kx < pass.window_w; ++kx) {
          taps[ky * pass.window_w + kx] =
              channel + (oy * pass.stride + ky) * pass.in_w + kx;
        }
      }
      nn::kernels::conv_accumulate_row(
          acc + oy * pass.out_w * pass.out_channels, pass.out_channels,
          pass.out_w, taps, tap_count, pass.stride, packed_ic,
          pass.out_channels);
    }
  }
}

}  // namespace

Fire FeaturePeModule::fire(const RunContext& ctx) {
  const bool fixed = nn::is_fixed_point(data_type_);
  for (std::size_t image = 0; image < ctx.batch; ++image) {
    // Pass 0's input blob, burst-read from the edge and retained like every
    // later pass's input. resize() below the high-water capacity never
    // reallocates (zero-allocation warm state).
    int frac = 0;
    fused_prev_.resize(program_.external_input_elements());
    CONDOR_CO_RETURN_IF_ERROR(
        co_await read_frame(in_, data_type_, frac, fused_prev_, name()));
    for (std::size_t pi = 0; pi < program_.passes.size(); ++pi) {
      const LayerPass& pass = program_.passes[pi];
      PassSink sink;
      if (pi + 1 == program_.passes.size()) {
        sink.edges = &out_;
      } else {
        // The intermediate blob stays on chip: the exact byte sequence a
        // stream would carry.
        sink.local = &fused_next_;
      }
      if (!fixed) {
        CONDOR_CO_RETURN_IF_ERROR(co_await run_pass(pass, sink));
      } else {
        // Fused intermediate blobs keep their format PE-local; only the
        // last pass frames one.
        int out_frac = 0;
        CONDOR_CO_RETURN_IF_ERROR(
            co_await run_pass_fixed(pass, sink, frac, out_frac));
        frac = out_frac;
      }
      if (sink.local != nullptr) {
        std::swap(fused_prev_, fused_next_);
      }
    }
  }
  close_edges(out_);
  co_return Status::ok();
}

std::span<const float> FeaturePeModule::padded_frame(const LayerPass& pass) {
  if (pass.pad == 0) {
    return fused_prev_;
  }
  // Zero border of `pad` per side around each retained channel (code 0 on
  // the fixed datapaths); assign() keeps the high-water capacity.
  const std::size_t inner_h = pass.in_h - 2 * pass.pad;
  const std::size_t inner_w = pass.in_w - 2 * pass.pad;
  padded_.assign(pass.input_elements(), 0.0F);
  for (std::size_t c = 0; c < pass.in_channels; ++c) {
    const float* src = fused_prev_.data() + c * inner_h * inner_w;
    float* dst = padded_.data() + c * pass.in_h * pass.in_w;
    for (std::size_t iy = 0; iy < inner_h; ++iy) {
      std::copy_n(src + iy * inner_w, inner_w,
                  dst + (pass.pad + iy) * pass.in_w + pass.pad);
    }
  }
  return padded_;
}

void FeaturePeModule::gather_local_map(const LayerPass& pass,
                                       std::size_t channel,
                                       std::span<float> map) const noexcept {
  // Whole padded map of one channel: border zeros around the retained
  // interior.
  const std::size_t inner_h = pass.in_h - 2 * pass.pad;
  const std::size_t inner_w = pass.in_w - 2 * pass.pad;
  const float* src = fused_prev_.data() + channel * inner_h * inner_w;
  if (pass.pad == 0) {
    std::copy_n(src, inner_h * inner_w, map.data());
    return;
  }
  std::fill(map.begin(), map.end(), 0.0F);
  for (std::size_t iy = 0; iy < inner_h; ++iy) {
    std::copy_n(src + iy * inner_w, inner_w,
                map.data() + (pass.pad + iy) * pass.in_w + pass.pad);
  }
}

Fire FeaturePeModule::run_pass(const LayerPass& pass, PassSink sink) {
  switch (pass.kind) {
    case PassKind::kConvolution: {
      const std::size_t oc_total = pass.out_channels;
      const std::size_t map_points = pass.out_h * pass.out_w;

      const ResidentWeights& resident = pass.resident;
      const float* frame = padded_frame(pass).data();

      // One point-major accumulator tile over every output channel, seeded
      // with the bias: per output element the chain is the bias, then
      // ic-major (ky, kx) adds.
      acc_.resize(map_points * oc_total);
      taps_.resize(pass.window_h * pass.window_w);
      for (std::size_t point = 0; point < map_points; ++point) {
        for (std::size_t oc = 0; oc < oc_total; ++oc) {
          acc_[point * oc_total + oc] =
              pass.has_bias ? resident.bias[oc] : 0.0F;
        }
      }
      accumulate_conv(pass, frame, resident.packed.data(), acc_.data(),
                      taps_.data());
      // Activation + transpose into the (oc, oy, ox) emission order.
      out_blob_.resize(oc_total * map_points);
      for (std::size_t oc = 0; oc < oc_total; ++oc) {
        float* out_map = out_blob_.data() + oc * map_points;
        for (std::size_t point = 0; point < map_points; ++point) {
          out_map[point] = nn::apply_activation(
              pass.activation, acc_[point * oc_total + oc]);
        }
      }
      co_return co_await write_blob(sink, out_blob_, name());
    }

    case PassKind::kPooling: {
      // Each output point reduces straight from the frame, walking the
      // window in ascending (ky, kx) order (the float reduction order of the
      // reference); the whole blob leaves as one frame.
      const std::span<const float> frame = padded_frame(pass);
      const float window_size =
          static_cast<float>(pass.window_h * pass.window_w);
      out_blob_.resize(pass.in_channels * pass.out_h * pass.out_w);
      for (std::size_t c = 0; c < pass.in_channels; ++c) {
        const float* channel = frame.data() + c * pass.in_h * pass.in_w;
        for (std::size_t oy = 0; oy < pass.out_h; ++oy) {
          for (std::size_t ox = 0; ox < pass.out_w; ++ox) {
            float result = pass.pool_method == nn::PoolMethod::kMax
                               ? -std::numeric_limits<float>::infinity()
                               : 0.0F;
            for (std::size_t ky = 0; ky < pass.window_h; ++ky) {
              const float* row =
                  channel + (oy * pass.stride + ky) * pass.in_w +
                  ox * pass.stride;
              for (std::size_t kx = 0; kx < pass.window_w; ++kx) {
                if (pass.pool_method == nn::PoolMethod::kMax) {
                  result = std::max(result, row[kx]);
                } else {
                  result += row[kx];
                }
              }
            }
            if (pass.pool_method == nn::PoolMethod::kAverage) {
              result /= window_size;
            }
            out_blob_[(c * pass.out_h + oy) * pass.out_w + ox] =
                nn::apply_activation(pass.activation, result);
          }
        }
      }
      co_return co_await write_blob(sink, out_blob_, name());
    }

    case PassKind::kElementwise: {
      // 1x1 window: each channel map gathers into its slot of the output
      // blob and activates in place; the whole blob leaves as one frame.
      const std::size_t map_size = pass.in_h * pass.in_w;
      out_blob_.resize(pass.in_channels * map_size);
      for (std::size_t c = 0; c < pass.in_channels; ++c) {
        const std::span<float> map(out_blob_.data() + c * map_size, map_size);
        gather_local_map(pass, c, map);
        for (float& value : map) {
          value = nn::apply_activation(pass.activation, value);
        }
      }
      co_return co_await write_blob(sink, out_blob_, name());
    }

    case PassKind::kUpsample: {
      // Nearest-neighbour replication, channel at a time: the activation
      // applies to the source element (exactly forward_upsample's order)
      // and each scaled row replicates `scale` times. The whole blob leaves
      // as one frame.
      const std::size_t scale = pass.scale;
      map_.resize(pass.in_h * pass.in_w);
      out_blob_.resize(pass.out_channels * pass.out_h * pass.out_w);
      for (std::size_t c = 0; c < pass.in_channels; ++c) {
        gather_local_map(pass, c, std::span<float>(map_));
        float* channel = out_blob_.data() + c * pass.out_h * pass.out_w;
        for (std::size_t y = 0; y < pass.in_h; ++y) {
          float* out_row = channel + y * scale * pass.out_w;
          for (std::size_t x = 0; x < pass.in_w; ++x) {
            const float value =
                nn::apply_activation(pass.activation, map_[y * pass.in_w + x]);
            for (std::size_t sx = 0; sx < scale; ++sx) {
              out_row[x * scale + sx] = value;
            }
          }
          for (std::size_t sy = 1; sy < scale; ++sy) {
            std::copy(out_row, out_row + pass.out_w,
                      out_row + sy * pass.out_w);
          }
        }
      }
      co_return co_await write_blob(sink, out_blob_, name());
    }

    case PassKind::kInnerProduct:
      co_return internal_error(
          "feature PE cannot execute an inner-product pass");
    case PassKind::kEltwiseAdd:
    case PassKind::kConcat:
      co_return internal_error(
          "feature PE cannot execute a two-input join pass");
  }
  co_return internal_error("unhandled pass kind");
}

template <typename Acc>
Fire FeaturePeModule::run_conv_pass_fixed(const LayerPass& pass,
                                          PassSink sink, int in_frac,
                                          int& out_frac) {
  const int bits = nn::total_bits(data_type_);
  const std::size_t oc_total = pass.out_channels;
  const std::size_t map_points = pass.out_h * pass.out_w;

  // Resident quantized blocks: codes identical to the QuantizedEngine's
  // parameter quantization (dataflow/program.hpp).
  const ResidentWeights& resident = pass.resident;
  const int acc_frac = resident.weight_frac + in_frac;

  // The retained blob carries codes in float words; the frame casts back to
  // integer codes once per pass (exact — see codes_from_floats), border
  // zeros included.
  codes_from_floats(padded_frame(pass), frame_codes_);

  // Integer accumulator tile over every output channel, as in the float
  // path. The accumulator scale follows the image's input format, so each
  // output channel's bias realigns once per pass and then seeds every map
  // point of that channel.
  std::vector<Acc>& acc = fixed_acc<Acc>();
  acc.resize(map_points * oc_total);
  taps_fixed_.resize(pass.window_h * pass.window_w);
  for (std::size_t oc = 0; oc < oc_total; ++oc) {
    const Acc seed = pass.has_bias
                         ? static_cast<Acc>(nn::realign_code(
                               resident.bias_codes[oc], resident.bias_frac,
                               acc_frac))
                         : Acc{0};
    for (std::size_t point = 0; point < map_points; ++point) {
      acc[point * oc_total + oc] = seed;
    }
  }
  accumulate_conv(pass, frame_codes_.data(), resident.packed_codes.data(),
                  acc.data(), taps_fixed_.data());
  // Dequantize + activate into the (oc, oy, ox) emission order.
  out_blob_.resize(oc_total * map_points);
  for (std::size_t oc = 0; oc < oc_total; ++oc) {
    float* out_map = out_blob_.data() + oc * map_points;
    for (std::size_t point = 0; point < map_points; ++point) {
      out_map[point] = nn::apply_activation(
          pass.activation,
          nn::dequantize_code(
              static_cast<std::int64_t>(acc[point * oc_total + oc]),
              acc_frac));
    }
  }
  // Requantize the full blob with a fresh dynamic format (the canonical
  // layer-boundary step).
  co_return co_await emit_requantized(sink, out_blob_, bits, out_frac,
                                      emit_codes_, emit_blob_, name());
}

Fire FeaturePeModule::run_pass_fixed(const LayerPass& pass, PassSink sink,
                                     int in_frac, int& out_frac) {
  const int bits = nn::total_bits(data_type_);

  switch (pass.kind) {
    case PassKind::kConvolution:
      // Branch with if/else, not a conditional expression: gcc's coroutine
      // transform mis-handles coroutine-returning prvalues inside ?: arms
      // (both arms get materialized and the taken frame is destroyed twice).
      if (data_type_ == nn::DataType::kFixed16) {
        co_return co_await run_conv_pass_fixed<std::int64_t>(pass, sink,
                                                             in_frac, out_frac);
      }
      co_return co_await run_conv_pass_fixed<std::int32_t>(pass, sink, in_frac,
                                                           out_frac);

    case PassKind::kPooling: {
      // Max pooling reduces over codes directly (dequantization is
      // monotone); average pooling sums codes exactly and divides once in
      // float — both exactly as the QuantizedEngine's fixed_pooling. The
      // window reduces straight from the frame in (ky, kx) order; the blob
      // requantizes as a whole, so the output buffers on chip.
      const std::span<const float> frame = padded_frame(pass);
      const float window_size =
          static_cast<float>(pass.window_h * pass.window_w);
      const bool is_max = pass.pool_method == nn::PoolMethod::kMax;
      out_blob_.resize(pass.in_channels * pass.out_h * pass.out_w);
      for (std::size_t c = 0; c < pass.in_channels; ++c) {
        const float* channel = frame.data() + c * pass.in_h * pass.in_w;
        for (std::size_t oy = 0; oy < pass.out_h; ++oy) {
          for (std::size_t ox = 0; ox < pass.out_w; ++ox) {
            std::int64_t acc =
                is_max ? std::numeric_limits<std::int64_t>::min() : 0;
            for (std::size_t ky = 0; ky < pass.window_h; ++ky) {
              const float* row =
                  channel + (oy * pass.stride + ky) * pass.in_w +
                  ox * pass.stride;
              for (std::size_t kx = 0; kx < pass.window_w; ++kx) {
                const auto code = static_cast<std::int64_t>(row[kx]);
                acc = is_max ? std::max(acc, code) : acc + code;
              }
            }
            float value = nn::dequantize_code(acc, in_frac);
            if (!is_max) {
              value /= window_size;
            }
            out_blob_[(c * pass.out_h + oy) * pass.out_w + ox] =
                nn::apply_activation(pass.activation, value);
          }
        }
      }
      co_return co_await emit_requantized(sink, out_blob_, bits, out_frac,
                                          emit_codes_, emit_blob_, name());
    }

    case PassKind::kElementwise: {
      // Dequantize + activate every element, requantize the whole blob
      // (the QuantizedEngine's fixed_activation).
      map_.resize(pass.in_h * pass.in_w);
      out_blob_.resize(pass.in_channels * pass.in_h * pass.in_w);
      for (std::size_t c = 0; c < pass.in_channels; ++c) {
        gather_local_map(pass, c, std::span<float>(map_));
        for (std::size_t i = 0; i < map_.size(); ++i) {
          out_blob_[c * map_.size() + i] = nn::apply_activation(
              pass.activation,
              nn::dequantize_code(static_cast<std::int64_t>(map_[i]), in_frac));
        }
      }
      co_return co_await emit_requantized(sink, out_blob_, bits, out_frac,
                                          emit_codes_, emit_blob_, name());
    }

    case PassKind::kUpsample: {
      // Whole-blob value-space rebuild mirroring fixed_upsample: activate
      // the dequantized source element, replicate it, then requantize the
      // full output blob with one fresh dynamic format.
      const std::size_t scale = pass.scale;
      map_.resize(pass.in_h * pass.in_w);
      out_blob_.resize(pass.out_channels * pass.out_h * pass.out_w);
      for (std::size_t c = 0; c < pass.in_channels; ++c) {
        gather_local_map(pass, c, std::span<float>(map_));
        float* channel = out_blob_.data() + c * pass.out_h * pass.out_w;
        for (std::size_t y = 0; y < pass.in_h; ++y) {
          float* out_row = channel + y * scale * pass.out_w;
          for (std::size_t x = 0; x < pass.in_w; ++x) {
            const float value = nn::apply_activation(
                pass.activation,
                nn::dequantize_code(
                    static_cast<std::int64_t>(map_[y * pass.in_w + x]),
                    in_frac));
            for (std::size_t sx = 0; sx < scale; ++sx) {
              out_row[x * scale + sx] = value;
            }
          }
          for (std::size_t sy = 1; sy < scale; ++sy) {
            std::copy(out_row, out_row + pass.out_w,
                      out_row + sy * pass.out_w);
          }
        }
      }
      co_return co_await emit_requantized(sink, out_blob_, bits, out_frac,
                                          emit_codes_, emit_blob_, name());
    }

    case PassKind::kInnerProduct:
      co_return internal_error(
          "feature PE cannot execute an inner-product pass");
    case PassKind::kEltwiseAdd:
    case PassKind::kConcat:
      co_return internal_error(
          "feature PE cannot execute a two-input join pass");
  }
  co_return internal_error("unhandled pass kind");
}

Fire ClassifierPeModule::fire(const RunContext& ctx) {
  if (nn::is_fixed_point(data_type_)) {
    // if/else instead of ?: — see run_pass_fixed for the gcc coroutine
    // transform pitfall with conditional expressions.
    if (data_type_ == nn::DataType::kFixed16) {
      co_return co_await run_fixed<std::int64_t>(ctx);
    }
    co_return co_await run_fixed<std::int32_t>(ctx);
  }
  // Scratch blobs reused across the whole batch (resize below the high-water
  // capacity never reallocates).
  for (std::size_t image = 0; image < ctx.batch; ++image) {
    // Stage the flattened input of the first pass.
    int frac = 0;
    current_.resize(program_.passes.front().input_elements());
    CONDOR_CO_RETURN_IF_ERROR(
        co_await read_frame(in_, data_type_, frac, current_, name()));
    for (const LayerPass& pass : program_.passes) {
      switch (pass.kind) {
        case PassKind::kInnerProduct: {
          const std::size_t in_count = pass.input_elements();
          const std::size_t out_count = pass.output_elements();
          const ResidentWeights& resident = pass.resident;
          // Every neuron accumulates in place in next_: its chain is the
          // bias, then ascending-h adds.
          next_.resize(out_count);
          for (std::size_t j = 0; j < out_count; ++j) {
            next_[j] = pass.has_bias ? resident.bias[j] : 0.0F;
          }
          nn::kernels::inner_product_accumulate(next_.data(), out_count,
                                                current_.data(), in_count,
                                                resident.packed.data(),
                                                out_count);
          for (float& value : next_) {
            value = nn::apply_activation(pass.activation, value);
          }
          std::swap(current_, next_);
          break;
        }
        case PassKind::kElementwise: {
          for (float& value : current_) {
            value = nn::apply_activation(pass.activation, value);
          }
          break;
        }
        default:
          co_return internal_error("classifier PE got a windowed pass");
      }
    }
    CONDOR_CO_RETURN_IF_ERROR(
        co_await write_blob(PassSink{&out_}, current_, name()));
  }
  close_edges(out_);
  co_return Status::ok();
}

template <typename Acc>
Fire ClassifierPeModule::run_fixed(const RunContext& ctx) {
  const int bits = nn::total_bits(data_type_);

  // Accumulator scratch: keeps its high-water capacity across passes and
  // batches.
  std::vector<Acc>& acc = fixed_acc<Acc>();

  for (std::size_t image = 0; image < ctx.batch; ++image) {
    int frac = 0;
    words_.resize(program_.passes.front().input_elements());
    CONDOR_CO_RETURN_IF_ERROR(
        co_await read_frame(in_, data_type_, frac, words_, name()));
    codes_from_floats(words_, codes_);
    for (std::size_t pi = 0; pi < program_.passes.size(); ++pi) {
      const LayerPass& pass = program_.passes[pi];
      switch (pass.kind) {
        case PassKind::kInnerProduct: {
          const std::size_t in_count = pass.input_elements();
          const std::size_t out_count = pass.output_elements();
          const ResidentWeights& resident = pass.resident;
          const int acc_frac = resident.weight_frac + frac;
          // Integer sums over every neuron, then dequantize + activate; the
          // blob-wide requantization follows the pass.
          acc.resize(out_count);
          for (std::size_t j = 0; j < out_count; ++j) {
            acc[j] = pass.has_bias
                         ? static_cast<Acc>(nn::realign_code(
                               resident.bias_codes[j], resident.bias_frac,
                               acc_frac))
                         : Acc{0};
          }
          nn::kernels::inner_product_accumulate(acc.data(), out_count,
                                                codes_.data(), in_count,
                                                resident.packed_codes.data(),
                                                out_count);
          values_.resize(out_count);
          for (std::size_t j = 0; j < out_count; ++j) {
            values_[j] = nn::apply_activation(
                pass.activation,
                nn::dequantize_code(static_cast<std::int64_t>(acc[j]),
                                    acc_frac));
          }
          break;
        }
        case PassKind::kElementwise: {
          values_.resize(codes_.size());
          for (std::size_t i = 0; i < codes_.size(); ++i) {
            values_[i] = nn::apply_activation(
                pass.activation, nn::dequantize_code(codes_[i], frac));
          }
          break;
        }
        default:
          co_return internal_error("classifier PE got a windowed pass");
      }
      // Every pass requantizes its value blob; the last one frames it onto
      // the out-edges.
      if (pi + 1 < program_.passes.size()) {
        frac = nn::quantize_span(values_, bits, codes_).frac_bits;
      }
    }
    CONDOR_CO_RETURN_IF_ERROR(co_await emit_requantized(
        PassSink{&out_}, values_, bits, frac, codes_, words_, name()));
  }
  close_edges(out_);
  co_return Status::ok();
}

}  // namespace condor::dataflow
