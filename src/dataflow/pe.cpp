#include "dataflow/pe.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <type_traits>
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

/// The value an accumulator holds: the sum itself on float32, the code sum
/// dequantized with `frac` on the fixed datapaths.
template <typename Acc>
float value_of_sum(Acc sum, int frac) {
  if constexpr (std::is_floating_point_v<Acc>) {
    return sum;
  } else {
    return nn::dequantize_code(static_cast<std::int64_t>(sum), frac);
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

Fire PeModule::fire(const RunContext& ctx) {
  const int bits = nn::total_bits(data_type_);
  for (std::size_t image = 0; image < ctx.batch; ++image) {
    // Pass 0's input blob, burst-read from the edge and retained like every
    // later pass's input. resize() below the high-water capacity never
    // reallocates (zero-allocation warm state).
    int frac = 0;
    fused_prev_.resize(program_.external_input_elements());
    CONDOR_CO_RETURN_IF_ERROR(
        co_await read_frame(*in_.front(), data_type_, frac, fused_prev_, name()));
    if (in_.size() > 1) {
      // A join's second operand: congruent with the first for eltwise-add,
      // the remaining channels for concat (build_pe_program's in_*
      // convention).
      const LayerPass& join = program_.passes.front();
      operand_.resize(join.kind == PassKind::kEltwiseAdd
                          ? join.input_elements()
                          : join.output_elements() - join.input_elements());
      CONDOR_CO_RETURN_IF_ERROR(co_await read_frame(
          *in_[1], data_type_, operand_frac_, operand_, name()));
    }
    for (std::size_t pi = 0; pi < program_.passes.size(); ++pi) {
      compute(program_.passes[pi], frac);
      PassSink sink;
      if (pi + 1 == program_.passes.size()) {
        sink.edges = &out_;
      } else {
        // The intermediate blob stays on chip: the exact byte sequence a
        // stream would carry, its format in `frac`.
        sink.local = &fused_next_;
      }
      if (!fixed_) {
        CONDOR_CO_RETURN_IF_ERROR(co_await write_blob(sink, out_blob_, name()));
      } else {
        CONDOR_CO_RETURN_IF_ERROR(co_await emit_requantized(
            sink, out_blob_, bits, frac, emit_codes_, emit_blob_, name()));
      }
      if (sink.local != nullptr) {
        std::swap(fused_prev_, fused_next_);
      }
    }
  }
  close_edges(out_);
  co_return Status::ok();
}

float PeModule::value_of(float word, int frac) const noexcept {
  return fixed_ ? value_of_sum(static_cast<std::int64_t>(word), frac) : word;
}

std::span<const float> PeModule::padded_frame(const LayerPass& pass) {
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

void PeModule::gather_local_map(const LayerPass& pass, std::size_t channel,
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

template <nn::DataType D>
void PeModule::run_weighted(const LayerPass& pass, int in_frac) {
  constexpr bool kFloat = D == nn::DataType::kFloat32;
  using T = std::conditional_t<kFloat, float, std::int32_t>;
  using Acc = std::conditional_t<
      kFloat, float,
      std::conditional_t<D == nn::DataType::kFixed16, std::int64_t,
                         std::int32_t>>;
  const ResidentWeights& resident = pass.resident;
  const bool conv = pass.kind == PassKind::kConvolution;
  const std::size_t oc_total = conv ? pass.out_channels : pass.output_elements();
  const std::size_t map_points = conv ? pass.out_h * pass.out_w : 1;

  // The frame and weights the kernel reads. On the fixed datapaths the
  // retained blob carries codes in float words and casts back to integer
  // codes once per pass (exact — see codes_from_floats), border zeros
  // included; the resident codes are identical to the QuantizedEngine's
  // parameter quantization (dataflow/program.hpp).
  const T* frame = nullptr;
  const T* packed = nullptr;
  int acc_frac = 0;
  if constexpr (kFloat) {
    frame = padded_frame(pass).data();
    packed = resident.packed.data();
  } else {
    codes_from_floats(padded_frame(pass), frame_codes_);
    frame = frame_codes_.data();
    packed = resident.packed_codes.data();
    acc_frac = resident.weight_frac + in_frac;
  }

  // One point-major accumulator tile over every output channel. Per output
  // element the chain is its bias seed, then the kernel's adds. The fixed
  // accumulator scale follows the image's input format, so each channel's
  // bias realigns once per pass and then seeds every map point.
  std::vector<Acc>& acc = std::get<std::vector<Acc>>(acc_);
  acc.resize(map_points * oc_total);
  for (std::size_t oc = 0; oc < oc_total; ++oc) {
    if (!pass.has_bias) {
      acc[oc] = Acc{0};
    } else if constexpr (kFloat) {
      acc[oc] = resident.bias[oc];
    } else {
      acc[oc] = static_cast<Acc>(nn::realign_code(
          resident.bias_codes[oc], resident.bias_frac, acc_frac));
    }
  }
  for (std::size_t point = 1; point < map_points; ++point) {
    std::copy_n(acc.begin(), oc_total, acc.begin() + point * oc_total);
  }
  if (conv) {
    std::vector<const T*>& taps = std::get<std::vector<const T*>>(taps_);
    taps.resize(pass.window_h * pass.window_w);
    accumulate_conv(pass, frame, packed, acc.data(), taps.data());
  } else if constexpr (inner_product_uses_pair_blocks(D)) {
    nn::kernels::fixed8_inner_product_accumulate(
        acc.data(), oc_total, frame, pass.input_elements(),
        resident.pair_blocks.data());
  } else {
    nn::kernels::inner_product_accumulate(acc.data(), oc_total, frame,
                                          pass.input_elements(), packed,
                                          oc_total);
  }

  // Dequantize + activate into the (oc, oy, ox) emission order.
  out_blob_.resize(oc_total * map_points);
  for (std::size_t oc = 0; oc < oc_total; ++oc) {
    float* out_map = out_blob_.data() + oc * map_points;
    for (std::size_t point = 0; point < map_points; ++point) {
      out_map[point] = nn::apply_activation(
          pass.activation, value_of_sum(acc[point * oc_total + oc], acc_frac));
    }
  }
}

template <typename Sum>
void PeModule::run_pooling(const LayerPass& pass, int in_frac) {
  // Each output point reduces straight from the frame, walking the window
  // in ascending (ky, kx) order (the float reduction order of the
  // reference). Over codes, max pooling reduces directly (dequantization is
  // monotone) and average pooling sums exactly in int64 — a float sum of
  // codes is inexact past 2^24 — then divides once in float, both exactly
  // as the QuantizedEngine's fixed_pooling.
  const std::span<const float> frame = padded_frame(pass);
  const float window_size = static_cast<float>(pass.window_h * pass.window_w);
  const bool is_max = pass.pool_method == nn::PoolMethod::kMax;
  Sum identity{0};
  if (is_max) {
    if constexpr (std::is_floating_point_v<Sum>) {
      identity = -std::numeric_limits<Sum>::infinity();
    } else {
      identity = std::numeric_limits<Sum>::min();
    }
  }
  out_blob_.resize(pass.in_channels * pass.out_h * pass.out_w);
  for (std::size_t c = 0; c < pass.in_channels; ++c) {
    const float* channel = frame.data() + c * pass.in_h * pass.in_w;
    for (std::size_t oy = 0; oy < pass.out_h; ++oy) {
      for (std::size_t ox = 0; ox < pass.out_w; ++ox) {
        Sum result = identity;
        for (std::size_t ky = 0; ky < pass.window_h; ++ky) {
          const float* row = channel + (oy * pass.stride + ky) * pass.in_w +
                             ox * pass.stride;
          for (std::size_t kx = 0; kx < pass.window_w; ++kx) {
            const auto word = static_cast<Sum>(row[kx]);
            result = is_max ? std::max(result, word) : result + word;
          }
        }
        float value = value_of_sum(result, in_frac);
        if (!is_max) {
          value /= window_size;
        }
        out_blob_[(c * pass.out_h + oy) * pass.out_w + ox] =
            nn::apply_activation(pass.activation, value);
      }
    }
  }
}

void PeModule::compute(const LayerPass& pass, int frac) {
  switch (pass.kind) {
    case PassKind::kConvolution:
    case PassKind::kInnerProduct:
      if (!fixed_) {
        run_weighted<nn::DataType::kFloat32>(pass, frac);
      } else if (data_type_ == nn::DataType::kFixed16) {
        run_weighted<nn::DataType::kFixed16>(pass, frac);
      } else {
        run_weighted<nn::DataType::kFixed8>(pass, frac);
      }
      return;

    case PassKind::kPooling:
      if (fixed_) {
        run_pooling<std::int64_t>(pass, frac);
      } else {
        run_pooling<float>(pass, frac);
      }
      return;

    case PassKind::kElementwise: {
      // 1x1 window: each channel map gathers into its slot of the output
      // blob and activates its values in place (the QuantizedEngine's
      // fixed_activation on codes).
      const std::size_t map_size = pass.in_h * pass.in_w;
      out_blob_.resize(pass.in_channels * map_size);
      for (std::size_t c = 0; c < pass.in_channels; ++c) {
        const std::span<float> map(out_blob_.data() + c * map_size, map_size);
        gather_local_map(pass, c, map);
        for (float& word : map) {
          word = nn::apply_activation(pass.activation, value_of(word, frac));
        }
      }
      return;
    }

    case PassKind::kUpsample: {
      // Nearest-neighbour replication, channel at a time: the activation
      // applies to the source element (exactly forward_upsample's and
      // fixed_upsample's order) and each scaled row replicates `scale`
      // times.
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
                pass.activation, value_of(map_[y * pass.in_w + x], frac));
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
      return;
    }

    case PassKind::kEltwiseAdd: {
      // Add, then activate (forward_eltwise_add). Over codes:
      // fixed_eltwise_add realigns both operands to the finer format (an
      // exact int64 shift) before adding.
      const std::size_t count = pass.output_elements();
      out_blob_.resize(count);
      if (!fixed_) {
        for (std::size_t i = 0; i < count; ++i) {
          out_blob_[i] = nn::apply_activation(pass.activation,
                                              fused_prev_[i] + operand_[i]);
        }
        return;
      }
      const int common = std::max(frac, operand_frac_);
      for (std::size_t i = 0; i < count; ++i) {
        const std::int64_t raw =
            nn::realign_code(static_cast<std::int32_t>(fused_prev_[i]), frac,
                             common) +
            nn::realign_code(static_cast<std::int32_t>(operand_[i]),
                             operand_frac_, common);
        out_blob_[i] = nn::apply_activation(pass.activation,
                                            nn::dequantize_code(raw, common));
      }
      return;
    }

    case PassKind::kConcat: {
      // The joined blob rebuilt in value space, each operand with its own
      // format (fixed_concat), then activated (kNone is the identity).
      const std::size_t first_count = fused_prev_.size();
      out_blob_.resize(first_count + operand_.size());
      for (std::size_t i = 0; i < first_count; ++i) {
        out_blob_[i] =
            nn::apply_activation(pass.activation, value_of(fused_prev_[i], frac));
      }
      for (std::size_t i = 0; i < operand_.size(); ++i) {
        out_blob_[first_count + i] = nn::apply_activation(
            pass.activation, value_of(operand_[i], operand_frac_));
      }
      return;
    }
  }
}

}  // namespace condor::dataflow
