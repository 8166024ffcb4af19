#include "dataflow/pe.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/alloc_probe.hpp"
#include "nn/kernels.hpp"
#include "nn/layer.hpp"

namespace condor::dataflow {
namespace {

/// Drains `count` elements from a weight stream into `buffer`. A nested
/// firing: the caller co_awaits it, so a dry stream suspends the whole
/// module firing at this read.
Fire read_weights(Stream* stream, std::size_t count, std::vector<float>& buffer,
                  const std::string& pe_name) {
  buffer.resize(count);
  if (stream == nullptr) {
    co_return internal_error("PE '" + pe_name + "': weight stream ended early");
  }
  CONDOR_CO_READ_EXACT(
      *stream, std::span<float>(buffer),
      internal_error("PE '" + pe_name + "': weight stream ended early"));
  co_return Status::ok();
}

/// Reads one format word (a blob's frac_bits) from a format side-channel.
Fire read_fmt_word(Stream* stream, int& frac, const std::string& pe_name) {
  if (stream == nullptr) {
    co_return internal_error("PE '" + pe_name + "': format stream ended early");
  }
  float word = 0.0F;
  CONDOR_CO_READ_ONE(
      *stream, word,
      internal_error("PE '" + pe_name + "': format stream ended early"));
  frac = static_cast<int>(word);
  co_return Status::ok();
}

/// The canonical fixed layer-boundary step (mirrors the QuantizedEngine's
/// requantize_layer_output): chooses a fresh dynamic format for the full
/// activated float blob, quantizes to codes, and emits — format word first
/// (when this edge has a format side-channel; fused intermediates keep the
/// format in a PE-local variable instead), then the codes stored in float
/// words. A local sink (a fused intermediate pass) takes the identical
/// codes-as-floats sequence without any FIFO transaction. `codes` / `blob`
/// are caller-owned scratch (module members) so the steady state stays off
/// the heap.
Fire emit_requantized(const std::string& pe_name, PassSink sink,
                      Stream* fmt_sink, std::span<const float> values,
                      int total_bits, int& out_frac,
                      std::vector<std::int32_t>& codes,
                      std::vector<float>& blob) {
  const nn::FixedPointFormat format =
      nn::quantize_span(values, total_bits, codes);
  out_frac = format.frac_bits;
  if (sink.local != nullptr) {
    sink.local->insert(sink.local->end(), codes.begin(), codes.end());
    co_return Status::ok();
  }
  if (fmt_sink != nullptr) {
    CONDOR_CO_WRITE_ONE(
        *fmt_sink, static_cast<float>(format.frac_bits),
        internal_error("PE '" + pe_name + "': format sink closed mid-pass"));
  }
  blob.assign(codes.begin(), codes.end());
  CONDOR_CO_WRITE_BURST(
      *sink.stream, blob,
      internal_error("PE '" + pe_name + "': sink closed mid-pass"));
  co_return Status::ok();
}

/// Routes one float pass-output blob to its sink: appended to the PE-local
/// fused buffer (no FIFO transaction) or burst-written to the stream.
/// Append semantics match the per-channel burst sites (pooling,
/// element-wise), so the local buffer accumulates the exact stream byte
/// sequence.
Fire write_blob(const std::string& pe_name, PassSink sink,
                const std::vector<float>& blob) {
  if (sink.local != nullptr) {
    sink.local->insert(sink.local->end(), blob.begin(), blob.end());
    co_return Status::ok();
  }
  CONDOR_CO_WRITE_BURST(
      *sink.stream, blob,
      internal_error("PE '" + pe_name + "': sink closed mid-pass"));
  co_return Status::ok();
}

/// Casts a blob of code-carrying float words back to integer codes (codes
/// fit 16 bits, so the float representation is exact).
void codes_from_floats(std::span<const float> words,
                       std::vector<std::int32_t>& codes) {
  codes.resize(words.size());
  for (std::size_t i = 0; i < words.size(); ++i) {
    codes[i] = static_cast<std::int32_t>(words[i]);
  }
}

/// Executes fn(lane) for each of `lanes` compute lanes: inline when there is
/// a single lane or no pool, fork-joined on the pool otherwise
/// (parallel_shards is safe to call from inside a module task). Templated on
/// the callable so the inline single-lane path never materializes a
/// std::function (which would heap-allocate per pass); only the actual
/// fork-join submission pays that cost.
template <typename Fn>
void run_lanes(ThreadPool* pool, std::size_t lanes, const Fn& fn) {
  if (lanes <= 1 || pool == nullptr) {
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      fn(lane);
    }
    return;
  }
  // The fork itself heap-allocates (type-erased tasks + shared join state
  // owned by the pool) — pool plumbing, not module scratch, so it is
  // excluded from the steady-state allocation probe. The lane bodies run
  // on worker threads outside the probed scope either way.
  const common::AllocProbe::Pause pause;
  pool->parallel_shards(lanes, fn);
}

/// Contiguous output-channel slice [begin, end) owned by `lane` out of
/// `lanes` over `total` channels (ceil-chunked, robust to non-divisors and
/// lanes > total).
struct OcSlice {
  std::size_t begin = 0;
  std::size_t end = 0;
  [[nodiscard]] std::size_t width() const noexcept { return end - begin; }
};

OcSlice oc_slice(std::size_t total, std::size_t lanes, std::size_t lane) {
  const std::size_t chunk = (total + lanes - 1) / lanes;
  const std::size_t begin = std::min(total, lane * chunk);
  return {begin, std::min(total, begin + chunk)};
}

}  // namespace

Fire FeaturePeModule::fire(const RunContext& ctx) {
  const bool fixed = nn::is_fixed_point(data_type_);
  weight_cache_.resize(program_.passes.size());
  // One-time weight latch (paper §3.2: the full set streams from on-board
  // memory once, then stays chip-resident): the datamover's single load is
  // drained and derived into the per-pass caches before the first image.
  // Warm runs find every cache ready and skip the stream entirely.
  CONDOR_CO_RETURN_IF_ERROR(co_await latch_resident_weights());
  for (std::size_t image = 0; image < ctx.batch; ++image) {
    int frac = 0;
    if (fixed) {
      // The upstream producer announces the image blob's dynamic format
      // ahead of the blob data.
      CONDOR_CO_RETURN_IF_ERROR(co_await read_fmt_word(fmt_in_, frac, name()));
    }
    for (std::size_t pi = 0; pi < program_.passes.size(); ++pi) {
      const LayerPass& pass = program_.passes[pi];
      const bool last = pi + 1 == program_.passes.size();
      PassSink sink;
      if (last) {
        sink.stream = &out_;
      } else {
        // The intermediate blob stays on chip, accumulating the exact byte
        // sequence a stream would carry. clear() keeps the high-water
        // capacity (zero-allocation warm state).
        fused_next_.clear();
        sink.local = &fused_next_;
      }
      if (!fixed) {
        CONDOR_CO_RETURN_IF_ERROR(co_await run_pass(pi, pass, sink));
      } else {
        // Fused intermediate blobs keep their format PE-local; only the
        // last pass publishes one.
        int out_frac = 0;
        CONDOR_CO_RETURN_IF_ERROR(co_await run_pass_fixed(
            pi, pass, sink, last ? fmt_out_ : nullptr, frac, out_frac));
        frac = out_frac;
      }
      if (sink.local != nullptr) {
        std::swap(fused_prev_, fused_next_);
      }
    }
  }
  out_.close();
  if (fmt_out_ != nullptr) {
    fmt_out_->close();
  }
  co_return Status::ok();
}

Fire FeaturePeModule::latch_resident_weights() {
  for (std::size_t pi = 0; pi < program_.passes.size(); ++pi) {
    const LayerPass& pass = program_.passes[pi];
    if (pass.params == nullptr || weight_cache_[pi].ready) {
      continue;
    }
    // Fixed datapaths stream the same raw floats and quantize locally.
    CONDOR_CO_RETURN_IF_ERROR(co_await read_weights(
        weights_, pass.params->weights.size(), weight_buffer_, name()));
    CONDOR_CO_RETURN_IF_ERROR(co_await read_weights(
        weights_, pass.params->bias.size(), bias_buffer_, name()));
    derive_pass_cache(pi, pass);
  }
  co_return Status::ok();
}

void FeaturePeModule::derive_pass_cache(std::size_t pass_index,
                                        const LayerPass& pass) {
  // The resident blocks are a pure function of the (immutable) pass
  // parameters; output channel innermost so the MAC hot loop is contiguous.
  PassWeightCache& cache = weight_cache_[pass_index];
  if (!nn::is_fixed_point(data_type_)) {
    cache.packed = nn::kernels::pack_conv_weights(
        std::span<const float>(weight_buffer_), pass.out_channels,
        pass.in_channels, pass.window_h, pass.window_w);
    cache.bias = bias_buffer_;
    cache.ready = true;
    return;
  }
  // Quantize the raw slice exactly as the QuantizedEngine quantizes the
  // layer's parameter blobs: one dynamic format over the full weight
  // tensor, one over the bias — identical codes by construction.
  const int bits = nn::total_bits(data_type_);
  std::vector<std::int32_t> wcodes;
  cache.weight_frac = nn::quantize_span(weight_buffer_, bits, wcodes).frac_bits;
  cache.bias_frac = bits - 1;
  if (pass.has_bias) {
    cache.bias_frac =
        nn::quantize_span(bias_buffer_, bits, cache.bias_codes).frac_bits;
  }
  cache.packed_codes = nn::kernels::pack_conv_weights<std::int32_t>(
      wcodes, pass.out_channels, pass.in_channels, pass.window_h,
      pass.window_w);
  cache.ready = true;
}

Fire FeaturePeModule::read_port_stripe(const LayerPass& pass,
                                       std::size_t lane,
                                       std::span<float> stage) {
  // One exact read per tap: each filter delivers its whole per-channel
  // stripe (out_h rows of out_w matched elements, oy ascending — the exact
  // per-port element order of the row-at-a-time schedule) in a single
  // burst, staged tap-major. The filters forward the map down the chain
  // before writing their port, so ascending tap order here cannot starve a
  // later-chain filter (see filter.hpp).
  const std::size_t lane_stride = window_h_max_ * window_w_max_;
  const std::size_t stripe_points = pass.out_h * pass.out_w;
  for (std::size_t ky = 0; ky < pass.window_h; ++ky) {
    for (std::size_t kx = 0; kx < pass.window_w; ++kx) {
      Stream* port = ports_[lane * lane_stride + ky * window_w_max_ + kx];
      const std::size_t tap = ky * pass.window_w + kx;
      std::span<float> dst(stage.data() + tap * stripe_points, stripe_points);
      CONDOR_CO_READ_EXACT(
          *port, dst,
          internal_error("PE '" + name() + "': port stream ended early"));
    }
  }
  co_return Status::ok();
}

void FeaturePeModule::gather_local_stripe(const LayerPass& pass,
                                          std::size_t channel,
                                          std::span<float> stage) const
    noexcept {
  // The retained blob holds the previous pass's output in (c, y, x) order.
  // The memory subsystem would pad it (mux: zero border of `pad` per side)
  // and match each access's domain (filter: y = oy*stride + ky,
  // x = ox*stride + kx in the padded frame); gathering straight from the
  // blob with the same index arithmetic yields the identical values in the
  // identical tap-major layout a port read stages.
  const std::size_t inner_h = pass.in_h - 2 * pass.pad;
  const std::size_t inner_w = pass.in_w - 2 * pass.pad;
  const float* map = fused_prev_.data() + channel * inner_h * inner_w;
  const std::size_t stripe_points = pass.out_h * pass.out_w;
  for (std::size_t ky = 0; ky < pass.window_h; ++ky) {
    for (std::size_t kx = 0; kx < pass.window_w; ++kx) {
      const std::size_t tap = ky * pass.window_w + kx;
      float* dst = stage.data() + tap * stripe_points;
      for (std::size_t oy = 0; oy < pass.out_h; ++oy) {
        const std::size_t y = oy * pass.stride + ky;
        for (std::size_t ox = 0; ox < pass.out_w; ++ox) {
          const std::size_t x = ox * pass.stride + kx;
          const bool interior = y >= pass.pad && y < pass.pad + inner_h &&
                                x >= pass.pad && x < pass.pad + inner_w;
          dst[oy * pass.out_w + ox] =
              interior ? map[(y - pass.pad) * inner_w + (x - pass.pad)]
                       : 0.0F;
        }
      }
    }
  }
}

void FeaturePeModule::gather_local_map(const LayerPass& pass,
                                       std::size_t channel,
                                       std::span<float> map) const noexcept {
  // Whole padded map of one channel (1x1-window passes read maps, not
  // stripes): border zeros around the retained interior — exactly the mux's
  // padding step.
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

std::size_t FeaturePeModule::stage_group(const LayerPass& pass) const noexcept {
  // The whole pass when every port holds its lane's whole pass (the
  // filters then write each port in one burst, and one read round drains
  // them all); otherwise one channel per input lane per round. Either way
  // the staging never exceeds the ports' own ring memory.
  const std::size_t channels = std::max<std::size_t>(pass.in_channels, 1);
  const std::size_t lane_maps = (channels + lanes_ - 1) / lanes_;
  if (lane_maps * pass.out_h * pass.out_w <= ports_.front()->capacity()) {
    return channels;
  }
  return std::min(lanes_, channels);
}

Fire FeaturePeModule::run_pass(std::size_t pass_index, const LayerPass& pass,
                               PassSink sink) {
  const std::size_t lane_stride = window_h_max_ * window_w_max_;

  switch (pass.kind) {
    case PassKind::kConvolution: {
      const std::size_t oc_total = pass.out_channels;
      const std::size_t map_points = pass.out_h * pass.out_w;
      const std::size_t tap_count = pass.window_h * pass.window_w;

      // Resident blocks, latched once per design (latch_resident_weights).
      const PassWeightCache& cache = weight_cache_[pass_index];
      const std::vector<float>& packed = cache.packed;
      const std::vector<float>& bias = cache.bias;

      // parallel_out compute lanes, each owning a disjoint oc slice with a
      // point-major accumulator tile seeded with the bias. Per output
      // element the accumulation chain (bias, then ic-major (ky, kx) adds)
      // is byte-identical to the single-lane schedule.
      const std::size_t compute_lanes =
          std::clamp<std::size_t>(parallel_out_, 1, std::max<std::size_t>(oc_total, 1));
      if (lane_acc_.size() < compute_lanes) {
        lane_acc_.resize(compute_lanes);
      }
      if (lane_taps_.size() < compute_lanes) {
        lane_taps_.resize(compute_lanes);
      }
      for (std::size_t lane = 0; lane < compute_lanes; ++lane) {
        const OcSlice slice = oc_slice(oc_total, compute_lanes, lane);
        lane_acc_[lane].resize(map_points * slice.width());
        float* acc = lane_acc_[lane].data();
        for (std::size_t point = 0; point < map_points; ++point) {
          for (std::size_t j = 0; j < slice.width(); ++j) {
            acc[point * slice.width() + j] =
                pass.has_bias ? bias[slice.begin + j] : 0.0F;
          }
        }
        lane_taps_[lane].resize(tap_count);
      }

      // Stage a group of consecutive input-channel stripes (stage_group:
      // the whole pass, or one per provisioned input lane), in the
      // identical FIFO read order of the channel-at-a-time schedule, then
      // fork the compute lanes once over the group. Each lane walks the group's
      // stripes in ascending-ic order, so every output element keeps its
      // exact accumulation chain (bias, then ic-major adds) at any
      // parallel_in degree.
      const std::size_t group = stage_group(pass);
      const std::size_t stripe_elems = pass.out_h * tap_count * pass.out_w;
      stage_.resize(group * stripe_elems);
      for (std::size_t ic0 = 0; ic0 < pass.in_channels; ic0 += group) {
        const std::size_t members = std::min(group, pass.in_channels - ic0);
        for (std::size_t s = 0; s < members; ++s) {
          const std::span<float> slot =
              std::span<float>(stage_).subspan(s * stripe_elems, stripe_elems);
          if (local_input(pass_index)) {
            gather_local_stripe(pass, ic0 + s, slot);
          } else {
            CONDOR_CO_RETURN_IF_ERROR(
                co_await read_port_stripe(pass, (ic0 + s) % lanes_, slot));
          }
        }
        run_lanes(lane_pool_, compute_lanes, [&](std::size_t lane) {
          const OcSlice slice = oc_slice(oc_total, compute_lanes, lane);
          if (slice.width() == 0) {
            return;
          }
          float* acc = lane_acc_[lane].data();
          const float** taps = lane_taps_[lane].data();
          for (std::size_t s = 0; s < members; ++s) {
            const float* packed_ic =
                packed.data() + (ic0 + s) * tap_count * oc_total;
            const float* stripe = stage_.data() + s * stripe_elems;
            for (std::size_t oy = 0; oy < pass.out_h; ++oy) {
              for (std::size_t tap = 0; tap < tap_count; ++tap) {
                taps[tap] = stripe + (tap * pass.out_h + oy) * pass.out_w;
              }
              nn::kernels::conv_accumulate_row(
                  acc + oy * pass.out_w * slice.width(), slice.width(),
                  pass.out_w, taps, tap_count, 1, packed_ic + slice.begin,
                  oc_total);
            }
          }
        });
      }

      // Activation + transpose into the (oc, oy, ox) emission order; each
      // lane writes its disjoint contiguous output block.
      out_blob_.resize(oc_total * map_points);
      run_lanes(lane_pool_, compute_lanes, [&](std::size_t lane) {
        const OcSlice slice = oc_slice(oc_total, compute_lanes, lane);
        const float* acc = lane_acc_[lane].data();
        for (std::size_t j = 0; j < slice.width(); ++j) {
          float* out_map = out_blob_.data() + (slice.begin + j) * map_points;
          for (std::size_t point = 0; point < map_points; ++point) {
            out_map[point] = nn::apply_activation(
                pass.activation, acc[point * slice.width() + j]);
          }
        }
      });
      CONDOR_CO_RETURN_IF_ERROR(co_await write_blob(name(), sink, out_blob_));
      co_return Status::ok();
    }

    case PassKind::kPooling: {
      // Whole-channel staging: every tap's stripe prefetches in one exact
      // read (tap-major, see read_port_stripe), the channel's output map
      // computes in memory, and leaves in one burst. The reduction still
      // walks taps in ascending (ky, kx) order per output point, so the
      // float reduction order is unchanged. Channel c's window arrives on
      // chain lane c % lanes.
      const std::size_t tap_count = pass.window_h * pass.window_w;
      const std::size_t stripe_points = pass.out_h * pass.out_w;
      const float window_size = static_cast<float>(tap_count);
      stage_.resize(tap_count * stripe_points);
      out_blob_.resize(stripe_points);
      for (std::size_t c = 0; c < pass.in_channels; ++c) {
        if (local_input(pass_index)) {
          gather_local_stripe(pass, c, std::span<float>(stage_));
        } else {
          CONDOR_CO_RETURN_IF_ERROR(co_await read_port_stripe(
              pass, c % lanes_, std::span<float>(stage_)));
        }
        for (std::size_t oy = 0; oy < pass.out_h; ++oy) {
          for (std::size_t ox = 0; ox < pass.out_w; ++ox) {
            float result = pass.pool_method == nn::PoolMethod::kMax
                               ? -std::numeric_limits<float>::infinity()
                               : 0.0F;
            for (std::size_t tap = 0; tap < tap_count; ++tap) {
              const float value =
                  stage_[(tap * pass.out_h + oy) * pass.out_w + ox];
              if (pass.pool_method == nn::PoolMethod::kMax) {
                result = std::max(result, value);
              } else {
                result += value;
              }
            }
            if (pass.pool_method == nn::PoolMethod::kAverage) {
              result /= window_size;
            }
            out_blob_[oy * pass.out_w + ox] =
                nn::apply_activation(pass.activation, result);
          }
        }
        CONDOR_CO_RETURN_IF_ERROR(
            co_await write_blob(name(), sink, out_blob_));
      }
      co_return Status::ok();
    }

    case PassKind::kElementwise: {
      // 1x1 window: only access (0, 0) of the channel's lane. The whole
      // channel map transfers as one burst.
      map_.resize(pass.in_h * pass.in_w);
      for (std::size_t c = 0; c < pass.in_channels; ++c) {
        if (local_input(pass_index)) {
          gather_local_map(pass, c, std::span<float>(map_));
        } else {
          Stream* port = ports_[(c % lanes_) * lane_stride];
          CONDOR_CO_READ_EXACT(
              *port, std::span<float>(map_),
              internal_error("PE '" + name() + "': port stream ended early"));
        }
        for (float& value : map_) {
          value = nn::apply_activation(pass.activation, value);
        }
        CONDOR_CO_RETURN_IF_ERROR(co_await write_blob(name(), sink, map_));
      }
      co_return Status::ok();
    }

    case PassKind::kUpsample: {
      // Nearest-neighbour replication, channel at a time: the activation
      // applies to the source element (exactly forward_upsample's order)
      // and each scaled row replicates `scale` times.
      const std::size_t scale = pass.scale;
      map_.resize(pass.in_h * pass.in_w);
      out_blob_.resize(pass.out_h * pass.out_w);
      for (std::size_t c = 0; c < pass.in_channels; ++c) {
        if (local_input(pass_index)) {
          gather_local_map(pass, c, std::span<float>(map_));
        } else {
          Stream* port = ports_[(c % lanes_) * lane_stride];
          CONDOR_CO_READ_EXACT(
              *port, std::span<float>(map_),
              internal_error("PE '" + name() + "': port stream ended early"));
        }
        for (std::size_t y = 0; y < pass.in_h; ++y) {
          float* out_row = out_blob_.data() + y * scale * pass.out_w;
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
        CONDOR_CO_RETURN_IF_ERROR(
            co_await write_blob(name(), sink, out_blob_));
      }
      co_return Status::ok();
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
Fire FeaturePeModule::run_conv_pass_fixed(std::size_t pass_index,
                                          const LayerPass& pass, PassSink sink,
                                          Stream* fmt_sink, int in_frac,
                                          int& out_frac) {
  const int bits = nn::total_bits(data_type_);
  const std::size_t oc_total = pass.out_channels;
  const std::size_t map_points = pass.out_h * pass.out_w;
  const std::size_t tap_count = pass.window_h * pass.window_w;

  // Resident quantized blocks, latched once per design from the one-time
  // weight load (latch_resident_weights / derive_pass_cache): codes
  // identical to the QuantizedEngine's parameter quantization.
  const PassWeightCache& cache = weight_cache_[pass_index];
  const int acc_frac = cache.weight_frac + in_frac;
  const std::vector<std::int32_t>& packed = cache.packed_codes;

  // Same lane decomposition as the float path: disjoint oc slices with
  // integer accumulator tiles. Integer accumulation is exact, so the lane
  // count cannot perturb any sum.
  const std::size_t compute_lanes = std::clamp<std::size_t>(
      parallel_out_, 1, std::max<std::size_t>(oc_total, 1));
  std::vector<std::vector<Acc>>& lane_acc = fixed_lane_acc<Acc>();
  if (lane_acc.size() < compute_lanes) {
    lane_acc.resize(compute_lanes);
  }
  if (lane_taps_fixed_.size() < compute_lanes) {
    lane_taps_fixed_.resize(compute_lanes);
  }
  for (std::size_t lane = 0; lane < compute_lanes; ++lane) {
    const OcSlice slice = oc_slice(oc_total, compute_lanes, lane);
    lane_acc[lane].resize(map_points * slice.width());
    Acc* acc = lane_acc[lane].data();
    // The accumulator scale follows the image's input format, so each
    // output channel's bias realigns once per pass and then seeds every
    // map point of that channel.
    for (std::size_t j = 0; j < slice.width(); ++j) {
      const Acc seed =
          pass.has_bias
              ? static_cast<Acc>(nn::realign_code(
                    cache.bias_codes[slice.begin + j], cache.bias_frac,
                    acc_frac))
              : Acc{0};
      for (std::size_t point = 0; point < map_points; ++point) {
        acc[point * slice.width() + j] = seed;
      }
    }
    lane_taps_fixed_[lane].resize(tap_count);
  }

  // The port streams carry codes in float words; stage a group of
  // consecutive input-channel stripes (stage_group; same FIFO read order as
  // the channel-at-a-time schedule), cast the group back to integer codes
  // (exact — see codes_from_floats), and fork the compute lanes once over
  // the whole group. Integer accumulation is exact, so neither the group
  // size nor the lane count can perturb any sum.
  const std::size_t group = stage_group(pass);
  const std::size_t stripe_elems = pass.out_h * tap_count * pass.out_w;
  stage_.resize(group * stripe_elems);
  for (std::size_t ic0 = 0; ic0 < pass.in_channels; ic0 += group) {
    const std::size_t members = std::min(group, pass.in_channels - ic0);
    for (std::size_t s = 0; s < members; ++s) {
      const std::span<float> slot =
          std::span<float>(stage_).subspan(s * stripe_elems, stripe_elems);
      if (local_input(pass_index)) {
        // The retained blob carries codes in float words; the gather's zero
        // border is code 0, exactly the mux's border.
        gather_local_stripe(pass, ic0 + s, slot);
      } else {
        CONDOR_CO_RETURN_IF_ERROR(
            co_await read_port_stripe(pass, (ic0 + s) % lanes_, slot));
      }
    }
    codes_from_floats(
        std::span<const float>(stage_.data(), members * stripe_elems),
        int_stage_);
    run_lanes(lane_pool_, compute_lanes, [&](std::size_t lane) {
      const OcSlice slice = oc_slice(oc_total, compute_lanes, lane);
      if (slice.width() == 0) {
        return;
      }
      Acc* acc = lane_acc[lane].data();
      const std::int32_t** taps = lane_taps_fixed_[lane].data();
      for (std::size_t s = 0; s < members; ++s) {
        const std::int32_t* packed_ic =
            packed.data() + (ic0 + s) * tap_count * oc_total;
        const std::int32_t* stripe = int_stage_.data() + s * stripe_elems;
        for (std::size_t oy = 0; oy < pass.out_h; ++oy) {
          for (std::size_t tap = 0; tap < tap_count; ++tap) {
            taps[tap] = stripe + (tap * pass.out_h + oy) * pass.out_w;
          }
          nn::kernels::conv_accumulate_row(
              acc + oy * pass.out_w * slice.width(), slice.width(),
              pass.out_w, taps, tap_count, 1, packed_ic + slice.begin,
              oc_total);
        }
      }
    });
  }

  // Dequantize + activate into the (oc, oy, ox) emission order, then
  // requantize the full blob with a fresh dynamic format (the canonical
  // layer-boundary step; lanes join first so the format sees every value).
  out_blob_.resize(oc_total * map_points);
  run_lanes(lane_pool_, compute_lanes, [&](std::size_t lane) {
    const OcSlice slice = oc_slice(oc_total, compute_lanes, lane);
    const Acc* acc = lane_acc[lane].data();
    for (std::size_t j = 0; j < slice.width(); ++j) {
      float* out_map = out_blob_.data() + (slice.begin + j) * map_points;
      for (std::size_t point = 0; point < map_points; ++point) {
        out_map[point] = nn::apply_activation(
            pass.activation,
            nn::dequantize_code(
                static_cast<std::int64_t>(acc[point * slice.width() + j]),
                acc_frac));
      }
    }
  });
  co_return co_await emit_requantized(name(), sink, fmt_sink, out_blob_, bits,
                                      out_frac, emit_codes_, emit_blob_);
}

Fire FeaturePeModule::run_pass_fixed(std::size_t pass_index,
                                     const LayerPass& pass, PassSink sink,
                                     Stream* fmt_sink, int in_frac,
                                     int& out_frac) {
  const int bits = nn::total_bits(data_type_);
  const std::size_t lane_stride = window_h_max_ * window_w_max_;

  switch (pass.kind) {
    case PassKind::kConvolution:
      // Branch with if/else, not a conditional expression: gcc's coroutine
      // transform mis-handles coroutine-returning prvalues inside ?: arms
      // (both arms get materialized and the taken frame is destroyed twice).
      if (data_type_ == nn::DataType::kFixed16) {
        co_return co_await run_conv_pass_fixed<std::int64_t>(
            pass_index, pass, sink, fmt_sink, in_frac, out_frac);
      }
      co_return co_await run_conv_pass_fixed<std::int32_t>(
          pass_index, pass, sink, fmt_sink, in_frac, out_frac);

    case PassKind::kPooling: {
      // Max pooling reduces over codes directly (dequantization is
      // monotone); average pooling sums codes exactly and divides once in
      // float — both exactly as the QuantizedEngine's fixed_pooling. The
      // blob requantizes as a whole, so the output buffers on chip. Port
      // data prefetches one whole channel per round (tap-major stripes,
      // see read_port_stripe); integer reduction is order-insensitive, and
      // the tap walk stays ascending anyway.
      const std::size_t tap_count = pass.window_h * pass.window_w;
      const std::size_t stripe_points = pass.out_h * pass.out_w;
      const float window_size = static_cast<float>(tap_count);
      const bool is_max = pass.pool_method == nn::PoolMethod::kMax;
      stage_.resize(tap_count * stripe_points);
      out_blob_.resize(pass.in_channels * stripe_points);
      for (std::size_t c = 0; c < pass.in_channels; ++c) {
        if (local_input(pass_index)) {
          gather_local_stripe(pass, c, std::span<float>(stage_));
        } else {
          CONDOR_CO_RETURN_IF_ERROR(co_await read_port_stripe(
              pass, c % lanes_, std::span<float>(stage_)));
        }
        for (std::size_t oy = 0; oy < pass.out_h; ++oy) {
          for (std::size_t ox = 0; ox < pass.out_w; ++ox) {
            std::int64_t acc =
                is_max ? std::numeric_limits<std::int64_t>::min() : 0;
            for (std::size_t tap = 0; tap < tap_count; ++tap) {
              const auto code = static_cast<std::int64_t>(
                  stage_[(tap * pass.out_h + oy) * pass.out_w + ox]);
              acc = is_max ? std::max(acc, code) : acc + code;
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
      co_return co_await emit_requantized(name(), sink, fmt_sink, out_blob_,
                                          bits, out_frac, emit_codes_,
                                          emit_blob_);
    }

    case PassKind::kElementwise: {
      // Dequantize + activate every element, requantize the whole blob
      // (the QuantizedEngine's fixed_activation).
      map_.resize(pass.in_h * pass.in_w);
      out_blob_.resize(pass.in_channels * pass.in_h * pass.in_w);
      for (std::size_t c = 0; c < pass.in_channels; ++c) {
        if (local_input(pass_index)) {
          gather_local_map(pass, c, std::span<float>(map_));
        } else {
          Stream* port = ports_[(c % lanes_) * lane_stride];
          CONDOR_CO_READ_EXACT(
              *port, std::span<float>(map_),
              internal_error("PE '" + name() + "': port stream ended early"));
        }
        for (std::size_t i = 0; i < map_.size(); ++i) {
          out_blob_[c * map_.size() + i] = nn::apply_activation(
              pass.activation,
              nn::dequantize_code(static_cast<std::int64_t>(map_[i]), in_frac));
        }
      }
      co_return co_await emit_requantized(name(), sink, fmt_sink, out_blob_,
                                          bits, out_frac, emit_codes_,
                                          emit_blob_);
    }

    case PassKind::kUpsample: {
      // Whole-blob value-space rebuild mirroring fixed_upsample: activate
      // the dequantized source element, replicate it, then requantize the
      // full output blob with one fresh dynamic format.
      const std::size_t scale = pass.scale;
      map_.resize(pass.in_h * pass.in_w);
      out_blob_.resize(pass.out_channels * pass.out_h * pass.out_w);
      for (std::size_t c = 0; c < pass.in_channels; ++c) {
        if (local_input(pass_index)) {
          gather_local_map(pass, c, std::span<float>(map_));
        } else {
          Stream* port = ports_[(c % lanes_) * lane_stride];
          CONDOR_CO_READ_EXACT(
              *port, std::span<float>(map_),
              internal_error("PE '" + name() + "': port stream ended early"));
        }
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
      co_return co_await emit_requantized(name(), sink, fmt_sink, out_blob_,
                                          bits, out_frac, emit_codes_,
                                          emit_blob_);
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
  // One-time runtime configuration load: the datamover streams every
  // pass's weights once per compiled design; they repack into the
  // transposed (in, out) GEMV layout the microkernel wants and stay
  // chip-resident for every image of every batch. Warm runs skip the
  // (closed, empty) stream entirely.
  if (!resident_ready_) {
    packed_weights_.resize(program_.passes.size());
    pass_bias_.resize(program_.passes.size());
    for (std::size_t pi = 0; pi < program_.passes.size(); ++pi) {
      const LayerPass& pass = program_.passes[pi];
      if (pass.params == nullptr) {
        continue;
      }
      CONDOR_CO_RETURN_IF_ERROR(co_await read_weights(
          weights_, pass.params->weights.size(), weight_buffer_, name()));
      packed_weights_[pi] = nn::kernels::pack_inner_product_weights<float>(
          weight_buffer_, pass.output_elements(), pass.input_elements());
      CONDOR_CO_RETURN_IF_ERROR(co_await read_weights(
          weights_, pass.params->bias.size(), weight_buffer_, name()));
      pass_bias_[pi] = weight_buffer_;
    }
    resident_ready_ = true;
  }

  // Scratch blobs reused across the whole batch (resize below the high-water
  // capacity never reallocates).
  for (std::size_t image = 0; image < ctx.batch; ++image) {
    // Stage the flattened input of the first pass.
    current_.resize(program_.passes.front().input_elements());
    CONDOR_CO_READ_EXACT(
        in_, std::span<float>(current_),
        internal_error("PE '" + name() + "': input stream ended early"));
    for (std::size_t pi = 0; pi < program_.passes.size(); ++pi) {
      const LayerPass& pass = program_.passes[pi];
      switch (pass.kind) {
        case PassKind::kInnerProduct: {
          const std::size_t in_count = pass.input_elements();
          const std::size_t out_count = pass.output_elements();
          const std::vector<float>& packed = packed_weights_[pi];
          next_.resize(out_count);
          // parallel_out lanes over disjoint output-neuron slices; each
          // neuron's chain (bias, then ascending-h adds) is unchanged.
          // parallel_in stripes the input walk into contiguous segments
          // accumulated back-to-back — the kernel vectorizes over output
          // neurons only, so any segment boundary is byte-identical.
          const std::size_t compute_lanes = std::clamp<std::size_t>(
              parallel_out_, 1, std::max<std::size_t>(out_count, 1));
          const std::size_t in_stripes = std::clamp<std::size_t>(
              parallel_in_, 1, std::max<std::size_t>(in_count, 1));
          run_lanes(lane_pool_, compute_lanes, [&](std::size_t lane) {
            const OcSlice slice = oc_slice(out_count, compute_lanes, lane);
            if (slice.width() == 0) {
              return;
            }
            float* acc = next_.data() + slice.begin;
            for (std::size_t j = 0; j < slice.width(); ++j) {
              acc[j] = pass.has_bias ? pass_bias_[pi][slice.begin + j] : 0.0F;
            }
            for (std::size_t s = 0; s < in_stripes; ++s) {
              const OcSlice seg = oc_slice(in_count, in_stripes, s);
              if (seg.width() == 0) {
                continue;
              }
              nn::kernels::inner_product_accumulate(
                  acc, slice.width(), current_.data() + seg.begin,
                  seg.width(),
                  packed.data() + seg.begin * out_count + slice.begin,
                  out_count);
            }
            for (std::size_t j = 0; j < slice.width(); ++j) {
              acc[j] = nn::apply_activation(pass.activation, acc[j]);
            }
          });
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
    CONDOR_CO_WRITE_BURST(
        out_, current_,
        internal_error("PE '" + name() + "': output closed mid-batch"));
  }
  out_.close();
  co_return Status::ok();
}

template <typename Acc>
Fire ClassifierPeModule::run_fixed(const RunContext& ctx) {
  const int bits = nn::total_bits(data_type_);

  // One-time runtime configuration load, as in the float path — the raw
  // float weights stream in once per compiled design, quantize on chip
  // with the same per-blob dynamic formats the QuantizedEngine derives,
  // and stay resident as packed integer codes for every image of every
  // batch. Warm runs skip the (closed, empty) stream entirely.
  if (!resident_ready_) {
    resident_.resize(program_.passes.size());
    for (std::size_t pi = 0; pi < program_.passes.size(); ++pi) {
      const LayerPass& pass = program_.passes[pi];
      if (pass.params == nullptr) {
        continue;
      }
      FixedPassWeights& slot = resident_[pi];
      CONDOR_CO_RETURN_IF_ERROR(co_await read_weights(
          weights_, pass.params->weights.size(), weight_buffer_, name()));
      slot.weight_frac =
          nn::quantize_span(weight_buffer_, bits, wcodes_).frac_bits;
      slot.packed = nn::kernels::pack_inner_product_weights<std::int32_t>(
          wcodes_, pass.output_elements(), pass.input_elements());
      CONDOR_CO_RETURN_IF_ERROR(co_await read_weights(
          weights_, pass.params->bias.size(), weight_buffer_, name()));
      slot.bias_frac =
          nn::quantize_span(weight_buffer_, bits, slot.bias_codes).frac_bits;
    }
    resident_ready_ = true;
  }

  // Per-lane accumulator scratch: sized once to the lane ceiling, the inner
  // vectors keep their high-water capacity across passes and batches.
  std::vector<std::vector<Acc>>& lane_acc = fixed_lane_acc<Acc>();
  if (lane_acc.size() < parallel_out_) {
    lane_acc.resize(parallel_out_);
  }

  for (std::size_t image = 0; image < ctx.batch; ++image) {
    int frac = 0;
    CONDOR_CO_RETURN_IF_ERROR(co_await read_fmt_word(fmt_in_, frac, name()));
    words_.resize(program_.passes.front().input_elements());
    CONDOR_CO_READ_EXACT(
        in_, std::span<float>(words_),
        internal_error("PE '" + name() + "': input stream ended early"));
    codes_from_floats(words_, codes_);
    for (std::size_t pi = 0; pi < program_.passes.size(); ++pi) {
      const LayerPass& pass = program_.passes[pi];
      switch (pass.kind) {
        case PassKind::kInnerProduct: {
          const std::size_t in_count = pass.input_elements();
          const std::size_t out_count = pass.output_elements();
          const FixedPassWeights& slot = resident_[pi];
          const int acc_frac = slot.weight_frac + frac;
          values_.resize(out_count);
          // Same disjoint output-neuron slices as the float path; the
          // integer sums are exact so neither the lane count nor the
          // parallel_in segmentation can change a code. Each lane
          // dequantizes + activates its slice; the blob-wide
          // requantization joins the lanes first.
          const std::size_t compute_lanes = std::clamp<std::size_t>(
              parallel_out_, 1, std::max<std::size_t>(out_count, 1));
          const std::size_t in_stripes = std::clamp<std::size_t>(
              parallel_in_, 1, std::max<std::size_t>(in_count, 1));
          run_lanes(lane_pool_, compute_lanes, [&](std::size_t lane) {
            const OcSlice slice = oc_slice(out_count, compute_lanes, lane);
            if (slice.width() == 0) {
              return;
            }
            std::vector<Acc>& acc_tile = lane_acc[lane];
            acc_tile.resize(slice.width());
            Acc* const acc = acc_tile.data();
            for (std::size_t j = 0; j < slice.width(); ++j) {
              acc[j] = pass.has_bias
                           ? static_cast<Acc>(nn::realign_code(
                                 slot.bias_codes[slice.begin + j],
                                 slot.bias_frac, acc_frac))
                           : Acc{0};
            }
            for (std::size_t s = 0; s < in_stripes; ++s) {
              const OcSlice seg = oc_slice(in_count, in_stripes, s);
              if (seg.width() == 0) {
                continue;
              }
              nn::kernels::inner_product_accumulate(
                  acc, slice.width(), codes_.data() + seg.begin, seg.width(),
                  slot.packed.data() + seg.begin * out_count + slice.begin,
                  out_count);
            }
            for (std::size_t j = 0; j < slice.width(); ++j) {
              values_[slice.begin + j] = nn::apply_activation(
                  pass.activation,
                  nn::dequantize_code(static_cast<std::int64_t>(acc[j]),
                                      acc_frac));
            }
          });
          frac = nn::quantize_span(values_, bits, codes_).frac_bits;
          break;
        }
        case PassKind::kElementwise: {
          values_.resize(codes_.size());
          for (std::size_t i = 0; i < codes_.size(); ++i) {
            values_[i] = nn::apply_activation(
                pass.activation, nn::dequantize_code(codes_[i], frac));
          }
          frac = nn::quantize_span(values_, bits, codes_).frac_bits;
          break;
        }
        default:
          co_return internal_error("classifier PE got a windowed pass");
      }
    }
    if (fmt_out_ == nullptr) {
      co_return internal_error("PE '" + name() +
                               "': format sink closed mid-batch");
    }
    CONDOR_CO_WRITE_ONE(
        *fmt_out_, static_cast<float>(frac),
        internal_error("PE '" + name() + "': format sink closed mid-batch"));
    words_.assign(codes_.begin(), codes_.end());
    CONDOR_CO_WRITE_BURST(
        out_, words_,
        internal_error("PE '" + name() + "': output closed mid-batch"));
  }
  out_.close();
  if (fmt_out_ != nullptr) {
    fmt_out_->close();
  }
  co_return Status::ok();
}

}  // namespace condor::dataflow
