// Processing element modules.
//
// FeaturePeModule executes convolution / pooling / element-wise passes fed
// by its memory subsystem (the filter chain): per input channel it receives
// the full sliding window of every output point, one element per active
// access port, in output raster order. Convolution accumulates into on-chip
// output-map accumulators (seeded with the bias) so the input streams
// through exactly once; accumulation order matches the golden reference
// bit-for-bit (input channel outer, window row, window column). Port data
// is prefetched one input-channel stripe at a time, one exact whole-stripe
// read per port (each port's stripe is out_h * out_w matched elements in
// output raster order), so the PE pays one FIFO transaction per tap per
// channel instead of one per output row; the arithmetic order over the
// fetched values is unchanged.
//
// Convolution passes run the packed OC-contiguous microkernel
// (nn/kernels.hpp) over a per-pass weight repack, and honor the plan's
// parallel_out degree — the paper's intra-layer spatial unfolding — by
// partitioning the output-channel range across `parallel_out` compute
// lanes fork-joined on the executor's worker pool. Every lane owns a
// disjoint oc slice with its own accumulator tile, so each output
// element's accumulation chain (bias seed, then ic-major adds) is
// byte-identical at any lane count.
//
// The plan's parallel_in degree is likewise executed, not just modeled: a
// convolution pass stages `parallel_in` consecutive input-channel stripes
// per iteration — one from each replicated filter chain, exactly the
// channels the provisioned input lanes carry — and the compute lanes then
// accumulate the staged stripes in ascending-ic order. The per-element
// accumulation chain is untouched (bias, then ic-major adds), so any
// parallel_in degree is byte-identical; what changes is the schedule: one
// fork-join and one staging round-trip per group of parallel_in channels
// instead of per channel. Fully-connected passes stripe the flattened
// input across parallel_in contiguous segments accumulated back-to-back —
// the GEMV microkernel vectorizes over output neurons only, so splitting
// the input walk at any boundary leaves every sum byte-identical too.
//
// ClassifierPeModule implements fully-connected layers as single-input/
// single-output 1x1-convolution PEs (paper §3.3 step 4): no memory
// subsystem, weights resident on chip (repacked once per batch into the
// transposed GEMV layout), one multiply-accumulate stream over the
// flattened input; parallel_out partitions the output neurons the same way.
//
// Fixed-point datapath (plan data_type fixed16/fixed8, see nn/numeric.hpp):
// blob streams carry integer codes stored in float words (|code| < 2^15 is
// exact in a float mantissa; the mux's zero border is code 0, so the memory
// subsystem is numeric-type agnostic). Each blob's dynamic Q-format travels
// out of band on a per-edge format stream: one word per image, written by
// the producer BEFORE the blob data (so readers never wait on a format word
// behind unconsumed blob data). Fused passes keep the intermediate format
// in a PE-local variable next to the PE-local intermediate blob. PEs
// quantize their own weights from the raw float weight stream with the same
// nn/numeric.hpp helpers the QuantizedEngine uses, MAC raw codes in a
// widened integer accumulator, and requantize the full output blob at every
// pass boundary — bit-exact against nn::QuantizedEngine by construction.
//
// Zero-allocation steady state: every per-image buffer (accumulator tiles,
// port-stripe staging, dequantize/requantize scratch) is a module member
// that persists across images AND across run_batch calls (the executor's
// compiled design owns the modules for its whole life). Buffers resize to
// each pass's needs; once a warmup batch has grown them to their high-water
// capacity no later image touches the heap.
//
// Weight residency extends the same ownership rule to the weights
// themselves: each PE drains its weight stream exactly once per compiled
// design — before the first image of the first run — and latches the
// packed (and, for fixed datapaths, quantized) blocks in its per-pass
// cache. Every later image AND every later run_batch over the same design
// runs entirely from the resident copy; the warm path moves zero weight
// bytes (RunStats.weight_bytes_streamed counts the proof). Residency is
// invalidated with the design: plan and WeightStore are immutable
// shared_ptr<const> state, so any change recompiles the graph and rebuilds
// both the movers and these caches. steady_state_alloc_test enforces the
// allocation and the weight-traffic halves of the contract.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "common/thread_pool.hpp"
#include "dataflow/fifo.hpp"
#include "dataflow/module.hpp"
#include "dataflow/program.hpp"
#include "nn/numeric.hpp"

namespace condor::dataflow {

/// Where a pass's output blob goes: the downstream stream (last pass) or a
/// PE-local grow-only buffer that never touches a FIFO (every earlier
/// fused pass). Exactly one of the two is set.
struct PassSink {
  Stream* stream = nullptr;
  std::vector<float>* local = nullptr;
};

class FeaturePeModule final : public Module {
 public:
  /// `ports[lane * window_h_max * window_w_max + ky * window_w_max + kx]`
  /// is the stream from chain `lane`'s filter for access (ky, kx) — one
  /// replicated chain per concurrently-read input map (inter-layer
  /// parallelism); channel c belongs to lane c % lanes. `weights`
  /// (nullable when no pass carries parameters) delivers the one-time
  /// weight load from the datamover (latched resident on first receipt);
  /// `out` is the downstream PE stream. Only pass 0 reads the ports; every
  /// later fused pass reads the previous pass's blob, kept PE-locally.
  /// `parallel_out` compute lanes split each convolution pass's output
  /// channels across `lane_pool` (nullable for sequential execution). For
  /// a fixed `data_type`, `fmt_in` / `fmt_out` carry the per-image
  /// input/output blob formats (one frac_bits word per image, ahead of the
  /// blob data).
  FeaturePeModule(std::string name, const PeProgram& program,
                  std::size_t window_h_max, std::size_t window_w_max,
                  std::size_t lanes, std::vector<Stream*> ports, Stream* weights,
                  Stream& out, std::size_t parallel_out = 1,
                  ThreadPool* lane_pool = nullptr,
                  nn::DataType data_type = nn::DataType::kFloat32,
                  Stream* fmt_in = nullptr, Stream* fmt_out = nullptr)
      : Module(std::move(name)),
        program_(program),
        window_h_max_(window_h_max),
        window_w_max_(window_w_max),
        lanes_(lanes),
        parallel_out_(parallel_out == 0 ? 1 : parallel_out),
        lane_pool_(lane_pool),
        data_type_(data_type),
        ports_(std::move(ports)),
        weights_(weights),
        out_(out),
        fmt_in_(fmt_in),
        fmt_out_(fmt_out) {}

  Fire fire(const RunContext& ctx) override;

 private:
  // The pass/stripe helpers are nested firings (Fire coroutines co_awaited
  // by the body): a stream suspension inside a helper suspends the whole
  // module firing at that innermost point.

  /// One-time weight latch: drains the weight stream (first run of a
  /// compiled design only) and derives every pass's resident blocks into
  /// weight_cache_. A no-op once every weighted pass is ready.
  Fire latch_resident_weights();

  /// `pass_index` selects the pass's resident weight-cache slot (latched by
  /// latch_resident_weights before the first image).
  Fire run_pass(std::size_t pass_index, const LayerPass& pass, PassSink sink);

  /// Fixed-point pass: codes in, codes out. `in_frac` is the input blob's
  /// format; the requantized output blob's format lands in `out_frac` (and,
  /// when `fmt_sink` is non-null, on the wire ahead of the blob).
  Fire run_pass_fixed(std::size_t pass_index, const LayerPass& pass,
                      PassSink sink, Stream* fmt_sink, int in_frac,
                      int& out_frac);

  /// The convolution body of run_pass_fixed, templated over the widened
  /// accumulator (int64 for fixed16, int32 for fixed8 — see nn/kernels.hpp).
  template <typename Acc>
  Fire run_conv_pass_fixed(std::size_t pass_index, const LayerPass& pass,
                           PassSink sink, Stream* fmt_sink, int in_frac,
                           int& out_frac);

  /// Burst-reads one full input-channel stripe — every active port of
  /// `lane`, one exact whole-stripe read per port — into `stage`, laid out
  /// tap-major (tap, oy, ox). Each port's element order is the same as the
  /// row-at-a-time schedule; only the transfer granularity changes (one
  /// FIFO transaction per tap instead of per output row). `stage` is the
  /// caller's slot within the group staging buffer (parallel_in stripes
  /// per group).
  Fire read_port_stripe(const LayerPass& pass, std::size_t lane,
                        std::span<float> stage);

  /// Fused passes after the first read the retained previous-pass blob
  /// (fused_prev_) instead of the port FIFOs.
  [[nodiscard]] static bool local_input(std::size_t pass_index) noexcept {
    return pass_index > 0;
  }

  /// PE-local analog of read_port_stripe: stages channel `channel`'s full
  /// tap-major stripe from the retained previous-pass blob, applying the
  /// mux's zero border (padded coordinates, zeros outside the interior) and
  /// each filter's matched domain (y = oy*stride + ky, x = ox*stride + kx),
  /// so stage holds the values the memory subsystem would deliver, in the
  /// same layout.
  void gather_local_stripe(const LayerPass& pass, std::size_t channel,
                           std::span<float> stage) const noexcept;

  /// PE-local analog of a whole-map port read (1x1-window passes): the
  /// padded in_h x in_w map of channel `channel` from the retained blob.
  void gather_local_map(const LayerPass& pass, std::size_t channel,
                        std::span<float> map) const noexcept;

  /// Input channels a conv pass stages (and computes) per round.
  [[nodiscard]] std::size_t stage_group(const LayerPass& pass) const noexcept;

  /// Pass-indexed cache of resident weight blocks, latched from the weight
  /// stream's one-time load (latch_resident_weights) and reused for every
  /// image and every run_batch of the compiled design. The WeightStore is
  /// immutable, so the repack (and the fixed paths' quantization) is a pure
  /// function of the pass; a plan/weight change recompiles the design and
  /// starts from empty slots.
  struct PassWeightCache {
    bool ready = false;
    std::vector<float> packed;              ///< float path: (ic,ky,kx,oc)
    std::vector<float> bias;                ///< float path: raw bias seeds
    std::vector<std::int32_t> packed_codes; ///< fixed path: same, as codes
    std::vector<std::int32_t> bias_codes;
    int weight_frac = 0;
    int bias_frac = 0;
  };

  /// Derives pass `pass_index`'s resident blocks from the freshly drained
  /// weight_buffer_/bias_buffer_ (datapath-aware: float repack or
  /// quantize + repack).
  void derive_pass_cache(std::size_t pass_index, const LayerPass& pass);

  /// The per-lane accumulator tiles of the fixed conv path, selected by the
  /// widened accumulator type.
  template <typename Acc>
  std::vector<std::vector<Acc>>& fixed_lane_acc() noexcept {
    if constexpr (std::is_same_v<Acc, std::int64_t>) {
      return lane_acc64_;
    } else {
      return lane_acc32_;
    }
  }

  const PeProgram& program_;
  std::size_t window_h_max_;
  std::size_t window_w_max_;
  std::size_t lanes_;
  std::size_t parallel_out_;
  ThreadPool* lane_pool_;
  nn::DataType data_type_;
  std::vector<Stream*> ports_;
  Stream* weights_;
  Stream& out_;
  Stream* fmt_in_;
  Stream* fmt_out_;

  // --- steady-state scratch arena (see the header comment) ---------------
  // The outer per-lane vectors are sized once to parallel_out_ and never
  // shrink, so the inner tiles keep their high-water capacity even when a
  // pass clamps its compute-lane count below parallel_out_.
  std::vector<PassWeightCache> weight_cache_;  ///< one slot per pass
  std::vector<float> weight_buffer_;           ///< raw stream drain
  std::vector<float> bias_buffer_;
  std::vector<float> stage_;                   ///< port-stripe staging
  std::vector<std::int32_t> int_stage_;        ///< fixed: stage as codes
  std::vector<std::vector<float>> lane_acc_;   ///< float conv acc tiles
  std::vector<std::vector<std::int64_t>> lane_acc64_;  ///< fixed16 tiles
  std::vector<std::vector<std::int32_t>> lane_acc32_;  ///< fixed8 tiles
  std::vector<std::vector<const float*>> lane_taps_;
  std::vector<std::vector<const std::int32_t*>> lane_taps_fixed_;
  std::vector<float> out_blob_;                ///< activated output / values
  std::vector<float> map_;
  std::vector<std::int32_t> emit_codes_;       ///< requantize scratch
  std::vector<float> emit_blob_;
  /// Fused passes: the previous pass's output blob, retained PE-locally in
  /// exactly the byte sequence a stream would carry ((c, y, x) order; fixed
  /// datapaths: requantized codes in float words), and the buffer the
  /// current pass appends into. Double-buffered and swapped per pass;
  /// clear() keeps the high-water capacity, so the warm steady state stays
  /// off the heap.
  std::vector<float> fused_prev_;
  std::vector<float> fused_next_;
};

class ClassifierPeModule final : public Module {
 public:
  /// `weights` delivers the one-time runtime weight load (the classifier's
  /// parameters stay chip-resident across the batch AND across batches —
  /// the stream is drained once per compiled design). `parallel_in`
  /// stripes the flattened input across that many contiguous segments
  /// accumulated back-to-back (byte-identical at any degree; see the file
  /// header). `fmt_in` / `fmt_out` are the format side-channels of a fixed
  /// `data_type` (see FeaturePeModule).
  ClassifierPeModule(std::string name, const PeProgram& program, Stream& in,
                     Stream* weights, Stream& out, std::size_t parallel_out = 1,
                     std::size_t parallel_in = 1,
                     ThreadPool* lane_pool = nullptr,
                     nn::DataType data_type = nn::DataType::kFloat32,
                     Stream* fmt_in = nullptr, Stream* fmt_out = nullptr)
      : Module(std::move(name)),
        program_(program),
        parallel_out_(parallel_out == 0 ? 1 : parallel_out),
        parallel_in_(parallel_in == 0 ? 1 : parallel_in),
        lane_pool_(lane_pool),
        data_type_(data_type),
        in_(in),
        weights_(weights),
        out_(out),
        fmt_in_(fmt_in),
        fmt_out_(fmt_out) {}

  Fire fire(const RunContext& ctx) override;

 private:
  /// The fixed-point batch loop, templated over the widened accumulator
  /// (int64 for fixed16, int32 for fixed8). A nested firing (see
  /// FeaturePeModule).
  template <typename Acc>
  Fire run_fixed(const RunContext& ctx);

  /// Chip-resident quantized weights of one weighted pass (fixed path).
  struct FixedPassWeights {
    std::vector<std::int32_t> packed;  ///< (in, out) transposed codes
    std::vector<std::int32_t> bias_codes;
    int weight_frac = 0;
    int bias_frac = 0;
  };

  /// Per-lane accumulator scratch of the fixed path, selected by the
  /// widened accumulator type.
  template <typename Acc>
  std::vector<std::vector<Acc>>& fixed_lane_acc() noexcept {
    if constexpr (std::is_same_v<Acc, std::int64_t>) {
      return lane_acc64_;
    } else {
      return lane_acc32_;
    }
  }

  const PeProgram& program_;
  std::size_t parallel_out_;
  std::size_t parallel_in_;
  ThreadPool* lane_pool_;
  nn::DataType data_type_;
  Stream& in_;
  Stream* weights_;
  Stream& out_;
  Stream* fmt_in_;
  Stream* fmt_out_;

  // --- steady-state scratch + resident weights (persist across batches;
  // the weight stream is drained exactly once per compiled design — warm
  // runs find it closed and empty) ----------------------------------------
  bool resident_ready_ = false;
  std::vector<std::vector<float>> packed_weights_;  ///< float path, per pass
  std::vector<std::vector<float>> pass_bias_;
  std::vector<FixedPassWeights> resident_;          ///< fixed path, per pass
  std::vector<float> weight_buffer_;
  std::vector<float> words_;
  std::vector<float> current_;
  std::vector<float> next_;
  std::vector<std::int32_t> codes_;                 ///< fixed: current blob
  std::vector<float> values_;
  std::vector<std::int32_t> wcodes_;
  std::vector<std::vector<std::int64_t>> lane_acc64_;
  std::vector<std::vector<std::int32_t>> lane_acc32_;
};

}  // namespace condor::dataflow
