// Datamover halves: the custom module that "exchanges data with the
// accelerator using streaming connections" (paper §3.2). In the functional
// simulation the input half streams the batch's images from (simulated)
// on-board memory into every PE that reads the network input (one frame
// per image on each of those edges, in plan edge order), and the output
// half collects result blobs. The datamover's third duty in the paper, the
// one-time weight load, has no module here: the PE programs carry their
// chip-resident weights, derived from the WeightStore (which stands in for
// the weight regions of on-board memory) when the design compiles
// (dataflow/program.hpp). HLS codegen (the gmem_weights port and each
// PE's weight stream) and the resource and performance models own that
// load.
//
// Both movers transfer whole blobs per FIFO call (burst writes / reads):
// the datamover models a DMA engine, and blob-granular bursts are what
// keep the host-side simulation off the suspend/wake slow path.
//
// The input and output halves also frame images for the run telemetry
// (RunTelemetry): the source counts an image as injected once its frame is
// on every out-edge, the sink counts it retired once the blob is
// collected — their difference proves how many images the pipeline held
// concurrently.
//
// Both halves speak the edge wire format of dataflow/frame.hpp. For a
// fixed-point plan (see nn/numeric.hpp) the input half quantizes each image
// with a per-image dynamic format and frames it, and the output half reads
// the final frame's header word, then dequantizes the collected codes back
// to floats.
#pragma once

#include <cstdint>
#include <vector>

#include "common/alloc_probe.hpp"
#include "dataflow/fifo.hpp"
#include "dataflow/frame.hpp"
#include "dataflow/module.hpp"
#include "nn/numeric.hpp"
#include "tensor/tensor.hpp"

namespace condor::dataflow {

/// Streams each input tensor's elements in CHW raster order to every edge
/// that reads the network input (`out`, in plan edge order). Fixed datapaths
/// quantize and frame each image.
class InputMoverModule final : public Module {
 public:
  InputMoverModule(std::string name, OutEdges out,
                   nn::DataType data_type = nn::DataType::kFloat32)
      : Module(std::move(name)), data_type_(data_type), out_(std::move(out)) {}

  Fire fire(const RunContext& ctx) override {
    if (ctx.inputs.size() != ctx.batch) {
      co_return internal_error("input mover: run context carries no inputs");
    }
    const bool fixed = nn::is_fixed_point(data_type_);
    const int bits = nn::total_bits(data_type_);
    for (const Tensor& image : ctx.inputs) {
      if (fixed) {
        int frac = 0;
        CONDOR_CO_RETURN_IF_ERROR(co_await emit_requantized(
            PassSink{&out_}, image.data(), bits, frac, codes_, frame_,
            name()));
      } else {
        CONDOR_CO_RETURN_IF_ERROR(
            co_await write_blob(PassSink{&out_}, image.data(), name()));
      }
      if (ctx.telemetry != nullptr) {
        ctx.telemetry->on_image_injected();
      }
    }
    close_edges(out_);
    co_return Status::ok();
  }

 private:
  nn::DataType data_type_;
  OutEdges out_;
  // Quantization scratch persists across runs so steady-state firings
  // allocate nothing.
  std::vector<std::int32_t> codes_;
  std::vector<float> frame_;
};

/// Collects `batch` output blobs of `output_shape` from the final stream.
/// Fixed datapaths dequantize the collected codes in place with the
/// format of their frame.
class OutputMoverModule final : public Module {
 public:
  OutputMoverModule(std::string name, Shape output_shape, Stream& in,
                    nn::DataType data_type = nn::DataType::kFloat32)
      : Module(std::move(name)),
        output_shape_(std::move(output_shape)),
        data_type_(data_type),
        in_(in) {}

  Fire fire(const RunContext& ctx) override {
    const bool fixed = nn::is_fixed_point(data_type_);
    {
      // The output vector escapes to the caller (run_batch moves it out
      // every run), so its storage is outside the zero-allocation contract,
      // same as the Tensor payloads below.
      const common::AllocProbe::Pause pause;
      outputs_.clear();
      outputs_.reserve(ctx.batch);
    }
    for (std::size_t image = 0; image < ctx.batch; ++image) {
      // Output tensor construction is intentionally outside the
      // zero-allocation contract (it escapes to the caller); pause the
      // probe for exactly that allocation.
      Tensor blob = [&] {
        const common::AllocProbe::Pause pause;
        return Tensor(output_shape_);
      }();
      const std::span<float> data = blob.data();
      int frac = 0;
      CONDOR_CO_RETURN_IF_ERROR(
          co_await read_frame(in_, data_type_, frac, data, name()));
      if (fixed) {
        for (float& value : data) {
          value = nn::dequantize_code(static_cast<std::int64_t>(value), frac);
        }
      }
      outputs_.push_back(std::move(blob));
      if (ctx.telemetry != nullptr) {
        ctx.telemetry->on_image_retired();
      }
    }
    float extra = 0.0F;
    bool got_extra = false;
    CONDOR_CO_READ_ONE_OR_EOS(in_, extra, got_extra);
    if (got_extra) {
      co_return internal_error("output mover: trailing elements in stream");
    }
    co_return Status::ok();
  }

  [[nodiscard]] std::vector<Tensor>& outputs() noexcept { return outputs_; }

 private:
  Shape output_shape_;
  nn::DataType data_type_;
  Stream& in_;
  std::vector<Tensor> outputs_;
};

}  // namespace condor::dataflow
