#include "dataflow/program.hpp"

#include <span>
#include <utility>

#include "common/strings.hpp"
#include "nn/kernels.hpp"
#include "nn/numeric.hpp"

namespace condor::dataflow {
namespace {

/// Repacks canonical-order weights (or their codes) into the layout the
/// pass's microkernel reads.
template <typename T>
std::vector<T> pack_for_pass(const LayerPass& pass,
                             std::span<const T> weights) {
  if (pass.kind == PassKind::kConvolution) {
    return nn::kernels::pack_conv_weights(weights, pass.out_channels,
                                          pass.in_channels, pass.window_h,
                                          pass.window_w);
  }
  return nn::kernels::pack_inner_product_weights(
      weights, pass.output_elements(), pass.input_elements());
}

/// Derives `pass`'s resident blocks from its parameters: a pure function of
/// the immutable WeightStore slice and the datapath.
Status derive_resident_weights(LayerPass& pass, nn::DataType data_type) {
  const nn::LayerParameters& params = *pass.params;
  ResidentWeights& resident = pass.resident;
  if (!nn::is_fixed_point(data_type)) {
    resident.packed = pack_for_pass(pass, params.weights.data());
    resident.bias.assign(params.bias.data().begin(), params.bias.data().end());
    return Status::ok();
  }
  const int bits = nn::total_bits(data_type);
  std::vector<std::int32_t> codes;
  resident.weight_frac =
      nn::quantize_span(params.weights.data(), bits, codes).frac_bits;
  if (pass.kind == PassKind::kInnerProduct &&
      inner_product_uses_pair_blocks(data_type)) {
    CONDOR_ASSIGN_OR_RETURN(resident.pair_blocks,
                            nn::kernels::pack_fixed8_inner_product(
                                codes, pass.output_elements(),
                                pass.input_elements()));
  } else {
    resident.packed_codes =
        pack_for_pass(pass, std::span<const std::int32_t>(codes));
  }
  resident.bias_frac = bits - 1;
  if (pass.has_bias) {
    resident.bias_frac =
        nn::quantize_span(params.bias.data(), bits, resident.bias_codes)
            .frac_bits;
  }
  return Status::ok();
}

}  // namespace

std::size_t PeProgram::external_input_elements() const noexcept {
  if (passes.empty()) {
    return 0;
  }
  const LayerPass& first = passes.front();
  // Unpadded: the PE adds the border itself.
  return first.in_channels * (first.in_h - 2 * first.pad) *
         (first.in_w - 2 * first.pad);
}

std::size_t PeProgram::weight_elements() const noexcept {
  std::size_t total = 0;
  for (const LayerPass& pass : passes) {
    if (pass.params == nullptr) {
      continue;
    }
    total += pass.params->weights.size() + pass.params->bias.size();
  }
  return total;
}

std::size_t PeProgram::resident_bytes() const noexcept {
  std::size_t total = 0;
  for (const LayerPass& pass : passes) {
    total += pass.resident.bytes();
  }
  return total;
}

Result<PeProgram> build_pe_program(const hw::AcceleratorPlan& plan,
                                   std::size_t pe_index,
                                   const nn::WeightStore& weights) {
  const hw::PePlan& pe = plan.pes[pe_index];
  const auto& shapes = plan.topology->shapes;
  const auto& layers = plan.source.net.layers();

  PeProgram program;
  for (const std::size_t index : pe.layer_indices) {
    const nn::LayerSpec& layer = layers[index];
    const Shape& in = shapes[index].input;
    const Shape& out = shapes[index].output;
    LayerPass pass;
    pass.activation = layer.activation;
    switch (layer.kind) {
      case nn::LayerKind::kConvolution:
        pass.kind = PassKind::kConvolution;
        pass.in_channels = in[0];
        pass.pad = layer.pad;
        pass.in_h = in[1] + 2 * layer.pad;
        pass.in_w = in[2] + 2 * layer.pad;
        pass.window_h = layer.kernel_h;
        pass.window_w = layer.kernel_w;
        pass.stride = layer.stride;
        pass.out_channels = out[0];
        pass.out_h = out[1];
        pass.out_w = out[2];
        pass.has_bias = layer.has_bias;
        pass.params = weights.find(layer.name);
        if (pass.params == nullptr) {
          return not_found("no weights for layer '" + layer.name + "'");
        }
        break;
      case nn::LayerKind::kPooling:
        pass.kind = PassKind::kPooling;
        pass.in_channels = in[0];
        pass.in_h = in[1];
        pass.in_w = in[2];
        pass.window_h = layer.kernel_h;
        pass.window_w = layer.kernel_w;
        pass.stride = layer.stride;
        pass.out_channels = out[0];
        pass.out_h = out[1];
        pass.out_w = out[2];
        pass.pool_method = layer.pool_method;
        break;
      case nn::LayerKind::kActivation:
        // Element-wise pass: a 1x1 window over whatever shape precedes.
        pass.kind = PassKind::kElementwise;
        if (in.rank() == 3) {
          pass.in_channels = in[0];
          pass.in_h = in[1];
          pass.in_w = in[2];
        } else {
          pass.in_channels = 1;
          pass.in_h = 1;
          pass.in_w = in.element_count();
        }
        pass.out_channels = pass.in_channels;
        pass.out_h = pass.in_h;
        pass.out_w = pass.in_w;
        break;
      case nn::LayerKind::kEltwiseAdd:
      case nn::LayerKind::kConcat:
        // Two-input join: in_* describes the FIRST operand (the shape
        // inference convention); the second operand's element count is
        // output - first for concat and equals the first for eltwise-add.
        pass.kind = layer.kind == nn::LayerKind::kEltwiseAdd
                        ? PassKind::kEltwiseAdd
                        : PassKind::kConcat;
        pass.in_channels = in[0];
        pass.in_h = in[1];
        pass.in_w = in[2];
        pass.out_channels = out[0];
        pass.out_h = out[1];
        pass.out_w = out[2];
        break;
      case nn::LayerKind::kUpsample:
        // Nearest-neighbour replication: a 1x1 window walked at stride 1
        // with the replication factor carried separately in `scale`.
        pass.kind = PassKind::kUpsample;
        pass.in_channels = in[0];
        pass.in_h = in[1];
        pass.in_w = in[2];
        pass.scale = layer.stride;
        pass.out_channels = out[0];
        pass.out_h = out[1];
        pass.out_w = out[2];
        break;
      case nn::LayerKind::kInnerProduct:
        pass.kind = PassKind::kInnerProduct;
        pass.in_channels = 1;
        pass.in_h = 1;
        pass.in_w = in.element_count();
        pass.out_channels = 1;
        pass.out_h = 1;
        pass.out_w = out.element_count();
        pass.has_bias = layer.has_bias;
        pass.params = weights.find(layer.name);
        if (pass.params == nullptr) {
          return not_found("no weights for layer '" + layer.name + "'");
        }
        break;
      default:
        return internal_error(strings::format(
            "layer '%s' of kind %s cannot be scheduled on a PE",
            layer.name.c_str(), std::string(nn::to_string(layer.kind)).c_str()));
    }
    if (pass.params != nullptr) {
      CONDOR_RETURN_IF_ERROR(derive_resident_weights(pass, plan.data_type()));
    }
    program.passes.push_back(std::move(pass));
  }
  return program;
}

}  // namespace condor::dataflow
