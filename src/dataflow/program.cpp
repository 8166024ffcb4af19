#include "dataflow/program.hpp"

#include "common/strings.hpp"

namespace condor::dataflow {

std::size_t PeProgram::external_input_elements() const noexcept {
  if (passes.empty()) {
    return 0;
  }
  const LayerPass& first = passes.front();
  // Unpadded: the PE adds the border itself.
  return first.in_channels * (first.in_h - 2 * first.pad) *
         (first.in_w - 2 * first.pad);
}

std::size_t PeProgram::weight_stream_elements() const noexcept {
  std::size_t total = 0;
  for (const LayerPass& pass : passes) {
    if (pass.params == nullptr) {
      continue;
    }
    total += pass.params->weights.size() + pass.params->bias.size();
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
    program.passes.push_back(pass);
  }
  return program;
}

}  // namespace condor::dataflow
