#include "hw/hw_ir.hpp"

#include <map>

#include "common/strings.hpp"

namespace condor::hw {
namespace {

/// The checks that need no shapes: annotation count, board and clock.
Status validate_target(const HwNetwork& network) {
  const nn::Network& net = network.net;
  const HwAnnotations& hw = network.hw;
  if (hw.layers.size() != net.layer_count()) {
    return invalid_input(strings::format(
        "hardware annotations cover %zu layers, network has %zu",
        hw.layers.size(), net.layer_count()));
  }
  CONDOR_ASSIGN_OR_RETURN(BoardSpec board, find_board(hw.board_id));
  if (hw.target_frequency_mhz <= 0.0 ||
      hw.target_frequency_mhz > board.max_frequency_mhz) {
    return invalid_input(strings::format(
        "target frequency %.1f MHz outside (0, %.1f] for board %s",
        hw.target_frequency_mhz, board.max_frequency_mhz, board.id.c_str()));
  }
  return Status::ok();
}

}  // namespace

Result<nn::Topology> HwNetwork::analyze() const {
  // Structure, target, then shapes and per-layer annotations: a network
  // failing several checks reports the first one in this order.
  CONDOR_RETURN_IF_ERROR(net.validate());
  CONDOR_RETURN_IF_ERROR(validate_target(*this));
  CONDOR_ASSIGN_OR_RETURN(nn::Topology topology, net.analyze());
  CONDOR_RETURN_IF_ERROR(validate_annotations(topology));
  return topology;
}

Status HwNetwork::validate() const { return analyze().status(); }

Status HwNetwork::validate_annotations(const nn::Topology& topology) const {
  CONDOR_RETURN_IF_ERROR(validate_target(*this));
  if (topology.shapes.size() != net.layer_count()) {
    return invalid_input("topology does not belong to this network");
  }
  const auto& shapes = topology.shapes;

  // PE groups must be contiguous runs of layers with compatible computation:
  // feature-extraction layers fuse with feature-extraction layers, classifier
  // with classifier (paper §3.2: "we cluster together in a single PE either
  // layers from the features extraction part or fully-connected layers").
  std::map<int, std::size_t> group_last_index;
  std::map<int, bool> group_is_feature;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    const nn::LayerSpec& layer = net.layers()[i];
    const LayerHw& annot = hw.layers[i];
    if (annot.parallel_in == 0 || annot.parallel_out == 0) {
      return invalid_input("layer '" + layer.name +
                           "': parallelism degrees must be >= 1");
    }
    if (layer.kind == nn::LayerKind::kConvolution ||
        layer.kind == nn::LayerKind::kPooling) {
      const std::size_t in_maps = shapes[i].input[0];
      const std::size_t out_maps = shapes[i].output[0];
      if (annot.parallel_in > in_maps) {
        return invalid_input(strings::format(
            "layer '%s': parallel_in %zu exceeds %zu input maps",
            layer.name.c_str(), annot.parallel_in, in_maps));
      }
      if (annot.parallel_out > out_maps) {
        return invalid_input(strings::format(
            "layer '%s': parallel_out %zu exceeds %zu output maps",
            layer.name.c_str(), annot.parallel_out, out_maps));
      }
    }
    if (annot.pe_group >= 0) {
      if (layer.kind == nn::LayerKind::kInput) {
        return invalid_input("input layer cannot join a PE group");
      }
      const bool is_feature = layer.is_feature_extraction() ||
                              layer.kind == nn::LayerKind::kActivation;
      auto [it, inserted] = group_is_feature.emplace(annot.pe_group, is_feature);
      if (!inserted && it->second != is_feature) {
        return invalid_input(strings::format(
            "PE group %d mixes feature-extraction and classifier layers",
            annot.pe_group));
      }
      auto [last_it, first_seen] = group_last_index.emplace(annot.pe_group, i);
      if (!first_seen) {
        if (last_it->second + 1 != i) {
          return invalid_input(strings::format(
              "PE group %d is not a contiguous run of layers", annot.pe_group));
        }
        last_it->second = i;
      }
    }
  }
  return Status::ok();
}

HwNetwork with_default_annotations(nn::Network net, std::string board_id,
                                   double target_frequency_mhz) {
  HwNetwork out;
  out.hw.board_id = std::move(board_id);
  out.hw.target_frequency_mhz = target_frequency_mhz;
  out.hw.layers.assign(net.layer_count(), LayerHw{});
  out.net = std::move(net);
  return out;
}

json::Value to_json(const HwNetwork& network) {
  json::Object root;
  root.set("name", network.net.name());
  root.set("board", network.hw.board_id);
  root.set("target_frequency_mhz", network.hw.target_frequency_mhz);
  if (network.hw.data_type != nn::DataType::kFloat32) {
    // Emitted only for fixed datapaths so float32 files stay byte-identical
    // to the pre-datapath format.
    root.set("data_type", std::string(nn::to_string(network.hw.data_type)));
  }

  const nn::LayerSpec& input = network.net.layers().front();
  json::Object input_obj;
  input_obj.set("channels", input.input_channels);
  input_obj.set("height", input.input_height);
  input_obj.set("width", input.input_width);
  root.set("input", std::move(input_obj));

  json::Array layers;
  for (std::size_t i = 1; i < network.net.layer_count(); ++i) {
    const nn::LayerSpec& layer = network.net.layers()[i];
    const LayerHw& annot = network.hw.layers[i];
    json::Object obj;
    obj.set("name", layer.name);
    obj.set("type", std::string(nn::to_string(layer.kind)));
    switch (layer.kind) {
      case nn::LayerKind::kConvolution:
        obj.set("num_output", layer.num_output);
        obj.set("kernel_h", layer.kernel_h);
        obj.set("kernel_w", layer.kernel_w);
        obj.set("stride", layer.stride);
        if (layer.pad != 0) {
          obj.set("pad", layer.pad);
        }
        obj.set("bias", layer.has_bias);
        break;
      case nn::LayerKind::kPooling:
        obj.set("method", std::string(nn::to_string(layer.pool_method)));
        obj.set("kernel_h", layer.kernel_h);
        obj.set("kernel_w", layer.kernel_w);
        obj.set("stride", layer.stride);
        break;
      case nn::LayerKind::kInnerProduct:
        obj.set("num_output", layer.num_output);
        obj.set("bias", layer.has_bias);
        break;
      case nn::LayerKind::kUpsample:
        obj.set("scale", layer.stride);
        break;
      default:
        break;
    }
    if (!layer.inputs.empty()) {
      json::Array inputs;
      for (const std::string& producer : layer.inputs) {
        inputs.push_back(producer);
      }
      obj.set("inputs", std::move(inputs));
    }
    if (layer.activation != nn::Activation::kNone) {
      obj.set("activation", std::string(nn::to_string(layer.activation)));
    }
    json::Object hw_obj;
    hw_obj.set("parallel_in", annot.parallel_in);
    hw_obj.set("parallel_out", annot.parallel_out);
    if (annot.pe_group >= 0) {
      hw_obj.set("pe_group", static_cast<std::int64_t>(annot.pe_group));
    }
    obj.set("hardware", std::move(hw_obj));
    layers.push_back(std::move(obj));
  }
  root.set("layers", std::move(layers));
  return root;
}

std::string to_json_text(const HwNetwork& network) {
  return json::dump(to_json(network));
}

namespace {

Result<std::size_t> req_size(const json::Object& obj, std::string_view key) {
  const json::Value* value = obj.find(key);
  if (value == nullptr) {
    return not_found("missing field '" + std::string(key) + "'");
  }
  CONDOR_ASSIGN_OR_RETURN(std::int64_t number, value->as_int());
  if (number < 0) {
    return invalid_input("field '" + std::string(key) + "' must be >= 0");
  }
  return static_cast<std::size_t>(number);
}

}  // namespace

Result<HwNetwork> from_json(const json::Value& value) {
  if (!value.is_object()) {
    return invalid_input("network representation must be a JSON object");
  }
  const json::Object& root = value.object();
  HwNetwork out;

  if (const json::Value* name = root.find("name"); name != nullptr) {
    CONDOR_ASSIGN_OR_RETURN(std::string text, name->as_string());
    out.net.set_name(std::move(text));
  }
  if (const json::Value* board = root.find("board"); board != nullptr) {
    CONDOR_ASSIGN_OR_RETURN(out.hw.board_id, board->as_string());
  }
  if (const json::Value* freq = root.find("target_frequency_mhz"); freq != nullptr) {
    CONDOR_ASSIGN_OR_RETURN(out.hw.target_frequency_mhz, freq->as_double());
  }
  if (const json::Value* type = root.find("data_type"); type != nullptr) {
    CONDOR_ASSIGN_OR_RETURN(std::string type_text, type->as_string());
    CONDOR_ASSIGN_OR_RETURN(out.hw.data_type, nn::parse_data_type(type_text));
  }

  const json::Value* input = root.find("input");
  if (input == nullptr || !input->is_object()) {
    return invalid_input("network representation missing 'input' object");
  }
  nn::LayerSpec input_layer;
  input_layer.kind = nn::LayerKind::kInput;
  input_layer.name = "data";
  CONDOR_ASSIGN_OR_RETURN(input_layer.input_channels,
                          req_size(input->object(), "channels"));
  CONDOR_ASSIGN_OR_RETURN(input_layer.input_height,
                          req_size(input->object(), "height"));
  CONDOR_ASSIGN_OR_RETURN(input_layer.input_width,
                          req_size(input->object(), "width"));
  out.net.add(input_layer);
  out.hw.layers.push_back(LayerHw{});

  const json::Value* layers = root.find("layers");
  if (layers == nullptr || !layers->is_array()) {
    return invalid_input("network representation missing 'layers' array");
  }
  for (const json::Value& entry : layers->array()) {
    if (!entry.is_object()) {
      return invalid_input("layer entries must be JSON objects");
    }
    const json::Object& obj = entry.object();
    nn::LayerSpec layer;
    const json::Value* name = obj.find("name");
    const json::Value* type = obj.find("type");
    if (name == nullptr || type == nullptr) {
      return invalid_input("layer entry missing 'name' or 'type'");
    }
    CONDOR_ASSIGN_OR_RETURN(layer.name, name->as_string());
    CONDOR_ASSIGN_OR_RETURN(std::string type_text, type->as_string());
    CONDOR_ASSIGN_OR_RETURN(layer.kind, nn::parse_layer_kind(type_text));
    switch (layer.kind) {
      case nn::LayerKind::kConvolution: {
        CONDOR_ASSIGN_OR_RETURN(layer.num_output, req_size(obj, "num_output"));
        CONDOR_ASSIGN_OR_RETURN(layer.kernel_h, req_size(obj, "kernel_h"));
        CONDOR_ASSIGN_OR_RETURN(layer.kernel_w, req_size(obj, "kernel_w"));
        CONDOR_ASSIGN_OR_RETURN(layer.stride, req_size(obj, "stride"));
        if (obj.contains("pad")) {
          CONDOR_ASSIGN_OR_RETURN(layer.pad, req_size(obj, "pad"));
        }
        if (const json::Value* bias = obj.find("bias"); bias != nullptr) {
          CONDOR_ASSIGN_OR_RETURN(layer.has_bias, bias->as_bool());
        }
        break;
      }
      case nn::LayerKind::kPooling: {
        CONDOR_ASSIGN_OR_RETURN(layer.kernel_h, req_size(obj, "kernel_h"));
        CONDOR_ASSIGN_OR_RETURN(layer.kernel_w, req_size(obj, "kernel_w"));
        CONDOR_ASSIGN_OR_RETURN(layer.stride, req_size(obj, "stride"));
        if (const json::Value* method = obj.find("method"); method != nullptr) {
          CONDOR_ASSIGN_OR_RETURN(std::string method_text, method->as_string());
          CONDOR_ASSIGN_OR_RETURN(layer.pool_method,
                                  nn::parse_pool_method(method_text));
        }
        break;
      }
      case nn::LayerKind::kInnerProduct: {
        CONDOR_ASSIGN_OR_RETURN(layer.num_output, req_size(obj, "num_output"));
        if (const json::Value* bias = obj.find("bias"); bias != nullptr) {
          CONDOR_ASSIGN_OR_RETURN(layer.has_bias, bias->as_bool());
        }
        break;
      }
      case nn::LayerKind::kUpsample: {
        CONDOR_ASSIGN_OR_RETURN(layer.stride, req_size(obj, "scale"));
        break;
      }
      case nn::LayerKind::kActivation:
      case nn::LayerKind::kSoftmax:
      case nn::LayerKind::kEltwiseAdd:
      case nn::LayerKind::kConcat:
        break;
      case nn::LayerKind::kInput:
        return invalid_input(
            "layer list must not contain input layers; use the 'input' object");
    }
    if (const json::Value* inputs = obj.find("inputs"); inputs != nullptr) {
      if (!inputs->is_array()) {
        return invalid_input("layer 'inputs' must be an array of layer names");
      }
      for (const json::Value& producer : inputs->array()) {
        CONDOR_ASSIGN_OR_RETURN(std::string producer_name, producer.as_string());
        layer.inputs.push_back(std::move(producer_name));
      }
    }
    if (const json::Value* act = obj.find("activation"); act != nullptr) {
      CONDOR_ASSIGN_OR_RETURN(std::string act_text, act->as_string());
      CONDOR_ASSIGN_OR_RETURN(layer.activation, nn::parse_activation(act_text));
    }

    LayerHw annot;
    if (const json::Value* hw_entry = obj.find("hardware"); hw_entry != nullptr) {
      if (!hw_entry->is_object()) {
        return invalid_input("'hardware' must be an object");
      }
      const json::Object& hw_obj = hw_entry->object();
      if (hw_obj.contains("parallel_in")) {
        CONDOR_ASSIGN_OR_RETURN(annot.parallel_in, req_size(hw_obj, "parallel_in"));
      }
      if (hw_obj.contains("parallel_out")) {
        CONDOR_ASSIGN_OR_RETURN(annot.parallel_out, req_size(hw_obj, "parallel_out"));
      }
      if (const json::Value* group = hw_obj.find("pe_group"); group != nullptr) {
        CONDOR_ASSIGN_OR_RETURN(std::int64_t id, group->as_int());
        annot.pe_group = static_cast<int>(id);
      }
    }
    out.net.add(std::move(layer));
    out.hw.layers.push_back(annot);
  }

  CONDOR_RETURN_IF_ERROR(out.validate());
  return out;
}

Result<HwNetwork> from_json_text(std::string_view text) {
  CONDOR_ASSIGN_OR_RETURN(json::Value value, json::parse(text));
  return from_json(value);
}

}  // namespace condor::hw
