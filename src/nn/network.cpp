#include "nn/network.hpp"

#include <algorithm>
#include <set>

#include "common/strings.hpp"

namespace condor::nn {
namespace {

/// `a * b`, or invalid_input naming `layer` when the product wraps size_t.
Result<std::size_t> checked_mul(std::size_t a, std::size_t b,
                                const LayerSpec& layer) {
  std::size_t product = 0;
  if (__builtin_mul_overflow(a, b, &product)) {
    return invalid_input(strings::format(
        "layer '%s': extent %zu x %zu overflows size_t", layer.name.c_str(),
        a, b));
  }
  return product;
}

/// The element count of `shape`, or invalid_input naming `layer` when the
/// product of its extents wraps size_t.
Result<std::size_t> checked_element_count(const Shape& shape,
                                          const LayerSpec& layer) {
  std::size_t count = 1;
  for (const std::size_t dim : shape.dims()) {
    CONDOR_ASSIGN_OR_RETURN(count, checked_mul(count, dim, layer));
  }
  return count;
}

}  // namespace

const LayerSpec* Network::find_layer(std::string_view name) const noexcept {
  for (const LayerSpec& layer : layers_) {
    if (layer.name == name) {
      return &layer;
    }
  }
  return nullptr;
}

Result<std::size_t> Network::layer_index(std::string_view name) const {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (layers_[i].name == name) {
      return i;
    }
  }
  return not_found("network '" + name_ + "' has no layer named '" +
                   std::string(name) + "'");
}

Result<std::vector<std::size_t>> Network::producers(std::size_t index) const {
  if (index >= layers_.size()) {
    return invalid_input(strings::format("layer index %zu out of range", index));
  }
  const LayerSpec& layer = layers_[index];
  std::vector<std::size_t> out;
  if (layer.inputs.empty()) {
    // The implicit linear chain: every non-input layer consumes the blob of
    // the layer declared just before it.
    if (layer.kind != LayerKind::kInput && index > 0) {
      out.push_back(index - 1);
    }
    return out;
  }
  if (layer.kind == LayerKind::kInput) {
    return invalid_input("input layer '" + layer.name +
                         "' cannot name producers");
  }
  out.reserve(layer.inputs.size());
  for (const std::string& input : layer.inputs) {
    CONDOR_ASSIGN_OR_RETURN(std::size_t producer, layer_index(input));
    if (producer == index) {
      return invalid_input("layer '" + layer.name +
                           "' consumes its own output");
    }
    out.push_back(producer);
  }
  return out;
}

Result<Topology> Network::resolve_edges() const {
  Topology topology;
  topology.producers.resize(layers_.size());
  topology.consumers.resize(layers_.size());
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    CONDOR_ASSIGN_OR_RETURN(topology.producers[i], producers(i));
    for (std::size_t p : topology.producers[i]) {
      topology.consumers[p].push_back(i);
    }
  }
  return topology;
}

Status Network::sort(Topology& topology) const {
  const std::size_t n = layers_.size();
  std::vector<std::size_t> indegree(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    indegree[i] = topology.producers[i].size();
  }
  // Kahn's algorithm, always emitting the lowest ready index: a network
  // whose declaration order is already topological (every linear chain)
  // comes back as the identity permutation.
  std::vector<std::size_t>& order = topology.order;
  order.reserve(n);
  std::vector<bool> emitted(n, false);
  for (std::size_t step = 0; step < n; ++step) {
    std::size_t next = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (!emitted[i] && indegree[i] == 0) {
        next = i;
        break;
      }
    }
    if (next == n) {
      return invalid_input("network '" + name_ +
                           "' has a cycle in its producer graph");
    }
    emitted[next] = true;
    order.push_back(next);
    for (std::size_t c : topology.consumers[next]) {
      --indegree[c];
    }
  }
  return Status::ok();
}

Result<std::vector<std::vector<std::size_t>>> Network::consumers() const {
  CONDOR_ASSIGN_OR_RETURN(Topology topology, resolve_edges());
  return std::move(topology.consumers);
}

Result<std::vector<std::size_t>> Network::topological_order() const {
  CONDOR_ASSIGN_OR_RETURN(Topology topology, resolve_edges());
  CONDOR_RETURN_IF_ERROR(sort(topology));
  return std::move(topology.order);
}

std::size_t Network::join_count() const noexcept {
  std::size_t count = 0;
  for (const LayerSpec& layer : layers_) {
    if (layer.is_join()) {
      ++count;
    }
  }
  return count;
}

Result<std::size_t> Network::dag_depth() const {
  CONDOR_ASSIGN_OR_RETURN(Topology topology, resolve_edges());
  CONDOR_RETURN_IF_ERROR(sort(topology));
  std::vector<std::size_t> depth(layers_.size(), 0);
  std::size_t deepest = 0;
  for (std::size_t i : topology.order) {
    std::size_t d = 1;
    for (std::size_t p : topology.producers[i]) {
      d = std::max(d, depth[p] + 1);
    }
    depth[i] = d;
    deepest = std::max(deepest, d);
  }
  return deepest;
}

Status Network::validate() const { return resolve().status(); }

Result<Topology> Network::analyze() const {
  CONDOR_ASSIGN_OR_RETURN(Topology topology, resolve());
  CONDOR_RETURN_IF_ERROR(fill_shapes(topology));
  return topology;
}

Result<std::vector<LayerShapes>> Network::infer_shapes() const {
  CONDOR_ASSIGN_OR_RETURN(Topology topology, analyze());
  return std::move(topology.shapes);
}

Result<Topology> Network::resolve() const {
  if (layers_.empty()) {
    return invalid_input("network '" + name_ + "' has no layers");
  }
  if (layers_.front().kind != LayerKind::kInput) {
    return invalid_input("first layer must be an input layer");
  }
  std::set<std::string> names;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const LayerSpec& layer = layers_[i];
    if (layer.name.empty()) {
      return invalid_input(strings::format("layer %zu has an empty name", i));
    }
    if (!names.insert(layer.name).second) {
      return invalid_input("duplicate layer name '" + layer.name + "'");
    }
    if (layer.inputs.size() > 1 && !layer.is_join()) {
      return invalid_input(std::string(to_string(layer.kind)) + " '" +
                           layer.name + "' can consume at most one input");
    }
    switch (layer.kind) {
      case LayerKind::kInput:
        if (i != 0) {
          return invalid_input("input layer '" + layer.name +
                               "' must be the first layer");
        }
        if (layer.input_channels == 0 || layer.input_height == 0 ||
            layer.input_width == 0) {
          return invalid_input("input layer '" + layer.name +
                               "' must declare a non-empty CHW shape");
        }
        break;
      case LayerKind::kConvolution:
        if (layer.num_output == 0) {
          return invalid_input("convolution '" + layer.name +
                               "' must have num_output > 0");
        }
        if (layer.kernel_h == 0 || layer.kernel_w == 0 || layer.stride == 0) {
          return invalid_input("convolution '" + layer.name +
                               "' has invalid window geometry");
        }
        break;
      case LayerKind::kPooling:
        if (layer.kernel_h == 0 || layer.kernel_w == 0 || layer.stride == 0) {
          return invalid_input("pooling '" + layer.name +
                               "' has invalid window geometry");
        }
        if (layer.pad != 0) {
          // Same rejection (and status code) as nn::forward_pooling: the
          // zero border is wrong for max pooling, so a padded pooling spec
          // is an input error, not a backend limitation.
          return invalid_input("pooling '" + layer.name +
                               "' with padding is not supported");
        }
        break;
      case LayerKind::kInnerProduct:
        if (layer.num_output == 0) {
          return invalid_input("inner product '" + layer.name +
                               "' must have num_output > 0");
        }
        break;
      case LayerKind::kActivation:
        if (layer.activation == Activation::kNone) {
          return invalid_input("activation layer '" + layer.name +
                               "' must name a function");
        }
        break;
      case LayerKind::kSoftmax:
        if (i + 1 != layers_.size()) {
          return invalid_input("softmax '" + layer.name +
                               "' must be the final layer");
        }
        break;
      case LayerKind::kEltwiseAdd:
      case LayerKind::kConcat:
        if (layer.inputs.size() != 2) {
          return invalid_input(std::string(to_string(layer.kind)) + " '" +
                               layer.name + "' must name exactly two inputs");
        }
        break;
      case LayerKind::kUpsample:
        if (layer.stride == 0) {
          return invalid_input("upsample '" + layer.name +
                               "' must have a positive scale (stride)");
        }
        break;
    }
  }
  // The producer graph must resolve and sort: unknown input names,
  // self-references and cycles surface here.
  CONDOR_ASSIGN_OR_RETURN(Topology topology, resolve_edges());
  CONDOR_RETURN_IF_ERROR(sort(topology));
  // Spatial layers cannot consume a classifier output: walk the sorted DAG
  // and taint everything downstream of an inner-product layer (the flattened
  // half of the network). For linear chains this reproduces the old
  // "classifier started" declaration-order check verbatim.
  std::vector<bool> flattened(layers_.size(), false);
  for (std::size_t i : topology.order) {
    const LayerSpec& layer = layers_[i];
    bool tainted = layer.kind == LayerKind::kInnerProduct;
    for (std::size_t p : topology.producers[i]) {
      tainted = tainted || flattened[p];
    }
    if (tainted && layer.kind != LayerKind::kInnerProduct &&
        layer.kind != LayerKind::kActivation &&
        layer.kind != LayerKind::kSoftmax) {
      return invalid_input(std::string(to_string(layer.kind)) + " '" +
                           layer.name +
                           "' cannot follow an inner-product layer");
    }
    flattened[i] = tainted;
  }
  std::size_t sink_count = 0;
  std::size_t sink = layers_.size();
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (topology.consumers[i].empty()) {
      ++sink_count;
      sink = i;
    }
  }
  if (sink_count != 1) {
    return invalid_input(strings::format(
        "network '%s' must have exactly one output layer (found %zu "
        "unconsumed blobs)",
        name_.c_str(), sink_count));
  }
  if (sink + 1 != layers_.size()) {
    return invalid_input("network '" + name_ + "' output layer '" +
                         layers_[sink].name + "' must be declared last");
  }
  return topology;
}

Status Network::fill_shapes(Topology& topology) const {
  std::vector<LayerShapes>& shapes = topology.shapes;
  shapes.assign(layers_.size(), LayerShapes{});
  for (std::size_t i : topology.order) {
    const LayerSpec& layer = layers_[i];
    const std::vector<std::size_t>& prods = topology.producers[i];
    LayerShapes& entry = shapes[i];
    entry.input = prods.empty() ? Shape{} : shapes[prods.front()].output;
    switch (layer.kind) {
      case LayerKind::kInput:
        entry.output =
            Shape{layer.input_channels, layer.input_height, layer.input_width};
        break;
      case LayerKind::kConvolution: {
        if (entry.input.rank() != 3) {
          return invalid_input("convolution '" + layer.name +
                               "' requires a CHW input");
        }
        CONDOR_ASSIGN_OR_RETURN(
            std::size_t out_h,
            window_output_extent(entry.input[1], layer.kernel_h, layer.stride,
                                 layer.pad));
        CONDOR_ASSIGN_OR_RETURN(
            std::size_t out_w,
            window_output_extent(entry.input[2], layer.kernel_w, layer.stride,
                                 layer.pad));
        entry.output = Shape{layer.num_output, out_h, out_w};
        // The zero-padded input frame the windows index must be
        // addressable too (its extents are checked by
        // window_output_extent).
        CONDOR_RETURN_IF_ERROR(
            checked_element_count(Shape{entry.input[0],
                                        entry.input[1] + 2 * layer.pad,
                                        entry.input[2] + 2 * layer.pad},
                                  layer)
                .status());
        break;
      }
      case LayerKind::kPooling: {
        if (entry.input.rank() != 3) {
          return invalid_input("pooling '" + layer.name + "' requires a CHW input");
        }
        CONDOR_ASSIGN_OR_RETURN(
            std::size_t out_h,
            window_output_extent(entry.input[1], layer.kernel_h, layer.stride, 0));
        CONDOR_ASSIGN_OR_RETURN(
            std::size_t out_w,
            window_output_extent(entry.input[2], layer.kernel_w, layer.stride, 0));
        entry.output = Shape{entry.input[0], out_h, out_w};
        break;
      }
      case LayerKind::kInnerProduct:
        // Implicit flatten of whatever precedes, as in Caffe.
        entry.output = Shape{layer.num_output};
        break;
      case LayerKind::kActivation:
      case LayerKind::kSoftmax:
        entry.output = entry.input;
        break;
      case LayerKind::kEltwiseAdd: {
        const Shape& a = shapes[prods[0]].output;
        const Shape& b = shapes[prods[1]].output;
        if (a.rank() != 3 || b.rank() != 3) {
          return invalid_input("eltwise_add '" + layer.name +
                               "' requires CHW inputs");
        }
        if (a != b) {
          return invalid_input("eltwise_add '" + layer.name +
                               "' input shapes disagree: " + a.to_string() +
                               " vs " + b.to_string());
        }
        entry.output = a;
        break;
      }
      case LayerKind::kConcat: {
        const Shape& a = shapes[prods[0]].output;
        const Shape& b = shapes[prods[1]].output;
        if (a.rank() != 3 || b.rank() != 3) {
          return invalid_input("concat '" + layer.name +
                               "' requires CHW inputs");
        }
        if (a[1] != b[1] || a[2] != b[2]) {
          return invalid_input("concat '" + layer.name +
                               "' input spatial extents disagree: " +
                               a.to_string() + " vs " + b.to_string());
        }
        std::size_t channels = 0;
        if (__builtin_add_overflow(a[0], b[0], &channels)) {
          return invalid_input("concat '" + layer.name +
                               "' channel sum overflows size_t");
        }
        entry.output = Shape{channels, a[1], a[2]};
        break;
      }
      case LayerKind::kUpsample: {
        if (entry.input.rank() != 3) {
          return invalid_input("upsample '" + layer.name +
                               "' requires a CHW input");
        }
        CONDOR_ASSIGN_OR_RETURN(std::size_t out_h,
                                checked_mul(entry.input[1], layer.stride, layer));
        CONDOR_ASSIGN_OR_RETURN(std::size_t out_w,
                                checked_mul(entry.input[2], layer.stride, layer));
        entry.output = Shape{entry.input[0], out_h, out_w};
        break;
      }
    }
    // Every blob and weight tensor must be addressable: a wrapped count
    // would under-allocate every buffer sized from it.
    CONDOR_RETURN_IF_ERROR(checked_element_count(entry.output, layer).status());
    if (layer.has_weights()) {
      CONDOR_RETURN_IF_ERROR(parameter_shapes(layer, entry.input).status());
    }
  }
  return Status::ok();
}

Result<Shape> Network::input_shape() const {
  CONDOR_RETURN_IF_ERROR(validate());
  const LayerSpec& input = layers_.front();
  return Shape{input.input_channels, input.input_height, input.input_width};
}

Result<Shape> Network::output_shape() const {
  CONDOR_ASSIGN_OR_RETURN(Topology topology, analyze());
  return topology.output_shape();
}

Result<std::uint64_t> Network::total_flops() const {
  CONDOR_ASSIGN_OR_RETURN(auto shapes, infer_shapes());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    total += layer_flops(layers_[i], shapes[i].input, shapes[i].output);
  }
  return total;
}

Result<std::uint64_t> Network::feature_extraction_flops() const {
  CONDOR_ASSIGN_OR_RETURN(auto shapes, infer_shapes());
  const std::size_t end = classifier_begin();
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < end; ++i) {
    total += layer_flops(layers_[i], shapes[i].input, shapes[i].output);
  }
  return total;
}

Result<std::uint64_t> Network::parameter_count() const {
  CONDOR_ASSIGN_OR_RETURN(auto shapes, infer_shapes());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (!layers_[i].has_weights()) {
      continue;
    }
    CONDOR_ASSIGN_OR_RETURN(auto params,
                            parameter_shapes(layers_[i], shapes[i].input));
    total += params.weights.element_count();
    if (params.bias.rank() > 0) {
      total += params.bias.element_count();
    }
  }
  return total;
}

std::size_t Network::classifier_begin() const noexcept {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (layers_[i].kind == LayerKind::kInnerProduct) {
      return i;
    }
  }
  return layers_.size();
}

Network Network::feature_extraction_prefix() const {
  Network prefix(name_ + "-features");
  const std::size_t end = classifier_begin();
  for (std::size_t i = 0; i < end; ++i) {
    prefix.add(layers_[i]);
  }
  return prefix;
}

std::string Network::summary() const {
  std::string out = "network '" + name_ + "' (" +
                    std::to_string(layers_.size()) + " layers)\n";
  auto shapes_result = infer_shapes();
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const LayerSpec& layer = layers_[i];
    out += strings::format("  [%2zu] %-14s %-14s", i,
                           std::string(to_string(layer.kind)).c_str(),
                           layer.name.c_str());
    if (shapes_result.is_ok()) {
      const LayerShapes& shapes = shapes_result.value()[i];
      // Separate appends: the operator+ temporary chain trips GCC 12's
      // -Wrestrict false positive (PR105651) under -O3 -Werror.
      out += ' ';
      out += shapes.input.to_string();
      out += " -> ";
      out += shapes.output.to_string();
    }
    if (layer.kind == LayerKind::kConvolution || layer.kind == LayerKind::kPooling) {
      out += strings::format("  k=%zux%zu s=%zu", layer.kernel_h, layer.kernel_w,
                             layer.stride);
    }
    if (layer.activation != Activation::kNone) {
      out += " +";
      out += to_string(layer.activation);
    }
    if (!layer.inputs.empty()) {
      out += "  <- ";
      for (std::size_t j = 0; j < layer.inputs.size(); ++j) {
        if (j > 0) {
          out += ",";
        }
        out += layer.inputs[j];
      }
    }
    out += "\n";
  }
  return out;
}

Result<ParameterShapes> parameter_shapes(const LayerSpec& layer, const Shape& input) {
  ParameterShapes out;
  switch (layer.kind) {
    case LayerKind::kConvolution:
      if (input.rank() != 3) {
        return invalid_input("convolution parameters require CHW input shape");
      }
      out.weights = Shape{layer.num_output, input[0], layer.kernel_h, layer.kernel_w};
      break;
    case LayerKind::kInnerProduct: {
      CONDOR_ASSIGN_OR_RETURN(std::size_t in_count,
                              checked_element_count(input, layer));
      out.weights = Shape{layer.num_output, in_count};
      break;
    }
    default:
      return invalid_input("layer '" + layer.name + "' has no parameters");
  }
  CONDOR_RETURN_IF_ERROR(checked_element_count(out.weights, layer).status());
  if (layer.has_bias) {
    out.bias = Shape{layer.num_output};
  }
  return out;
}

}  // namespace condor::nn
