// Network IR with shape inference and validation.
//
// Condor targets inference of feed-forward DAGs: the paper's sequential
// chains (features extraction followed by an MLP classifier, §2) plus
// residual/route topologies joined by eltwise-add and concat layers. Each
// layer names its producer blobs via LayerSpec::inputs; an empty list means
// "the previous layer", which keeps pre-DAG chain definitions byte-for-byte
// compatible. The Network owns the layer list; analyze() derives everything
// else from it in one pass — producer/consumer resolution, topological
// ordering and per-layer input/output shapes — as an nn::Topology, of which
// validate(), infer_shapes(), topological_order() and consumers() are views.
// FLOP accounting (used by the GFLOPS computations in the evaluation) reads
// the inferred shapes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "nn/layer.hpp"
#include "tensor/tensor.hpp"

namespace condor::nn {

/// Resolved geometry of one layer within a network. For two-input joins
/// `input` is the first producer's output blob; look up the second via
/// Network::producers().
struct LayerShapes {
  Shape input;   ///< CHW for feature extraction, flat (N) for classifier
  Shape output;
};

/// Everything derived from a valid network's layer list, computed once by
/// Network::analyze(). A planner, model or backend that needs producers,
/// consumers, the topological order or shapes reads them here instead of
/// re-deriving them; plans share one immutable instance.
struct Topology {
  std::vector<std::vector<std::size_t>> producers;  ///< operand order
  std::vector<std::vector<std::size_t>> consumers;  ///< ascending index
  std::vector<std::size_t> order;                   ///< Kahn, lowest first
  std::vector<LayerShapes> shapes;

  /// Input blob shape (CHW) declared by the kInput layer.
  [[nodiscard]] const Shape& input_shape() const { return shapes.front().output; }
  /// Shape of the final output blob.
  [[nodiscard]] const Shape& output_shape() const { return shapes.back().output; }
};

class Network {
 public:
  Network() = default;
  explicit Network(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Appends a layer. The first layer must be kInput.
  void add(LayerSpec layer) { layers_.push_back(std::move(layer)); }

  [[nodiscard]] const std::vector<LayerSpec>& layers() const noexcept {
    return layers_;
  }
  [[nodiscard]] std::vector<LayerSpec>& layers() noexcept { return layers_; }
  [[nodiscard]] std::size_t layer_count() const noexcept { return layers_.size(); }

  /// Finds a layer by name, or nullptr.
  [[nodiscard]] const LayerSpec* find_layer(std::string_view name) const noexcept;

  /// Index of the named layer, or an error when no layer has that name.
  [[nodiscard]] Result<std::size_t> layer_index(std::string_view name) const;

  /// Producer layer indices of layer `index`, with the implicit-chain rule
  /// applied: an empty `inputs` list on a non-input layer resolves to the
  /// previous layer in declaration order. Errors on unknown names and
  /// self-references.
  [[nodiscard]] Result<std::vector<std::size_t>> producers(
      std::size_t index) const;

  /// Consumer indices for every layer — the inverse of producers().
  [[nodiscard]] Result<std::vector<std::vector<std::size_t>>> consumers() const;

  /// Kahn topological order over the producer edges. Ready layers are
  /// emitted in ascending declaration index, so an already-sorted list (any
  /// linear chain in particular) yields the identity permutation. Errors
  /// when the producer graph has a cycle.
  [[nodiscard]] Result<std::vector<std::size_t>> topological_order() const;

  /// Number of two-input join layers (eltwise add / concat).
  [[nodiscard]] std::size_t join_count() const noexcept;

  /// Longest producer→consumer path, counted in layers (a linear N-layer
  /// network has depth N).
  [[nodiscard]] Result<std::size_t> dag_depth() const;

  /// Checks structural invariants: starts with exactly one kInput, window
  /// geometries fit, producer references resolve into an acyclic graph with
  /// a single sink, joins name exactly two producers, no spatial layer
  /// consumes a classifier output, names unique and non-empty. Returns the
  /// first violation. Shape errors are analyze()'s, not validate()'s.
  [[nodiscard]] Status validate() const;

  /// validate()'s checks, then shape inference: the whole derived topology,
  /// or the first structural or shape error.
  [[nodiscard]] Result<Topology> analyze() const;

  /// The shapes of analyze().
  [[nodiscard]] Result<std::vector<LayerShapes>> infer_shapes() const;

  /// Input blob shape (CHW) declared by the kInput layer.
  [[nodiscard]] Result<Shape> input_shape() const;

  /// Shape of the final output blob.
  [[nodiscard]] Result<Shape> output_shape() const;

  /// Total inference FLOPs for one image.
  [[nodiscard]] Result<std::uint64_t> total_flops() const;

  /// FLOPs of the features-extraction part only (conv + pool + their fused
  /// activations) — what Table 2 of the paper measures.
  [[nodiscard]] Result<std::uint64_t> feature_extraction_flops() const;

  /// Total trainable parameter count (weights + biases).
  [[nodiscard]] Result<std::uint64_t> parameter_count() const;

  /// Index of the first classifier layer (first kInnerProduct), or
  /// layer_count() when the network has no classifier.
  [[nodiscard]] std::size_t classifier_begin() const noexcept;

  /// Returns a copy containing only the input + feature-extraction prefix
  /// (plus interleaved activations), as evaluated in paper Table 2.
  [[nodiscard]] Network feature_extraction_prefix() const;

  /// One-line per layer human-readable summary.
  [[nodiscard]] std::string summary() const;

 private:
  /// producers() of every layer and their inverse; no cycle check.
  [[nodiscard]] Result<Topology> resolve_edges() const;
  /// Fills `topology.order` (Kahn over the resolved edges).
  [[nodiscard]] Status sort(Topology& topology) const;
  /// validate()'s checks; the result lacks shapes.
  [[nodiscard]] Result<Topology> resolve() const;
  /// Fills `topology.shapes` for a resolve()d network.
  [[nodiscard]] Status fill_shapes(Topology& topology) const;

  std::string name_;
  std::vector<LayerSpec> layers_;
};

/// Shapes of the weight/bias tensors a layer requires.
/// Convolution: weights (num_output, in_channels, kh, kw), bias (num_output).
/// InnerProduct: weights (num_output, in_count), bias (num_output).
struct ParameterShapes {
  Shape weights;
  Shape bias;  ///< rank 0 when the layer has no bias
};

Result<ParameterShapes> parameter_shapes(const LayerSpec& layer, const Shape& input);

}  // namespace condor::nn
