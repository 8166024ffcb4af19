// The Condor-internal network representation (paper §3.1.1):
//
//   "the core-logic tier uses an internal JSON to describe the topology of
//    the network. It resembles the caffe prototxt file but contains more
//    information about the underlying hardware of the accelerator, such as
//    the desired board, the operating frequency and desired level of
//    parallelism of each layer."
//
// HwNetwork couples the pure topology (nn::Network) with those hardware
// annotations, and round-trips to the JSON file format the frontend accepts.
#pragma once

#include <string>
#include <vector>

#include "common/status.hpp"
#include "hw/board.hpp"
#include "json/json.hpp"
#include "nn/network.hpp"
#include "nn/numeric.hpp"

namespace condor::hw {

/// Per-layer hardware knobs (inter-layer parallelism + PE clustering).
struct LayerHw {
  /// Input feature maps read concurrently (paper: "reading multiple input
  /// feature maps concurrently").
  std::size_t parallel_in = 1;
  /// Output feature maps computed in parallel.
  std::size_t parallel_out = 1;
  /// PE cluster id: layers sharing an id are fused onto one PE (an outer
  /// loop iterates the fused layers). -1 requests a dedicated PE (the 1:1
  /// fully-unfolded mapping).
  int pe_group = -1;
};

/// Network-level hardware annotations.
struct HwAnnotations {
  std::string board_id = "aws-f1";
  double target_frequency_mhz = 200.0;
  /// Numeric datapath of the accelerator (paper computes in float32;
  /// fixed16/fixed8 select the dynamic fixed-point datapath of [14]).
  nn::DataType data_type = nn::DataType::kFloat32;
  std::vector<LayerHw> layers;  ///< parallel to nn::Network::layers()
};

/// Topology + hardware annotations; the unit the core-logic tier operates on.
struct HwNetwork {
  nn::Network net;
  HwAnnotations hw;

  /// nn::Network::analyze() plus validate_annotations(): the analyzed
  /// topology of `net`, or the first error.
  [[nodiscard]] Result<nn::Topology> analyze() const;

  /// analyze()'s verdict.
  [[nodiscard]] Status validate() const;

  /// The annotation checks alone, against `topology` = net.analyze():
  /// annotation vector length, board id known, target frequency in range,
  /// parallelism degrees positive and within the map counts, PE groups
  /// contiguous and kind-homogeneous (only like layers may be fused, paper
  /// §3.2). Searches that vary only `hw` run this per candidate.
  [[nodiscard]] Status validate_annotations(const nn::Topology& topology) const;
};

/// Default annotations for a topology: every layer on its own PE, no
/// inter-layer parallelism (the configuration used for Table 1).
HwNetwork with_default_annotations(nn::Network net, std::string board_id = "aws-f1",
                                   double target_frequency_mhz = 200.0);

/// Serializes to the Condor JSON network representation.
json::Value to_json(const HwNetwork& network);
std::string to_json_text(const HwNetwork& network);

/// Parses the Condor JSON network representation.
Result<HwNetwork> from_json(const json::Value& value);
Result<HwNetwork> from_json_text(std::string_view text);

}  // namespace condor::hw
