#include "hw/accel_plan.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/strings.hpp"
#include "hw/plan_core.hpp"

namespace condor::hw {
namespace {

constexpr std::string_view kTag = "accel-plan";

/// Inter-PE stream FIFOs only decouple rates; a shallow constant depth per
/// parallel lane suffices (the memory subsystem does the real buffering).
constexpr std::size_t kStreamFifoDepth = 16;

/// Fraction of board BRAM a classifier PE may claim for on-chip weights.
/// Classifier weights must reside on chip with the current methodology
/// (streaming FC weights is the "optimization of the classification part"
/// the paper leaves as future work), so exceeding this makes the design
/// unsynthesizable — the VGG-16 FC case called out in §4.
constexpr double kClassifierWeightBramFraction = 0.8;

constexpr std::size_t kBramBytes = 4608;  // one 36Kb block

bool is_transcendental(nn::Activation activation) noexcept {
  return activation == nn::Activation::kSigmoid ||
         activation == nn::Activation::kTanH;
}

}  // namespace

std::size_t MemoryPipelinePlan::buffered_elements() const noexcept {
  std::size_t total = 0;
  for (const FilterNode& node : filters) {
    total += node.fifo_to_next_depth;
  }
  return total;
}

std::vector<FilterNode> plan_filter_chain(std::size_t window_h,
                                          std::size_t window_w,
                                          std::size_t map_w) {
  // Enumerate window accesses in lexicographically inverse order: the head
  // of the chain sees the freshest stream element, which corresponds to the
  // largest (ky, kx) offset; the tail holds the oldest live element (0, 0).
  std::vector<FilterNode> chain;
  chain.reserve(window_h * window_w);
  for (std::size_t ky = window_h; ky-- > 0;) {
    for (std::size_t kx = window_w; kx-- > 0;) {
      FilterNode node;
      node.access = {ky, kx};
      chain.push_back(node);
    }
  }
  // FIFO between consecutive filters = spatial distance between the two
  // accesses in the row-major linearization of the input map.
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    const auto linear = [map_w](const WindowAccess& a) {
      return a.ky * map_w + a.kx;
    };
    chain[i].fifo_to_next_depth =
        linear(chain[i].access) - linear(chain[i + 1].access);
  }
  return chain;
}

Result<AcceleratorPlan> plan_accelerator(const HwNetwork& network) {
  CONDOR_ASSIGN_OR_RETURN(nn::Topology topology, network.analyze());
  return plan_accelerator(
      network, std::make_shared<const nn::Topology>(std::move(topology)));
}

Result<AcceleratorPlan> plan_accelerator(
    HwNetwork network, std::shared_ptr<const nn::Topology> topology) {
  CONDOR_ASSIGN_OR_RETURN(BoardSpec board, find_board(network.hw.board_id));

  AcceleratorPlan plan;
  plan.source = std::move(network);
  plan.topology = std::move(topology);
  plan.board = std::move(board);

  const auto& layers = plan.source.net.layers();
  const auto& annots = plan.source.hw.layers;
  const auto& shapes = plan.topology->shapes;
  const auto& consumers = plan.topology->consumers;

  // ---- Cluster layers into PEs ----------------------------------------
  // Layers are visited in topological order so every producer is planned
  // before its consumers; pe_of_layer records where each layer landed and
  // later drives the DAG edge derivation.
  constexpr std::size_t kUnplanned = static_cast<std::size_t>(-1);
  std::vector<std::size_t> pe_of_layer(layers.size(), kUnplanned);

  for (const std::size_t i : plan.topology->order) {
    const nn::LayerSpec& layer = layers[i];
    if (layer.kind == nn::LayerKind::kInput) {
      continue;
    }

    if (layer.kind == nn::LayerKind::kSoftmax) {
      // The normalization layer runs in the generated host code (it needs a
      // global reduction over the class scores, a poor fit for the spatial
      // pipeline and negligible work for the CPU).
      plan.softmax_on_host = true;
      continue;
    }

    const auto& prods = plan.topology->producers[i];

    // A layer may ride along inside the PE planned immediately before it
    // only when it consumes that PE's tail stream and nothing else taps it:
    // in a DAG, adjacency in topological order alone is not enough. Join
    // PEs never host extra passes — the hardware join process (HLS
    // codegen's two-stream merge loop) computes one merge.
    const bool chains_from_last_pe =
        prods.size() == 1 && !plan.pes.empty() &&
        pe_of_layer[prods.front()] == plan.pes.size() - 1 &&
        consumers[prods.front()].size() == 1 &&
        plan.pes.back().kind != PeKind::kJoin;

    if (layer.kind == nn::LayerKind::kActivation && chains_from_last_pe) {
      // Element-wise activations fold into the upstream PE's output loop.
      PePlan& host_pe = plan.pes.back();
      host_pe.layer_indices.push_back(i);
      host_pe.uses_transcendental |= is_transcendental(layer.activation);
      pe_of_layer[i] = plan.pes.size() - 1;
      continue;
    }

    const bool fuse_with_previous =
        annots[i].pe_group >= 0 && chains_from_last_pe &&
        annots[plan.pes.back().layer_indices.front()].pe_group ==
            annots[i].pe_group;

    if (fuse_with_previous) {
      plan.pes.back().layer_indices.push_back(i);
      pe_of_layer[i] = plan.pes.size() - 1;
    } else {
      PePlan pe;
      pe.layer_indices.push_back(i);
      switch (layer.kind) {
        case nn::LayerKind::kConvolution:
        case nn::LayerKind::kPooling:
          pe.kind = PeKind::kFeature;
          break;
        case nn::LayerKind::kInnerProduct:
          pe.kind = PeKind::kClassifier;
          break;
        case nn::LayerKind::kActivation:
        case nn::LayerKind::kUpsample:
          pe.kind = PeKind::kElementwise;
          break;
        case nn::LayerKind::kEltwiseAdd:
        case nn::LayerKind::kConcat:
          pe.kind = PeKind::kJoin;
          break;
        default:
          return internal_error("unexpected layer kind during clustering");
      }
      // The PE adopts the parallelism annotation of its first layer; fused
      // followers execute under the same port structure (paper §3.2).
      pe.parallel_in = annots[i].parallel_in;
      pe.parallel_out = annots[i].parallel_out;
      pe_of_layer[i] = plan.pes.size();
      plan.pes.push_back(std::move(pe));
    }
    if (layer.activation != nn::Activation::kNone) {
      plan.pes.back().uses_transcendental |= is_transcendental(layer.activation);
    }
  }

  if (plan.pes.empty()) {
    return invalid_input("network has no synthesizable layers");
  }

  // ---- Derive per-PE structures ----------------------------------------
  for (std::size_t p = 0; p < plan.pes.size(); ++p) {
    PePlan& pe = plan.pes[p];
    const nn::LayerSpec& first = layers[pe.layer_indices.front()];
    pe.name = strings::format("pe%zu_%s", p, first.name.c_str());

    if (pe.kind == PeKind::kFeature || pe.kind == PeKind::kElementwise) {
      // Memory subsystem: sized by the largest window among the fused
      // layers; FIFO depths by the largest input feature map (paper §3.2).
      // A standalone element-wise PE degenerates to a single 1x1 access.
      std::size_t window_h = 1;
      std::size_t window_w = 1;
      std::size_t map_h = 1;
      std::size_t map_w = 1;
      for (const std::size_t index : pe.layer_indices) {
        const nn::LayerSpec& fused = layers[index];
        if (!fused.is_feature_extraction()) {
          // Element-wise pass: a 1x1 window over its blob.
          const Shape& in = shapes[index].input;
          if (in.rank() == 3) {
            map_h = std::max(map_h, in[1]);
            map_w = std::max(map_w, in[2]);
          } else {
            map_w = std::max(map_w, in.element_count());
          }
          continue;
        }
        window_h = std::max(window_h, fused.kernel_h);
        window_w = std::max(window_w, fused.kernel_w);
        map_h = std::max(map_h, shapes[index].input[1] + 2 * fused.pad);
        map_w = std::max(map_w, shapes[index].input[2] + 2 * fused.pad);
      }
      MemoryPipelinePlan memory;
      memory.window_h = window_h;
      memory.window_w = window_w;
      memory.map_h = map_h;
      memory.map_w = map_w;
      memory.filters = plan_filter_chain(window_h, window_w, map_w);
      pe.memory = std::move(memory);
    }

    // Weight storage and concurrent MAC datapaths.
    for (const std::size_t index : pe.layer_indices) {
      const nn::LayerSpec& fused = layers[index];
      if (fused.kind == nn::LayerKind::kConvolution) {
        // Feature PEs hold the weight slice for the output maps currently
        // being computed (double-buffered so the datamover can prefetch the
        // next slice); the full set streams from on-board memory.
        const std::size_t in_channels = shapes[index].input[0];
        const std::size_t slice =
            in_channels * fused.kernel_h * fused.kernel_w * pe.parallel_out +
            (fused.has_bias ? pe.parallel_out : 0);
        pe.weight_elements = std::max(pe.weight_elements, 2 * slice);
        pe.macs_per_cycle =
            std::max(pe.macs_per_cycle, pe.parallel_in * pe.parallel_out *
                                            fused.kernel_h * fused.kernel_w);
      } else if (fused.kind == nn::LayerKind::kInnerProduct) {
        // Classifier weights reside fully on chip with the current
        // methodology (see kClassifierWeightBramFraction).
        const std::size_t in_count = shapes[index].input.element_count();
        pe.weight_elements += in_count * fused.num_output +
                              (fused.has_bias ? fused.num_output : 0);
        pe.macs_per_cycle =
            std::max<std::size_t>(pe.macs_per_cycle, pe.parallel_in * pe.parallel_out);
      } else if (fused.kind == nn::LayerKind::kPooling) {
        // No multipliers; the window adder/comparator tree is costed by the
        // resource model from the memory subsystem geometry.
      }
    }

    if (pe.kind == PeKind::kClassifier) {
      const std::uint64_t weight_bytes =
          static_cast<std::uint64_t>(pe.weight_elements) * sizeof(float);
      const std::uint64_t budget_bytes = static_cast<std::uint64_t>(
          static_cast<double>(plan.board.capacity.bram36) * kBramBytes *
          kClassifierWeightBramFraction);
      if (weight_bytes > budget_bytes) {
        return unsynthesizable(strings::format(
            "classifier PE '%s' needs %s of on-chip weight storage but board "
            "%s offers at most %s; fully-connected layers of this size are "
            "not synthesizable with the current methodology",
            pe.name.c_str(), strings::human_bytes(weight_bytes).c_str(),
            plan.board.id.c_str(), strings::human_bytes(budget_bytes).c_str()));
      }
    }
  }

  // ---- Stream edges: the inter-PE DAG with datamover at the rims --------
  // Each PE contributes the edges feeding its head layer, in producer
  // (= operand port) order; a linear chain therefore reproduces the legacy
  // datamover -> pe0 -> ... -> peN -> datamover edge list byte-for-byte.
  for (std::size_t p = 0; p < plan.pes.size(); ++p) {
    const std::size_t head = plan.pes[p].layer_indices.front();
    const auto& prods = plan.topology->producers[head];
    for (std::size_t port = 0; port < prods.size(); ++port) {
      const std::size_t prod = prods[port];
      StreamEdge edge;
      edge.to_pe = p;
      edge.to_port = port;
      if (layers[prod].kind == nn::LayerKind::kInput) {
        edge.from_pe = StreamEdge::kDatamover;
        edge.fifo_depth = kStreamFifoDepth * plan.pes[p].parallel_in;
      } else {
        const std::size_t from = pe_of_layer[prod];
        if (from == kUnplanned) {
          return internal_error(strings::format(
              "layer '%s' consumes '%s' which was not mapped to any PE",
              layers[head].name.c_str(), layers[prod].name.c_str()));
        }
        edge.from_pe = from;
        edge.fifo_depth =
            kStreamFifoDepth *
            std::max(plan.pes[from].parallel_out, plan.pes[p].parallel_in);
      }
      plan.edges.push_back(edge);
    }
  }
  // The sink layer's PE feeds the output datamover (softmax, when deferred
  // to the host, post-processes that stream on the CPU side).
  std::size_t sink_layer = layers.size() - 1;
  if (plan.softmax_on_host) {
    sink_layer = plan.topology->producers[sink_layer].front();
  }
  if (pe_of_layer[sink_layer] == kUnplanned) {
    return internal_error("network sink was not mapped to any PE");
  }
  StreamEdge out_edge;
  out_edge.from_pe = pe_of_layer[sink_layer];
  out_edge.to_pe = StreamEdge::kDatamover;
  out_edge.fifo_depth =
      kStreamFifoDepth * plan.pes[out_edge.from_pe].parallel_out;
  plan.edges.push_back(out_edge);

  // Host-side softmax is excluded from accelerator FLOPs (it overlaps with
  // the next batch on the CPU and is negligible).
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (!(plan.softmax_on_host && layers[i].kind == nn::LayerKind::kSoftmax)) {
      plan.flops_per_image +=
          nn::layer_flops(layers[i], shapes[i].input, shapes[i].output);
    }
  }

  CONDOR_LOG_INFO(kTag) << "planned " << plan.pes.size() << " PEs for '"
                        << plan.source.net.name() << "' on " << plan.board.id;
  return plan;
}

std::string describe(const AcceleratorPlan& plan) {
  // The datapath is mentioned only when it deviates from the paper's
  // float32, keeping the default dump byte-identical.
  const std::string datapath =
      nn::is_fixed_point(plan.data_type())
          ? strings::format(" [%s datapath]",
                            std::string(nn::to_string(plan.data_type())).c_str())
          : "";
  std::string out = strings::format(
      "accelerator for '%s' on %s: %zu PEs%s%s\n", plan.source.net.name().c_str(),
      plan.board.id.c_str(), plan.pes.size(),
      plan.softmax_on_host ? " (+softmax on host)" : "", datapath.c_str());
  for (const PePlan& pe : plan.pes) {
    const char* kind = "feature";
    switch (pe.kind) {
      case PeKind::kFeature:
        kind = "feature";
        break;
      case PeKind::kClassifier:
        kind = "classifier";
        break;
      case PeKind::kElementwise:
        kind = "elementwise";
        break;
      case PeKind::kJoin:
        kind = "join";
        break;
    }
    out += strings::format("  %-20s %-11s layers=%zu Pin=%zu Pout=%zu", pe.name.c_str(),
                           kind, pe.layer_indices.size(), pe.parallel_in,
                           pe.parallel_out);
    if (pe.memory.has_value()) {
      out += strings::format("  window=%zux%zu filters=%zu buffered=%zu",
                             pe.memory->window_h, pe.memory->window_w,
                             pe.memory->filters.size(),
                             pe.memory->buffered_elements());
    }
    if (pe.weight_elements > 0) {
      out += strings::format("  weights=%zu", pe.weight_elements);
    }
    out += "\n";
  }
  return out;
}

}  // namespace condor::hw
