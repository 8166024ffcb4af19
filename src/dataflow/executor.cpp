#include "dataflow/executor.hpp"

#include <algorithm>

#include "common/strings.hpp"
#include "dataflow/pe.hpp"
#include "nn/kernels_simd.hpp"
#include "nn/reference.hpp"

namespace condor::dataflow {
namespace {

/// Minimum capacity of the inter-PE blob streams. The hardware plan sizes
/// these edges for FPGA BRAM; the software KPN widens shallow ones so blob
/// bursts move in few chunks and each module firing moves more data per
/// suspension (KPN results are capacity-independent, and enlarging a
/// channel can never introduce a deadlock).
constexpr std::size_t kMinEdgeDepth = 1024;

}  // namespace

Result<AcceleratorExecutor> AcceleratorExecutor::create(hw::AcceleratorPlan plan,
                                                        nn::WeightStore weights) {
  return create(std::make_shared<const hw::AcceleratorPlan>(std::move(plan)),
                std::make_shared<const nn::WeightStore>(std::move(weights)));
}

Result<AcceleratorExecutor> AcceleratorExecutor::create(
    std::shared_ptr<const hw::AcceleratorPlan> plan,
    std::shared_ptr<const nn::WeightStore> weights) {
  if (plan == nullptr || weights == nullptr) {
    return invalid_input("executor needs a plan and a weight store");
  }
  if (plan->topology == nullptr) {
    return invalid_input("executor needs a plan with an analyzed topology");
  }
  CONDOR_RETURN_IF_ERROR(weights->validate_against(plan->source.net));
  return AcceleratorExecutor(std::move(plan), std::move(weights));
}

Status AcceleratorExecutor::build_design() {
  auto design = std::make_unique<CompiledDesign>();

  // The programs reference the weight store and the plan; both live in the
  // executor and outlive the design. Programs are filled before any module
  // takes a reference, so the vector's final addresses are stable.
  design->programs.reserve(plan_->pes.size());
  for (std::size_t p = 0; p < plan_->pes.size(); ++p) {
    CONDOR_ASSIGN_OR_RETURN(PeProgram program,
                            build_pe_program(*plan_, p, *weights_));
    // A join reads its operands from the PE's in-ports, so it can only be
    // pass 0; the planner never fuses anything into a join PE.
    if (program.passes.empty() ||
        std::any_of(program.passes.begin() + 1, program.passes.end(),
                    [](const LayerPass& pass) { return is_join(pass.kind); })) {
      return internal_error("PE '" + plan_->pes[p].name +
                            "': a join may only be the first of its passes");
    }
    // Every pass after a PE's first runs PE-locally (dataflow/pe.hpp); the
    // count keeps its plan-level definition: passes after the first of
    // every feature and element-wise PE.
    const hw::PeKind kind = plan_->pes[p].kind;
    if (kind == hw::PeKind::kFeature || kind == hw::PeKind::kElementwise) {
      design->fused_local_passes += program.passes.size() - 1;
    }
    design->weight_bytes += program.weight_elements() * sizeof(float);
    design->resident_bytes += program.resident_bytes();
    design->programs.push_back(std::move(program));
  }
  const std::vector<PeProgram>& programs = design->programs;
  Graph& graph = design->graph;
  const auto& shapes = plan_->topology->shapes;

  // The network input blob size: what datamover-sourced edges carry.
  const std::size_t input_elements =
      plan_->topology->input_shape().element_count();

  // One stream per plan edge — the plan's edge list IS the DAG, so the
  // wiring below needs no linearity assumption — and nothing else: the
  // programs carry their resident weights. Each edge is sized to park one
  // whole frame (the blob plus the fixed datapaths' header word, see
  // dataflow/frame.hpp) when that fits under kMaxPipelineEdgeDepth, so
  // consecutive images genuinely overlap: the producer parks image k's
  // whole output in the channel and moves on to image k+1 without waiting
  // for the consumer to catch up. For residual topologies the same sizing
  // also keeps the skip edge from artificially deadlocking the diamond: a
  // whole image parks on the short edge while the long path computes.
  const auto edge_blob_elements = [&](const hw::StreamEdge& edge) {
    return edge.from_pe == hw::StreamEdge::kDatamover
               ? input_elements
               : programs[edge.from_pe].output_elements();
  };
  std::vector<Stream*> edge_streams;
  edge_streams.reserve(plan_->edges.size());
  for (std::size_t e = 0; e < plan_->edges.size(); ++e) {
    const std::size_t blob_elements = edge_blob_elements(plan_->edges[e]);
    std::size_t depth =
        std::max<std::size_t>(plan_->edges[e].fifo_depth, kMinEdgeDepth);
    if (blob_elements + 1 <= kMaxPipelineEdgeDepth) {
      depth = std::max(depth, blob_elements + 1);
    }
    edge_streams.push_back(
        &graph.make_stream(depth, strings::format("stream_edge_%zu", e)));
  }

  // Resolve each producer's out-edges (in plan edge order — a fan-out is
  // only wiring, the producer writes each whole frame to one out-edge
  // before the next, see dataflow/frame.hpp) and each consumer's in-ports
  // from the edge list.
  const nn::DataType data_type = plan_->data_type();
  const std::size_t kNoEdge = static_cast<std::size_t>(-1);
  std::vector<OutEdges> out_edges_of(plan_->pes.size());
  OutEdges datamover_out_edges;
  std::vector<std::vector<std::size_t>> in_edge_of(plan_->pes.size());
  std::size_t sink_edge = kNoEdge;
  for (std::size_t e = 0; e < plan_->edges.size(); ++e) {
    const hw::StreamEdge& edge = plan_->edges[e];
    if (edge.from_pe == hw::StreamEdge::kDatamover) {
      datamover_out_edges.push_back(edge_streams[e]);
    } else {
      out_edges_of[edge.from_pe].push_back(edge_streams[e]);
    }
    if (edge.to_pe == hw::StreamEdge::kDatamover) {
      if (sink_edge != kNoEdge) {
        return internal_error("plan has more than one output edge");
      }
      sink_edge = e;
    } else {
      auto& ports = in_edge_of[edge.to_pe];
      if (ports.size() <= edge.to_port) {
        ports.resize(edge.to_port + 1, kNoEdge);
      }
      if (ports[edge.to_port] != kNoEdge) {
        return internal_error("plan wires one PE port twice");
      }
      ports[edge.to_port] = e;
    }
  }
  if (sink_edge == kNoEdge) {
    return internal_error("plan has no output edge");
  }
  if (datamover_out_edges.empty()) {
    return internal_error("plan has no input edge");
  }

  // One PE module per plan PE, whatever it computes: its pass list is its
  // whole behaviour, and a join as pass 0 gives it a second in-port.
  for (std::size_t p = 0; p < plan_->pes.size(); ++p) {
    const hw::PePlan& pe = plan_->pes[p];
    const PeProgram& program = programs[p];
    const std::vector<std::size_t>& in_ports = in_edge_of[p];
    const std::size_t expected_ports =
        is_join(program.passes.front().kind) ? 2 : 1;
    if (in_ports.size() != expected_ports ||
        std::find(in_ports.begin(), in_ports.end(), kNoEdge) !=
            in_ports.end()) {
      return internal_error(strings::format(
          "PE '%s' expects %zu input port(s) but the plan wires %zu",
          pe.name.c_str(), expected_ports, in_ports.size()));
    }
    if (out_edges_of[p].empty()) {
      return internal_error("PE '" + pe.name + "' has no out-edge");
    }
    std::vector<Stream*> in;
    for (const std::size_t e : in_ports) {
      in.push_back(edge_streams[e]);
    }
    graph.add_module<PeModule>(pe.name, program, std::move(in),
                               std::move(out_edges_of[p]), data_type);
  }

  // Datamover halves. The output blob shape the sink collects: the sink
  // edge's producer.
  const std::size_t out_pe = plan_->edges[sink_edge].from_pe;
  const std::size_t out_elements = programs[out_pe].output_elements();
  design->output_shape = Shape{out_elements};
  // Recover the true blob shape of the last mapped layer for nicer output.
  const std::size_t last_layer = plan_->pes[out_pe].layer_indices.back();
  if (shapes[last_layer].output.element_count() == out_elements) {
    design->output_shape = shapes[last_layer].output;
  }
  graph.add_module<InputMoverModule>(
      "datamover_in", std::move(datamover_out_edges), data_type);
  design->sink = &graph.add_module<OutputMoverModule>(
      "datamover_out", design->output_shape, *edge_streams[sink_edge],
      data_type);

  design_ = std::move(design);
  return Status::ok();
}

Result<std::vector<Tensor>> AcceleratorExecutor::run_batch(
    std::span<const Tensor> inputs) {
  if (inputs.empty()) {
    return std::vector<Tensor>{};
  }
  const Shape& input_shape = plan_->topology->input_shape();
  for (const Tensor& image : inputs) {
    if (image.shape() != input_shape) {
      return invalid_input(strings::format(
          "input shape %s does not match network input %s",
          image.shape().to_string().c_str(), input_shape.to_string().c_str()));
    }
  }

  if (shared_pool_ == nullptr && pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(1);
  }
  ThreadPool* pool = runtime_pool();
  const bool compiled = design_ == nullptr;
  if (compiled) {
    CONDOR_RETURN_IF_ERROR(build_design());
  } else {
    design_->graph.reopen_streams();
  }

  GraphRunOptions options;
  options.workers = scheduler_workers_;

  // The pool is sized for the scheduler only: it needs W workers of which
  // one is the calling thread, and never has to scale with module_count().
  const std::size_t modules = design_->graph.module_count();
  const std::size_t target = options.workers > 0
                                 ? options.workers
                                 : thread_budget();
  const std::size_t coop_workers =
      std::clamp<std::size_t>(target, 1, std::max<std::size_t>(modules, 1));
  pool->ensure_workers(std::max<std::size_t>(1, coop_workers - 1));

  design_->telemetry.reset();
  RunContext ctx;
  ctx.batch = inputs.size();
  ctx.inputs = inputs;
  ctx.telemetry = &design_->telemetry;
  const Status run_status = design_->graph.run(ctx, pool, options);

  stats_.modules = design_->graph.module_count();
  stats_.streams = design_->graph.stream_count();
  stats_.stream_stats = design_->graph.stream_stats();
  stats_.simd_level = nn::kernels::to_string(nn::kernels::active_simd_level());
  stats_.scheduler = "coop";
  stats_.workers = design_->graph.last_run_workers();
  stats_.module_stats = design_->graph.module_stats();
  // The weights latch on chip when the design compiles, so only that run
  // moves any; every warm run moves zero.
  stats_.weight_bytes_streamed = compiled ? design_->weight_bytes : 0;
  stats_.images_in_flight_hwm =
      design_->telemetry.images_in_flight_hwm.load(std::memory_order_relaxed);
  stats_.fused_local_passes = design_->fused_local_passes;
  stats_.resident_weight_bytes = design_->resident_bytes;

  if (!run_status.is_ok()) {
    // A failed run leaves streams partially drained; drop the instance so
    // the next call re-compiles from the (immutable) plan.
    design_.reset();
    return run_status;
  }

  std::vector<Tensor> outputs = std::move(design_->sink->outputs());
  if (plan_->softmax_on_host) {
    // The generated host code applies the normalization layer (paper eq. 5).
    for (Tensor& blob : outputs) {
      blob = nn::forward_softmax(blob);
    }
  }
  return outputs;
}

}  // namespace condor::dataflow
