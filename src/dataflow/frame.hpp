// The wire format of an inter-PE edge: the one place that writes and reads
// it.
//
// Every edge carries one frame per image. On the float32 datapath a frame
// is the blob itself. On a fixed datapath (nn/numeric.hpp) it is the blob's
// dynamic format — one frac_bits word — followed by the blob's integer
// codes stored in float words (|code| < 2^15 is exact in a float mantissa).
// A producer stages the whole frame and writes it in one burst; a consumer
// reads the header word, then the blob. The executor sizes each edge to
// park one whole frame.
//
// A fan-out is only wiring (paper §3.2): a producer with several consumers
// writes each whole frame to its first out-edge, then to the next, in plan
// edge order, so every edge keeps exactly one stream. Whole frames, never
// interleaved slices, keep a fork live when a frame is larger than the edge
// depth cap (kMaxPipelineEdgeDepth): a later edge may fill while its
// consumer waits on a branch fed by an earlier edge, and that branch has
// already received its whole input.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dataflow/fifo.hpp"
#include "dataflow/fire.hpp"
#include "nn/numeric.hpp"

namespace condor::dataflow {

/// A producer's out-edges in plan edge order, built once at compile time.
using OutEdges = std::vector<Stream*>;

/// Where a pass's output blob goes: every downstream out-edge (last pass)
/// or a PE-local grow-only buffer that never touches a FIFO (every earlier
/// fused pass). Exactly one of the two is set.
struct PassSink {
  const OutEdges* edges = nullptr;
  std::vector<float>* local = nullptr;
};

/// Routes one whole float blob to its sink: copied into the local buffer
/// (assign() keeps its high-water capacity), or burst-written to each
/// out-edge in order, one edge complete before the next. `module` names the
/// writer in errors.
Fire write_blob(PassSink sink, std::span<const float> blob,
                const std::string& module);

/// The canonical fixed layer-boundary step (mirrors the QuantizedEngine's
/// requantize_layer_output): chooses one fresh dynamic format for the whole
/// activated value blob (`out_frac`) and quantizes it to `codes`. A local
/// sink takes the codes as float words; otherwise the frame is staged in
/// `frame` and burst to every out-edge. `codes` / `frame` are caller-owned
/// scratch, so the steady state stays off the heap.
Fire emit_requantized(PassSink sink, std::span<const float> values,
                      int total_bits, int& out_frac,
                      std::vector<std::int32_t>& codes,
                      std::vector<float>& frame, const std::string& module);

/// Reads one frame from `in`: on a fixed `data_type` the header word into
/// `frac` first, then blob.size() words into `blob`.
Fire read_frame(Stream& in, nn::DataType data_type, int& frac,
                std::span<float> blob, const std::string& module);

/// Ends the producer's stream on every out-edge.
void close_edges(const OutEdges& edges);

}  // namespace condor::dataflow
