// Stencil filter module — one access point of the sliding window.
//
// Paper §3.2: "Within a pipeline, each filter represents an access to the
// input feature map (a point of the sliding window) and extracts the
// elements from the input stream that belong to its data domain, sending
// them to the PE. It also sends each element read to the subsequent filter
// writing to the FIFO in between them."
//
// The data domain of access (ky, kx) for a given layer pass is the set of
// inequalities, evaluated per element coordinate (y, x):
//
//     y >= ky                 x >= kx
//     (y - ky) mod s == 0     (x - kx) mod s == 0
//     (y - ky) / s < out_h    (x - kx) / s < out_w
//
// i.e. the element is the (ky, kx) window entry of some output point. The
// matching elements leave toward the PE in output raster order, which is
// exactly the order the PE consumes them.
//
// The software implementation streams the lane's whole pass per FIFO call
// when it fits the chain stream (one map per call otherwise): the maps are
// burst-read from upstream into a private member buffer, the
// domain-matching elements (decided by a per-pass precomputed column
// pattern + the row inequality) are gathered and burst to the PE port, and
// the maps are burst onward to the next filter. The element order on
// every stream is identical to the element-at-a-time schedule — only the
// transfer granularity changes. Because each filter owns a private copy of
// the map, the chain forwards BEFORE writing its port: the map reaches
// every filter regardless of which tap the PE drains first, which keeps
// the pipeline deadlock-free at any FIFO capacity (see fire()).
//
// Only a PE's pass 0 crosses the chain; later fused passes stay inside the
// PE (dataflow/pe.hpp). The chain is still sized for the largest fused
// window, so the paper's conditionals for fused layers ("a set of
// conditionals within the filters then ensures that the pipeline works
// properly ... according to the currently active layer") remain: when pass
// 0's window is smaller than this filter's access offset, the filter goes
// passive — it forwards the stream but contributes no window elements.
#pragma once

#include <vector>

#include "dataflow/fifo.hpp"
#include "dataflow/module.hpp"
#include "dataflow/program.hpp"

namespace condor::dataflow {

class FilterModule final : public Module {
 public:
  /// `downstream` is null for the last filter of the chain (its elements
  /// are the oldest live data and simply expire). `to_pe` carries matched
  /// window elements. `program` defines the deterministic schedule (the
  /// batch arrives per run). With inter-layer parallelism the memory
  /// subsystem is replicated per concurrently-read map: this chain is
  /// `lane` of `lane_count`, and sees the input channels c with
  /// c % lane_count == lane.
  FilterModule(std::string name, hw::WindowAccess access, const PeProgram& program,
               std::size_t lane, std::size_t lane_count, Stream& upstream,
               Stream* downstream, Stream& to_pe)
      : Module(std::move(name)),
        access_(access),
        program_(program),
        lane_(lane),
        lane_count_(lane_count),
        upstream_(upstream),
        downstream_(downstream),
        to_pe_(to_pe) {}

  Fire fire(const RunContext& ctx) override;

  /// Domain-membership test for one coordinate (exposed for unit tests).
  static bool in_domain(const hw::WindowAccess& access, const LayerPass& pass,
                        std::size_t y, std::size_t x) noexcept;

 private:
  hw::WindowAccess access_;
  const PeProgram& program_;
  std::size_t lane_;
  std::size_t lane_count_;
  Stream& upstream_;
  Stream* downstream_;
  Stream& to_pe_;

  /// Steady-state scratch: persists across images and run_batch calls so
  /// the map loop never allocates after warmup (see common/alloc_probe.hpp).
  std::vector<float> map_;
  std::vector<float> matched_;
  std::vector<std::size_t> match_cols_;
};

/// Source multiplexer feeding a feature PE's filter chains.
//
// Reads pass 0's input from the external stream, inserts the zero border
// for padded convolutions (border handling happens at the chain entrance
// so filters operate on padded coordinates only), and deals input channel
// c to chain lane c % lanes (the replicated memory subsystems of
// inter-layer parallelism). Each padded map is assembled in a per-lane
// buffer (border zeros + a burst read of the interior); a lane's whole pass
// leaves in one burst when it fits the lane stream, one map per burst
// otherwise.
class SourceMuxModule final : public Module {
 public:
  SourceMuxModule(std::string name, const PeProgram& program, Stream& external,
                  std::vector<Stream*> outs)
      : Module(std::move(name)),
        program_(program),
        external_(external),
        outs_(std::move(outs)) {}

  Fire fire(const RunContext& ctx) override;

 private:
  const PeProgram& program_;
  Stream& external_;
  std::vector<Stream*> outs_;

  /// Steady-state buffers (persist across images and batches): the padded
  /// maps bound for each lane, and one channel's interior.
  std::vector<std::vector<float>> lane_maps_;
  std::vector<float> interior_;
};

}  // namespace condor::dataflow
