#include "dataflow/filter.hpp"

#include <algorithm>

namespace condor::dataflow {

bool FilterModule::in_domain(const hw::WindowAccess& access, const LayerPass& pass,
                             std::size_t y, std::size_t x) noexcept {
  if (y < access.ky || x < access.kx) {
    return false;
  }
  const std::size_t ry = y - access.ky;
  const std::size_t rx = x - access.kx;
  if (ry % pass.stride != 0 || rx % pass.stride != 0) {
    return false;
  }
  return ry / pass.stride < pass.out_h && rx / pass.stride < pass.out_w;
}

Fire FilterModule::fire(const RunContext& ctx) {
  // Only pass 0 crosses the filter chain: the PE keeps every later fused
  // pass's input on chip and gathers its window stripes itself.
  const LayerPass& pass = program_.passes.front();
  // Conditional for fused layers with a smaller window: this access point
  // is outside pass 0's window, so the filter only forwards.
  const bool active = access_.ky < pass.window_h && access_.kx < pass.window_w;
  // The column part of the domain inequalities is row-invariant:
  // precompute the matching x positions once.
  match_cols_.clear();
  if (active) {
    for (std::size_t x = access_.kx; x < pass.in_w; ++x) {
      const std::size_t rx = x - access_.kx;
      if (rx % pass.stride == 0 && rx / pass.stride < pass.out_w) {
        match_cols_.push_back(x);
      }
    }
  }
  // The lane's whole pass moves as one burst when it fits the upstream
  // stream (the executor sizes the chain to one image of lane traffic), so
  // a firing reads, forwards and matches every map of the pass at once;
  // passes beyond the stream's capacity move one map per burst.
  const std::size_t map_size = pass.in_h * pass.in_w;
  const std::size_t lane_maps =
      lane_ < pass.in_channels
          ? (pass.in_channels - lane_ + lane_count_ - 1) / lane_count_
          : 0;
  const std::size_t group =
      lane_maps * map_size <= upstream_.capacity() ? lane_maps : 1;
  // Map/match staging lives in members that persist across images and
  // run_batch calls; after a warmup batch the loop never allocates.
  for (std::size_t image = 0; image < ctx.batch; ++image) {
    for (std::size_t done = 0; done < lane_maps; done += group) {
      const std::size_t maps = std::min(group, lane_maps - done);
      // One exact read per group: the filter privately buffers whole
      // channels, so the chain's progress never depends on the PE's port
      // consumption order (see the forwarding note below).
      map_.resize(maps * map_size);
      CONDOR_CO_READ_EXACT(
          upstream_, std::span<float>(map_),
          internal_error("filter '" + name() + "': upstream ended mid-pass"));
      matched_.clear();
      if (!match_cols_.empty()) {
        for (std::size_t m = 0; m < maps; ++m) {
          const float* map = map_.data() + m * map_size;
          for (std::size_t y = access_.ky; y < pass.in_h; ++y) {
            const std::size_t ry = y - access_.ky;
            if (ry % pass.stride != 0 || ry / pass.stride >= pass.out_h) {
              continue;
            }
            const float* row = map + y * pass.in_w;
            for (const std::size_t x : match_cols_) {
              matched_.push_back(row[x]);
            }
          }
        }
      }
      // Forward the map BEFORE the port write. The PE drains ports in
      // ascending (ky, kx) tap order while the chain runs in inverse access
      // order, so a filter that blocked on its port first could starve the
      // later-chain filters whose taps the PE wants earlier. Forward-first
      // keeps the chain live at any FIFO capacity: every filter gets its
      // private copy of the map, and each pending port burst drains when
      // the PE reaches that tap.
      if (downstream_ != nullptr) {
        CONDOR_CO_WRITE_BURST(
            *downstream_, map_,
            internal_error("filter '" + name() +
                           "': downstream closed mid-pass"));
      }
      if (!matched_.empty()) {
        CONDOR_CO_WRITE_BURST(
            to_pe_, matched_,
            internal_error("filter '" + name() + "': PE port closed mid-pass"));
      }
    }
  }
  to_pe_.close();
  if (downstream_ != nullptr) {
    downstream_->close();
  }
  co_return Status::ok();
}

Fire SourceMuxModule::fire(const RunContext& ctx) {
  // The external stream feeds pass 0, the only pass that crosses the
  // filter chains.
  const LayerPass& pass = program_.passes.front();
  const std::size_t inner_h = pass.in_h - 2 * pass.pad;
  const std::size_t inner_w = pass.in_w - 2 * pass.pad;
  const std::size_t lanes = outs_.size();
  const std::size_t map_size = pass.in_h * pass.in_w;
  // Each lane's whole pass leaves in one burst when it fits the lane
  // stream, else one map per burst (groups of one channel per lane). Zero
  // padding is inserted at the chain entrance: each padded map is border
  // zeros around the burst-read interior.
  const std::size_t lane_maps = (pass.in_channels + lanes - 1) / lanes;
  const std::size_t group =
      lane_maps * map_size <= outs_.front()->capacity() ? lane_maps : 1;
  lane_maps_.resize(lanes);
  for (std::size_t image = 0; image < ctx.batch; ++image) {
    for (std::size_t c0 = 0; c0 < pass.in_channels; c0 += group * lanes) {
      const std::size_t end = std::min(pass.in_channels, c0 + group * lanes);
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        const std::size_t maps =
            c0 + lane < end ? (end - c0 - lane + lanes - 1) / lanes : 0;
        if (pass.pad == 0) {
          lane_maps_[lane].resize(maps * map_size);
        } else {
          lane_maps_[lane].assign(maps * map_size, 0.0F);
        }
      }
      for (std::size_t c = c0; c < end; ++c) {
        // Channel c is map (c - c0) / lanes of lane c % lanes (c0 is a
        // multiple of lanes).
        float* map = lane_maps_[c % lanes].data() + (c - c0) / lanes * map_size;
        if (pass.pad == 0) {
          CONDOR_CO_READ_EXACT(
              external_, std::span<float>(map, map_size),
              internal_error("mux '" + name() + "': source ended mid-pass"));
          continue;
        }
        interior_.resize(inner_h * inner_w);
        CONDOR_CO_READ_EXACT(
            external_, std::span<float>(interior_),
            internal_error("mux '" + name() + "': source ended mid-pass"));
        for (std::size_t iy = 0; iy < inner_h; ++iy) {
          std::copy_n(interior_.data() + iy * inner_w, inner_w,
                      map + (pass.pad + iy) * pass.in_w + pass.pad);
        }
      }
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        if (lane_maps_[lane].empty()) {
          continue;
        }
        CONDOR_CO_WRITE_BURST(
            *outs_[lane], lane_maps_[lane],
            internal_error("mux '" + name() + "': chain closed mid-pass"));
      }
    }
  }
  for (Stream* out : outs_) {
    out->close();
  }
  co_return Status::ok();
}

}  // namespace condor::dataflow
