#include "sim/element_sim.hpp"

#include <deque>

#include "common/strings.hpp"

namespace condor::sim {
namespace {

/// A hardware-style FIFO of element positions: simultaneous read+write in
/// one cycle is allowed (first-word-fall-through), which the simulation
/// realizes by stepping modules downstream-to-upstream within each cycle.
struct PositionFifo {
  std::size_t capacity = 1;
  std::deque<std::size_t> data;

  [[nodiscard]] bool can_push() const noexcept { return data.size() < capacity; }
  [[nodiscard]] bool empty() const noexcept { return data.empty(); }
  void push(std::size_t value) { data.push_back(value); }
  std::size_t pop() {
    const std::size_t value = data.front();
    data.pop_front();
    return value;
  }
};

}  // namespace

std::vector<std::size_t> planned_capacities(const ElementSimConfig& config) {
  std::vector<std::size_t> capacities;
  const auto chain =
      hw::plan_filter_chain(config.window_h, config.window_w, config.map_w);
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    capacities.push_back(chain[i].fifo_to_next_depth);
  }
  return capacities;
}

Result<ElementSimResult> simulate_memory_pipeline(const ElementSimConfig& config) {
  if (config.window_h == 0 || config.window_w == 0 || config.stride == 0 ||
      config.map_h < config.window_h || config.map_w < config.window_w) {
    return invalid_input("element sim: invalid geometry");
  }
  if (config.pe_cycles_per_window == 0 || config.port_capacity == 0) {
    return invalid_input("element sim: service and port capacity must be >= 1");
  }

  const auto chain =
      hw::plan_filter_chain(config.window_h, config.window_w, config.map_w);
  const std::size_t filter_count = chain.size();
  std::vector<std::size_t> capacities = config.fifo_capacities;
  if (capacities.empty()) {
    capacities = planned_capacities(config);
  }
  if (capacities.size() + 1 != filter_count && filter_count > 1) {
    return invalid_input(strings::format(
        "element sim: %zu FIFO capacities for a %zu-filter chain",
        capacities.size(), filter_count));
  }

  // State: source -> in[0] -> filter0 -> in[1] -> filter1 -> ... ; each
  // filter owns a port FIFO toward the PE.
  std::vector<PositionFifo> chain_in(filter_count);
  chain_in[0].capacity = 2;  // stream skid between datamover and chain head
  for (std::size_t f = 1; f < filter_count; ++f) {
    chain_in[f].capacity = std::max<std::size_t>(capacities[f - 1], 1);
  }
  std::vector<PositionFifo> ports(filter_count);
  for (PositionFifo& port : ports) {
    port.capacity = config.port_capacity;
  }

  const std::size_t elements_total = config.map_h * config.map_w;
  const std::size_t windows_total = config.out_h() * config.out_w();

  const auto in_domain = [&config](const hw::WindowAccess& access,
                                   std::size_t position) {
    return hw::in_domain(access, config.stride, config.out_h(),
                         config.out_w(), position / config.map_w,
                         position % config.map_w);
  };

  ElementSimResult result;
  result.elements_streamed = elements_total;
  std::size_t next_emission = 0;
  std::size_t pe_busy = 0;
  bool first_fire_seen = false;
  constexpr std::uint64_t kMaxCycles = 100'000'000;

  while (result.windows_fired < windows_total) {
    bool progress = false;

    // -- PE (downstream first: frees port space within this cycle) --------
    if (pe_busy > 0) {
      --pe_busy;
      progress = true;
    } else {
      bool all_ready = true;
      bool any_ready = false;
      for (std::size_t f = 0; f < filter_count; ++f) {
        if (ports[f].empty()) {
          all_ready = false;
        } else {
          any_ready = true;
        }
      }
      if (all_ready) {
        for (std::size_t f = 0; f < filter_count; ++f) {
          ports[f].pop();
        }
        ++result.windows_fired;
        if (!first_fire_seen) {
          first_fire_seen = true;
          result.fill_cycles = result.total_cycles;
        }
        pe_busy = config.pe_cycles_per_window - 1;
        progress = true;
      } else if (first_fire_seen && any_ready &&
                 result.windows_fired < windows_total) {
        ++result.pe_idle_partial_cycles;
      }
    }

    // -- Filters, tail to head (consume frees upstream space in-cycle) ----
    for (std::size_t f = filter_count; f-- > 0;) {
      PositionFifo& input = chain_in[f];
      if (input.empty()) {
        continue;
      }
      const std::size_t position = input.data.front();
      const bool matches = in_domain(chain[f].access, position);
      const bool has_downstream = f + 1 < filter_count;
      if (matches && !ports[f].can_push()) {
        continue;  // blocked on the PE port
      }
      if (has_downstream && !chain_in[f + 1].can_push()) {
        continue;  // blocked on the inter-filter FIFO
      }
      input.pop();
      if (matches) {
        ports[f].push(position);
      }
      if (has_downstream) {
        chain_in[f + 1].push(position);
      }
      progress = true;
    }

    // -- Source: one element per cycle into the chain head -----------------
    if (next_emission < elements_total && chain_in[0].can_push()) {
      chain_in[0].push(next_emission++);
      progress = true;
    }

    ++result.total_cycles;
    if (!progress) {
      result.deadlocked = true;
      return result;
    }
    if (result.total_cycles > kMaxCycles) {
      return internal_error("element sim: cycle budget exceeded");
    }
  }
  return result;
}

}  // namespace condor::sim
