#include "hls/synthesis.hpp"

#include "common/strings.hpp"

namespace condor::hls {

std::string SynthesisReport::to_string(const hw::BoardSpec& board) const {
  std::string out = strings::format(
      "== Vivado HLS (simulated) synthesis report ==\n"
      "target clock : %.1f MHz\n"
      "achieved     : %.1f MHz (%s)\n",
      target_clock_mhz, achieved_clock_mhz, timing_met ? "met" : "NOT met");
  out += strings::format("%-22s %12s %12s %8s\n", "module", "latency", "interval",
                         "clock");
  for (const ModuleReport& module : modules) {
    out += strings::format("%-22s %12llu %12llu %7.1f\n", module.module.c_str(),
                           static_cast<unsigned long long>(module.latency_cycles),
                           static_cast<unsigned long long>(module.interval_cycles),
                           module.estimated_clock_mhz);
  }
  out += resources.to_string(board);
  return out;
}

Result<SynthesisReport> synthesize(const hw::AcceleratorPlan& plan) {
  const nn::DataType type = plan.data_type();
  return synthesize(plan, SynthesisOptions{hw::cost_model_for(type),
                                           hw::timing_model_for(type)});
}

Result<SynthesisReport> synthesize(const hw::AcceleratorPlan& plan,
                                   const SynthesisOptions& options) {
  SynthesisReport report;
  report.target_clock_mhz = plan.source.hw.target_frequency_mhz;

  CONDOR_ASSIGN_OR_RETURN(report.resources,
                          hw::estimate_resources(plan, options.cost));
  report.achieved_clock_mhz =
      hw::achieved_frequency_mhz(plan, report.resources, options.timing);
  report.timing_met = report.achieved_clock_mhz >= report.target_clock_mhz;

  // Per-module latency/interval from the performance model at the achieved
  // clock (interval governs II between images).
  CONDOR_ASSIGN_OR_RETURN(
      hw::PerformanceEstimate perf,
      hw::estimate_performance(plan, report.resources, report.achieved_clock_mhz));
  for (std::size_t p = 0; p < plan.pes.size(); ++p) {
    ModuleReport module;
    module.module = plan.pes[p].name;
    module.interval_cycles = perf.pes[p].interval();
    module.latency_cycles = perf.pes[p].service_cycles();
    module.estimated_clock_mhz = hw::pe_fmax_mhz(plan, p, options.timing);
    module.resources = hw::pe_cost(plan, p, options.cost);
    report.modules.push_back(std::move(module));
  }
  return report;
}

}  // namespace condor::hls
