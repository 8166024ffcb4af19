// deploy-cold: closed loop of deploy rounds. Each round deploys three
// models from in-memory frontend fixtures — LeNet from Caffe prototxt +
// caffemodel bytes, tiny_resnet from ONNX bytes, TC1 fixed8 from Condor JSON
// + weight-file bytes — through Flow::run (on-premise, automated DSE with
// fusion degrees up to 4), LoadedKernel::from_xclbin, load_weights and one
// byte-checked image: the paper's automation flow, and what a plan-cache
// miss costs a serving session.
#include <array>

#include "bench.hpp"
#include "caffe/export.hpp"
#include "common/rng.hpp"
#include "condor/flow.hpp"
#include "hls/codegen.hpp"
#include "hls/synthesis.hpp"
#include "hw/accel_plan.hpp"
#include "hw/dse.hpp"
#include "onnx/export.hpp"
#include "runtime/kernel_runner.hpp"

namespace condor::bench {
namespace {

constexpr std::size_t kImages = 16;

struct Fixture {
  std::string name;
  condorflow::FrontendInput input;
  Shape input_shape;
  std::vector<Tensor> images;
  std::vector<Tensor> expected;
};

Result<std::array<Fixture, 3>> make_fixtures() {
  std::array<Fixture, 3> fixtures;
  CONDOR_ASSIGN_OR_RETURN(const Model lenet, make_model("lenet"));
  fixtures[0].name = "lenet-caffe";
  CONDOR_ASSIGN_OR_RETURN(fixtures[0].input_shape, lenet.network.input_shape());
  CONDOR_ASSIGN_OR_RETURN(fixtures[0].input.prototxt_text,
                          caffe::to_prototxt(lenet.network));
  CONDOR_ASSIGN_OR_RETURN(fixtures[0].input.caffemodel_bytes,
                          caffe::to_caffemodel(lenet.network, lenet.weights));
  CONDOR_ASSIGN_OR_RETURN(const Model resnet, make_model("tiny_resnet"));
  fixtures[1].name = "resnet-onnx";
  CONDOR_ASSIGN_OR_RETURN(fixtures[1].input_shape, resnet.network.input_shape());
  CONDOR_ASSIGN_OR_RETURN(fixtures[1].input.onnx_bytes,
                          onnx::to_onnx(resnet.network, resnet.weights));
  CONDOR_ASSIGN_OR_RETURN(const Model tc1, make_model("tc1"));
  hw::HwNetwork tc1_fixed8 = hw::with_default_annotations(tc1.network);
  tc1_fixed8.hw.data_type = nn::DataType::kFixed8;
  fixtures[2].name = "tc1-json";
  CONDOR_ASSIGN_OR_RETURN(fixtures[2].input_shape, tc1.network.input_shape());
  fixtures[2].input.network_json_text = hw::to_json_text(tc1_fixed8);
  fixtures[2].input.weight_file_bytes = tc1.weights.serialize();
  return fixtures;
}

condorflow::FlowOptions flow_options() {
  condorflow::FlowOptions options;
  options.run_dse = true;
  options.dse.max_fused = 4;
  return options;
}

/// Host seconds of each Flow::run step, from calling the step's public
/// function again on the same input, and on the flow's own result for the
/// packaging of the xclbin and the weight file (traced run only).
struct FlowSteps {
  double analyze_s = 0.0;
  double explore_s = 0.0;
  double plan_s = 0.0;
  double codegen_s = 0.0;
  double synthesize_s = 0.0;
  double package_s = 0.0;
  std::size_t points_evaluated = 0;

  [[nodiscard]] double total_s() const {
    return analyze_s + explore_s + plan_s + codegen_s + synthesize_s +
           package_s;
  }
};

Result<FlowSteps> time_flow_steps(const Fixture& fixture,
                                  const condorflow::FlowResult& flow,
                                  Trace& trace, std::uint64_t round) {
  const double t0 = now_s();
  CONDOR_ASSIGN_OR_RETURN(auto analyzed, condorflow::analyze_input(fixture.input));
  const double t1 = now_s();
  // Flow::run prices a fixed-point design with that datapath's presets.
  const condorflow::FlowOptions options = flow_options();
  hw::DseOptions dse = options.dse;
  hls::SynthesisOptions synthesis = options.synthesis;
  const nn::DataType type = analyzed.first.hw.data_type;
  if (nn::is_fixed_point(type)) {
    dse.cost = synthesis.cost = hw::cost_model_for(type);
    dse.timing = synthesis.timing = hw::timing_model_for(type);
  }
  CONDOR_ASSIGN_OR_RETURN(const hw::DseResult explored,
                          hw::explore(analyzed.first, dse));
  const double t2 = now_s();
  CONDOR_ASSIGN_OR_RETURN(const hw::AcceleratorPlan plan,
                          hw::plan_accelerator(explored.best.config));
  const double t3 = now_s();
  CONDOR_RETURN_IF_ERROR(hls::generate_all_sources(plan).status());
  const double t4 = now_s();
  CONDOR_RETURN_IF_ERROR(hls::synthesize(plan, synthesis).status());
  const double t5 = now_s();
  (void)flow.xclbin.serialize();
  (void)flow.weights.serialize();
  const double t6 = now_s();
  // The re-run happens after the deploy, so its spans get their own root
  // rather than nesting under the flow.run span they explain.
  const Trace::SpanId parent =
      trace.add("flow.steps." + fixture.name, t0, t6, round);
  trace.add("frontend.analyze", t0, t1, round, parent);
  trace.add("hw.explore", t1, t2, round, parent);
  trace.add("hw.plan", t2, t3, round, parent);
  trace.add("hls.codegen", t3, t4, round, parent);
  trace.add("hls.synthesize", t4, t5, round, parent);
  trace.add("flow.package", t5, t6, round, parent);
  return FlowSteps{t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, t6 - t5,
                   explored.points_evaluated};
}

/// Host seconds of one model's deployment, step by step.
struct Deployment {
  double flow_s = 0.0;
  double from_xclbin_s = 0.0;
  double load_weights_s = 0.0;
  double first_run_s = 0.0;
  Tensor output;
  FlowSteps steps;  ///< traced run only

  [[nodiscard]] double total_s() const {
    return flow_s + from_xclbin_s + load_weights_s + first_run_s;
  }
};

Result<Deployment> deploy(const Fixture& fixture, const Tensor& image,
                          Trace* trace, std::uint64_t round) {
  const double t0 = now_s();
  CONDOR_ASSIGN_OR_RETURN(
      condorflow::FlowResult flow,
      condorflow::Flow::run(fixture.input, flow_options()));
  const double t1 = now_s();
  CONDOR_ASSIGN_OR_RETURN(const runtime::Xclbin xclbin,
                          runtime::Xclbin::deserialize(flow.xclbin_bytes));
  CONDOR_ASSIGN_OR_RETURN(runtime::LoadedKernel kernel,
                          runtime::LoadedKernel::from_xclbin(xclbin));
  const double t2 = now_s();
  CONDOR_RETURN_IF_ERROR(kernel.load_weights(flow.weight_file_bytes));
  const double t3 = now_s();
  CONDOR_ASSIGN_OR_RETURN(std::vector<Tensor> outputs,
                          kernel.run(std::span(&image, 1)));
  const double t4 = now_s();
  Deployment d{t1 - t0, t2 - t1, t3 - t2, t4 - t3, std::move(outputs[0]), {}};
  if (trace != nullptr) {
    const Trace::SpanId root = trace->add("deploy." + fixture.name, t0, t4, round);
    trace->add("flow.run", t0, t1, round, root);
    trace->add("runtime.from_xclbin", t1, t2, round, root);
    trace->add("runtime.load_weights", t2, t3, round, root);
    trace->add("runtime.first_run", t3, t4, round, root);
    CONDOR_ASSIGN_OR_RETURN(
        d.steps, time_flow_steps(fixture, flow, *trace, round));
  }
  return d;
}

}  // namespace

Result<Report> run_deploy_cold(const RunConfig& config, Tally& tally) {
  std::array<Fixture, 3> fixtures;
  Rng rng(config.seed ^ 0xde91'0001ULL);
  CONDOR_ASSIGN_OR_RETURN(
      const double setup_s, repeated_setup(config.trace, [&]() -> Status {
        CONDOR_ASSIGN_OR_RETURN(fixtures, make_fixtures());
        for (const Fixture& fixture : fixtures) {
          CONDOR_RETURN_IF_ERROR(
              deploy(fixture, Tensor(fixture.input_shape), nullptr, 0).status());
        }
        return Status::ok();
      }));
  for (std::size_t m = 0; m < fixtures.size(); ++m) {
    Fixture& fixture = fixtures[m];
    CONDOR_ASSIGN_OR_RETURN(const auto analyzed,
                            condorflow::analyze_input(fixture.input));
    fixture.images = make_images(fixture.input_shape, kImages, config.seed + m);
    CONDOR_ASSIGN_OR_RETURN(
        fixture.expected,
        oracle_outputs(analyzed.first.net, analyzed.second,
                       analyzed.first.hw.data_type, fixture.images));
  }

  std::vector<double> round_ms;
  double deploy_s = 0.0;
  std::array<std::vector<Deployment>, 3> deployments;
  const double start = now_s();
  for (std::uint64_t round = 0; now_s() - start < config.seconds; ++round) {
    double round_s = 0.0;
    for (std::size_t m = 0; m < fixtures.size(); ++m) {
      const Fixture& fixture = fixtures[m];
      const std::size_t image = rng.bounded(kImages);
      Result<Deployment> d =
          deploy(fixture, fixture.images[image], config.trace, round);
      if (!d.is_ok()) {
        tally.record(false);
        continue;
      }
      tally.record(true, same_bytes(d.value().output, fixture.expected[image]));
      round_s += d.value().total_s();
      deployments[m].push_back(std::move(d).value());
    }
    round_ms.push_back(round_s * 1e3);
    deploy_s += round_s;
  }

  Report report;
  const double deployed = static_cast<double>(
      deployments[0].size() + deployments[1].size() + deployments[2].size());
  report.end_to_end = end_to_end_metrics(setup_s, quantile(round_ms, 0.5),
                                         deployed / deploy_s);
  report.info = {{"round_p90_ms", quantile(round_ms, 0.9), "ms"},
                 {"round_p99_ms", quantile(round_ms, 0.99), "ms"},
                 {"rounds", static_cast<double>(round_ms.size()), "count"}};
  for (std::size_t m = 0; m < fixtures.size(); ++m) {
    std::vector<double> ms;
    for (const Deployment& d : deployments[m]) {
      ms.push_back(d.total_s() * 1e3);
    }
    report.info.push_back({fixtures[m].name + "_deploy_p50_ms", quantile(ms, 0.5), "ms"});
  }
  if (config.trace == nullptr) {
    return report;
  }
  // Per-model medians over the rounds of each step.
  for (std::size_t m = 0; m < fixtures.size(); ++m) {
    const std::vector<Deployment>& rounds = deployments[m];
    const auto median_ms = [&](double (*field)(const Deployment&)) {
      std::vector<double> ms;
      for (const Deployment& d : rounds) {
        ms.push_back(field(d) * 1e3);
      }
      return quantile(ms, 0.5);
    };
    const std::string& name = fixtures[m].name;
    report.layers.insert(
        report.layers.end(),
        {{"frontend." + name + ".analyze_ms",
          median_ms([](const Deployment& d) { return d.steps.analyze_s; }), "ms"},
         {"hw." + name + ".explore_ms",
          median_ms([](const Deployment& d) { return d.steps.explore_s; }), "ms"},
         {"hw." + name + ".points_evaluated",
          static_cast<double>(rounds.front().steps.points_evaluated), "count"},
         {"hw." + name + ".plan_ms",
          median_ms([](const Deployment& d) { return d.steps.plan_s; }), "ms"},
         {"hls." + name + ".codegen_ms",
          median_ms([](const Deployment& d) { return d.steps.codegen_s; }), "ms"},
         {"hls." + name + ".synthesize_ms",
          median_ms([](const Deployment& d) { return d.steps.synthesize_s; }),
          "ms"},
         {"flow." + name + ".package_ms",
          median_ms([](const Deployment& d) { return d.steps.package_s; }), "ms"},
         {"flow." + name + ".unattributed_ms",
          median_ms([](const Deployment& d) {
            return d.flow_s - d.steps.total_s();
          }),
          "ms"},
         {"runtime." + name + ".from_xclbin_ms",
          median_ms([](const Deployment& d) { return d.from_xclbin_s; }), "ms"},
         {"runtime." + name + ".load_weights_ms",
          median_ms([](const Deployment& d) { return d.load_weights_s; }), "ms"},
         {"runtime." + name + ".first_run_ms",
          median_ms([](const Deployment& d) { return d.first_run_s; }), "ms"}});
  }
  return report;
}

}  // namespace condor::bench
