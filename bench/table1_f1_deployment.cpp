// Reproduces paper Table 1: "AWS F1 deployment results".
//
// Deploys TC1 and LeNet through the full Condor flow (Caffe fixture →
// frontend → layer/network creation → simulated synthesis → xclbin → S3 →
// AFI → F1 slot), then reports resource occupation, steady-state GFLOPS
// (from the PE pipeline's batch timing at the achieved clock)
// and power efficiency, next to the paper's published values.
//
// Configuration matches the paper's: "the generated network processes each
// feature map sequentially but can exploit full intra-layers parallelism"
// — i.e. default annotations (all parallel degrees 1, one PE per layer).
#include <cstdio>
#include <string>
#include <vector>

#include "caffe/export.hpp"
#include "cloud/afi.hpp"
#include "cloud/f1.hpp"
#include "cloud/s3.hpp"
#include "common/logging.hpp"
#include "condor/flow.hpp"
#include "condor/report.hpp"
#include "nn/models.hpp"
#include "nn/weights.hpp"

namespace {

using namespace condor;

struct PaperRow {
  const char* name;
  double lut, ff, dsp, bram, mhz, gflops, gflops_w;
};

constexpr PaperRow kPaper[] = {
    {"TC1", 10.47, 9.02, 5.63, 0.97, 100.0, 8.36, 1.56},
    {"LeNet", 9.48, 8.60, 2.53, 24.38, 180.0, 3.35, 0.78},
};

Result<condorflow::DeploymentReport> deploy(const nn::Network& model,
                                            cloud::ObjectStore& store,
                                            cloud::AfiService& afi) {
  CONDOR_ASSIGN_OR_RETURN(nn::WeightStore weights,
                          nn::initialize_weights(model, 2018));
  // Enter the frontend the way a user would: through the Caffe files.
  CONDOR_ASSIGN_OR_RETURN(std::string prototxt, caffe::to_prototxt(model));
  CONDOR_ASSIGN_OR_RETURN(auto caffemodel, caffe::to_caffemodel(model, weights));

  condorflow::FrontendInput input;
  input.prototxt_text = prototxt;
  input.caffemodel_bytes = std::move(caffemodel);
  input.board_id = "aws-f1";
  input.target_frequency_mhz = 200.0;

  condorflow::FlowOptions options;
  options.deployment = condorflow::Deployment::kCloud;
  options.s3_bucket = "condor-table1";

  CONDOR_ASSIGN_OR_RETURN(condorflow::FlowResult flow,
                          condorflow::Flow::run(input, options, &store, &afi));

  // Exercise the deployment path end to end: wait for the AFI, load it on
  // an F1 slot, and verify the programmed clock.
  CONDOR_ASSIGN_OR_RETURN(cloud::AfiRecord record,
                          afi.wait_until_available(flow.afi->afi_id));
  cloud::F1Instance instance(cloud::F1InstanceType::k2xlarge, afi);
  CONDOR_RETURN_IF_ERROR(instance.load_afi(0, record.agfi_id));

  return condorflow::make_deployment_report(flow);
}

}  // namespace

int main() {
  log::set_level(log::Level::kError);
  cloud::ObjectStore store("/tmp/condor-bench-table1");
  cloud::AfiService afi(store, /*ingestion_polls=*/1);

  std::vector<condorflow::DeploymentReport> rows;
  for (const nn::Network& model : {nn::make_tc1(), nn::make_lenet()}) {
    auto report = deploy(model, store, afi);
    if (!report.is_ok()) {
      std::fprintf(stderr, "deployment of %s failed: %s\n", model.name().c_str(),
                   report.status().to_string().c_str());
      return 1;
    }
    rows.push_back(std::move(report).value());
  }

  std::printf("== Table 1: AWS F1 deployment results ==\n\n");
  std::printf("%-8s %-10s %7s %7s %7s %7s %8s %8s %10s\n", "", "", "LUT %",
              "FF %", "DSP %", "BRAM %", "MHz", "GFLOPS", "GFLOPS/W");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const condorflow::DeploymentReport& r = rows[i];
    const PaperRow& p = kPaper[i];
    std::printf("%-8s %-10s %7.2f %7.2f %7.2f %7.2f %8.0f %8.2f %10.2f\n",
                p.name, "paper", p.lut, p.ff, p.dsp, p.bram, p.mhz, p.gflops,
                p.gflops_w);
    std::printf("%-8s %-10s %7.2f %7.2f %7.2f %7.2f %8.0f %8.2f %10.2f\n", "",
                "measured", r.lut_pct, r.ff_pct, r.dsp_pct, r.bram_pct,
                r.achieved_mhz, r.gflops, r.gflops_per_w);
  }
  std::printf(
      "\nShape checks: TC1 DSP%% > LeNet DSP%% (tanh pipelines): %s | "
      "LeNet BRAM%% >> TC1 BRAM%% (on-chip FC weights): %s | "
      "TC1 GFLOPS > LeNet GFLOPS (FC-bound LeNet): %s | "
      "TC1 GFLOPS/W > LeNet: %s\n",
      rows[0].dsp_pct > rows[1].dsp_pct ? "OK" : "FAIL",
      rows[1].bram_pct > 5.0 * rows[0].bram_pct ? "OK" : "FAIL",
      rows[0].gflops > rows[1].gflops ? "OK" : "FAIL",
      rows[0].gflops_per_w > rows[1].gflops_per_w ? "OK" : "FAIL");
  return 0;
}
