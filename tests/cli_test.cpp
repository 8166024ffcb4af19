// Tests for the `condor` command-line driver.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "caffe/export.hpp"
#include "cli/cli.hpp"
#include "common/byte_io.hpp"
#include "common/logging.hpp"
#include "hw/hw_ir.hpp"
#include "nn/models.hpp"
#include "nn/weights.hpp"
#include "onnx/export.hpp"

namespace condor::cli {
namespace {

struct CliRun {
  int exit_code = 0;
  std::string out;
  std::string err;
};

CliRun run(const std::vector<std::string>& args) {
  log::set_level(log::Level::kError);
  std::ostringstream out;
  std::ostringstream err;
  CliRun result;
  result.exit_code = run_cli(args, out, err);
  result.out = out.str();
  result.err = err.str();
  return result;
}

std::string temp_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + "/condor_cli_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(Cli, NoArgsPrintsUsage) {
  const CliRun result = run({});
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.err.find("usage:"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  const CliRun result = run({"frobnicate"});
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.err.find("unknown command"), std::string::npos);
}

TEST(Cli, BoardsListsDatabase) {
  const CliRun result = run({"boards"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("aws-f1"), std::string::npos);
  EXPECT_NE(result.out.find("zedboard"), std::string::npos);
}

TEST(Cli, SummaryShowsModel) {
  const CliRun result = run({"summary", "--model", "lenet"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("conv1"), std::string::npos);
  EXPECT_NE(result.out.find("431080"), std::string::npos);  // parameter count
  EXPECT_EQ(run({"summary", "--model", "alexnet"}).exit_code, 1);
  EXPECT_EQ(run({"summary"}).exit_code, 2);
}

TEST(Cli, SummaryShowsDagModel) {
  const CliRun result = run({"summary", "--model", "tiny-resnet"});
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_NE(result.out.find("b1add"), std::string::npos);
  EXPECT_NE(result.out.find("<- stem,b1c2"), std::string::npos);
}

TEST(Cli, BuildFromCaffeFilesOnPremise) {
  const std::string dir = temp_dir("build_caffe");
  const nn::Network model = nn::make_tc1();
  auto weights = nn::initialize_weights(model, 1).value();
  ASSERT_TRUE(caffe::write_caffe_fixture(model, weights, dir + "/tc1").is_ok());

  const CliRun result =
      run({"build", "--prototxt", dir + "/tc1.prototxt", "--caffemodel",
           dir + "/tc1.caffemodel", "--board", "aws-f1", "--out",
           dir + "/artifacts"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("GFLOPS/W"), std::string::npos);
  EXPECT_NE(result.out.find("synthesis report"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(dir + "/artifacts/accelerator.xclbin"));
}

TEST(Cli, BuildFromOnnxAndRun) {
  const std::string dir = temp_dir("build_onnx");
  const nn::Network model = nn::make_tc1();
  auto weights = nn::initialize_weights(model, 2).value();
  auto onnx_bytes = onnx::to_onnx(model, weights).value();
  ASSERT_TRUE(write_file(dir + "/tc1.onnx", onnx_bytes).is_ok());

  const CliRun build = run({"build", "--onnx", dir + "/tc1.onnx", "--out",
                            dir + "/artifacts"});
  EXPECT_EQ(build.exit_code, 0) << build.err;

  const CliRun exec =
      run({"run", "--xclbin", dir + "/artifacts/accelerator.xclbin",
           "--weights", dir + "/artifacts/weights.bin", "--batch", "4"});
  EXPECT_EQ(exec.exit_code, 0) << exec.err;
  EXPECT_NE(exec.out.find("4 images"), std::string::npos);
  EXPECT_NE(exec.out.find("MHz"), std::string::npos);

  // Multi-instance execution shards the batch across replicas and reports
  // the per-instance census.
  const CliRun sharded =
      run({"run", "--xclbin", dir + "/artifacts/accelerator.xclbin",
           "--weights", dir + "/artifacts/weights.bin", "--batch", "6",
           "--instances", "2"});
  EXPECT_EQ(sharded.exit_code, 0) << sharded.err;
  EXPECT_NE(sharded.out.find("6 images"), std::string::npos);
  EXPECT_NE(sharded.out.find("2 instances"), std::string::npos);
  EXPECT_NE(sharded.out.find("images per instance"), std::string::npos);
  EXPECT_EQ(run({"run", "--xclbin", dir + "/artifacts/accelerator.xclbin",
                 "--weights", dir + "/artifacts/weights.bin", "--instances",
                 "0"})
                .exit_code,
            2);
}

TEST(Cli, BuildCloudCreatesAfiAndDescribeFindsIt) {
  const std::string dir = temp_dir("build_cloud");
  const nn::Network model = nn::make_tc1();
  auto weights = nn::initialize_weights(model, 3).value();
  ASSERT_TRUE(write_text_file(dir + "/net.json",
                              hw::to_json_text(hw::with_default_annotations(model)))
                  .is_ok());
  ASSERT_TRUE(weights.save(dir + "/w.bin").is_ok());

  const CliRun build =
      run({"build", "--network", dir + "/net.json", "--weights", dir + "/w.bin",
           "--deploy", "cloud", "--bucket", "cli-bucket", "--aws-root",
           dir + "/aws"});
  EXPECT_EQ(build.exit_code, 0) << build.err;
  const std::size_t pos = build.out.find("AFI: afi-");
  ASSERT_NE(pos, std::string::npos) << build.out;
  const std::string afi_id = build.out.substr(pos + 5, 21);

  const CliRun describe =
      run({"describe-afi", "--id", afi_id, "--aws-root", dir + "/aws"});
  EXPECT_EQ(describe.exit_code, 0) << describe.err;
  EXPECT_NE(describe.out.find(afi_id), std::string::npos);
  EXPECT_NE(describe.out.find("cli-bucket"), std::string::npos);
}

TEST(Cli, ValidateReportsBitExactness) {
  const CliRun result = run({"validate", "--model", "tc1", "--batch", "2"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("bit-exact PASS"), std::string::npos);
  EXPECT_EQ(run({"validate"}).exit_code, 2);
  EXPECT_EQ(run({"validate", "--model", "nope"}).exit_code, 1);
}

TEST(Cli, ValidateFixedDataTypesBitExact) {
  for (const char* type : {"fixed16", "fixed8"}) {
    SCOPED_TRACE(type);
    const CliRun result = run(
        {"validate", "--model", "tc1", "--batch", "2", "--data-type", type});
    EXPECT_EQ(result.exit_code, 0) << result.err;
    EXPECT_NE(result.out.find("bit-exact PASS"), std::string::npos);
    EXPECT_NE(result.out.find(type), std::string::npos)
        << "report should name the datapath";
    EXPECT_NE(result.out.find("quantized reference"), std::string::npos);
  }
  // float32 is the explicit default and still validates against the golden
  // reference; unknown names are a usage error.
  const CliRun f32 = run(
      {"validate", "--model", "tc1", "--batch", "1", "--data-type", "float32"});
  EXPECT_EQ(f32.exit_code, 0) << f32.err;
  EXPECT_NE(f32.out.find("golden reference"), std::string::npos);
  EXPECT_EQ(run({"validate", "--model", "tc1", "--data-type", "fixed4"})
                .exit_code,
            2);
}

TEST(Cli, ValidatePrintsTopologySummary) {
  // Linear chains report zero joins; DAG models report their join count
  // and the depth of the longest producer->consumer path.
  const CliRun linear = run({"validate", "--model", "tc1", "--batch", "1"});
  EXPECT_EQ(linear.exit_code, 0) << linear.err;
  EXPECT_NE(linear.out.find("topology:"), std::string::npos) << linear.out;
  EXPECT_NE(linear.out.find("0 joins"), std::string::npos) << linear.out;

  const CliRun dag = run({"validate", "--model", "tiny_resnet", "--batch", "2",
                          "--data-type", "fixed16"});
  EXPECT_EQ(dag.exit_code, 0) << dag.err;
  EXPECT_NE(dag.out.find("bit-exact PASS"), std::string::npos) << dag.out;
  EXPECT_NE(dag.out.find("3 joins"), std::string::npos) << dag.out;
  EXPECT_NE(dag.out.find("DAG depth"), std::string::npos) << dag.out;
}

TEST(Cli, ValidateParallelOutIsAPlanDegree) {
  // --parallel-out sets the plan's unroll degree, which the resource and
  // performance models price; the host runs no lanes for it. Help and
  // output both say so, and the modeled price rises with the degree.
  const CliRun usage = run({});
  EXPECT_NE(usage.err.find("D sets the plan's unroll degree"),
            std::string::npos)
      << usage.err;
  EXPECT_NE(usage.err.find("(no host"), std::string::npos) << usage.err;
  const auto modeled_dsps = [](const std::string& out) {
    const std::string prefix = "priced by the models at ";
    const std::size_t at = out.find(prefix);
    return at == std::string::npos ? 0UL
                                   : std::stoul(out.substr(at + prefix.size()));
  };
  const CliRun one =
      run({"validate", "--model", "lenet", "--batch", "1"});
  const CliRun four = run(
      {"validate", "--model", "lenet", "--batch", "1", "--parallel-out", "4"});
  for (const CliRun* result : {&one, &four}) {
    EXPECT_EQ(result->exit_code, 0) << result->err;
    EXPECT_NE(result->out.find("bit-exact PASS"), std::string::npos);
    EXPECT_NE(result->out.find("sets the plan's unroll degree"),
              std::string::npos)
        << result->out;
    EXPECT_NE(result->out.find("no host lanes"), std::string::npos)
        << result->out;
  }
  EXPECT_NE(four.out.find("unroll: parallel_out=4"), std::string::npos)
      << four.out;
  EXPECT_GT(modeled_dsps(one.out), 0UL) << one.out;
  EXPECT_GT(modeled_dsps(four.out), modeled_dsps(one.out))
      << "the models should price a wider unroll";
}

TEST(Cli, ValidateReportsWeightsLatchedOnce) {
  // The PE programs latch their weights when the design compiles: TC1's
  // (6*9 + 6) + (12*6*16 + 12) + (10*48 + 10) floats, once.
  const CliRun result = run({"validate", "--model", "tc1", "--batch", "2"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(
      result.out.find("weights latched: 6856 bytes (once per compiled design)"),
      std::string::npos)
      << result.out;
}

TEST(Cli, ValidateReportsFifoWrites) {
  // One frame per edge per image, each the producer's whole blob: TC1's
  // input 1*16*16 + conv1 6*14*14 + pool1 6*7*7 + conv2 12*4*4 + pool2
  // 12*2*2 + ip1 10 = 1976 words per image on float32 (no header word).
  const CliRun result = run({"validate", "--model", "tc1", "--batch", "2"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("FIFO writes: 3952 words\n"), std::string::npos)
      << result.out;
}

TEST(Cli, ValidateReportsResidentWeightBytes) {
  // float32 keeps every weight and bias as a 4-byte word: LeNet's 431,080
  // parameters. fixed8 keeps the convolutions' codes and every bias code in
  // int32 words (25,500 + 580) and the inner products' codes as 8-bit row
  // pairs in 64-output blocks: ip1 400 row pairs x 512 lanes x 2 bytes, ip2
  // 250 x 16 x 2.
  const CliRun wide = run({"validate", "--model", "lenet", "--batch", "1"});
  EXPECT_EQ(wide.exit_code, 0) << wide.err;
  EXPECT_NE(wide.out.find("resident weights: 1724320 bytes\n"),
            std::string::npos)
      << wide.out;
  const CliRun narrow = run({"validate", "--model", "lenet", "--batch", "1",
                             "--data-type", "fixed8"});
  EXPECT_EQ(narrow.exit_code, 0) << narrow.err;
  EXPECT_NE(narrow.out.find("resident weights: 521920 bytes\n"),
            std::string::npos)
      << narrow.out;
}

TEST(Cli, ValidateFixedLeNet) {
  const CliRun result = run(
      {"validate", "--model", "lenet", "--batch", "1", "--data-type", "fixed16"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("bit-exact PASS"), std::string::npos);
}

TEST(Cli, ValidateMultiInstanceStaysBitExact) {
  // The sharded pool against the same oracle — float and fixed datapaths,
  // with a batch that does not divide evenly across the instances.
  for (const char* type : {"float32", "fixed16"}) {
    SCOPED_TRACE(type);
    const CliRun result =
        run({"validate", "--model", "tc1", "--batch", "5", "--instances", "2",
             "--data-type", type});
    EXPECT_EQ(result.exit_code, 0) << result.err;
    EXPECT_NE(result.out.find("bit-exact PASS"), std::string::npos);
    EXPECT_NE(result.out.find("instances=2"), std::string::npos);
  }
  EXPECT_EQ(run({"validate", "--model", "tc1", "--instances", "0"}).exit_code,
            2);
}

TEST(Cli, Fig5PrintsBatchSweep) {
  const CliRun result = run({"fig5", "--model", "tc1"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("mean ms/image"), std::string::npos);
  EXPECT_NE(result.out.find("256"), std::string::npos);
  EXPECT_EQ(run({"fig5"}).exit_code, 2);
}

TEST(Cli, DsePrintsTrajectory) {
  const CliRun result = run({"dse", "--model", "tc1", "--features"});
  EXPECT_EQ(result.exit_code, 0) << result.err;
  EXPECT_NE(result.out.find("best:"), std::string::npos);
  EXPECT_NE(result.out.find("GFLOPS"), std::string::npos);
}

TEST(Cli, BuildErrorsAreReported) {
  // Missing files.
  EXPECT_EQ(run({"build", "--onnx", "/nonexistent.onnx"}).exit_code, 1);
  // Missing input source.
  EXPECT_EQ(run({"build"}).exit_code, 2);
  // Caffe source with only one file.
  EXPECT_EQ(run({"build", "--prototxt", "/x.prototxt"}).exit_code, 2);
  // Bad deploy mode.
  const std::string dir = temp_dir("build_err");
  const nn::Network model = nn::make_tc1();
  auto weights = nn::initialize_weights(model, 4).value();
  ASSERT_TRUE(write_text_file(dir + "/net.json",
                              hw::to_json_text(hw::with_default_annotations(model)))
                  .is_ok());
  ASSERT_TRUE(weights.save(dir + "/w.bin").is_ok());
  EXPECT_EQ(run({"build", "--network", dir + "/net.json", "--weights",
                 dir + "/w.bin", "--deploy", "moon"})
                .exit_code,
            2);
}

TEST(Cli, RunRequiresArguments) {
  EXPECT_EQ(run({"run"}).exit_code, 2);
  EXPECT_EQ(run({"run", "--xclbin", "/missing", "--weights", "/missing"})
                .exit_code,
            1);
  EXPECT_EQ(run({"describe-afi"}).exit_code, 2);
}

TEST(Cli, MalformedNumericFlagsFailAtParseTime) {
  // Each value must be rejected before anything runs — a negative value
  // once wrapped to ~2^64 images and a non-number once parsed as 0. The
  // run and build cases name missing files: a parse error must win over
  // the load.
  struct Case {
    std::vector<std::string> args;
    std::string flag;
  };
  const std::vector<Case> cases = {
      {{"validate", "--model", "lenet", "--batch", "-3"}, "--batch"},
      {{"validate", "--model", "lenet", "--batch", "abc"}, "--batch"},
      {{"validate", "--model", "lenet", "--batch", "4x"}, "--batch"},
      {{"validate", "--model", "lenet", "--batch",
        "18446744073709551616"}, "--batch"},
      {{"validate", "--model", "lenet", "--parallel-out"}, "--parallel-out"},
      {{"run", "--xclbin", "/missing", "--weights", "/missing", "--instances",
        "-1"}, "--instances"},
      {{"dse", "--model", "lenet", "--max-fused", "2x"}, "--max-fused"},
      {{"serve-bench", "--model", "lenet", "--requests", "+5"}, "--requests"},
      {{"serve-bench", "--model", "lenet", "--rate", "-5"}, "--rate"},
      {{"serve-bench", "--model", "lenet", "--max-delay-ms", "abc"},
       "--max-delay-ms"},
      {{"serve-bench", "--model", "lenet", "--rate", "inf"}, "--rate"},
      {{"build", "--onnx", "/missing", "--freq", "200MHz"}, "--freq"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.args[0] + " " + c.flag);
    const CliRun result = run(c.args);
    EXPECT_EQ(result.exit_code, 2);
    EXPECT_NE(result.err.find(c.flag), std::string::npos) << result.err;
    EXPECT_TRUE(result.out.empty()) << result.out;
  }
}

}  // namespace
}  // namespace condor::cli
