// The two-input join PE of a DAG.
//
// JoinModule executes a kJoin PE (hw/accel_plan.hpp): exactly one
// eltwise-add or concat pass over two operand edges, one frame per image
// on each (dataflow/frame.hpp). The operands arrive on ports 0 and 1 in the
// layer's `inputs` order. The float path mirrors nn::reference (add then
// activation; concat copies first/second then activates the joined blob).
// The fixed path mirrors nn::fixed_eltwise_add / nn::fixed_concat exactly:
// eltwise realigns both operand codes to the finer of the two dynamic
// formats (an exact int64 shift), adds, and runs the canonical
// dequantize→activate→requantize boundary step; concat rebuilds the joined
// blob in value space — each operand dequantized with its own format — and
// requantizes the whole blob with one fresh format.
//
// It follows the zero-allocation steady-state contract of dataflow/pe.hpp:
// all per-image scratch lives in members that persist across images and
// run_batch calls.
#pragma once

#include <cstdint>
#include <vector>

#include "dataflow/fifo.hpp"
#include "dataflow/frame.hpp"
#include "dataflow/module.hpp"
#include "dataflow/program.hpp"
#include "nn/numeric.hpp"

namespace condor::dataflow {

class JoinModule final : public Module {
 public:
  /// `program` must hold exactly one kEltwiseAdd / kConcat pass. `in0` /
  /// `in1` carry the operands in the layer's `inputs` order; `out` lists the
  /// PE's out-edges.
  JoinModule(std::string name, const PeProgram& program, Stream& in0,
             Stream& in1, OutEdges out,
             nn::DataType data_type = nn::DataType::kFloat32)
      : Module(std::move(name)),
        program_(program),
        data_type_(data_type),
        in0_(in0),
        in1_(in1),
        out_(std::move(out)) {}

  Fire fire(const RunContext& ctx) override;

 private:
  const PeProgram& program_;
  nn::DataType data_type_;
  Stream& in0_;
  Stream& in1_;
  OutEdges out_;

  // --- steady-state scratch arena (see dataflow/pe.hpp) -------------------
  std::vector<float> a_;                  ///< first operand blob
  std::vector<float> b_;                  ///< second operand blob
  std::vector<float> out_blob_;           ///< joined values
  std::vector<std::int32_t> emit_codes_;  ///< fixed: requantize scratch
  std::vector<float> emit_blob_;          ///< fixed: staged frame
};

}  // namespace condor::dataflow
