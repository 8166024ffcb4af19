#include "dataflow/join.hpp"

#include <algorithm>

#include "nn/layer.hpp"

namespace condor::dataflow {

Fire JoinModule::fire(const RunContext& ctx) {
  if (program_.passes.size() != 1) {
    co_return internal_error("join '" + name() +
                             "': program must hold exactly one pass");
  }
  const LayerPass& pass = program_.passes.front();
  if (pass.kind != PassKind::kEltwiseAdd && pass.kind != PassKind::kConcat) {
    co_return internal_error("join '" + name() + "': pass is not a join");
  }
  const std::size_t out_count = pass.output_elements();
  const std::size_t first_count = pass.input_elements();
  // Eltwise operands are congruent; concat's second operand supplies the
  // channels the first does not (build_pe_program's in_* convention).
  const std::size_t second_count = pass.kind == PassKind::kEltwiseAdd
                                       ? first_count
                                       : out_count - first_count;
  const bool fixed = nn::is_fixed_point(data_type_);
  const int bits = nn::total_bits(data_type_);

  for (std::size_t image = 0; image < ctx.batch; ++image) {
    int fa = 0;
    int fb = 0;
    a_.resize(first_count);
    b_.resize(second_count);
    CONDOR_CO_RETURN_IF_ERROR(
        co_await read_frame(in0_, data_type_, fa, a_, name()));
    CONDOR_CO_RETURN_IF_ERROR(
        co_await read_frame(in1_, data_type_, fb, b_, name()));
    out_blob_.resize(out_count);

    if (!fixed) {
      if (pass.kind == PassKind::kEltwiseAdd) {
        for (std::size_t i = 0; i < out_count; ++i) {
          out_blob_[i] = nn::apply_activation(pass.activation, a_[i] + b_[i]);
        }
      } else {
        // forward_concat's order: both operands copied, then the joined
        // blob activated (kNone is the identity either way).
        std::copy(a_.begin(), a_.end(), out_blob_.begin());
        std::copy(b_.begin(), b_.end(), out_blob_.begin() + first_count);
        for (float& value : out_blob_) {
          value = nn::apply_activation(pass.activation, value);
        }
      }
      CONDOR_CO_RETURN_IF_ERROR(
          co_await write_blob(PassSink{&out_}, out_blob_, name()));
      continue;
    }

    if (pass.kind == PassKind::kEltwiseAdd) {
      // fixed_eltwise_add: realign both operand codes to the finer format
      // (exact int64 shift), add, then the canonical boundary step.
      const int common = std::max(fa, fb);
      for (std::size_t i = 0; i < out_count; ++i) {
        const std::int64_t raw =
            nn::realign_code(static_cast<std::int32_t>(a_[i]), fa, common) +
            nn::realign_code(static_cast<std::int32_t>(b_[i]), fb, common);
        out_blob_[i] =
            nn::apply_activation(pass.activation, nn::dequantize_code(raw, common));
      }
    } else {
      // fixed_concat: rebuild in value space, each operand dequantized with
      // its own dynamic format, then one fresh format over the whole blob.
      for (std::size_t i = 0; i < first_count; ++i) {
        out_blob_[i] = nn::apply_activation(
            pass.activation,
            nn::dequantize_code(static_cast<std::int64_t>(a_[i]), fa));
      }
      for (std::size_t i = 0; i < second_count; ++i) {
        out_blob_[first_count + i] = nn::apply_activation(
            pass.activation,
            nn::dequantize_code(static_cast<std::int64_t>(b_[i]), fb));
      }
    }
    int out_frac = 0;
    CONDOR_CO_RETURN_IF_ERROR(co_await emit_requantized(
        PassSink{&out_}, out_blob_, bits, out_frac, emit_codes_, emit_blob_,
        name()));
  }
  close_edges(out_);
  co_return Status::ok();
}

}  // namespace condor::dataflow
