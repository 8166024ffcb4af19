#include "dataflow/frame.hpp"

#include <algorithm>

namespace condor::dataflow {

Fire write_blob(PassSink sink, std::span<const float> blob,
                const std::string& module) {
  if (sink.local != nullptr) {
    sink.local->assign(blob.begin(), blob.end());
    co_return Status::ok();
  }
  for (Stream* edge : *sink.edges) {
    CONDOR_CO_WRITE_BURST(
        *edge, blob,
        internal_error("module '" + module + "': out-edge closed mid-image"));
  }
  co_return Status::ok();
}

Fire emit_requantized(PassSink sink, std::span<const float> values,
                      int total_bits, int& out_frac,
                      std::vector<std::int32_t>& codes,
                      std::vector<float>& frame, const std::string& module) {
  out_frac = nn::quantize_span(values, total_bits, codes).frac_bits;
  if (sink.local != nullptr) {
    sink.local->assign(codes.begin(), codes.end());
    co_return Status::ok();
  }
  frame.resize(codes.size() + 1);
  frame[0] = static_cast<float>(out_frac);
  std::copy(codes.begin(), codes.end(), frame.begin() + 1);
  co_return co_await write_blob(sink, frame, module);
}

Fire read_frame(Stream& in, nn::DataType data_type, int& frac,
                std::span<float> blob, const std::string& module) {
  if (nn::is_fixed_point(data_type)) {
    float word = 0.0F;
    CONDOR_CO_READ_ONE(
        in, word,
        internal_error("module '" + module + "': in-edge ended early"));
    frac = static_cast<int>(word);
  }
  CONDOR_CO_READ_EXACT(
      in, blob, internal_error("module '" + module + "': in-edge ended early"));
  co_return Status::ok();
}

void close_edges(const OutEdges& edges) {
  for (Stream* edge : edges) {
    edge->close();
  }
}

}  // namespace condor::dataflow
