#include "nn/weights.hpp"

#include <cmath>

#include "common/byte_io.hpp"
#include "common/strings.hpp"

namespace condor::nn {
namespace {

// "CWF1" — Condor Weight File, version 1.
constexpr std::uint32_t kMagic = 0x31465743;

void write_tensor(ByteWriter& out, const Tensor& tensor) {
  out.u32le(static_cast<std::uint32_t>(tensor.shape().rank()));
  for (const std::size_t dim : tensor.shape().dims()) {
    out.u64le(dim);
  }
  out.f32le_span(tensor.data());
}

Result<Tensor> read_tensor(ByteReader& in) {
  CONDOR_ASSIGN_OR_RETURN(std::uint32_t rank, in.u32le());
  if (rank > 8) {
    return invalid_input("weight file: implausible tensor rank");
  }
  std::vector<std::size_t> dims(rank);
  // The declared dims must describe data the file actually holds, checked
  // before anything is allocated for it.
  std::uint64_t count = 1;
  for (auto& dim : dims) {
    CONDOR_ASSIGN_OR_RETURN(std::uint64_t extent, in.u64le());
    if (__builtin_mul_overflow(count, extent, &count)) {
      return invalid_input("weight file: tensor element count overflows");
    }
    dim = static_cast<std::size_t>(extent);
  }
  if (count > in.remaining() / sizeof(float)) {
    return invalid_input(strings::format(
        "weight file: tensor declares %llu elements but %zu bytes remain",
        static_cast<unsigned long long>(count), in.remaining()));
  }
  Tensor tensor{Shape(std::move(dims))};
  CONDOR_RETURN_IF_ERROR(in.f32le_span(tensor.data()));
  return tensor;
}

}  // namespace

const LayerParameters* WeightStore::find(const std::string& layer) const {
  const auto it = params_.find(layer);
  return it == params_.end() ? nullptr : &it->second;
}

void WeightStore::set(std::string layer, LayerParameters params) {
  params_[std::move(layer)] = std::move(params);
}

Status WeightStore::validate_against(const Network& network) const {
  CONDOR_ASSIGN_OR_RETURN(auto shapes, network.infer_shapes());
  const auto& layers = network.layers();
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (!layers[i].has_weights()) {
      continue;
    }
    const LayerParameters* params = find(layers[i].name);
    if (params == nullptr) {
      return not_found("no weights for layer '" + layers[i].name + "'");
    }
    CONDOR_ASSIGN_OR_RETURN(auto expected,
                            parameter_shapes(layers[i], shapes[i].input));
    if (params->weights.shape() != expected.weights) {
      return invalid_input(strings::format(
          "layer '%s': weight shape %s, expected %s", layers[i].name.c_str(),
          params->weights.shape().to_string().c_str(),
          expected.weights.to_string().c_str()));
    }
    if (layers[i].has_bias) {
      if (params->bias.shape() != expected.bias) {
        return invalid_input(strings::format(
            "layer '%s': bias shape %s, expected %s", layers[i].name.c_str(),
            params->bias.shape().to_string().c_str(),
            expected.bias.to_string().c_str()));
      }
    } else if (!params->bias.empty()) {
      return invalid_input("layer '" + layers[i].name +
                           "' has a bias blob but declares has_bias=false");
    }
  }
  return Status::ok();
}

std::vector<std::byte> WeightStore::serialize() const {
  ByteWriter out;
  out.u32le(kMagic);
  out.u32le(static_cast<std::uint32_t>(params_.size()));
  for (const auto& [name, params] : params_) {
    // The body is written in place; its size and CRC are patched into the
    // header once known.
    const std::size_t header = out.size();
    out.u64le(0);
    out.u32le(0);
    const std::size_t body = out.size();
    out.u32le(static_cast<std::uint32_t>(name.size()));
    out.string_bytes(name);
    write_tensor(out, params.weights);
    out.u8(params.bias.empty() ? 0 : 1);
    if (!params.bias.empty()) {
      write_tensor(out, params.bias);
    }
    const std::span<const std::byte> entry = out.view().subspan(body);
    (void)out.patch_u64le(header, entry.size());
    (void)out.patch_u32le(header + 8, crc32(entry));
  }
  return std::move(out).take();
}

Result<WeightStore> WeightStore::deserialize(std::span<const std::byte> data) {
  ByteReader in(data);
  CONDOR_ASSIGN_OR_RETURN(std::uint32_t magic, in.u32le());
  if (magic != kMagic) {
    return invalid_input("not a Condor weight file (bad magic)");
  }
  CONDOR_ASSIGN_OR_RETURN(std::uint32_t count, in.u32le());
  WeightStore store;
  for (std::uint32_t i = 0; i < count; ++i) {
    CONDOR_ASSIGN_OR_RETURN(std::uint64_t entry_size, in.u64le());
    CONDOR_ASSIGN_OR_RETURN(std::uint32_t expected_crc, in.u32le());
    CONDOR_ASSIGN_OR_RETURN(auto entry_bytes,
                            in.bytes(static_cast<std::size_t>(entry_size)));
    if (crc32(entry_bytes) != expected_crc) {
      return invalid_input(
          strings::format("weight file: CRC mismatch in entry %u", i));
    }
    ByteReader entry(entry_bytes);
    CONDOR_ASSIGN_OR_RETURN(std::uint32_t name_size, entry.u32le());
    CONDOR_ASSIGN_OR_RETURN(std::string name, entry.string_bytes(name_size));
    LayerParameters params;
    CONDOR_ASSIGN_OR_RETURN(params.weights, read_tensor(entry));
    CONDOR_ASSIGN_OR_RETURN(std::uint8_t has_bias, entry.u8());
    if (has_bias != 0) {
      CONDOR_ASSIGN_OR_RETURN(params.bias, read_tensor(entry));
    }
    store.set(std::move(name), std::move(params));
  }
  if (!in.at_end()) {
    return invalid_input("weight file: trailing bytes");
  }
  return store;
}

Status WeightStore::save(const std::string& path) const {
  const std::vector<std::byte> data = serialize();
  return write_file(path, data);
}

Result<WeightStore> WeightStore::load(const std::string& path) {
  CONDOR_ASSIGN_OR_RETURN(auto data, read_file(path));
  return deserialize(data);
}

Result<WeightStore> initialize_weights(const Network& network, std::uint64_t seed) {
  CONDOR_ASSIGN_OR_RETURN(auto shapes, network.infer_shapes());
  Rng rng(seed);
  WeightStore store;
  const auto& layers = network.layers();
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (!layers[i].has_weights()) {
      continue;
    }
    CONDOR_ASSIGN_OR_RETURN(auto param_shapes,
                            parameter_shapes(layers[i], shapes[i].input));
    // Glorot-uniform: limit = sqrt(6 / (fan_in + fan_out)).
    const std::size_t fan_out = layers[i].num_output;
    const std::size_t fan_in = param_shapes.weights.element_count() / fan_out;
    const float limit =
        std::sqrt(6.0F / static_cast<float>(fan_in + fan_out));
    LayerParameters params;
    params.weights = Tensor(param_shapes.weights);
    for (float& value : params.weights.data()) {
      value = rng.uniform(-limit, limit);
    }
    if (layers[i].has_bias) {
      params.bias = Tensor(param_shapes.bias);  // zeros
    }
    store.set(layers[i].name, std::move(params));
  }
  return store;
}

}  // namespace condor::nn
