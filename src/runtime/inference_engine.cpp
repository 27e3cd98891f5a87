#include "runtime/inference_engine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "fixedpoint/fixedpoint.hpp"

namespace pegasus::runtime {

namespace {

/// Lower() places every table through Pipeline::PlaceTable, which seals
/// it; checked before the kernel compiles the tables.
const dataplane::Pipeline& SealedPipeline(const LoweredModel& model) {
  if (!model.pipeline().FullySealed()) {
    throw std::logic_error(
        "InferenceEngine: lowered pipeline has unsealed tables");
  }
  return model.pipeline();
}

}  // namespace

InferenceEngine::InferenceEngine(const LoweredModel& model,
                                 std::size_t batch_capacity)
    : model_(&model),
      kernel_(SealedPipeline(model), model.layout().NumFields(),
              batch_capacity) {
  const std::size_t width = model.layout().NumFields();
  const auto column = [width](dataplane::FieldId f) {
    if (f >= width) {
      throw std::invalid_argument("InferenceEngine: field outside the PHV");
    }
    return f;
  };
  // The fill writes features over the template row. Parser inits only
  // seed SumReduce accumulators, never an input field, so this equals a
  // Phv filled with features and then parser values.
  template_row_.assign(width, 0);
  for (const auto& [field, value] : model.parser_inits()) {
    template_row_[column(field)] = value;
  }
  for (dataplane::FieldId f : model.input_fields()) column(f);
  for (dataplane::FieldId f : model.output_fields()) column(f);
  rows_.resize(batch_capacity * width);
  raw_scratch_.resize(batch_capacity * model.OutputDim());
  pipeline_generation_ = model.pipeline().Generation();
}

void InferenceEngine::InferRaw(std::span<const float> features, std::size_t n,
                               std::span<std::int64_t> out_raw) {
  const std::size_t in_dim = input_dim();
  const std::size_t out_dim = output_dim();
  if (features.size() != n * in_dim) {
    throw std::invalid_argument("InferenceEngine::InferRaw: feature buffer "
                                "size does not match n x input_dim");
  }
  if (out_raw.size() != n * out_dim) {
    throw std::invalid_argument("InferenceEngine::InferRaw: output buffer "
                                "size does not match n x output_dim");
  }
  assert(model_->pipeline().Generation() == pipeline_generation_ &&
         "InferenceEngine: pipeline mutated under a live engine");
  const auto& input_fields = model_->input_fields();
  const auto& output_fields = model_->output_fields();
  const auto& output_quant = model_->output_quant();
  const std::size_t width = template_row_.size();
  const std::int64_t dmax = (std::int64_t{1} << model_->input_bits()) - 1;
  std::size_t done = 0;
  while (done < n) {
    const std::size_t chunk = std::min(n - done, batch_capacity());
    for (std::size_t i = 0; i < chunk; ++i) {
      std::int64_t* row = rows_.data() + i * width;
      std::copy(template_row_.begin(), template_row_.end(), row);
      const float* x = features.data() + (done + i) * in_dim;
      for (std::size_t d = 0; d < in_dim; ++d) {
        row[input_fields[d]] =
            std::clamp<std::int64_t>(std::llround(x[d]), 0, dmax);
      }
    }
    stats_.table_hits += kernel_.Run(rows_.data(), chunk);
    stats_.packets += chunk;
    ++stats_.chunks;
    for (std::size_t i = 0; i < chunk; ++i) {
      const std::int64_t* row = rows_.data() + i * width;
      std::int64_t* out_row = out_raw.data() + (done + i) * out_dim;
      for (std::size_t d = 0; d < out_dim; ++d) {
        out_row[d] = row[output_fields[d]] - output_quant[d].bias;
      }
    }
    done += chunk;
  }
}

void InferenceEngine::Infer(std::span<const float> features, std::size_t n,
                            std::span<float> out) {
  const std::size_t in_dim = input_dim();
  const std::size_t out_dim = output_dim();
  if (features.size() != n * in_dim) {
    throw std::invalid_argument("InferenceEngine::Infer: feature buffer "
                                "size does not match n x input_dim");
  }
  if (out.size() != n * out_dim) {
    throw std::invalid_argument("InferenceEngine::Infer: output buffer "
                                "size does not match n x output_dim");
  }
  const auto& output_quant = model_->output_quant();
  std::size_t done = 0;
  while (done < n) {
    const std::size_t chunk = std::min(n - done, batch_capacity());
    const std::span<std::int64_t> raw(raw_scratch_.data(), chunk * out_dim);
    InferRaw(features.subspan(done * in_dim, chunk * in_dim), chunk, raw);
    for (std::size_t i = 0; i < chunk * out_dim; ++i) {
      out[done * out_dim + i] = static_cast<float>(
          fixedpoint::Dequantize(raw[i], output_quant[i % out_dim].fmt));
    }
    done += chunk;
  }
}

std::vector<std::int64_t> InferenceEngine::InferRaw(
    std::span<const float> features) {
  if (features.size() != input_dim()) {
    throw std::invalid_argument(
        "InferenceEngine::InferRaw: feature dim mismatch");
  }
  std::vector<std::int64_t> raw(output_dim());
  InferRaw(features, 1, raw);
  return raw;
}

std::vector<float> InferenceEngine::Infer(std::span<const float> features) {
  if (features.size() != input_dim()) {
    throw std::invalid_argument(
        "InferenceEngine::Infer: feature dim mismatch");
  }
  std::vector<float> out(output_dim());
  Infer(features, 1, out);
  return out;
}

}  // namespace pegasus::runtime
