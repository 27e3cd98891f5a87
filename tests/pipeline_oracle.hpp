// The reference path an InferenceEngine must reproduce bit for bit: one
// zeroed Phv per row, filled as the parser would (rounded, clamped
// features, then the parser's initial values), run through
// Pipeline::ProcessBatch — the table interpreter the engine's batch kernel
// replaces — and read back from the output fields.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "dataplane/phv.hpp"
#include "runtime/lowering.hpp"

namespace pegasus::testing {

struct OracleResult {
  std::vector<std::int64_t> raw;  // n x output_dim
  std::uint64_t table_hits = 0;
};

inline OracleResult RunOracle(const runtime::LoweredModel& model,
                              std::span<const float> features, std::size_t n) {
  const std::size_t in_dim = model.InputDim();
  const std::size_t out_dim = model.OutputDim();
  const std::int64_t dmax = (std::int64_t{1} << model.input_bits()) - 1;
  std::vector<dataplane::Phv> phvs(n, dataplane::Phv(model.layout()));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < in_dim; ++d) {
      phvs[i].Set(model.input_fields()[d],
                  std::clamp<std::int64_t>(
                      std::llround(features[i * in_dim + d]), 0, dmax));
    }
    for (const auto& [field, value] : model.parser_inits()) {
      phvs[i].Set(field, value);
    }
  }
  OracleResult r;
  r.table_hits = model.pipeline().ProcessBatch(std::span<dataplane::Phv>(phvs));
  r.raw.resize(n * out_dim);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < out_dim; ++d) {
      r.raw[i * out_dim + d] = phvs[i].Get(model.output_fields()[d]) -
                               model.output_quant()[d].bias;
    }
  }
  return r;
}

}  // namespace pegasus::testing
