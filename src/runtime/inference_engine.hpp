// Batched, allocation-free inference over a LoweredModel.
//
// The engine compiles the model's sealed pipeline into a flat batch kernel
// (dataplane/batch_kernel.hpp) at construction and, per chunk of up to
// `batch_capacity` packets, (1) copies a template row — every PHV field
// zero except the parser's initial values — into each row of a row-major
// int64 matrix and writes the rounded, clamped features over it, (2) runs
// the kernel over the matrix, and (3) reads the raw / dequantized outputs
// from their columns into caller-provided buffers. Nothing is allocated
// after construction on the span-based paths.
//
// Bit-exactness: every packet sees exactly the writes of a zeroed Phv
// filled the same way and run through Pipeline::ProcessBatch — the
// reference interpreter, which the engine no longer calls — so outputs and
// table hits are bit-identical to it (tests/test_batch_kernel.cpp).
// LoweredModel::Infer and InferRaw are themselves a capacity-1 engine.
//
// Thread-safety: an engine owns mutable scratch state; use one engine per
// thread. The engine borrows the LoweredModel (its kernel reads the placed
// tables' indexes) and must not outlive it or serve across a mutation of
// it; rebuild the engine instead.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dataplane/batch_kernel.hpp"
#include "runtime/lowering.hpp"

namespace pegasus::runtime {

class InferenceEngine {
 public:
  static constexpr std::size_t kDefaultBatchCapacity = 64;

  /// Cumulative work counters, aggregated by StreamServerStats per shard.
  /// `chunks` counts kernel launches (<= batch_capacity packets each);
  /// `table_hits` counts table hits as Pipeline::ProcessBatch would.
  struct Stats {
    std::uint64_t packets = 0;
    std::uint64_t chunks = 0;
    std::uint64_t table_hits = 0;

    Stats& operator+=(const Stats& o) {
      packets += o.packets;
      chunks += o.chunks;
      table_hits += o.table_hits;
      return *this;
    }
  };

  /// Builds the kernel. Throws std::invalid_argument on a zero capacity or
  /// a pipeline the kernel rejects (an exact table, an action reading past
  /// an entry's data), std::logic_error when a placed table is not sealed.
  explicit InferenceEngine(const LoweredModel& model,
                           std::size_t batch_capacity = kDefaultBatchCapacity);

  std::size_t batch_capacity() const { return kernel_.max_rows(); }
  std::size_t input_dim() const { return model_->InputDim(); }
  std::size_t output_dim() const { return model_->OutputDim(); }

  const Stats& stats() const { return stats_; }
  void ResetStats() { stats_ = {}; }

  /// Batched raw inference. `features` holds `n` rows of input_dim floats
  /// (row-major); `out_raw` must hold n * output_dim words. Batches larger
  /// than the capacity are processed in capacity-sized chunks. Throws
  /// std::invalid_argument on size mismatches.
  void InferRaw(std::span<const float> features, std::size_t n,
                std::span<std::int64_t> out_raw);

  /// Batched dequantized inference; `out` must hold n * output_dim floats.
  void Infer(std::span<const float> features, std::size_t n,
             std::span<float> out);

  /// Single-packet conveniences (only the returned vector is allocated).
  /// These are what LoweredModel::Infer/InferRaw delegate to.
  std::vector<std::int64_t> InferRaw(std::span<const float> features);
  std::vector<float> Infer(std::span<const float> features);

 private:
  const LoweredModel* model_;
  dataplane::BatchKernel kernel_;
  /// Parse-time PHV: zero, then the parser's initial values.
  std::vector<std::int64_t> template_row_;
  /// The chunk's PHVs, batch_capacity rows of template_row_.size().
  std::vector<std::int64_t> rows_;
  /// Per-chunk raw outputs for the dequantizing Infer path.
  std::vector<std::int64_t> raw_scratch_;
  Stats stats_;
  /// Pipeline::Generation() snapshot from construction; InferRaw asserts
  /// it unchanged in debug builds (a placed table mutated under a live
  /// engine leaves the kernel reading a stale index).
  std::uint64_t pipeline_generation_ = 0;
};

}  // namespace pegasus::runtime
