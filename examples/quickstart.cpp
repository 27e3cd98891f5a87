// Quickstart: the whole Pegasus lifecycle on a toy function, in ~80 lines.
//
//   1. express a computation as Partition -> Map -> SumReduce primitives
//      (here: a 4->2 fully connected layer with a ReLU, via the operator
//      helpers — the same path the real models use);
//   2. run the unified compiler driver (compiler::CompileToSwitch): the
//      PassManager executes fuse-basic → augment → quantize-plan →
//      tablegen → lower as named passes and records per-pass diagnostics;
//   3. run per-packet and batched inference on the PISA switch simulator;
//   4. confirm the simulator matches the host-side reference bit-for-bit
//      and inspect the resource bill.
#include <cstdio>
#include <iostream>
#include <random>
#include <vector>

#include "compiler/compiler.hpp"
#include "core/operators.hpp"
#include "runtime/inference_engine.hpp"

int main() {
  using namespace pegasus;

  // ---- 1. build the primitive program ---------------------------------
  core::ProgramBuilder b(/*input_dim=*/4);
  const std::vector<float> w{0.05f, -0.02f, 0.01f, 0.04f,
                             -0.03f, 0.02f, 0.02f, 0.01f};  // 4x2
  const std::vector<float> bias{0.5f, -0.25f};
  core::ValueId v = core::AppendFullyConnected(
      b, b.input(), w, 4, 2, bias, /*segment_dim=*/2, /*fuzzy_leaves=*/64);
  v = b.Map(v, core::MakeReLU(2), 64);
  core::Program program = b.Finish(v);
  std::printf("built program: %zu Maps, %zu SumReduces\n",
              program.NumMaps(), program.NumSumReduces());

  // ---- 2. run the unified compiler driver --------------------------------
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<float> dist(0.0f, 255.0f);
  const std::size_t n = 4000;
  std::vector<float> train(n * 4);
  for (float& x : train) x = std::floor(dist(rng));
  compiler::CompileSwitchResult result =
      compiler::CompileToSwitch(std::move(program), train, n);
  std::printf("after Basic Primitive Fusion: %zu -> %zu Maps\n",
              result.fusion.maps_before, result.fusion.maps_after);
  std::printf("compiled: %zu fuzzy tables, %zu total leaves\n",
              result.model.NumTables(), result.model.TotalLeaves());
  std::printf("pass diagnostics:\n");
  compiler::PrintDiagnostics(std::cout, result.history);

  const core::CompiledModel& compiled = result.model;
  runtime::LoweredModel& switch_model = result.lowered;
  const auto report = switch_model.Report();
  std::printf("placed on switch: %zu tables in %zu stages, "
              "%.3f%% SRAM, %.3f%% TCAM\n",
              switch_model.NumTables(), switch_model.StagesUsed(),
              report.SramPct({}), report.TcamPct({}));

  // ---- 3./4. per-packet inference + bit-exactness ------------------------
  std::size_t mismatches = 0;
  double max_err = 0.0;
  for (int i = 0; i < 1000; ++i) {
    const std::vector<float> x{std::floor(dist(rng)), std::floor(dist(rng)),
                               std::floor(dist(rng)), std::floor(dist(rng))};
    if (switch_model.InferRaw(x) != compiled.EvaluateRaw(x)) ++mismatches;
    // fuzzy vs exact float reference
    const auto fuzzy = compiled.Evaluate(x);
    float exact0 = bias[0], exact1 = bias[1];
    for (int d = 0; d < 4; ++d) {
      exact0 += x[static_cast<std::size_t>(d)] * w[static_cast<std::size_t>(d) * 2];
      exact1 += x[static_cast<std::size_t>(d)] * w[static_cast<std::size_t>(d) * 2 + 1];
    }
    exact0 = std::max(0.0f, exact0);
    exact1 = std::max(0.0f, exact1);
    max_err = std::max({max_err, std::abs(double{fuzzy[0]} - exact0),
                        std::abs(double{fuzzy[1]} - exact1)});
  }
  std::printf("simulator vs host reference: %zu mismatches in 1000 packets\n",
              mismatches);
  std::printf("fuzzy vs exact float: max abs error %.4f (fuzzy cells are "
              "~2-4 units wide here)\n", max_err);

  // Batched inference: whole batches through the engine's flat batch
  // kernel — same bits as the per-packet path, no per-packet allocation.
  const std::size_t batch = 64;
  runtime::InferenceEngine engine(switch_model, batch);
  std::vector<float> batch_x(batch * 4);
  for (float& x : batch_x) x = std::floor(dist(rng));
  std::vector<std::int64_t> batch_raw(batch * engine.output_dim());
  engine.InferRaw(batch_x, batch, batch_raw);
  std::size_t batch_mismatches = 0;
  for (std::size_t i = 0; i < batch; ++i) {
    const auto single = switch_model.InferRaw(
        std::span<const float>(batch_x.data() + i * 4, 4));
    for (std::size_t d = 0; d < single.size(); ++d) {
      if (single[d] != batch_raw[i * engine.output_dim() + d]) {
        ++batch_mismatches;
      }
    }
  }
  std::printf("batched engine vs per-packet path: %zu mismatches in %zu "
              "packets\n", batch_mismatches, batch);
  return mismatches == 0 && batch_mismatches == 0 ? 0 : 1;
}
