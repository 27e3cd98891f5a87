// Reproduces Figure 9: (a-c) Pegasus dataplane accuracy vs full-precision
// CPU/GPU accuracy for every model on every dataset; (d) throughput of the
// dataplane vs the control plane.
//
// Throughput methodology (DESIGN.md §2 substitution): CPU throughput is
// *measured* single-core float inference scaled to the testbed's core
// count; GPU throughput is modeled from the paper's observed switch/GPU
// ratio; switch throughput is the line-rate model — a PISA pipeline
// classifies every packet at line rate regardless of model size, so
// samples/s = line_rate / mean packet size. We also report the *measured*
// software-simulator rate for transparency (it is NOT switch speed).
#include <chrono>
#include <functional>
#include <cstdio>

#include "common.hpp"
#include "compiler/compiler.hpp"
#include "dataplane/resources.hpp"
#include "runtime/inference_engine.hpp"
#include "runtime/lowering.hpp"

namespace {

double MeasureRate(const std::function<void(std::size_t)>& fn,
                   std::size_t iters) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) fn(i);
  const auto t1 = std::chrono::steady_clock::now();
  const double sec =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
          .count();
  return static_cast<double>(iters) / std::max(sec, 1e-9);
}

}  // namespace

int main() {
  using namespace pegasus::bench;
  namespace md = pegasus::models;

  const BenchScale scale = ScaleFromEnv();
  auto data = PrepareAll(scale, /*with_raw_bytes=*/true);

  // ---- (a-c) accuracy: Pegasus vs full precision -------------------------
  const auto cells = RunFig9Accuracy(data, scale);
  std::printf("Figure 9a-c: Pegasus (dataplane) vs CPU/GPU (full precision) "
              "macro-F1\n");
  std::printf("%-10s %-10s %12s %12s %10s\n", "Dataset", "Model",
              "CPU/GPU F1", "Pegasus F1", "delta");
  double total_drop = 0;
  for (const auto& c : cells) {
    std::printf("%-10s %-10s %12.4f %12.4f %+10.4f\n", c.dataset.c_str(),
                c.model.c_str(), c.f1_float, c.f1_fuzzy,
                c.f1_fuzzy - c.f1_float);
    total_drop += c.f1_float - c.f1_fuzzy;
  }
  std::printf("mean accuracy reduction: %.4f (paper: 0.0108 mean, "
              "0.002..0.017)\n\n", total_drop / static_cast<double>(cells.size()));

  // ---- (d) throughput -----------------------------------------------------
  // Measured: CPU float inference (MLP-B as the representative per-packet
  // model) and the software simulator's per-packet pipeline rate.
  auto& prep = data[0];
  md::MlpBConfig mcfg;
  mcfg.epochs = scale.epochs_small;
  auto mlp = md::MlpB::Train(prep.stat.train.x, prep.stat.train.labels,
                             prep.stat.train.size(), prep.stat.train.dim,
                             prep.num_classes, mcfg);
  pegasus::runtime::LoweredModel lowered =
      pegasus::compiler::PlaceOnSwitch(mlp->Compiled());

  const auto& test = prep.stat.test;
  const std::size_t n = test.size();
  auto row = [&](std::size_t i) {
    return std::span<const float>(test.x.data() + (i % n) * test.dim,
                                  test.dim);
  };
  const double mlp_core_rate =
      MeasureRate([&](std::size_t i) { mlp->FloatPredict(row(i)); }, 20000);
  const double sim_rate = MeasureRate(
      [&](std::size_t i) { lowered.InferRaw(row(i)); }, 20000);
  const double host_fuzzy_rate = MeasureRate(
      [&](std::size_t i) { mlp->Compiled().EvaluateRaw(row(i)); }, 20000);

  // Batched simulator rate: the InferenceEngine runs whole batches through
  // its flat batch kernel, compiled once from the sealed pipeline, so
  // per-packet allocation and table interpretation leave the hot loop.
  const std::size_t batch_rows = std::min<std::size_t>(n, 256);
  pegasus::runtime::InferenceEngine engine(lowered, batch_rows);
  std::vector<std::int64_t> raw_out(batch_rows * lowered.OutputDim());
  // Slide the batch window across the test set so the batched path streams
  // fresh rows like the per-call baselines (no warm-cache replay bias).
  const std::size_t max_start = n - batch_rows;
  const double sim_batch_rate =
      MeasureRate(
          [&](std::size_t i) {
            const std::size_t start =
                max_start > 0 ? (i * batch_rows) % max_start : 0;
            engine.InferRaw(
                std::span<const float>(test.x.data() + start * test.dim,
                                       batch_rows * test.dim),
                batch_rows, raw_out);
          },
          20000 / batch_rows + 1) *
      static_cast<double>(batch_rows);

  // Mid/large models for the representative CPU rate (training quality is
  // irrelevant to inference cost, so 2 epochs suffice).
  md::CnnMConfig ccfg;
  ccfg.epochs = 2;
  auto cnnm = md::CnnM::Train(prep.seq.train.x, prep.seq.train.labels,
                              prep.seq.train.size(), prep.seq.train.dim,
                              prep.num_classes, ccfg);
  const auto& stest = prep.seq.test;
  auto srow = [&](std::size_t i) {
    return std::span<const float>(
        stest.x.data() + (i % stest.size()) * stest.dim, stest.dim);
  };
  const double cnnm_core_rate = MeasureRate(
      [&](std::size_t i) { cnnm->FloatPredict(srow(i)); }, 5000);

  md::CnnLConfig lcfg;
  lcfg.epochs = 1;
  auto cnnl = md::CnnL::Train(prep.raw.train.x, prep.seq.train.x,
                              prep.raw.train.labels, prep.raw.train.size(),
                              prep.num_classes, lcfg);
  const auto& rtest = prep.raw.test;
  std::vector<std::vector<float>> packed_rows;
  for (std::size_t i = 0; i < std::min<std::size_t>(rtest.size(), 256); ++i) {
    packed_rows.push_back(md::CnnL::PackInput(
        std::span<const float>(rtest.x.data() + i * rtest.dim, rtest.dim),
        std::span<const float>(prep.seq.test.x.data() + i * prep.seq.test.dim,
                               prep.seq.test.dim),
        true));
  }
  const double cnnl_core_rate = MeasureRate(
      [&](std::size_t i) {
        cnnl->FloatPredict(packed_rows[i % packed_rows.size()]);
      },
      2000);

  // Testbed model (documented substitution): 22-core Xeon E5-2699 v4 -> 22x
  // single-core rate; Tofino 2 line rate / 800 B mean packet; GPU modeled
  // from the paper's observed switch/GPU ratio (~600x) relative to its
  // switch/CPU ratio (~3800x), i.e. GPU ~ 6.3x CPU.
  const pegasus::dataplane::SwitchModel sw;
  const double switch_rate = sw.line_rate_bits_per_sec / (800.0 * 8.0);

  std::printf("Figure 9d: throughput (samples/s)\n");
  std::printf("  %-36s %12.3e  (line-rate model, 12.8 Tb/s / 800 B)\n",
              "Pegasus on switch (any model)", switch_rate);
  struct CpuRow {
    const char* name;
    double core_rate;
  } cpu_rows[] = {{"CPU float MLP-B", mlp_core_rate},
                  {"CPU float CNN-M", cnnm_core_rate},
                  {"CPU float CNN-L", cnnl_core_rate}};
  for (const auto& r : cpu_rows) {
    const double cpu_rate = r.core_rate * 22.0;
    const double gpu_rate = cpu_rate * (3800.0 / 600.0);
    std::printf("  %-36s %12.3e  switch/CPU=%7.0fx  switch/GPU=%6.0fx\n",
                r.name, cpu_rate, switch_rate / cpu_rate,
                switch_rate / gpu_rate);
  }
  std::printf("  (paper: switch >3800x CPU, >600x GPU; the ratio grows with "
              "model size because switch throughput is size-independent)\n");
  std::printf("  %-36s %12.3e  (measured; simulator, not switch speed)\n",
              "[software pipeline simulator]", sim_rate);
  std::printf("  %-36s %12.3e  (measured; batched engine, batch=%zu)\n",
              "[software simulator, batched]", sim_batch_rate, batch_rows);
  std::printf("  %-36s %12.3e  (measured; host-side fuzzy reference)\n",
              "[host fuzzy evaluator]", host_fuzzy_rate);
  return 0;
}
