// The flat batch kernel behind InferenceEngine must be bit-identical to the
// reference interpreter (a Phv fill + Pipeline::ProcessBatch): raw outputs
// and table hits, on every paper model, on random and edge rows, at batch
// sizes around the capacity, before and after an in-place delta — and on a
// hand-built pipeline that exercises every lookup shape and miss programs.
// An action reading past an entry's data, and an exact table, are rejected
// when the kernel is built, not on the first packet that hits the entry.
#include "dataplane/batch_kernel.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>

#include "compiler/compiler.hpp"
#include "core/operators.hpp"
#include "dataplane/pipeline.hpp"
#include "eval/experiment.hpp"
#include "models/autoencoder.hpp"
#include "models/cnn_b.hpp"
#include "models/cnn_l.hpp"
#include "models/cnn_m.hpp"
#include "models/mlp_b.hpp"
#include "models/rnn_b.hpp"
#include "pipeline_oracle.hpp"
#include "runtime/inference_engine.hpp"

namespace core = pegasus::core;
namespace dp = pegasus::dataplane;
namespace ev = pegasus::eval;
namespace md = pegasus::models;
namespace rt = pegasus::runtime;
namespace tr = pegasus::traffic;

namespace {

/// Random rows spread a little past the quantized domain on both sides,
/// followed by edge rows: 0, dmax, negative, above dmax, rounding ties and
/// non-finite values, cycled across the dimensions.
std::vector<float> TestRows(std::size_t n_random, std::size_t dim, int bits,
                            std::uint64_t seed) {
  const auto dmax = static_cast<float>((std::int64_t{1} << bits) - 1);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-2.0f, dmax + 2.0f);
  std::vector<float> x;
  for (std::size_t i = 0; i < n_random * dim; ++i) {
    x.push_back(std::floor(dist(rng)));
  }
  const float edges[] = {0.0f,
                         dmax,
                         -1.0f,
                         -1000.0f,
                         dmax + 1.0f,
                         1e6f,
                         0.5f,
                         0.49999997f,
                         2.5f,
                         dmax - 0.5f,
                         std::numeric_limits<float>::infinity(),
                         std::numeric_limits<float>::quiet_NaN()};
  const std::size_t num_edges = std::size(edges);
  for (std::size_t r = 0; r < num_edges; ++r) {
    for (std::size_t d = 0; d < dim; ++d) {
      x.push_back(edges[(r + d) % num_edges]);
    }
  }
  // Uniform edge rows: every field at the same extreme.
  for (const float v : {0.0f, dmax, -1.0f, dmax + 1.0f}) {
    for (std::size_t d = 0; d < dim; ++d) x.push_back(v);
  }
  return x;
}

/// Runs `rows` (n_total of them) through engines of several capacities in
/// calls of several sizes and checks each call against the oracle.
void ExpectEngineMatchesOracle(const rt::LoweredModel& model,
                               const std::vector<float>& rows,
                               const std::string& what) {
  const std::size_t in_dim = model.InputDim();
  const std::size_t out_dim = model.OutputDim();
  const std::size_t n_total = rows.size() / in_dim;
  for (const std::size_t capacity : {1u, 7u, 64u}) {
    rt::InferenceEngine engine(model, capacity);
    for (const std::size_t n : {1u, 7u, 64u, 65u}) {
      // Walk the whole row set in calls of n rows (the last call shorter).
      for (std::size_t first = 0; first < n_total; first += n) {
        const std::size_t count = std::min(n, n_total - first);
        const std::span<const float> x(rows.data() + first * in_dim,
                                       count * in_dim);
        const auto oracle = pegasus::testing::RunOracle(model, x, count);
        std::vector<std::int64_t> raw(count * out_dim);
        const std::uint64_t hits_before = engine.stats().table_hits;
        engine.InferRaw(x, count, raw);
        ASSERT_EQ(raw, oracle.raw) << what << ": capacity " << capacity
                                   << ", call of " << n << " rows at row "
                                   << first;
        ASSERT_EQ(engine.stats().table_hits - hits_before, oracle.table_hits)
            << what << ": capacity " << capacity << ", call of " << n
            << " rows at row " << first;
      }
    }
  }
}

/// Rewrites the action data of every entry of every Map table (match and
/// priority unchanged, so the compiled indexes absorb it in place).
std::vector<dp::TablePatch> EveryEntryPatch(const core::CompiledModel& model) {
  std::vector<dp::TablePatch> patches;
  const rt::LoweringOptions defaults;
  for (std::size_t oi = 0; oi < model.program().ops().size(); ++oi) {
    if (!model.tables()[oi].has_value()) continue;
    const rt::TableLowering tl = rt::LowerMapEntries(
        model, oi, defaults.max_ternary_entries_per_table);
    dp::TablePatch tp;
    tp.table = tl.name;
    for (std::size_t li = 0; li < tl.leaves.size(); ++li) {
      std::vector<dp::TableEntry> entries;
      rt::AppendLeafEntries(tl, tl.leaves[li], entries);
      for (std::size_t j = 0; j < entries.size(); ++j) {
        dp::EntryPatch p;
        p.entry_index = tl.entry_first[li] + j;
        p.ternary = entries[j].ternary;
        p.range_lo = entries[j].range_lo;
        p.range_hi = entries[j].range_hi;
        p.priority = entries[j].priority;
        p.action_data = entries[j].action_data;
        for (std::size_t w = 0; w < p.action_data.size(); ++w) {
          p.action_data[w] += static_cast<std::int64_t>(w % 3) + 1;
        }
        tp.patches.push_back(std::move(p));
      }
    }
    patches.push_back(std::move(tp));
  }
  return patches;
}

const ev::PreparedDataset& Data() {
  static const ev::PreparedDataset prep =
      ev::Prepare(tr::PeerRushSpec(30, 17));
  return prep;
}

/// A trained paper model and the compiled programs it places on the
/// switch: CNN-L's end-to-end program overflows the PHV, so the switch
/// carries its per-packet extractor and its window classifier separately.
struct PaperModel {
  std::unique_ptr<md::TrainedModel> owner;
  std::vector<const core::CompiledModel*> placed;
};

PaperModel TrainPaperModel(const std::string& name) {
  const auto& prep = Data();
  const auto& stat = prep.stat.train;
  const auto& seq = prep.seq.train;
  PaperModel m;
  if (name == "MlpB") {
    md::MlpBConfig cfg;
    cfg.epochs = 2;
    m.owner = md::MlpB::Train(stat.x, stat.labels, stat.size(), stat.dim,
                              prep.num_classes, cfg);
  } else if (name == "RnnB") {
    md::RnnBConfig cfg;
    cfg.epochs = 2;
    m.owner = md::RnnB::Train(seq.x, seq.labels, seq.size(), seq.dim,
                              prep.num_classes, cfg);
  } else if (name == "CnnB") {
    md::CnnBConfig cfg;
    cfg.epochs = 2;
    m.owner = md::CnnB::Train(seq.x, seq.labels, seq.size(), seq.dim,
                              prep.num_classes, cfg);
  } else if (name == "CnnM") {
    md::CnnMConfig cfg;
    cfg.epochs = 2;
    m.owner = md::CnnM::Train(seq.x, seq.labels, seq.size(), seq.dim,
                              prep.num_classes, cfg);
  } else if (name == "CnnL") {
    md::CnnLConfig cfg;
    cfg.epochs = 1;
    const auto& raw = prep.raw.train;
    auto cnn_l = md::CnnL::Train(raw.x, seq.x, raw.labels, raw.size(),
                                 prep.num_classes, cfg);
    m.placed = {&cnn_l->CompiledExtractor(), &cnn_l->CompiledClassifier()};
    m.owner = std::move(cnn_l);
    return m;
  } else {
    md::AutoencoderConfig cfg;
    cfg.epochs = 2;
    m.owner = md::Autoencoder::Train(seq.x, seq.size(), seq.dim, cfg);
  }
  m.placed = {&m.owner->Compiled()};
  return m;
}

}  // namespace

class PaperModelKernel : public ::testing::TestWithParam<const char*> {};

TEST_P(PaperModelKernel, BitIdenticalToProcessBatchBeforeAndAfterDelta) {
  const PaperModel model = TrainPaperModel(GetParam());
  for (std::size_t part = 0; part < model.placed.size(); ++part) {
    const core::CompiledModel& compiled = *model.placed[part];
    const rt::LoweredModel lowered = rt::Lower(compiled, {});
    const std::string what = std::string(GetParam()) + " part " +
                             std::to_string(part);
    const auto report = lowered.pipeline().MatchIndexReport();
    RecordProperty("part" + std::to_string(part) + "_lookups",
                   std::to_string(report.indexed_tables) + " indexed tables, " +
                       std::to_string(report.intervals) + " intervals, " +
                       std::to_string(report.nibble_chunks) + " nibble chunks");
    const auto rows =
        TestRows(150, lowered.InputDim(), lowered.input_bits(), 7 + part);
    ExpectEngineMatchesOracle(lowered, rows, what + " sealed");

    // A clone patched in place: the kernel must serve the patched arena.
    rt::LoweredModel patched = lowered.Clone();
    patched.ApplyDelta(EveryEntryPatch(compiled));
    ExpectEngineMatchesOracle(patched, rows, what + " patched clone");
    rt::InferenceEngine before(lowered, 64);
    rt::InferenceEngine after(patched, 64);
    const std::size_t n = rows.size() / lowered.InputDim();
    std::vector<std::int64_t> a(n * lowered.OutputDim());
    std::vector<std::int64_t> b(n * lowered.OutputDim());
    before.InferRaw(rows, n, a);
    after.InferRaw(rows, n, b);
    EXPECT_NE(a, b) << what << ": the delta must show in the outputs";
  }
}

INSTANTIATE_TEST_SUITE_P(EveryPaperModel, PaperModelKernel,
                         ::testing::Values("MlpB", "RnnB", "CnnB", "CnnM",
                                           "CnnL", "Autoencoder"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

namespace {

using Kind = dp::ActionOp::Kind;

dp::ActionOp Op(Kind kind, dp::FieldId target, std::size_t data_index,
                std::int64_t imm = 0, std::int64_t sat_max = -1) {
  dp::ActionOp op;
  op.kind = kind;
  op.target = target;
  op.data_index = data_index;
  op.imm = imm;
  op.sat_max = sat_max;
  return op;
}

/// A pipeline with one table per lookup shape: narrow range (interval
/// array), wide range (interval search), narrow and wide ternary bitsets,
/// and an unindexed small table keyed on a field an earlier stage writes,
/// plus an empty table — with miss programs and every action op kind.
struct ShapePipeline {
  dp::PhvLayout layout;
  dp::Pipeline pipeline;
  dp::FieldId k_narrow, k_wide, k_tern, acc, o1, o2, o3;

  ShapePipeline() {
    std::mt19937_64 rng(99);
    k_narrow = layout.AddField("k_narrow", 8);
    k_wide = layout.AddField("k_wide", 16);
    k_tern = layout.AddField("k_tern", 12);
    acc = layout.AddField("acc", 16);
    o1 = layout.AddField("o1", 32);
    o2 = layout.AddField("o2", 32);
    o3 = layout.AddField("o3", 32);
    auto word = [&] { return static_cast<std::int64_t>(rng() % 2001) - 1000; };

    // Stage 0: a range table over a narrow and a wide field.
    auto range = std::make_unique<dp::MatchActionTable>(
        "range", dp::MatchKind::kRange,
        std::vector<dp::FieldId>{k_narrow, k_wide}, std::vector<int>{8, 16},
        std::vector<dp::ActionOp>{Op(Kind::kSetFromData, o1, 0),
                                  Op(Kind::kAddFromData, acc, 1, 0, 300)},
        32);
    for (int e = 0; e < 40; ++e) {
      dp::TableEntry entry;
      std::uint64_t a = rng() % 256, b = rng() % 256;
      std::uint64_t c = rng() % 60000, d = rng() % 60000;
      entry.range_lo = {std::min(a, b), std::min(c, d)};
      entry.range_hi = {std::max(a, b), std::max(c, d)};
      entry.priority = static_cast<int>(rng() % 4);
      entry.action_data = {word(), word() % 50 + 50};
      range->AddEntry(std::move(entry));
    }
    range->SetMissProgram({Op(Kind::kAddConst, acc, 0, 3, 300)}, {});
    pipeline.PlaceTable(std::move(range), 0);

    // Stage 0: ternary tables, one word and five words of bitset.
    for (const int entries : {40, 300}) {
      auto tern = std::make_unique<dp::MatchActionTable>(
          "tern" + std::to_string(entries), dp::MatchKind::kTernary,
          std::vector<dp::FieldId>{k_tern, k_narrow}, std::vector<int>{12, 8},
          std::vector<dp::ActionOp>{Op(Kind::kAddFromData, o2, 0),
                                    Op(Kind::kSetConst, o3, 0, 11),
                                    Op(Kind::kAddConst, acc, 0, 1, 300)},
          32);
      for (int e = 0; e < entries; ++e) {
        dp::TableEntry entry;
        entry.ternary = {{rng() % 4096, rng() % 4096 | (rng() % 2 ? 0xf00 : 0)},
                         {rng() % 256, rng() % 256}};
        entry.priority = static_cast<int>(rng() % 3);
        entry.action_data = {word()};
        tern->AddEntry(std::move(entry));
      }
      tern->SetMissProgram({Op(Kind::kSetFromData, o2, 1)}, {0, -7});
      pipeline.PlaceTable(std::move(tern), 0);
    }

    // Stage 1: a small table (sealed without an index) and an empty one.
    auto small = std::make_unique<dp::MatchActionTable>(
        "small", dp::MatchKind::kRange, std::vector<dp::FieldId>{acc},
        std::vector<int>{16},
        std::vector<dp::ActionOp>{Op(Kind::kSetFromData, o3, 0)}, 32);
    for (std::uint64_t lo : {0u, 60u, 120u}) {
      dp::TableEntry entry;
      entry.range_lo = {lo};
      entry.range_hi = {lo + 50};
      entry.priority = static_cast<int>(lo % 7);
      entry.action_data = {static_cast<std::int64_t>(lo) + 5};
      small->AddEntry(std::move(entry));
    }
    small->SetMissProgram({Op(Kind::kSetFromData, o3, 0)}, {42});
    pipeline.PlaceTable(std::move(small), 1);
    auto empty = std::make_unique<dp::MatchActionTable>(
        "empty", dp::MatchKind::kTernary, std::vector<dp::FieldId>{k_tern},
        std::vector<int>{12},
        std::vector<dp::ActionOp>{Op(Kind::kSetFromData, o1, 0)}, 32);
    empty->SetMissProgram({Op(Kind::kAddConst, o1, 0, -2)}, {});
    pipeline.PlaceTable(std::move(empty), 1);
  }
};

}  // namespace

TEST(BatchKernel, EveryLookupShapeMatchesProcessBatch) {
  const ShapePipeline sp;
  const std::size_t width = sp.layout.NumFields();
  dp::BatchKernel kernel(sp.pipeline, width, 65);

  std::mt19937_64 rng(5);
  // Keys stray outside every domain, negative included.
  auto key = [&](std::int64_t top) {
    return static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(top + 40)) - 20;
  };
  for (const std::size_t n : {1u, 7u, 64u, 65u}) {
    for (int round = 0; round < 20; ++round) {
      std::vector<dp::Phv> phvs(n, dp::Phv(sp.layout));
      std::vector<std::int64_t> rows(n * width, 0);
      for (std::size_t p = 0; p < n; ++p) {
        const std::int64_t values[] = {key(255), key(65535), key(4095),
                                       key(300)};
        const dp::FieldId fields[] = {sp.k_narrow, sp.k_wide, sp.k_tern,
                                      sp.acc};
        for (int i = 0; i < 4; ++i) {
          phvs[p].Set(fields[i], values[i]);
          rows[p * width + fields[i]] = values[i];
        }
      }
      const std::size_t want_hits =
          sp.pipeline.ProcessBatch(std::span<dp::Phv>(phvs));
      ASSERT_EQ(kernel.Run(rows.data(), n), want_hits) << "n " << n;
      for (std::size_t p = 0; p < n; ++p) {
        for (dp::FieldId f = 0; f < width; ++f) {
          ASSERT_EQ(rows[p * width + f], phvs[p].Get(f))
              << "n " << n << " row " << p << " field "
              << sp.layout.name(f);
        }
      }
    }
  }
  EXPECT_THROW(kernel.Run(std::vector<std::int64_t>(66 * width).data(), 66),
               std::invalid_argument);
}

TEST(BatchKernel, RejectsActionDataIndexPastEntryDataAtBuild) {
  dp::PhvLayout layout;
  const auto k = layout.AddField("k", 8);
  const auto o = layout.AddField("o", 16);
  auto table = std::make_unique<dp::MatchActionTable>(
      "short_data", dp::MatchKind::kRange, std::vector<dp::FieldId>{k},
      std::vector<int>{8},
      std::vector<dp::ActionOp>{Op(Kind::kSetFromData, o, 1)}, 16);
  for (std::uint64_t e = 0; e < 16; ++e) {
    dp::TableEntry entry;
    entry.range_lo = {e * 16};
    entry.range_hi = {e * 16 + 15};
    // Entry 9 holds one word; the program reads word 1.
    entry.action_data = e == 9 ? std::vector<std::int64_t>{1}
                               : std::vector<std::int64_t>{1, 2};
    table->AddEntry(std::move(entry));
  }
  dp::Pipeline pipeline;
  pipeline.PlaceTable(std::move(table), 0);
  EXPECT_THROW(dp::BatchKernel(pipeline, layout.NumFields(), 4),
               std::invalid_argument);
  // The interpreter only fails once a packet hits the short entry.
  dp::Phv phv(layout);
  phv.Set(k, 3);
  EXPECT_NO_THROW(pipeline.Process(phv));
  phv.Set(k, 9 * 16);
  EXPECT_THROW(pipeline.Process(phv), std::out_of_range);

  // A miss program reading past the miss data is rejected the same way.
  dp::Pipeline miss_pipeline;
  auto miss = std::make_unique<dp::MatchActionTable>(
      "short_miss", dp::MatchKind::kRange, std::vector<dp::FieldId>{k},
      std::vector<int>{8}, std::vector<dp::ActionOp>{}, 16);
  miss->SetMissProgram({Op(Kind::kAddFromData, o, 2)}, {1, 2});
  miss_pipeline.PlaceTable(std::move(miss), 0);
  EXPECT_THROW(dp::BatchKernel(miss_pipeline, layout.NumFields(), 4),
               std::invalid_argument);
}

TEST(BatchKernel, EngineBuildRejectsAPushWithShortActionData) {
  // A model installed from a control-plane push whose entry carries fewer
  // action words than the table's program reads.
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<float> dist(0.0f, 255.0f);
  std::vector<float> x(2000 * 4);
  for (float& v : x) v = std::floor(dist(rng));
  core::ProgramBuilder b(4);
  const auto segs = b.Partition(b.input(), 2, 2);
  std::vector<core::ValueId> maps;
  maps.push_back(b.Map(
      segs[0], core::MakeLinear({0.05f, -0.02f, 0.01f, 0.04f}, 2, 2, {}), 32));
  maps.push_back(b.Map(
      segs[1], core::MakeLinear({-0.03f, 0.02f, 0.02f, 0.01f}, 2, 2, {}), 32));
  const auto sum = b.SumReduce(std::span<const core::ValueId>(maps));
  const auto compiled =
      pegasus::compiler::CompileToSwitch(b.Finish(sum), x, 2000);

  const rt::LoweringOptions lopts;
  std::vector<rt::TableEntryPush> pushes;
  for (std::size_t oi = 0; oi < compiled.model.program().ops().size(); ++oi) {
    if (!compiled.model.tables()[oi].has_value()) continue;
    const rt::TableLowering tl = rt::LowerMapEntries(
        compiled.model, oi, lopts.max_ternary_entries_per_table);
    rt::TableEntryPush push;
    push.table = tl.name;
    push.kind = tl.use_range ? dp::MatchKind::kRange : dp::MatchKind::kTernary;
    for (const rt::LoweredLeaf& ll : tl.leaves) {
      rt::AppendLeafEntries(tl, ll, push.entries);
    }
    pushes.push_back(std::move(push));
  }
  // The intact push installs and serves.
  const rt::LoweredModel intact =
      rt::LowerFromPush(compiled.model, lopts, pushes);
  EXPECT_NO_THROW(rt::InferenceEngine(intact, 4));
  ASSERT_FALSE(pushes.empty());
  ASSERT_GE(pushes[0].entries.size(), 2u);
  pushes[0].entries[1].action_data.pop_back();
  const rt::LoweredModel broken =
      rt::LowerFromPush(compiled.model, lopts, pushes);
  EXPECT_THROW(rt::InferenceEngine(broken, 4), std::invalid_argument);
}

TEST(BatchKernel, RejectsExactTablesAtBuild) {
  dp::PhvLayout layout;
  const auto k = layout.AddField("k", 8);
  const auto o = layout.AddField("o", 16);
  auto exact = std::make_unique<dp::MatchActionTable>(
      "exact", dp::MatchKind::kExact, std::vector<dp::FieldId>{k},
      std::vector<int>{8},
      std::vector<dp::ActionOp>{Op(Kind::kSetFromData, o, 0)}, 16);
  for (std::uint64_t v = 0; v < 16; ++v) {
    dp::TableEntry entry;
    entry.exact_key = {v};
    entry.action_data = {static_cast<std::int64_t>(v)};
    exact->AddEntry(std::move(entry));
  }
  dp::Pipeline pipeline;
  pipeline.PlaceTable(std::move(exact), 0);
  EXPECT_THROW(dp::BatchKernel(pipeline, layout.NumFields(), 4),
               std::invalid_argument);
}
