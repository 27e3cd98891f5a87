#include "replay.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "fixedpoint/fixedpoint.hpp"

namespace pegasus::perfbench {

namespace rt = pegasus::runtime;
namespace tr = pegasus::traffic;

std::vector<std::string> SpanNames() {
  return {"packet",
          "io.decode",
          "stream_server.route",
          "flow_table.find_or_insert",
          "features.update",
          "features.emit",
          "batch",
          "inference_engine.infer",
          "stream_server.decide",
          "update",
          "control.clone_patch",
          "inference_engine.build",
          "dataplane.phv_fill",
          "dataplane.process_batch"};
}

bool IsLayerSpan(std::uint32_t name) {
  switch (name) {
    case kSpanPacket:
    case kSpanBatch:
    case kSpanUpdate:
    case kSpanShadowFill:
    case kSpanProcessBatch:
      return false;
    default:
      return name < kNumSpanNames;
  }
}

Replay::Replay(const Workload& w, const Models& models, SpanRecorder& rec)
    : w_(w),
      models_(models),
      rec_(rec),
      opts_(ServerOptions(w)),
      dim_(rt::FeatureDim(w.feature)),
      model_(models.v[0]) {
  if (w.feature == rt::FeatureKind::kRaw) {
    throw std::invalid_argument("Replay: raw-byte workloads are not replayed");
  }
  rt::FlowTableOptions topts;
  topts.capacity = opts_.flows_per_shard;
  topts.max_probe = opts_.max_probe;
  topts.layout = opts_.table_layout;
  topts.eviction = opts_.table_eviction;
  for (std::size_t s = 0; s < opts_.num_shards; ++s) {
    auto shard = std::make_unique<Shard>(topts);
    shard->features.resize(opts_.batch_size * dim_);
    shard->meta.resize(opts_.batch_size);
    Bind(*shard);
    shards_.push_back(std::move(shard));
  }
}

void Replay::Bind(Shard& shard) {
  shard.engine =
      std::make_unique<rt::InferenceEngine>(*model_, opts_.batch_size);
  shard.logits.assign(opts_.batch_size * model_->OutputDim(), 0.0f);
  shard.shadow.clear();
  if (rec_.enabled()) {
    shard.shadow.reserve(opts_.batch_size);
    for (std::size_t i = 0; i < opts_.batch_size; ++i) {
      shard.shadow.emplace_back(model_->layout());
    }
  }
}

void Replay::Process(const tr::TracePacket& packet, std::uint64_t id) {
  rec_.Begin(kSpanRoute, id, 0);
  Shard& shard = *shards_[rt::StreamServer::ShardIndexOf(packet.key.digest,
                                                         shards_.size())];
  rec_.Next(kSpanFlowTable, id, 0);
  tr::OnlineFlowState& state = shard.table.FindOrInsert(packet.key);
  rec_.Next(kSpanFeatureUpdate, id, 0);
  extractor_.Update(state, *packet.packet, packet.ts_us);
  if (!state.WindowFull()) {
    rec_.End();
    return;
  }
  rec_.Next(kSpanFeatureEmit, id, 0);
  float* row = shard.features.data() + shard.pending * dim_;
  if (w_.feature == rt::FeatureKind::kStat) {
    extractor_.EmitStat(state, row);
  } else {
    extractor_.EmitSeq(state, row);
  }
  rec_.End();
  shard.meta[shard.pending] = {packet.key.digest, packet.flow, packet.index,
                               packet.label};
  if (++shard.pending == opts_.batch_size) Flush(shard, 0);
}

void Replay::Flush(Shard& shard, std::uint32_t track) {
  const std::size_t n = shard.pending;
  if (n == 0) return;
  const std::uint64_t batch = batch_id_++;
  const std::size_t out_dim = model_->OutputDim();
  rec_.Begin(kSpanBatch, batch, track);
  rec_.Begin(kSpanInfer, batch, track);
  shard.engine->Infer(std::span<const float>(shard.features.data(), n * dim_),
                      n, std::span<float>(shard.logits.data(), n * out_dim));
  rec_.Next(kSpanDecide, batch, track);
  // Same argmax and decision record as the server's batch flush.
  for (std::size_t i = 0; i < n; ++i) {
    const float* row = shard.logits.data() + i * out_dim;
    std::size_t best = 0;
    for (std::size_t d = 1; d < out_dim; ++d) {
      if (row[d] > row[best]) best = d;
    }
    rt::StreamDecision decision;
    decision.flow_digest = shard.meta[i].digest;
    decision.flow = shard.meta[i].flow;
    decision.index = shard.meta[i].index;
    decision.label = shard.meta[i].label;
    decision.predicted = static_cast<std::int32_t>(best);
    decision.score = row[best];
    decision.version = version_;
    shard.out.push_back(decision);
  }
  rec_.End();
  if (rec_.enabled()) Shadow(shard, n);
  rec_.End();
  decided_ += n;
  shard.pending = 0;
}

void Replay::Shadow(Shard& shard, std::size_t n) {
  // The engine's parser step, done by hand on the benchmark's own PHVs:
  // zeroed PHV, rounded and clamped features, parser initial values.
  rec_.Begin(kSpanShadowFill, batch_id_ - 1, 0);
  const auto& input_fields = model_->input_fields();
  const std::int64_t dmax = (std::int64_t{1} << model_->input_bits()) - 1;
  for (std::size_t i = 0; i < n; ++i) {
    dataplane::Phv& phv = shard.shadow[i];
    phv.Reset();
    const float* row = shard.features.data() + i * dim_;
    for (std::size_t d = 0; d < input_fields.size(); ++d) {
      phv.Set(input_fields[d],
              std::clamp<std::int64_t>(std::llround(row[d]), 0, dmax));
    }
    for (const auto& [field, value] : model_->parser_inits()) {
      phv.Set(field, value);
    }
  }
  rec_.Next(kSpanProcessBatch, batch_id_ - 1, 0);
  shadow_hits_ += model_->pipeline().ProcessBatch(
      std::span<dataplane::Phv>(shard.shadow.data(), n));
  rec_.End();
  shadow_packets_ += n;
  const auto& output_fields = model_->output_fields();
  const auto& quant = model_->output_quant();
  const std::size_t out_dim = output_fields.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < out_dim; ++d) {
      const auto value = static_cast<float>(fixedpoint::Dequantize(
          shard.shadow[i].Get(output_fields[d]) - quant[d].bias, quant[d].fmt));
      const float engine = shard.logits[i * out_dim + d];
      if (std::memcmp(&value, &engine, sizeof(float)) != 0) {
        ++shadow_mismatches_;
      }
    }
  }
}

void Replay::Update() {
  const std::uint64_t next = version_ + 1;
  const std::size_t to = models_.IndexOfVersion(next);
  rec_.Begin(kSpanUpdate, next, 1);
  // The replay keeps private copies: a delta update clones the serving
  // model and patches it (what SwapModelDelta does), a whole-model update
  // clones the published artifact.
  rec_.Begin(kSpanClonePatch, next, 1);
  std::shared_ptr<const rt::LoweredModel> incoming;
  if (models_.delta) {
    rt::LoweredModel clone = model_->Clone();
    clone.ApplyDelta(models_.patches[to == 1 ? 0 : 1]);
    incoming = std::make_shared<const rt::LoweredModel>(std::move(clone));
  } else {
    incoming =
        std::make_shared<const rt::LoweredModel>(models_.v[to]->Clone());
  }
  rec_.End();
  for (auto& shard : shards_) Flush(*shard, 1);
  rec_.Begin(kSpanEngineBuild, next, 1);
  model_ = std::move(incoming);
  version_ = next;
  for (auto& shard : shards_) Bind(*shard);
  rec_.End();
  rec_.End();
  ++updates_;
}

void Replay::Finish() {
  for (auto& shard : shards_) Flush(*shard, 0);
}

std::vector<rt::StreamDecision> Replay::TakeDecisions() {
  std::vector<rt::StreamDecision> all;
  std::size_t total = 0;
  for (const auto& shard : shards_) total += shard->out.size();
  all.reserve(total);
  for (auto& shard : shards_) {
    all.insert(all.end(), shard->out.begin(), shard->out.end());
    shard->out.clear();
  }
  return all;
}

}  // namespace pegasus::perfbench
