// The benchmark's own replay of a workload through the serving layers'
// public calls, shard by shard: StreamServer::ShardIndexOf, a
// FlowTable<OnlineFlowState> per shard built with the server's table
// options, OnlineFeatureExtractor::Update / Emit*, InferenceEngine::Infer
// per full batch, and at every update the same Clone + ApplyDelta (or whole
// model) the server publishes. It makes the decisions every live run is
// checked against, and, with a recording SpanRecorder, the per-layer time
// breakdown. A traced replay also fills its own PHVs for each batch and
// runs Pipeline::ProcessBatch on them (the "shadow" spans): that times the
// dataplane alone and checks it bit for bit against the engine's outputs.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dataplane/phv.hpp"
#include "runtime/flow_table.hpp"
#include "runtime/inference_engine.hpp"
#include "runtime/stream_server.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace pegasus::perfbench {

/// Span names of the traced replay, indexing SpanNames().
enum SpanName : std::uint32_t {
  kSpanPacket,
  kSpanIoDecode,
  kSpanRoute,
  kSpanFlowTable,
  kSpanFeatureUpdate,
  kSpanFeatureEmit,
  kSpanBatch,
  kSpanInfer,
  kSpanDecide,
  kSpanUpdate,
  kSpanClonePatch,
  kSpanEngineBuild,
  kSpanShadowFill,
  kSpanProcessBatch,
  kNumSpanNames,
};

std::vector<std::string> SpanNames();

/// True for spans that time serving work (a layer call or the server's
/// own decision emit), false for the harness's grouping spans and the
/// shadow dataplane pass, which repeats work the engine already did.
bool IsLayerSpan(std::uint32_t name);

class Replay {
 public:
  Replay(const Workload& w, const Models& models, SpanRecorder& rec);
  Replay(const Replay&) = delete;
  Replay& operator=(const Replay&) = delete;

  /// Processes one packet; `id` is its position in the trace (the caller
  /// holds the packet span open).
  void Process(const traffic::TracePacket& packet, std::uint64_t id);
  /// Publishes the next version at this packet boundary: flushes every
  /// shard's partial batch through the outgoing model, then serves the
  /// next one.
  void Update();
  /// Flushes every partial batch (end of trace).
  void Finish();

  /// Decisions, shard-major and in processing order within a shard.
  std::vector<runtime::StreamDecision> TakeDecisions();

  std::uint64_t decided() const { return decided_; }
  std::uint64_t shadow_packets() const { return shadow_packets_; }
  std::uint64_t shadow_table_hits() const { return shadow_hits_; }
  /// Shadow outputs that differed from the engine's.
  std::uint64_t shadow_mismatches() const { return shadow_mismatches_; }
  std::uint64_t updates() const { return updates_; }

 private:
  struct Pending {
    std::uint64_t digest = 0;
    std::uint32_t flow = 0;
    std::uint32_t index = 0;
    std::int32_t label = 0;
  };
  struct Shard {
    explicit Shard(const runtime::FlowTableOptions& o) : table(o) {}
    runtime::FlowTable<traffic::OnlineFlowState> table;
    std::vector<float> features;
    std::vector<Pending> meta;
    std::size_t pending = 0;
    std::unique_ptr<runtime::InferenceEngine> engine;
    std::vector<float> logits;
    std::vector<dataplane::Phv> shadow;
    std::vector<runtime::StreamDecision> out;
  };

  void Bind(Shard& shard);
  void Flush(Shard& shard, std::uint32_t track);
  void Shadow(Shard& shard, std::size_t n);

  const Workload& w_;
  const Models& models_;
  SpanRecorder& rec_;
  runtime::StreamServerOptions opts_;
  std::size_t dim_ = 0;
  traffic::OnlineFeatureExtractor extractor_;
  std::shared_ptr<const runtime::LoweredModel> model_;
  std::uint64_t version_ = 1;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint64_t batch_id_ = 0;
  std::uint64_t decided_ = 0;
  std::uint64_t shadow_packets_ = 0;
  std::uint64_t shadow_hits_ = 0;
  std::uint64_t shadow_mismatches_ = 0;
  std::uint64_t updates_ = 0;
};

}  // namespace pegasus::perfbench
