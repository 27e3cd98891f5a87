// Tests of the benchmark's own logic: the order statistics it reports, the
// open-loop send schedule, mapping a live server's decision counters back
// to each decision, and the replay that every live run is checked against.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "replay.hpp"
#include "runtime/stream_server.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "traffic/synthetic.hpp"
#include "workloads.hpp"

namespace {

namespace pb = pegasus::perfbench;
namespace rt = pegasus::runtime;
namespace tr = pegasus::traffic;

TEST(Stats, MedianOddEvenEmpty) {
  EXPECT_DOUBLE_EQ(pb::Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(pb::Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(pb::Median({}), 0.0);
}

TEST(Stats, NearestRankPercentile) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(pb::Percentile(v, 50.0), 500.0);
  EXPECT_DOUBLE_EQ(pb::Percentile(v, 99.0), 990.0);
  EXPECT_DOUBLE_EQ(pb::Percentile(v, 99.9), 999.0);
  EXPECT_DOUBLE_EQ(pb::Percentile(v, 100.0), 1000.0);
  EXPECT_DOUBLE_EQ(pb::Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(pb::Percentile({7.0}, 99.0), 7.0);
}

TEST(Schedule, RescaleHitsTargetMeanRate) {
  // Irregular capture clock: bursts and gaps.
  std::vector<std::uint64_t> ts;
  std::uint64_t t = 1'000'000;
  for (int i = 0; i < 5000; ++i) {
    t += (i % 10 == 0) ? 9000 : 7;
    ts.push_back(t);
  }
  const auto send = pb::RescaleToRate(ts, 100'000.0);
  ASSERT_EQ(send.size(), ts.size());
  EXPECT_DOUBLE_EQ(send.front(), 0.0);
  const double mean_rate = static_cast<double>(send.size() - 1) / send.back();
  EXPECT_NEAR(mean_rate, 100'000.0, 1e-6);
  // Linear rescale: relative spacing is kept.
  const double k = send.back() / static_cast<double>(ts.back() - ts.front());
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_NEAR(send[i], k * static_cast<double>(ts[i] - ts.front()), 1e-12);
  }
  // A capture with no time span is spread evenly at the same rate.
  const auto flat = pb::RescaleToRate(std::vector<std::uint64_t>(11, 5), 10.0);
  EXPECT_DOUBLE_EQ(flat.back(), 1.0);
  EXPECT_DOUBLE_EQ(flat[5], 0.5);
  EXPECT_THROW(pb::RescaleToRate(std::vector<std::uint64_t>{2, 1}, 1.0),
               std::invalid_argument);
}

TEST(SeenTimes, MapsEachShardsRankToTheFirstPollPastIt) {
  pb::PollLog log(2);
  log.Add(1.0, std::vector<std::uint64_t>{0, 2});
  log.Add(2.0, std::vector<std::uint64_t>{3, 2});
  log.Add(3.0, std::vector<std::uint64_t>{3, 4});
  // Shard-major: three decisions of shard 0, then four of shard 1, then
  // one more of shard 1 that no poll saw.
  const std::vector<std::uint32_t> shard_of{0, 0, 0, 1, 1, 1, 1, 1};
  const auto seen = pb::SeenTimes(shard_of, log);
  const std::vector<double> want{2.0, 2.0, 2.0, 1.0, 1.0, 3.0, 3.0};
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(seen[i], want[i]) << i;
  EXPECT_TRUE(std::isnan(seen[7]));
}

/// A tiny single-threaded run where the clock is the packet counter: the
/// poll after push k happens at "time" k, so the j-th decision must map to
/// the push that completed its batch — exactly, not approximately.
TEST(SeenTimes, TinySingleThreadedTraceIsExact) {
  const auto ds = tr::Generate(tr::PeerRushSpec(4, 11));
  const auto trace = tr::MergeTrace(ds.flows);
  const pb::Workload& w = *pb::FindWorkload("mlp-saturate");
  const pb::Models m = pb::BuildModels(w);
  rt::StreamServerOptions opts = pb::ServerOptions(w);
  opts.batch_size = 8;
  rt::StreamServer server(m.v[0], opts, 1);

  pb::PollLog log(1);
  std::vector<std::size_t> filled_by;  // decision -> pushing packet
  std::size_t pending = 0;
  for (std::size_t k = 0; k < trace.size(); ++k) {
    server.Push(trace[k]);
    const std::uint64_t before = pending;
    const std::uint64_t now = server.TelemetrySnapshot().shards[0].decisions;
    for (std::uint64_t j = before; j < now; ++j) filled_by.push_back(k);
    pending = now;
    log.Add(static_cast<double>(k), std::vector<std::uint64_t>{now});
  }
  server.Flush();
  const std::uint64_t total = server.TelemetrySnapshot().shards[0].decisions;
  log.Add(static_cast<double>(trace.size()), std::vector<std::uint64_t>{total});
  const auto decisions = server.TakeDecisions();
  ASSERT_EQ(decisions.size(), total);
  ASSERT_GT(total, 2 * opts.batch_size);

  const std::vector<std::uint32_t> shard_of(decisions.size(), 0);
  const auto seen = pb::SeenTimes(shard_of, log);
  for (std::size_t j = 0; j < decisions.size(); ++j) {
    const std::size_t batch_end =
        std::min<std::size_t>((j / opts.batch_size + 1) * opts.batch_size,
                              decisions.size());
    if (batch_end % opts.batch_size == 0) {
      // A full batch flushes inside the push of its last decision's packet.
      ASSERT_LT(j, filled_by.size());
      EXPECT_EQ(seen[j], static_cast<double>(filled_by[j])) << j;
      const auto& last = decisions[batch_end - 1];
      EXPECT_EQ(trace[filled_by[j]].flow, last.flow) << j;
      EXPECT_EQ(trace[filled_by[j]].index, last.index) << j;
    } else {
      // The partial tail batch is seen only after the final flush.
      EXPECT_EQ(seen[j], static_cast<double>(trace.size())) << j;
    }
  }
}

/// The replay the benchmark checks every run against must make the
/// server's decisions, including across model updates.
TEST(Replay, MatchesSingleThreadedServerAcrossUpdates) {
  for (const char* name : {"mlp-saturate", "paced-update"}) {
    const pb::Workload& w = *pb::FindWorkload(name);
    const pb::Models m = pb::BuildModels(w);
    const auto ds = tr::Generate(tr::PeerRushSpec(6, 23));
    const auto trace = tr::MergeTrace(ds.flows);
    const std::vector<std::size_t> update_at{trace.size() / 3,
                                             2 * trace.size() / 3};

    rt::StreamServerOptions opts = pb::ServerOptions(w);
    opts.multithreaded = false;
    rt::StreamServer server(m.v[0], opts, 1);
    pb::SpanRecorder rec(true, pb::SpanNames(), 1000);
    pb::Replay replay(w, m, rec);
    std::size_t next = 0;
    std::uint64_t version = 1;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      if (next < update_at.size() && update_at[next] == i) {
        ++next;
        ++version;
        if (m.delta) {
          server.SwapModelDelta(
              m.patches[m.IndexOfVersion(version) == 1 ? 0 : 1], version);
        } else {
          server.SwapModel(m.v[m.IndexOfVersion(version)], version);
        }
        replay.Update();
      }
      server.Push(trace[i]);
      rec.Begin(pb::kSpanPacket, i, 0);
      replay.Process(trace[i], i);
      rec.End();
    }
    server.Flush();
    replay.Finish();
    const auto got = server.TakeDecisions();
    const auto want = replay.TakeDecisions();
    ASSERT_EQ(got.size(), want.size()) << name;
    std::size_t versions_seen = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].flow, want[i].flow);
      EXPECT_EQ(got[i].index, want[i].index);
      EXPECT_EQ(got[i].predicted, want[i].predicted);
      EXPECT_EQ(got[i].score, want[i].score);
      EXPECT_EQ(got[i].version, want[i].version);
      versions_seen = std::max<std::size_t>(versions_seen, got[i].version);
    }
    EXPECT_EQ(versions_seen, 3u) << name;
    EXPECT_EQ(replay.shadow_mismatches(), 0u) << name;
    EXPECT_GT(replay.shadow_packets(), 0u) << name;
    EXPECT_EQ(replay.updates(), 2u) << name;
  }
}

TEST(SpanRecorder, SelfTimeExcludesChildren) {
  pb::SpanRecorder rec(true, {"parent", "child"}, 10);
  rec.Begin(0, 1, 0);
  rec.Begin(1, 1, 0);
  rec.End();
  rec.Next(0, 2, 0);  // closes the root, opens a sibling root
  rec.End();
  EXPECT_EQ(rec.totals(0).count, 2u);
  EXPECT_EQ(rec.totals(1).count, 1u);
  EXPECT_EQ(rec.totals(0).total_ns - rec.totals(0).self_ns,
            rec.totals(1).total_ns);
  EXPECT_EQ(rec.stored(), 3u);
  pb::SpanRecorder off(false, {"x"}, 10);
  off.Begin(0, 0, 0);
  off.End();
  EXPECT_EQ(off.totals(0).count, 0u);
}

}  // namespace
