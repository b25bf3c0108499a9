#include "rl/sample_batch.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace stellaris::rl {
namespace {

SampleBatch make_batch(std::size_t n, std::uint64_t version, float base) {
  SampleBatch b;
  b.action_kind = nn::ActionKind::kContinuous;
  b.policy_version = version;
  b.obs = Tensor({n, 2});
  b.actions_cont = Tensor({n, 1});
  b.rewards = Tensor({n});
  b.dones = Tensor({n});
  b.behaviour_log_probs = Tensor({n});
  b.values = Tensor({n});
  for (std::size_t i = 0; i < n; ++i) {
    b.obs.at(i, 0) = base + static_cast<float>(i);
    b.rewards[i] = base * 10 + static_cast<float>(i);
    b.values[i] = base;
  }
  b.bootstrap_value = base + 100.0f;
  return b;
}

TEST(SampleBatch, SerializeRoundTripContinuous) {
  SampleBatch b = make_batch(5, 3, 1.0f);
  b.episode_returns = {12.5, -3.0};
  b.segments.push_back({0, 1.0f});
  b.segments.push_back({3, 2.0f});
  SampleBatch c = SampleBatch::deserialize(b.serialize());
  EXPECT_EQ(c.action_kind, b.action_kind);
  EXPECT_EQ(c.policy_version, 3u);
  EXPECT_EQ(c.obs.vec(), b.obs.vec());
  EXPECT_EQ(c.rewards.vec(), b.rewards.vec());
  EXPECT_FLOAT_EQ(c.bootstrap_value, b.bootstrap_value);
  EXPECT_EQ(c.episode_returns, b.episode_returns);
  ASSERT_EQ(c.segments.size(), 2u);
  EXPECT_EQ(c.segments[1].start, 3u);
  EXPECT_FLOAT_EQ(c.segments[1].bootstrap, 2.0f);
}

TEST(SampleBatch, SerializeRoundTripDiscrete) {
  SampleBatch b;
  b.action_kind = nn::ActionKind::kDiscrete;
  b.obs = Tensor({2, 3});
  b.actions_disc = {1, 2};
  b.rewards = Tensor({2});
  b.dones = Tensor({2});
  b.behaviour_log_probs = Tensor({2});
  b.values = Tensor({2});
  SampleBatch c = SampleBatch::deserialize(b.serialize());
  EXPECT_EQ(c.action_kind, nn::ActionKind::kDiscrete);
  EXPECT_EQ(c.actions_disc, b.actions_disc);
}

TEST(SampleBatch, ConcatStacksFieldsInOrder) {
  SampleBatch a = make_batch(3, 1, 0.0f);
  SampleBatch b = make_batch(2, 1, 10.0f);
  SampleBatch c = SampleBatch::concat({a, b});
  EXPECT_EQ(c.size(), 5u);
  EXPECT_FLOAT_EQ(c.obs.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(c.obs.at(3, 0), 10.0f);
  EXPECT_FLOAT_EQ(c.rewards[4], 101.0f);
}

TEST(SampleBatch, ConcatRecordsSegmentSeams) {
  SampleBatch a = make_batch(3, 1, 0.0f);
  SampleBatch b = make_batch(2, 1, 10.0f);
  SampleBatch c = SampleBatch::concat({a, b});
  const auto views = c.segment_views();
  ASSERT_EQ(views.size(), 2u);
  EXPECT_EQ(views[0].start, 0u);
  EXPECT_EQ(views[0].end, 3u);
  EXPECT_FLOAT_EQ(views[0].bootstrap, 100.0f);   // a's bootstrap
  EXPECT_EQ(views[1].start, 3u);
  EXPECT_EQ(views[1].end, 5u);
  EXPECT_FLOAT_EQ(views[1].bootstrap, 110.0f);  // b's bootstrap
}

TEST(SampleBatch, SegmentViewsDefaultToWholeBatch) {
  SampleBatch a = make_batch(4, 0, 1.0f);
  const auto views = a.segment_views();
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views[0].start, 0u);
  EXPECT_EQ(views[0].end, 4u);
  EXPECT_FLOAT_EQ(views[0].bootstrap, 101.0f);
}

TEST(SampleBatch, ConcatOfConcatKeepsAllSeams) {
  SampleBatch a = make_batch(2, 1, 0.0f);
  SampleBatch b = make_batch(2, 1, 1.0f);
  SampleBatch ab = SampleBatch::concat({a, b});
  SampleBatch c = make_batch(2, 1, 2.0f);
  SampleBatch abc = SampleBatch::concat({ab, c});
  EXPECT_EQ(abc.segment_views().size(), 3u);
  EXPECT_EQ(abc.size(), 6u);
}

TEST(SampleBatch, ConcatMergesEpisodeReturns) {
  SampleBatch a = make_batch(2, 1, 0.0f);
  a.episode_returns = {1.0};
  SampleBatch b = make_batch(2, 1, 0.0f);
  b.episode_returns = {2.0, 3.0};
  SampleBatch c = SampleBatch::concat({a, b});
  EXPECT_EQ(c.episode_returns, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(SampleBatch, ConcatMixedKindsThrows) {
  SampleBatch a = make_batch(2, 1, 0.0f);
  SampleBatch b;
  b.action_kind = nn::ActionKind::kDiscrete;
  EXPECT_THROW(SampleBatch::concat({a, b}), Error);
}

TEST(SampleBatch, ConcatEmptyListThrows) {
  EXPECT_THROW(SampleBatch::concat({}), Error);
}

TEST(SampleBatch, SelectExtractsRows) {
  SampleBatch a = make_batch(5, 2, 0.0f);
  a.advantages = Tensor({5}, {0, 1, 2, 3, 4});
  a.value_targets = Tensor({5}, {5, 6, 7, 8, 9});
  SampleBatch s = a.select({4, 0, 2});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_FLOAT_EQ(s.obs.at(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(s.obs.at(1, 0), 0.0f);
  EXPECT_FLOAT_EQ(s.advantages[2], 2.0f);
  EXPECT_FLOAT_EQ(s.value_targets[0], 9.0f);
}

TEST(SampleBatch, RoundTripThroughBytesPreservesAdvantages) {
  SampleBatch a = make_batch(3, 1, 0.0f);
  a.advantages = Tensor({3}, {1, 2, 3});
  a.value_targets = Tensor({3}, {4, 5, 6});
  SampleBatch c = SampleBatch::deserialize(a.serialize());
  EXPECT_TRUE(c.has_advantages());
  EXPECT_EQ(c.advantages.vec(), a.advantages.vec());
}

TEST(SampleBatch, DeserializeIntoMatchesDeserialize) {
  SampleBatch a = make_batch(4, 9, 2.0f);
  a.segments = {{0, 1.0f}, {2, -1.0f}};
  a.episode_returns = {12.5, -3.0};
  const auto bytes = a.serialize();

  const SampleBatch fresh = SampleBatch::deserialize(bytes);
  SampleBatch reused = make_batch(7, 1, 5.0f);  // stale, different shapes
  SampleBatch::deserialize_into(bytes, reused);

  EXPECT_EQ(reused.obs.vec(), fresh.obs.vec());
  EXPECT_EQ(reused.rewards.vec(), fresh.rewards.vec());
  EXPECT_EQ(reused.values.vec(), fresh.values.vec());
  EXPECT_EQ(reused.policy_version, 9u);
  EXPECT_EQ(reused.segments.size(), 2u);
  EXPECT_EQ(reused.segments[1].start, 2u);
  EXPECT_FLOAT_EQ(reused.segments[1].bootstrap, -1.0f);
  EXPECT_EQ(reused.episode_returns, fresh.episode_returns);
  EXPECT_EQ(reused.size(), 4u);  // stale rows from the old batch are gone
}

TEST(SampleBatch, DeserializeIntoIsAllocationFreeOnceWarm) {
  // A segmented batch, as concat() builds for learners: every container the
  // decode writes (tensors, the segment table and the wire scratch) must
  // keep its storage once warm, so no decode after the first allocates.
  SampleBatch a = make_batch(6, 2, 1.0f);
  a.segments = {{0, 1.5f}, {2, 2.5f}, {4, 3.5f}};
  a.episode_returns = {4.0, 5.0};
  const auto bytes = a.serialize();
  SampleBatch out;
  SampleBatch::deserialize_into(bytes, out);  // warm-up sizes the buffers
  const std::vector<const void*> storage = {
      out.obs.data().data(),      out.rewards.data().data(),
      out.segments.data(),        out.episode_returns.data(),
      out.wire_scratch.u64.data(), out.wire_scratch.f32.data(),
      out.wire_scratch.shape.data()};
  const std::uint64_t allocs_before = tensor_buffer_allocs();
  for (int i = 0; i < 10; ++i) SampleBatch::deserialize_into(bytes, out);
  EXPECT_EQ(tensor_buffer_allocs(), allocs_before);
  EXPECT_EQ(storage, (std::vector<const void*>{
                         out.obs.data().data(), out.rewards.data().data(),
                         out.segments.data(), out.episode_returns.data(),
                         out.wire_scratch.u64.data(),
                         out.wire_scratch.f32.data(),
                         out.wire_scratch.shape.data()}));
  EXPECT_EQ(out.obs.vec(), a.obs.vec());
  ASSERT_EQ(out.segments.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out.segments[i].start, a.segments[i].start);
    EXPECT_EQ(out.segments[i].bootstrap, a.segments[i].bootstrap);
  }
}

TEST(SampleBatch, SerializeIsSingleAllocationSized) {
  // The encoder precomputes the exact byte count; a second serialize of the
  // same batch must produce a buffer whose capacity equals its size.
  SampleBatch a = make_batch(5, 1, 0.5f);
  a.episode_returns = {1.0};
  const auto bytes = a.serialize();
  EXPECT_EQ(bytes.capacity(), bytes.size());
}

// The encoder as it was before it wrote length prefixes and elements
// straight into the writer: every u64 field staged in a vector, the segment
// table in two. serialize() must keep producing exactly these bytes.
std::vector<std::uint8_t> staged_encode(const SampleBatch& b) {
  ByteWriter w;
  auto put_tensor = [&](const Tensor& t) {
    const std::vector<std::uint64_t> dims(t.shape().begin(), t.shape().end());
    w.put_u64_span(dims);
    w.put_f32_span(t.vec());
  };
  w.put_u8(b.action_kind == nn::ActionKind::kContinuous ? 0 : 1);
  put_tensor(b.obs);
  put_tensor(b.actions_cont);
  w.put_u64_vector(std::vector<std::uint64_t>(b.actions_disc.begin(),
                                              b.actions_disc.end()));
  put_tensor(b.rewards);
  put_tensor(b.dones);
  put_tensor(b.behaviour_log_probs);
  put_tensor(b.values);
  w.put_f32(b.bootstrap_value);
  std::vector<std::uint64_t> seg_starts;
  std::vector<float> seg_boot;
  for (const auto& seg : b.segments) {
    seg_starts.push_back(seg.start);
    seg_boot.push_back(seg.bootstrap);
  }
  w.put_u64_span(seg_starts);
  w.put_f32_span(seg_boot);
  w.put_u64(b.policy_version);
  put_tensor(b.advantages);
  put_tensor(b.value_targets);
  w.put_f64_vector(b.episode_returns);
  return w.take();
}

TEST(SampleBatch, SerializeBytesEqualStagedEncoder) {
  // Segmented, continuous, with GAE outputs filled in.
  SampleBatch a = make_batch(6, 7, 2.0f);
  a.segments = {{0, 1.5f}, {2, -2.5f}, {5, 3.25f}};
  a.advantages = Tensor::full({6}, 0.75f);
  a.value_targets = Tensor::full({6}, -1.25f);
  a.episode_returns = {4.0, -5.5};
  const auto a_bytes = a.serialize();
  EXPECT_EQ(a_bytes, staged_encode(a));
  EXPECT_EQ(a_bytes.capacity(), a_bytes.size());
  // Discrete, no segments.
  SampleBatch d;
  d.action_kind = nn::ActionKind::kDiscrete;
  d.policy_version = 3;
  d.obs = Tensor::full({3, 4}, 0.5f);
  d.actions_disc = {2, 0, 5};
  d.rewards = Tensor::full({3}, 1.0f);
  d.dones = Tensor({3});
  d.behaviour_log_probs = Tensor::full({3}, -0.7f);
  d.values = Tensor::full({3}, 0.1f);
  d.bootstrap_value = 9.0f;
  EXPECT_EQ(d.serialize(), staged_encode(d));
}

// -- hostile payloads ----------------------------------------------------------
// Cache payloads are untrusted bytes: each malformed batch below is spliced
// out of a valid serialize() and must throw Error, never read out of bounds
// or escape as std::bad_alloc / std::length_error.

using Bytes = std::vector<std::uint8_t>;

Bytes cat(std::initializer_list<ByteSpan> parts) {
  Bytes out;
  for (const ByteSpan p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

// A 5-step batch with no segments and empty trailing fields, so the wire
// layout around the spliced fields is fixed.
SampleBatch hostile_base() { return make_batch(5, 1, 1.0f); }

// The base batch with its segment fields replaced by `starts` / `boots`.
Bytes with_segments(std::span<const std::uint64_t> starts,
                    std::span<const float> boots) {
  const Bytes valid = hostile_base().serialize();
  // Tail: policy version, empty advantages and value targets, empty
  // episode returns.
  const std::size_t tail = wire::size_u64() +
                           2 * (wire::size_u64_vector(0) +
                                wire::size_f32_vector(0)) +
                           wire::size_f64_vector(0);
  const std::size_t segs = wire::size_u64_vector(0) + wire::size_f32_vector(0);
  const ByteSpan all(valid);
  ByteWriter w;
  w.put_u64_span(starts);
  w.put_f32_span(boots);
  return cat({all.first(valid.size() - tail - segs), ByteSpan(w.bytes()),
              all.last(tail)});
}

// The base batch with its leading obs tensor replaced by `dims` and `data`,
// under an f32vec length prefix that claims `count` floats.
Bytes with_obs(std::span<const std::uint64_t> dims, std::uint64_t count,
               std::span<const float> data) {
  const SampleBatch base = hostile_base();
  const Bytes valid = base.serialize();
  const std::size_t obs = wire::size_u64_vector(base.obs.rank()) +
                          wire::size_f32_vector(base.obs.numel());
  ByteWriter w;
  w.put_u64_span(dims);
  w.put_f32_span(data);
  Bytes field = w.take();
  std::memcpy(field.data() + wire::size_u64_vector(dims.size()) + 1, &count,
              sizeof(count));
  const ByteSpan all(valid);
  return cat({all.first(1), ByteSpan(field), all.subspan(1 + obs)});
}

TEST(SampleBatch, SplicedPayloadsRoundTrip) {
  // Control: the splicing itself produces decodable payloads.
  const std::vector<std::uint64_t> starts{0, 2, 5};
  const std::vector<float> boots{1.0f, 2.0f, 3.0f};
  const SampleBatch b = SampleBatch::deserialize(with_segments(starts, boots));
  ASSERT_EQ(b.segments.size(), 3u);
  EXPECT_EQ(b.segments[1].start, 2u);
  EXPECT_FLOAT_EQ(b.segments[2].bootstrap, 3.0f);
  const std::vector<std::uint64_t> dims{5, 2};
  const std::vector<float> data(10, 0.5f);
  EXPECT_EQ(SampleBatch::deserialize(with_obs(dims, 10, data)).obs.vec(),
            data);
}

TEST(SampleBatch, DeserializeRejectsHostileSegments) {
  using U = std::vector<std::uint64_t>;
  using F = std::vector<float>;
  // Fewer bootstraps than starts (was a heap out-of-bounds read), and more.
  EXPECT_THROW(SampleBatch::deserialize(with_segments(U{0, 3}, F{1.0f})),
               Error);
  EXPECT_THROW(SampleBatch::deserialize(with_segments(U{0}, F{1.0f, 2.0f})),
               Error);
  // Starts must be non-decreasing and within the 5 steps.
  EXPECT_THROW(
      SampleBatch::deserialize(with_segments(U{0, 4, 2}, F{1.0f, 2.0f, 3.0f})),
      Error);
  EXPECT_THROW(SampleBatch::deserialize(with_segments(U{0, 6}, F{1.0f, 2.0f})),
               Error);
}

TEST(SampleBatch, DeserializeRejectsHostileShapes) {
  using U = std::vector<std::uint64_t>;
  const std::vector<float> two{1.0f, 2.0f};
  // (2^63 + 1) x 2 wraps to 2 elements, which the data would match.
  EXPECT_THROW(
      SampleBatch::deserialize(with_obs(U{(1ull << 63) + 1, 2}, 2, two)),
      Error);
  // A shape far larger than the payload must not be allocated.
  EXPECT_THROW(SampleBatch::deserialize(with_obs(U{1ull << 62}, 0, {})),
               Error);
  // A data length prefix inflated so count * 4 wraps to 4 bytes.
  EXPECT_THROW(
      SampleBatch::deserialize(with_obs(U{5, 2}, (1ull << 62) + 1, two)),
      Error);
}

}  // namespace
}  // namespace stellaris::rl
