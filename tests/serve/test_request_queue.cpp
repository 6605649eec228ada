/// \file test_request_queue.cpp
/// RequestQueue semantics: batch popping respects the per-model max_batch
/// (read from the policy lookup when the batch opens), the batching window
/// flushes partial batches on timeout (clamped to the earliest collected
/// deadline), interactive lanes drain before bulk, a batch never mixes
/// models, close() wakes blocked consumers AND producers blocked on
/// backpressure while letting queued requests drain, and bounded capacity
/// applies backpressure to producers.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "serve/request_queue.hpp"

namespace {

using namespace dlpic::serve;
using namespace std::chrono_literals;

std::vector<double> sample(double v) { return std::vector<double>(4, v); }

/// A policy lookup that gives every model the same policy.
std::function<PopPolicy(size_t)> fixed(size_t max_batch, std::chrono::microseconds max_wait) {
  return [=](size_t) { return PopPolicy{max_batch, max_wait}; };
}

TEST(RequestQueue, PopsWhatWasPushed) {
  RequestQueue q;
  auto f0 = q.push(sample(1.0));
  auto f1 = q.push(sample(2.0));
  EXPECT_EQ(q.size(), 2u);

  std::vector<Request> batch;
  const size_t n = q.pop_batch(batch, fixed(8, 0us));
  ASSERT_EQ(n, 2u);
  EXPECT_DOUBLE_EQ(batch[0].input[0], 1.0);
  EXPECT_DOUBLE_EQ(batch[1].input[0], 2.0);
  EXPECT_EQ(q.size(), 0u);

  // The futures resolve through the popped requests' promises.
  batch[0].result.set_value(sample(10.0));
  batch[1].result.set_value(sample(20.0));
  EXPECT_DOUBLE_EQ(f0.get()[0], 10.0);
  EXPECT_DOUBLE_EQ(f1.get()[0], 20.0);
}

TEST(RequestQueue, RespectsMaxBatch) {
  RequestQueue q;
  for (int i = 0; i < 5; ++i) (void)q.push(sample(i));
  std::vector<Request> batch;
  EXPECT_EQ(q.pop_batch(batch, fixed(2, 0us)), 2u);
  EXPECT_EQ(q.pop_batch(batch, fixed(2, 0us)), 2u);
  EXPECT_EQ(q.pop_batch(batch, fixed(2, 0us)), 1u);
}

TEST(RequestQueue, TimeoutFlushesPartialBatch) {
  RequestQueue q;
  (void)q.push(sample(1.0));
  (void)q.push(sample(2.0));
  std::vector<Request> batch;
  // Asks for 8 but only 2 are coming: the batching window must close after
  // max_wait and flush the partial batch instead of blocking forever.
  const auto t0 = std::chrono::steady_clock::now();
  const size_t n = q.pop_batch(batch, fixed(8, 20ms));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(n, 2u);
  EXPECT_LT(elapsed, 5s);  // sanity: it returned by timeout, not by hanging
}

TEST(RequestQueue, BatchKeepsCollectingUntilFull) {
  RequestQueue q;
  (void)q.push(sample(0.0));
  std::thread late_producer([&] {
    std::this_thread::sleep_for(5ms);
    for (int i = 1; i < 4; ++i) (void)q.push(sample(i));
  });
  std::vector<Request> batch;
  // The window is generous; the batch must fill to 4 as requests trickle in.
  const size_t n = q.pop_batch(batch, fixed(4, 2'000'000us));
  late_producer.join();
  EXPECT_EQ(n, 4u);
}

TEST(RequestQueue, CloseDrainsThenSignalsExit) {
  RequestQueue q;
  for (int i = 0; i < 3; ++i) (void)q.push(sample(i));
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_THROW((void)q.push(sample(9.0)), std::runtime_error);

  std::vector<Request> batch;
  EXPECT_EQ(q.pop_batch(batch, fixed(8, 0us)), 3u);  // queued work still poppable
  EXPECT_EQ(q.pop_batch(batch, fixed(8, 0us)), 0u);  // drained: consumer exit signal
}

TEST(RequestQueue, CloseWakesBlockedConsumer) {
  RequestQueue q;
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    std::vector<Request> batch;
    // Blocks on the empty queue (the wait is not bounded by max_wait until
    // the first request arrives) — close() must wake it.
    EXPECT_EQ(q.pop_batch(batch, fixed(4, 10'000'000us)), 0u);
    returned = true;
  });
  std::this_thread::sleep_for(10ms);
  q.close();
  consumer.join();
  EXPECT_TRUE(returned);
}

TEST(RequestQueue, InteractiveLaneDrainsBeforeOlderBulk) {
  RequestQueue q;
  RequestOptions bulk;
  bulk.priority = Priority::kBulk;
  RequestOptions interactive;
  interactive.priority = Priority::kInteractive;
  // Bulk requests are older, yet the batch must lead with the interactive
  // lane (strict priority) and only then take bulk on leftover slots.
  (void)q.push(sample(1.0), bulk);
  (void)q.push(sample(2.0), bulk);
  (void)q.push(sample(3.0), interactive);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.size(Priority::kInteractive), 1u);
  EXPECT_EQ(q.size(Priority::kBulk), 2u);

  std::vector<Request> batch;
  ASSERT_EQ(q.pop_batch(batch, fixed(2, 0us)), 2u);
  EXPECT_EQ(batch[0].priority, Priority::kInteractive);
  EXPECT_DOUBLE_EQ(batch[0].input[0], 3.0);
  EXPECT_EQ(batch[1].priority, Priority::kBulk);
  EXPECT_DOUBLE_EQ(batch[1].input[0], 1.0);
  EXPECT_EQ(q.size(Priority::kBulk), 1u);
}

TEST(RequestQueue, BatchNeverMixesModels) {
  RequestQueue q;
  RequestOptions model0;
  RequestOptions model1;
  model1.model_id = 1;
  (void)q.push(sample(0.0), model0);
  (void)q.push(sample(1.0), model1);
  (void)q.push(sample(0.5), model0);

  // The head request is model 0, so the batch carries model 0 only; the
  // model-1 request stays queued for the next pop.
  std::vector<Request> batch;
  ASSERT_EQ(q.pop_batch(batch, fixed(8, 0us)), 2u);
  for (const auto& r : batch) EXPECT_EQ(r.model_id, 0u);
  ASSERT_EQ(q.pop_batch(batch, fixed(8, 0us)), 1u);
  EXPECT_EQ(batch[0].model_id, 1u);
}

TEST(RequestQueue, InteractiveHeadSelectsTheBatchModel) {
  RequestQueue q;
  RequestOptions bulk0;  // older, bulk, model 0
  RequestOptions inter1;
  inter1.priority = Priority::kInteractive;
  inter1.model_id = 1;
  (void)q.push(sample(0.0), bulk0);
  (void)q.push(sample(1.0), inter1);

  // The interactive lane outranks the older bulk request: the batch is
  // opened for ITS model.
  std::vector<Request> batch;
  ASSERT_EQ(q.pop_batch(batch, fixed(8, 0us)), 1u);
  EXPECT_EQ(batch[0].model_id, 1u);
  EXPECT_EQ(batch[0].priority, Priority::kInteractive);
}

TEST(RequestQueue, PerModelPoliciesApply) {
  RequestQueue q;
  RequestOptions model1;
  model1.model_id = 1;
  for (int i = 0; i < 4; ++i) (void)q.push(sample(i), model1);

  // Model 1's policy caps its batches at 3.
  const auto policy_of = [](size_t id) {
    return id == 1 ? PopPolicy{3, 0us} : PopPolicy{8, 0us};
  };
  std::vector<Request> batch;
  EXPECT_EQ(q.pop_batch(batch, policy_of), 3u);
  EXPECT_EQ(q.pop_batch(batch, policy_of), 1u);
}

// The policy is looked up once per batch, for the model the batch opens for,
// after the consumer wakes: a policy that changed while the consumer waited
// on an empty queue is the one that shapes the batch.
TEST(RequestQueue, PolicyIsReadWhenTheBatchOpens) {
  RequestQueue q;
  std::atomic<size_t> max_batch{1};
  std::vector<size_t> asked;  // written by the one consumer, read after join
  size_t popped = 0;
  std::thread consumer([&] {
    std::vector<Request> batch;
    popped = q.pop_batch(batch, [&](size_t id) {
      asked.push_back(id);
      return PopPolicy{max_batch.load(), 5'000'000us};
    });
  });
  std::this_thread::sleep_for(20ms);  // the consumer blocks on the empty queue
  max_batch = 3;
  RequestOptions model2;
  model2.model_id = 2;
  std::vector<std::future<std::vector<double>>> futures;
  for (int i = 0; i < 3; ++i) futures.push_back(q.push(sample(i), model2));
  consumer.join();
  EXPECT_EQ(popped, 3u) << "the batch did not fill under the policy read as it opened";
  EXPECT_EQ(asked, std::vector<size_t>{2});
}

TEST(RequestQueue, CollectedDeadlineClampsTheBatchingWindow) {
  RequestQueue q;
  RequestOptions options;
  options.deadline = std::chrono::steady_clock::now() + 30ms;
  (void)q.push(sample(1.0), options);

  // The window asks for 10 s, but the collected request expires in ~30 ms:
  // the partial batch must flush around the deadline, not the window.
  std::vector<Request> batch;
  const auto t0 = std::chrono::steady_clock::now();
  const size_t n = q.pop_batch(batch, fixed(8, 10'000'000us));
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(n, 1u);
  EXPECT_LT(elapsed, 5s);
}

TEST(RequestQueue, ExpiredRequestsAreStillHandedToTheConsumer) {
  // The queue never touches promises: failing expired requests is the
  // batcher's job, so pop_batch must return them like any other request.
  RequestQueue q;
  RequestOptions expired;
  expired.deadline = std::chrono::steady_clock::now() - 1s;
  auto future = q.push(sample(1.0), expired);
  std::vector<Request> batch;
  ASSERT_EQ(q.pop_batch(batch, fixed(8, 0us)), 1u);
  EXPECT_LT(batch[0].deadline, std::chrono::steady_clock::now());
  batch[0].result.set_exception(std::make_exception_ptr(DeadlineExpired()));
  EXPECT_THROW(future.get(), DeadlineExpired);
}

TEST(RequestQueue, RejectsModelIdBeyondTableBound) {
  // The per-lane FIFO tables are sized by model id; an unchecked id would
  // let a buggy caller allocate (or overflow) the table.
  RequestQueue q;
  RequestOptions options;
  options.model_id = kMaxModels;
  EXPECT_THROW((void)q.push(sample(1.0), options), std::invalid_argument);
  options.model_id = SIZE_MAX;
  EXPECT_THROW((void)q.push(sample(1.0), options), std::invalid_argument);
  // Same for a priority value outside the lane table.
  RequestOptions bad_lane;
  bad_lane.priority = static_cast<Priority>(2);
  EXPECT_THROW((void)q.push(sample(1.0), bad_lane), std::invalid_argument);
  EXPECT_EQ(q.size(), 0u);
}

TEST(RequestQueue, CloseWakesProducerBlockedOnBackpressure) {
  RequestQueue q(/*capacity=*/1);
  (void)q.push(sample(0.0));

  std::atomic<bool> threw{false};
  std::thread producer([&] {
    // Blocks on the full queue; close() must wake it and push must throw
    // instead of enqueueing into a closed queue.
    try {
      (void)q.push(sample(1.0));
    } catch (const std::runtime_error&) {
      threw = true;
    }
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(threw);
  q.close();
  producer.join();
  EXPECT_TRUE(threw);
  EXPECT_EQ(q.size(), 1u);  // only the pre-close request remains queued
}

TEST(RequestQueue, BoundedCapacityAppliesBackpressure) {
  RequestQueue q(/*capacity=*/2);
  (void)q.push(sample(0.0));
  (void)q.push(sample(1.0));

  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    (void)q.push(sample(2.0));  // blocks until a pop frees a slot
    third_pushed = true;
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(third_pushed);

  std::vector<Request> batch;
  EXPECT_EQ(q.pop_batch(batch, fixed(2, 0us)), 2u);
  producer.join();
  EXPECT_TRUE(third_pushed);
  EXPECT_EQ(q.size(), 1u);
}

}  // namespace
