// MpscQueue contracts, including the threaded handoffs the TSan CI job
// exercises.
#include "common/queue.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

namespace fbfs {
namespace {

TEST(MpscQueue, TryPushRespectsCapacity) {
  MpscQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
  EXPECT_EQ(q.try_pop(), 1);
  EXPECT_TRUE(q.try_push(3));
}

TEST(MpscQueue, ManyProducersOneConsumer) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 50'000;
  MpscQueue<int> q(128);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q] {
      for (int i = 1; i <= kPerProducer; ++i) q.push(i);
    });
  }
  std::thread closer([&] {
    for (std::thread& t : producers) t.join();
    q.close();
  });

  long long sum = 0;
  long long count = 0;
  int item = 0;
  while (q.pop(item)) {
    sum += item;
    ++count;
  }
  closer.join();
  EXPECT_EQ(count, static_cast<long long>(kProducers) * kPerProducer);
  const long long per_producer =
      static_cast<long long>(kPerProducer) * (kPerProducer + 1) / 2;
  EXPECT_EQ(sum, kProducers * per_producer);
}

TEST(MpscQueue, CloseWakesBlockedConsumer) {
  MpscQueue<int> q(4);
  std::thread consumer([&] {
    int item = 0;
    EXPECT_FALSE(q.pop(item));  // blocks until close
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  consumer.join();
}

}  // namespace
}  // namespace fbfs
