// Tests for the shared switch buffer pool with Dynamic-Threshold admission
// and the PooledQueue decorator.
#include <gtest/gtest.h>

#include <memory>

#include "net/fifo_queue.h"
#include "net/shared_buffer.h"
#include "net/wfq.h"
#include "topo/builders.h"
#include "transport/host_stack.h"
#include "transport/swift.h"

namespace aeq::net {
namespace {

Packet make_packet(std::uint32_t size, QoSLevel qos = 0) {
  Packet p;
  p.size_bytes = size;
  p.qos = qos;
  return p;
}

TEST(SharedBufferPoolTest, ReserveAndRelease) {
  SharedBufferPool pool(1000, /*dt_alpha=*/10.0);
  EXPECT_TRUE(pool.try_reserve(400, 0));
  EXPECT_EQ(pool.used(), 400u);
  EXPECT_TRUE(pool.try_reserve(600, 0));
  EXPECT_FALSE(pool.try_reserve(1, 0));  // pool exhausted
  pool.release(600);
  EXPECT_TRUE(pool.try_reserve(100, 0));
}

TEST(SharedBufferPoolTest, DynamicThresholdCapsHeavyQueue) {
  SharedBufferPool pool(1000, /*dt_alpha=*/1.0);
  // A queue may only hold up to alpha * free bytes: as it grows, its own
  // occupancy shrinks the allowance.
  std::uint64_t backlog = 0;
  while (pool.try_reserve(100, backlog)) backlog += 100;
  // With alpha=1: backlog + 100 <= free = 1000 - backlog
  //   => backlog <= 450 => 500 after the last accepted packet.
  EXPECT_EQ(backlog, 500u);
  // A different (empty) queue can still get buffer space.
  EXPECT_TRUE(pool.try_reserve(100, 0));
}

TEST(PooledQueueTest, DropsWhenPoolDenies) {
  SharedBufferPool pool(2500, 10.0);
  PooledQueue queue(std::make_unique<FifoQueue>(), pool);
  EXPECT_TRUE(queue.enqueue(make_packet(1000)));
  EXPECT_TRUE(queue.enqueue(make_packet(1000)));
  EXPECT_FALSE(queue.enqueue(make_packet(1000)));  // pool full at 2500
  EXPECT_EQ(queue.stats().dropped_packets, 1u);
  // Dequeue releases pool space.
  EXPECT_TRUE(queue.dequeue().has_value());
  EXPECT_EQ(pool.used(), 1000u);
  EXPECT_TRUE(queue.enqueue(make_packet(1000)));
}

TEST(PooledQueueTest, InnerDisciplineDropReleasesReservation) {
  SharedBufferPool pool(1 << 20, 10.0);
  // Inner WFQ has its own tiny capacity.
  PooledQueue queue(
      std::make_unique<WfqQueue>(std::vector<double>{4.0, 1.0}, 1500), pool);
  EXPECT_TRUE(queue.enqueue(make_packet(1000)));
  EXPECT_FALSE(queue.enqueue(make_packet(1000)));  // inner capacity
  EXPECT_EQ(pool.used(), 1000u);  // reservation for the drop was returned
}

TEST(PooledQueueTest, TwoQueuesShareOnePool) {
  SharedBufferPool pool(3000, 10.0);
  PooledQueue a(std::make_unique<FifoQueue>(), pool);
  PooledQueue b(std::make_unique<FifoQueue>(), pool);
  EXPECT_TRUE(a.enqueue(make_packet(2000)));
  // b can only use what a left over.
  EXPECT_TRUE(b.enqueue(make_packet(1000)));
  EXPECT_FALSE(b.enqueue(make_packet(1000)));
  a.dequeue();
  EXPECT_TRUE(b.enqueue(make_packet(1000)));
}

TEST(SharedBufferTopologyTest, StarWithPoolDeliversTraffic) {
  sim::Simulator s;
  topo::StarConfig config;
  config.num_hosts = 4;
  config.host_queue.weights = {4.0, 1.0};
  config.switch_queue.weights = {4.0, 1.0};
  config.shared_buffer_bytes = 2 * sim::kMiB;
  topo::Network network = topo::build_star({&s}, config);
  std::vector<std::unique_ptr<transport::HostStack>> stacks;
  for (std::size_t i = 0; i < 4; ++i) {
    stacks.push_back(std::make_unique<transport::HostStack>(
        s, network.host(static_cast<net::HostId>(i)), 4,
        transport::TransportConfig{}, [] {
          return std::make_unique<transport::SwiftCC>(
              transport::SwiftConfig{});
        }));
  }
  int done = 0;
  for (net::HostId src : {0, 1, 2}) {
    transport::SendRequest request;
    request.dst = 3;
    request.qos = 0;
    request.bytes = 256 * sim::kKiB;
    request.rpc_id = static_cast<std::uint64_t>(src) + 1;
    stacks[static_cast<std::size_t>(src)]->send_message(
        request, [&done](const transport::MessageCompletion&) { ++done; });
  }
  s.run_until(0.5);
  EXPECT_EQ(done, 3);
  EXPECT_EQ(stacks[3]->bytes_delivered(), 3 * 256 * sim::kKiB);
}

}  // namespace
}  // namespace aeq::net
