// Tests for the Chirp file server: real implementation (namespace, tickets,
// connection limit, concurrency) and the DES overload model.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "chirp/chirp.hpp"

namespace ch = lobster::chirp;
namespace des = lobster::des;

// ---------------------------------------------------------------- server ----

TEST(ChirpServer, CountsBytesInAndOut) {
  ch::ChirpServer server;
  const auto ticket = server.issue_ticket(
      "/", ch::Rights::Read | ch::Rights::Write | ch::Rights::List);
  auto s = server.connect(ticket);
  s.put("/out/a", "12345");
  s.append("/out/a", "678");
  EXPECT_EQ(s.get("/out/a"), "12345678");
  EXPECT_EQ(server.bytes_in(), 8.0);
  EXPECT_EQ(server.bytes_out(), 8.0);
}

TEST(ChirpServer, PutGetStatList) {
  ch::ChirpServer server;
  const auto ticket = server.issue_ticket(
      "/", ch::Rights::Read | ch::Rights::Write | ch::Rights::List);
  auto s = server.connect(ticket);
  s.put("/out/task_0.root", "payload0");
  s.put("/out/task_1.root", "payload11");
  EXPECT_EQ(s.get("/out/task_0.root"), "payload0");
  EXPECT_EQ(s.stat("/out/task_1.root").size, 9u);
  const auto listing = s.list("/out/");
  ASSERT_EQ(listing.size(), 2u);
  EXPECT_EQ(listing[0].path, "/out/task_0.root");
  EXPECT_EQ(server.num_files(), 2u);
}

TEST(ChirpServer, AppendConcatenates) {
  ch::ChirpServer server;
  const auto ticket =
      server.issue_ticket("/", ch::Rights::Read | ch::Rights::Write);
  auto s = server.connect(ticket);
  s.append("/merged.root", "aaa");
  s.append("/merged.root", "bbb");
  EXPECT_EQ(s.get("/merged.root"), "aaabbb");
}

TEST(ChirpServer, RemoveAndErrors) {
  ch::ChirpServer server;
  const auto ticket =
      server.issue_ticket("/", ch::Rights::Read | ch::Rights::Write);
  auto s = server.connect(ticket);
  s.put("/f", "x");
  s.remove("/f");
  EXPECT_THROW(s.get("/f"), ch::ChirpError);
  EXPECT_THROW(s.remove("/f"), ch::ChirpError);
  EXPECT_THROW(s.stat("/f"), ch::ChirpError);
}

TEST(ChirpServer, TicketRightsEnforced) {
  ch::ChirpServer server;
  const auto ro = server.issue_ticket("/", ch::Rights::Read);
  const auto wo = server.issue_ticket("/", ch::Rights::Write);
  auto writer = server.connect(wo);
  writer.put("/data", "secret");
  auto reader = server.connect(ro);
  EXPECT_EQ(reader.get("/data"), "secret");
  EXPECT_THROW(reader.put("/data2", "x"), ch::ChirpError);
  EXPECT_THROW(reader.list("/"), ch::ChirpError);
  EXPECT_THROW(writer.get("/data"), ch::ChirpError);
}

TEST(ChirpServer, TicketScopeEnforced) {
  ch::ChirpServer server;
  const auto scoped = server.issue_ticket(
      "/user/alice", ch::Rights::Read | ch::Rights::Write);
  auto s = server.connect(scoped);
  s.put("/user/alice/out.root", "ok");
  EXPECT_THROW(s.put("/user/bob/out.root", "nope"), ch::ChirpError);
  EXPECT_THROW(s.put("/user/alice2/out.root", "nope"), ch::ChirpError)
      << "prefix match must respect path components";
}

TEST(ChirpServer, UnknownAndRevokedTickets) {
  ch::ChirpServer server;
  EXPECT_THROW(server.connect("ticket-bogus"), ch::ChirpError);
  const auto t = server.issue_ticket("/", ch::Rights::Read);
  server.revoke_ticket(t);
  EXPECT_THROW(server.connect(t), ch::ChirpError);
}

TEST(ChirpServer, ConnectionLimitBlocksAndReleases) {
  ch::ChirpServer server(/*max_connections=*/2);
  const auto ticket =
      server.issue_ticket("/", ch::Rights::Read | ch::Rights::Write);
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&, i] {
      auto s = server.connect(ticket);
      const int now = concurrent.fetch_add(1) + 1;
      int expect = peak.load();
      while (now > expect && !peak.compare_exchange_weak(expect, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      s.put("/c/" + std::to_string(i), "x");
      concurrent.fetch_sub(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(peak.load(), 2);
  EXPECT_EQ(server.num_files(), 8u);
}

TEST(ChirpServer, ConcurrentAppendsLoseNothing) {
  ch::ChirpServer server(64);
  const auto ticket =
      server.issue_ticket("/", ch::Rights::Read | ch::Rights::Write);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      auto s = server.connect(ticket);
      for (int i = 0; i < 100; ++i) s.append("/merged", "x");
    });
  }
  for (auto& th : threads) th.join();
  auto s = server.connect(ticket);
  EXPECT_EQ(s.get("/merged").size(), 800u);
  EXPECT_DOUBLE_EQ(server.bytes_in(), 800.0);
}

TEST(ChirpServer, RejectsNonPositiveConnectionLimit) {
  EXPECT_THROW(ch::ChirpServer(0), std::invalid_argument);
}

// ------------------------------------------------------------------- sim ----

namespace {
des::Process sim_put(des::Simulation& sim, ch::ChirpSim& chirp, double bytes,
                     std::vector<double>& times) {
  const double dt = co_await chirp.put(bytes);
  times.push_back(dt);
  (void)sim;
}
}  // namespace

TEST(ChirpSim, UnloadedTransferTime) {
  des::Simulation sim;
  ch::ChirpSim::Params p;
  p.max_connections = 16;
  p.nic_rate = 1e8;
  p.request_latency = 0.2;
  ch::ChirpSim chirp(sim, p);
  std::vector<double> times;
  sim.spawn(sim_put(sim, chirp, 1e8, times));
  sim.run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_NEAR(times[0], 0.2 + 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(chirp.bytes_in(), 1e8);
}

TEST(ChirpSim, WaveOfTransfersQueuesBeyondConnectionLimit) {
  // The Figure 11 mechanism: synchronized waves of finishing tasks swamp
  // the connection-limited server and stage-out times spike.
  des::Simulation sim;
  ch::ChirpSim::Params p;
  p.max_connections = 4;
  p.nic_rate = 1e8;
  p.request_latency = 0.0;
  ch::ChirpSim chirp(sim, p);
  std::vector<double> times;
  for (int i = 0; i < 16; ++i) sim.spawn(sim_put(sim, chirp, 1e8, times));
  sim.run();
  ASSERT_EQ(times.size(), 16u);
  // 4 admitted at a time, each batch takes 4 s (4 flows share 1e8 B/s).
  EXPECT_NEAR(times[0], 4.0, 1e-6);
  EXPECT_NEAR(times[15], 16.0, 1e-6);
}
