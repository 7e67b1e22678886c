// Tests for the XrootD data federation: redirector, DES streaming/staging
// model with outage injection, and the in-process client.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "util/rng.hpp"
#include "xrootd/federation.hpp"

namespace xr = lobster::xrootd;
namespace des = lobster::des;

// ------------------------------------------------------------ redirector ----

TEST(Redirector, LocateAndPick) {
  xr::RedirectorTable rt;
  rt.add_replica("/store/a.root", "T2_US_Nebraska");
  rt.add_replica("/store/a.root", "T2_DE_DESY");
  const auto sites = rt.locate("/store/a.root");
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_TRUE(rt.locate("/store/missing.root").empty());
  // Round-robin picks alternate.
  EXPECT_EQ(rt.pick("/store/a.root"), "T2_US_Nebraska");
  EXPECT_EQ(rt.pick("/store/a.root"), "T2_DE_DESY");
  EXPECT_EQ(rt.pick("/store/a.root"), "T2_US_Nebraska");
  EXPECT_FALSE(rt.pick("/store/missing.root").has_value());
}

TEST(Redirector, RejectsEmptyInput) {
  xr::RedirectorTable rt;
  EXPECT_THROW(rt.add_replica("", "site"), std::invalid_argument);
  EXPECT_THROW(rt.add_replica("/f", ""), std::invalid_argument);
}

// ---------------------------------------------------------- DES federation ----

namespace {
des::Process run_stream(des::Simulation& sim, xr::FederationSim& fed,
                        double bytes, std::vector<double>& times,
                        int& failures, bool staged = false) {
  try {
    const double dt = staged ? co_await fed.stage(bytes)
                             : co_await fed.stream(bytes);
    times.push_back(dt);
  } catch (const xr::AccessError&) {
    ++failures;
  }
  (void)sim;
}
}  // namespace

TEST(FederationSim, SingleStreamLimitedByPerStreamRate) {
  des::Simulation sim;
  xr::FederationSim::Params p;
  p.campus_uplink_rate = 1.25e9;
  p.per_stream_rate = 3.0e7;
  p.open_latency = 1.0;
  xr::FederationSim fed(sim, p);
  // With no paths configured the campus uplink is the one path.
  ASSERT_EQ(fed.num_paths(), 1u);
  EXPECT_EQ(&fed.uplink(), &fed.path_link(0));
  EXPECT_DOUBLE_EQ(fed.uplink().capacity(), 1.25e9);
  std::vector<double> times;
  int failures = 0;
  sim.spawn(run_stream(sim, fed, 3.0e8, times, failures));
  sim.run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_NEAR(times[0], 1.0 + 10.0, 1e-9);  // open + 300MB at 30MB/s
  EXPECT_DOUBLE_EQ(fed.bytes_streamed(), 3.0e8);
  EXPECT_DOUBLE_EQ(fed.path_bytes(0), 3.0e8);
}

TEST(FederationSim, ManyStreamsSaturateCampusUplink) {
  des::Simulation sim;
  xr::FederationSim::Params p;
  p.campus_uplink_rate = 1.25e9;  // 10 Gbit/s
  p.per_stream_rate = 3.0e7;
  p.open_latency = 0.0;
  xr::FederationSim fed(sim, p);
  std::vector<double> times;
  int failures = 0;
  // 100 streams * 30 MB/s = 3 GB/s demand > 1.25 GB/s uplink.
  for (int i = 0; i < 100; ++i)
    sim.spawn(run_stream(sim, fed, 1.25e8, times, failures));
  sim.run();
  ASSERT_EQ(times.size(), 100u);
  // Each gets 12.5 MB/s: 125 MB / 12.5 MB/s = 10 s, vs 4.17 s unloaded.
  EXPECT_NEAR(times[0], 10.0, 1e-6);
}

TEST(FederationSim, OutageFailsOpensAndBreaksInFlightStreams) {
  des::Simulation sim;
  xr::FederationSim::Params p;
  p.campus_uplink_rate = 1e8;
  p.per_stream_rate = 1e8;
  p.open_latency = 0.0;
  p.open_fail_delay = 2.0;
  xr::FederationSim fed(sim, p);
  std::vector<double> times;
  int failures = 0;
  // Flow A starts at t=0, needs 20 s unloaded (2e9 / 1e8); the outage at
  // t=5 breaks its connection, so it errors once the stall resolves.
  sim.spawn(run_stream(sim, fed, 2e9, times, failures));
  fed.schedule_outage(5.0, 10.0);
  // Flow B opens at t=7 (inside the outage) => immediate AccessError.
  sim.schedule(7.0, [&] {
    sim.spawn(run_stream(sim, fed, 1e6, times, failures));
  });
  // Flow C opens after the outage and completes normally.
  sim.schedule(20.0, [&] {
    sim.spawn(run_stream(sim, fed, 1e8, times, failures));
  });
  sim.run();
  EXPECT_EQ(failures, 2);
  EXPECT_EQ(fed.failed_opens(), 1u);
  EXPECT_EQ(fed.outages_started(), 1u);
  ASSERT_EQ(times.size(), 1u);  // only flow C succeeded
}

TEST(FederationSim, StageAccountsSeparately) {
  des::Simulation sim;
  xr::FederationSim fed(sim, {});
  std::vector<double> times;
  int failures = 0;
  sim.spawn(run_stream(sim, fed, 1e7, times, failures, /*staged=*/true));
  sim.run();
  EXPECT_DOUBLE_EQ(fed.bytes_staged(), 1e7);
  EXPECT_DOUBLE_EQ(fed.bytes_streamed(), 0.0);
}

TEST(FederationSim, BadOutageWindowRejected) {
  des::Simulation sim;
  xr::FederationSim fed(sim, {});
  EXPECT_THROW(fed.schedule_outage(-1.0, 5.0), std::invalid_argument);
  EXPECT_THROW(fed.schedule_outage(0.0, 0.0), std::invalid_argument);
}

// A zero campus uplink is a config error, not a path that is always out.
namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
const double kNaN = std::nan("");

void expect_rejected(double xr::FederationSim::Params::*field,
                     std::initializer_list<double> bad,
                     std::initializer_list<double> good) {
  des::Simulation sim;
  for (const double v : bad) {
    xr::FederationSim::Params p;
    p.*field = v;
    EXPECT_THROW(xr::FederationSim(sim, p), std::invalid_argument) << v;
  }
  for (const double v : good) {
    xr::FederationSim::Params p;
    p.*field = v;
    EXPECT_NO_THROW(xr::FederationSim(sim, p)) << v;
  }
}
}  // namespace

TEST(FederationSim, NonPositiveOrNonFiniteCampusUplinkRejected) {
  expect_rejected(&xr::FederationSim::Params::campus_uplink_rate,
                  {0.0, -1.0, kInf, kNaN}, {1.0});
}

TEST(FederationSim, NonPositiveOrNonFinitePerStreamRateRejected) {
  expect_rejected(&xr::FederationSim::Params::per_stream_rate,
                  {0.0, -1.0, kInf, kNaN}, {1.0});
}

TEST(FederationSim, NegativeOrNonFiniteOpenLatencyRejected) {
  expect_rejected(&xr::FederationSim::Params::open_latency,
                  {-1.0, kInf, kNaN}, {0.0, 2.5});
}

TEST(FederationSim, NegativeOrNonFiniteOpenFailDelayRejected) {
  expect_rejected(&xr::FederationSim::Params::open_fail_delay,
                  {-1.0, kInf, kNaN}, {0.0, 2.5});
}

// ------------------------------------------------------------ multi-path ----

namespace {
// Two sites, each with a 100 MB/s uplink, feeding one shared 150 MB/s WAN
// trunk.  Per-stream cap high enough not to bind.
xr::FederationSim::Params two_path_params(xr::PathPolicy policy) {
  xr::FederationSim::Params p;
  p.per_stream_rate = 1e8;
  p.open_latency = 0.0;
  p.open_fail_delay = 2.0;
  p.trunks = {{"wan-east", 1.5e8}};
  p.paths = {{"site-a", 1e8, 0}, {"site-b", 1e8, 0}};
  p.path_policy = policy;
  return p;
}
}  // namespace

TEST(FederationMultiPath, LeastLoadedSpreadsAcrossSites) {
  des::Simulation sim;
  xr::FederationSim fed(sim, two_path_params(xr::PathPolicy::LeastLoaded));
  ASSERT_EQ(fed.num_paths(), 2u);
  std::vector<double> times;
  int failures = 0;
  // A same-timestamp burst of 4 equal transfers must alternate paths even
  // though no solve has run between the picks.
  for (int i = 0; i < 4; ++i)
    sim.spawn(run_stream(sim, fed, 1e8, times, failures));
  sim.run();
  ASSERT_EQ(times.size(), 4u);
  EXPECT_EQ(failures, 0);
  EXPECT_DOUBLE_EQ(fed.path_bytes(0), 2e8);
  EXPECT_DOUBLE_EQ(fed.path_bytes(1), 2e8);
  // 4 streams x 100 MB through a 150 MB/s trunk: the trunk is the
  // bottleneck, so the batch drains in 400 MB / 150 MB/s.
  EXPECT_NEAR(times.back(), 4e8 / 1.5e8, 1e-6);
}

TEST(FederationMultiPath, FirstAvailablePilesOntoOneSite) {
  des::Simulation sim;
  xr::FederationSim fed(sim, two_path_params(xr::PathPolicy::FirstAvailable));
  std::vector<double> times;
  int failures = 0;
  for (int i = 0; i < 4; ++i)
    sim.spawn(run_stream(sim, fed, 1e8, times, failures));
  sim.run();
  ASSERT_EQ(times.size(), 4u);
  // The redirector hotspot: everything lands on site-a; its 100 MB/s
  // uplink (below the trunk's 150 MB/s) becomes the bottleneck.
  EXPECT_DOUBLE_EQ(fed.path_bytes(0), 4e8);
  EXPECT_DOUBLE_EQ(fed.path_bytes(1), 0.0);
  EXPECT_NEAR(times.back(), 4e8 / 1e8, 1e-6);
}

TEST(FederationMultiPath, CompletionWaitsForSlowerHop) {
  des::Simulation sim;
  // One site whose uplink (50 MB/s) is slower than the trunk.
  xr::FederationSim::Params p;
  p.per_stream_rate = 1e9;
  p.open_latency = 0.0;
  p.trunks = {{"wan", 1.5e8}};
  p.paths = {{"site-slow", 5e7, 0}};
  xr::FederationSim fed(sim, p);
  std::vector<double> times;
  int failures = 0;
  sim.spawn(run_stream(sim, fed, 1e8, times, failures));
  sim.run();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_NEAR(times[0], 1e8 / 5e7, 1e-9);  // uplink-bound, not trunk-bound
}

TEST(FederationMultiPath, PathOutageReroutesAndBreaksStreams) {
  des::Simulation sim;
  xr::FederationSim fed(sim, two_path_params(xr::PathPolicy::LeastLoaded));
  std::vector<double> times;
  int failures = 0;
  // One long transfer starts on site-a at t=0 (10 s unloaded).  site-a
  // collapses at t=2: the in-flight stream breaks once its flow drains.
  sim.spawn(run_stream(sim, fed, 1e9, times, failures));
  fed.schedule_path_outage(0, 2.0, 4.0);
  // Opens during the collapse re-route to site-b and succeed.
  sim.schedule(3.0, [&] {
    sim.spawn(run_stream(sim, fed, 1e8, times, failures));
  });
  sim.run();
  EXPECT_EQ(failures, 1);          // the broken site-a stream
  EXPECT_EQ(fed.failed_opens(), 0u);  // nothing failed to open
  ASSERT_EQ(times.size(), 1u);
  EXPECT_DOUBLE_EQ(fed.path_bytes(1), 1e8);  // re-routed volume
}

TEST(FederationMultiPath, AllPathsDownFailsOpen) {
  des::Simulation sim;
  xr::FederationSim fed(sim, two_path_params(xr::PathPolicy::LeastLoaded));
  std::vector<double> times;
  int failures = 0;
  fed.schedule_path_outage(0, 1.0, 10.0);
  fed.schedule_path_outage(1, 1.0, 10.0);
  sim.schedule(2.0, [&] {
    sim.spawn(run_stream(sim, fed, 1e6, times, failures));
  });
  sim.run();
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(fed.failed_opens(), 1u);
  EXPECT_TRUE(times.empty());
}

TEST(FederationMultiPath, GlobalOutageDropsEverySite) {
  des::Simulation sim;
  xr::FederationSim fed(sim, two_path_params(xr::PathPolicy::LeastLoaded));
  std::vector<double> times;
  int failures = 0;
  fed.schedule_outage(1.0, 5.0);
  sim.schedule(2.0, [&] {
    sim.spawn(run_stream(sim, fed, 1e6, times, failures));
  });
  // After the outage both sites serve again.
  sim.schedule(10.0, [&] {
    sim.spawn(run_stream(sim, fed, 1e6, times, failures));
  });
  sim.run();
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(fed.failed_opens(), 1u);
  ASSERT_EQ(times.size(), 1u);
}

TEST(FederationMultiPath, BadTopologyRejected) {
  des::Simulation sim;
  xr::FederationSim::Params no_trunk;
  no_trunk.paths = {{"site", 1e8, 0}};
  EXPECT_THROW(xr::FederationSim(sim, no_trunk), std::invalid_argument);
  xr::FederationSim::Params bad_idx;
  bad_idx.trunks = {{"wan", 1e8}};
  bad_idx.paths = {{"site", 1e8, 7}};
  EXPECT_THROW(xr::FederationSim(sim, bad_idx), std::invalid_argument);
  xr::FederationSim fed(sim, two_path_params(xr::PathPolicy::LeastLoaded));
  EXPECT_THROW(fed.schedule_path_outage(9, 0.0, 1.0), std::invalid_argument);
}

// ------------------------------------------------------------ path choice ----

namespace {
using Key = std::pair<double, double>;

// Per path, the least-loaded ranking key (most-loaded hop, uplink), where
// a hop's load is per_stream_rate * active_flows / capacity; none for a
// path that is down.
std::vector<std::optional<Key>> path_keys(xr::FederationSim& fed,
                                          const xr::FederationSim::Params& p) {
  const auto load = [&p](const des::BandwidthLink& l) {
    if (l.capacity() <= 0.0) return kInf;
    return p.per_stream_rate * static_cast<double>(l.active_flows()) /
           l.capacity();
  };
  std::vector<std::optional<Key>> keys(fed.num_paths());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (fed.path_down(i)) continue;
    const double up = load(fed.path_link(i));
    keys[i] = Key{p.trunks.empty()
                      ? up
                      : std::max(up, load(fed.trunk_link(p.paths[i].trunk))),
                  up};
  }
  return keys;
}

// The oracle for the federation's flat scan: the first path up, or the
// least key by std::pair's operator< in path order (lowest index on ties).
std::size_t reference_pick(const std::vector<std::optional<Key>>& keys,
                           xr::PathPolicy policy) {
  std::size_t best = keys.size();
  Key best_key{kInf, kInf};
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (!keys[i]) continue;
    if (policy == xr::PathPolicy::FirstAvailable) return i;
    if (*keys[i] < best_key) {
      best_key = *keys[i];
      best = i;
    }
  }
  return best;
}
}  // namespace

// Seeded draws of active counts, capacities (zero included), trunk sharing
// and path and global outages, from small value sets so that equal keys
// are common: on every draw the federation picks the oracle's path.
TEST(FederationPick, FlatScanMatchesPairComparison) {
  const lobster::util::Rng root(2015);
  const double rates[] = {0.0, 1e8, 2e8, 4e8};
  int tied = 0;
  int all_down = 0;
  for (std::uint64_t draw = 0; draw < 3000; ++draw) {
    lobster::util::Rng rng = root.stream("pick", draw);
    xr::FederationSim::Params p;
    p.per_stream_rate = rng.chance(0.5) ? 1e7 : 3e7;
    p.path_policy = rng.chance(0.2) ? xr::PathPolicy::FirstAvailable
                                    : xr::PathPolicy::LeastLoaded;
    if (rng.chance(0.9)) {  // else the campus path alone
      const std::int64_t trunks = rng.uniform_int(1, 3);
      for (std::int64_t t = 0; t < trunks; ++t)
        p.trunks.push_back({"wan", rates[rng.uniform_int(1, 3)]});
      for (std::int64_t i = rng.uniform_int(1, 8); i > 0; --i)
        p.paths.push_back(
            {"site", rates[rng.uniform_int(1, 3)],
             static_cast<std::size_t>(rng.uniform_int(0, trunks - 1))});
    }
    des::Simulation sim;
    xr::FederationSim fed(sim, p);
    const auto load_up = [&rng, &rates](des::BandwidthLink& l) {
      for (std::int64_t k = rng.uniform_int(0, 4); k > 0; --k)
        (void)l.start_flow(1e12, 1e6);
      if (rng.chance(0.2)) l.set_capacity(rates[rng.uniform_int(0, 3)]);
    };
    for (std::size_t i = 0; i < fed.num_paths(); ++i) {
      load_up(fed.path_link(i));
      if (rng.chance(0.15)) fed.schedule_path_outage(i, 0.0, 10.0);
    }
    for (std::size_t t = 0; t < p.trunks.size(); ++t)
      load_up(fed.trunk_link(t));
    if (rng.chance(0.03)) fed.schedule_outage(0.0, 10.0);
    sim.run_until(0.0);  // apply the outages and flush the joins

    const std::vector<std::optional<Key>> keys = path_keys(fed, p);
    const std::size_t want = reference_pick(keys, p.path_policy);
    ASSERT_EQ(fed.pick_path(), want) << "draw " << draw;
    if (want == keys.size())
      ++all_down;
    else if (p.path_policy == xr::PathPolicy::LeastLoaded &&
             std::count(keys.begin(), keys.end(), keys[want]) > 1)
      ++tied;
  }
  // The draws reach the cases the tie-break and the down checks decide.
  EXPECT_GT(tied, 100);
  EXPECT_GT(all_down, 20);
}

// ------------------------------------------------------------ real client ----

TEST(Client, ReadThroughRedirector) {
  xr::RedirectorTable rt;
  auto site = std::make_shared<xr::SiteStore>("T2_US_Nebraska");
  site->put("/store/a.root", 2.1e9);
  rt.add_replica("/store/a.root", "T2_US_Nebraska");
  xr::Client client(rt);
  client.attach_site(site);
  const auto [where, bytes] = client.read("/store/a.root");
  EXPECT_EQ(where, "T2_US_Nebraska");
  EXPECT_DOUBLE_EQ(bytes, 2.1e9);
}

TEST(Client, ErrorsOnMissingReplicaOrSite) {
  xr::RedirectorTable rt;
  xr::Client client(rt);
  EXPECT_THROW(client.read("/store/unknown.root"), xr::AccessError);
  rt.add_replica("/store/b.root", "T2_Unattached");
  EXPECT_THROW(client.read("/store/b.root"), xr::AccessError);
  auto site = std::make_shared<xr::SiteStore>("T2_Attached");
  rt.add_replica("/store/c.root", "T2_Attached");
  client.attach_site(site);
  EXPECT_THROW(client.read("/store/c.root"), xr::AccessError)
      << "site lacks the file";
}

TEST(SiteStore, PutHasOpen) {
  xr::SiteStore s("T3_ND");
  EXPECT_FALSE(s.has("/f"));
  s.put("/f", 100.0);
  EXPECT_TRUE(s.has("/f"));
  EXPECT_DOUBLE_EQ(s.open("/f"), 100.0);
  EXPECT_THROW(s.put("/g", -1.0), std::invalid_argument);
}
