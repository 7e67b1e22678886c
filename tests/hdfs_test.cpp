// Tests for the HDFS-style block store and the Map-Reduce-lite runtime.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "hdfs/hdfs.hpp"
#include "util/rng.hpp"

namespace hd = lobster::hdfs;
namespace lu = lobster::util;

// ---------------------------------------------------------------- cluster ----

TEST(Hdfs, PutGetRoundTrip) {
  hd::Cluster c(4, 2, 8);
  const std::string content = "0123456789abcdefXYZ";
  c.put("/data/f1", content);
  EXPECT_EQ(c.get("/data/f1"), content);
  const auto st = c.stat("/data/f1");
  EXPECT_EQ(st.size, content.size());
  EXPECT_EQ(st.num_blocks, 3u);  // 19 bytes / 8-byte blocks
}

TEST(Hdfs, EmptyFileSupported) {
  hd::Cluster c(2, 1, 8);
  c.put("/empty", "");
  EXPECT_TRUE(c.exists("/empty"));
  EXPECT_EQ(c.get("/empty"), "");
  EXPECT_EQ(c.stat("/empty").size, 0u);
}

TEST(Hdfs, OverwriteReplaces) {
  hd::Cluster c(3, 2, 4);
  c.put("/f", "aaaa");
  c.put("/f", "bb");
  EXPECT_EQ(c.get("/f"), "bb");
  EXPECT_EQ(c.stat("/f").num_blocks, 1u);
}

TEST(Hdfs, RemoveAndErrors) {
  hd::Cluster c(2, 1, 8);
  c.put("/f", "x");
  c.remove("/f");
  EXPECT_FALSE(c.exists("/f"));
  EXPECT_THROW(c.get("/f"), hd::HdfsError);
  EXPECT_THROW(c.remove("/f"), hd::HdfsError);
  EXPECT_THROW(c.stat("/f"), hd::HdfsError);
}

TEST(Hdfs, ListByPrefix) {
  hd::Cluster c(2, 1, 8);
  c.put("/a/1", "x");
  c.put("/a/2", "yy");
  c.put("/b/1", "z");
  const auto ls = c.list("/a/");
  ASSERT_EQ(ls.size(), 2u);
  EXPECT_EQ(ls[0].path, "/a/1");
  EXPECT_EQ(ls[1].size, 2u);
}

TEST(Hdfs, SurvivesDatanodeLossWithinReplication) {
  hd::Cluster c(4, 2, 8);
  const std::string content(100, 'q');
  c.put("/f", content);
  c.kill_datanode(0);
  EXPECT_EQ(c.get("/f"), content) << "one dead node within replication=2";
  EXPECT_EQ(c.live_datanodes(), 3u);
  EXPECT_GT(c.under_replicated_blocks(), 0u);
}

TEST(Hdfs, RereplicationRestoresFactor) {
  hd::Cluster c(4, 2, 8);
  c.put("/f", std::string(64, 'r'));
  c.kill_datanode(1);
  ASSERT_GT(c.under_replicated_blocks(), 0u);
  c.rereplicate();
  EXPECT_EQ(c.under_replicated_blocks(), 0u);
  c.kill_datanode(2);
  EXPECT_EQ(c.get("/f"), std::string(64, 'r'));
}

TEST(Hdfs, DataLossDetectedWhenAllReplicasDie) {
  hd::Cluster c(2, 1, 8);  // replication 1: any loss is fatal
  c.put("/f", std::string(32, 'v'));
  c.kill_datanode(0);
  c.kill_datanode(1);
  EXPECT_THROW(c.get("/f"), hd::HdfsError);
}

TEST(Hdfs, ConstructorValidation) {
  EXPECT_THROW(hd::Cluster(0, 1, 8), hd::HdfsError);
  EXPECT_THROW(hd::Cluster(2, 0, 8), hd::HdfsError);
  EXPECT_THROW(hd::Cluster(2, 3, 8), hd::HdfsError);
  EXPECT_THROW(hd::Cluster(2, 1, 0), hd::HdfsError);
}

TEST(Hdfs, ConcurrentPutsAndGets) {
  hd::Cluster c(4, 2, 64);
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        const std::string path =
            "/t" + std::to_string(t) + "/f" + std::to_string(i);
        const std::string content(static_cast<std::size_t>(i * 7 + 1),
                                  static_cast<char>('a' + t));
        c.put(path, content);
        if (c.get(path) != content) errors.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(c.list("/t0/").size(), 50u);
}

// Property: random workloads conserve bytes.
TEST(Hdfs, PropertyTotalBytesMatchesNamespace) {
  lu::Rng rng(5);
  hd::Cluster c(5, 3, 16);
  double expected = 0.0;
  for (int i = 0; i < 200; ++i) {
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 300));
    expected += static_cast<double>(len);
    c.put("/p/" + std::to_string(i), std::string(len, 'x'));
  }
  EXPECT_DOUBLE_EQ(c.total_bytes(), expected);
}

// -------------------------------------------------------------- mapreduce ----

TEST(MapReduce, WordCountStyleJob) {
  hd::Cluster c(3, 2, 64);
  c.put("/in/1", "a b a");
  c.put("/in/2", "b b c");
  auto map_fn = [](const std::string&, const std::string& content) {
    std::vector<hd::KeyValue> out;
    std::string word;
    for (char ch : content + " ") {
      if (ch == ' ') {
        if (!word.empty()) out.push_back({word, "1"});
        word.clear();
      } else {
        word += ch;
      }
    }
    return out;
  };
  auto reduce_fn = [](const std::string&,
                      const std::vector<std::string>& values) {
    return std::to_string(values.size());
  };
  const auto stats =
      hd::run_mapreduce(c, {"/in/1", "/in/2"}, map_fn, reduce_fn, "/out/");
  EXPECT_EQ(stats.map_tasks, 2u);
  EXPECT_EQ(stats.reduce_tasks, 3u);
  EXPECT_EQ(stats.intermediate_pairs, 6u);
  EXPECT_EQ(c.get("/out/a"), "2");
  EXPECT_EQ(c.get("/out/b"), "3");
  EXPECT_EQ(c.get("/out/c"), "1");
}

TEST(MapReduce, MergeJobConcatenatesGroups) {
  // The paper's hadoop merging: group small output files by target merged
  // file (map), concatenate (reduce).
  hd::Cluster c(4, 2, 32);
  std::vector<std::string> inputs;
  for (int i = 0; i < 10; ++i) {
    const std::string path = "/small/out_" + std::to_string(i);
    c.put(path, std::string(10, static_cast<char>('0' + i)));
    inputs.push_back(path);
  }
  // Group pairs of files into one merged target each.
  auto map_fn = [](const std::string& path, const std::string& content) {
    const int idx = std::stoi(path.substr(path.rfind('_') + 1));
    return std::vector<hd::KeyValue>{
        {"merged_" + std::to_string(idx / 2), content}};
  };
  auto reduce_fn = [](const std::string&,
                      const std::vector<std::string>& values) {
    std::string out;
    for (const auto& v : values) out += v;
    return out;
  };
  const auto stats =
      hd::run_mapreduce(c, inputs, map_fn, reduce_fn, "/merged/");
  EXPECT_EQ(stats.reduce_tasks, 5u);
  double total = 0.0;
  for (const auto& out : stats.outputs)
    total += static_cast<double>(c.stat(out).size);
  EXPECT_DOUBLE_EQ(total, 100.0) << "merging must conserve bytes";
  EXPECT_EQ(c.get("/merged/merged_0").size(), 20u);
}

TEST(MapReduce, DeterministicAcrossThreadCounts) {
  auto build = [](std::size_t threads) {
    hd::Cluster c(3, 1, 64);
    std::vector<std::string> inputs;
    for (int i = 0; i < 20; ++i) {
      const std::string p = "/in/" + std::to_string(i);
      c.put(p, std::string(1, static_cast<char>('a' + i % 5)));
      inputs.push_back(p);
    }
    auto map_fn = [](const std::string&, const std::string& content) {
      return std::vector<hd::KeyValue>{{content, content}};
    };
    auto reduce_fn = [](const std::string&,
                        const std::vector<std::string>& values) {
      std::string out;
      for (const auto& v : values) out += v;
      return out;
    };
    hd::run_mapreduce(c, inputs, map_fn, reduce_fn, "/out/", threads);
    std::string result;
    for (const auto& st : c.list("/out/")) result += c.get(st.path) + "|";
    return result;
  };
  EXPECT_EQ(build(1), build(8));
}

TEST(MapReduce, ErrorsPropagate) {
  hd::Cluster c(2, 1, 64);
  c.put("/in/1", "x");
  auto bad_map = [](const std::string&,
                    const std::string&) -> std::vector<hd::KeyValue> {
    throw std::runtime_error("map exploded");
  };
  auto reduce_fn = [](const std::string&, const std::vector<std::string>&) {
    return std::string();
  };
  EXPECT_THROW(
      hd::run_mapreduce(c, {"/in/1"}, bad_map, reduce_fn, "/out/"),
      std::runtime_error);
  EXPECT_THROW(hd::run_mapreduce(c, {"/in/1"}, nullptr, reduce_fn, "/out/"),
               hd::HdfsError);
  EXPECT_THROW(
      hd::run_mapreduce(c, {"/missing"},
                        [](const std::string&, const std::string&) {
                          return std::vector<hd::KeyValue>{};
                        },
                        reduce_fn, "/out/"),
      hd::HdfsError);
}
