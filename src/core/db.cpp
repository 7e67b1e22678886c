#include "core/db.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/parse.hpp"

namespace lobster::core {

const char* to_string(Segment s) {
  switch (s) {
    case Segment::Dispatch: return "dispatch";
    case Segment::EnvSetup: return "env_setup";
    case Segment::StageIn: return "stage_in";
    case Segment::Execute: return "execute";
    case Segment::ExecuteIo: return "execute_io";
    case Segment::StageOut: return "stage_out";
    case Segment::Cleanup: return "cleanup";
    case Segment::kCount: break;
  }
  return "?";
}

const char* to_string(TaskStatus s) {
  switch (s) {
    case TaskStatus::Created: return "created";
    case TaskStatus::Submitted: return "submitted";
    case TaskStatus::Done: return "done";
    case TaskStatus::Failed: return "failed";
    case TaskStatus::Evicted: return "evicted";
  }
  return "?";
}

const char* to_string(TaskKind k) {
  switch (k) {
    case TaskKind::Analysis: return "analysis";
    case TaskKind::Merge: return "merge";
  }
  return "?";
}

void Db::register_tasklets(const std::vector<Tasklet>& tasklets) {
  for (const auto& t : tasklets) {
    const auto [it, inserted] = tasklets_.emplace(t.id, TaskletRow{t, {}, 0, 0});
    if (!inserted)
      throw std::invalid_argument("db: duplicate tasklet id " +
                                  std::to_string(t.id));
  }
}

const Tasklet& Db::tasklet(std::uint64_t id) const {
  const auto it = tasklets_.find(id);
  if (it == tasklets_.end())
    throw std::out_of_range("db: unknown tasklet " + std::to_string(id));
  return it->second.tasklet;
}

void Db::mark_tasklet_failed(std::uint64_t id) {
  auto it = tasklets_.find(id);
  if (it == tasklets_.end())
    throw std::out_of_range("db: unknown tasklet " + std::to_string(id));
  if (it->second.status != TaskletStatus::Pending)
    throw std::logic_error("db: only pending tasklets can be failed");
  it->second.status = TaskletStatus::Failed;
}

TaskletStatus Db::tasklet_status(std::uint64_t id) const {
  const auto it = tasklets_.find(id);
  if (it == tasklets_.end())
    throw std::out_of_range("db: unknown tasklet " + std::to_string(id));
  return it->second.status;
}

std::uint32_t Db::tasklet_attempts(std::uint64_t id) const {
  const auto it = tasklets_.find(id);
  if (it == tasklets_.end())
    throw std::out_of_range("db: unknown tasklet " + std::to_string(id));
  return it->second.attempts;
}

std::map<TaskletStatus, std::size_t> Db::tasklet_status_counts() const {
  std::map<TaskletStatus, std::size_t> out;
  for (const auto& [id, row] : tasklets_) ++out[row.status];
  return out;
}

std::vector<std::uint64_t> Db::pending_tasklets(std::size_t limit) const {
  std::vector<std::uint64_t> out;
  for (const auto& [id, row] : tasklets_) {
    if (row.status == TaskletStatus::Pending) {
      out.push_back(id);
      if (out.size() >= limit) break;
    }
  }
  return out;
}

std::uint64_t Db::create_task(TaskKind kind,
                              const std::vector<std::uint64_t>& tasklet_ids,
                              double now) {
  TaskRecord rec;
  rec.task_id = next_task_id_++;
  rec.kind = kind;
  rec.status = TaskStatus::Submitted;
  rec.tasklets = tasklet_ids;
  rec.submit_time = now;
  if (kind == TaskKind::Analysis) {
    for (std::uint64_t id : tasklet_ids) {
      auto it = tasklets_.find(id);
      if (it == tasklets_.end())
        throw std::out_of_range("db: unknown tasklet " + std::to_string(id));
      if (it->second.status != TaskletStatus::Pending)
        throw std::logic_error("db: tasklet " + std::to_string(id) +
                               " is not pending");
      it->second.status = TaskletStatus::Assigned;
      it->second.task_id = rec.task_id;
    }
  }
  const std::uint64_t id = rec.task_id;
  tasks_.emplace(id, std::move(rec));
  return id;
}

void Db::finish_task(std::uint64_t task_id, const TaskRecord& result) {
  auto it = tasks_.find(task_id);
  if (it == tasks_.end())
    throw std::out_of_range("db: unknown task " + std::to_string(task_id));
  TaskRecord& rec = it->second;
  if (rec.status != TaskStatus::Submitted)
    throw std::logic_error("db: task " + std::to_string(task_id) +
                           " finished twice");
  // Identity fields are authoritative in the DB; the result only carries
  // measurements.
  const TaskKind kind = rec.kind;
  const auto tasklet_ids = rec.tasklets;
  const double submit_time = rec.submit_time;
  rec = result;
  rec.task_id = task_id;
  rec.kind = kind;
  rec.tasklets = tasklet_ids;
  rec.submit_time = submit_time;
  if (rec.status == TaskStatus::Submitted || rec.status == TaskStatus::Created)
    throw std::logic_error("db: finish_task needs a terminal status");

  if (kind != TaskKind::Analysis) return;
  for (std::uint64_t id : tasklet_ids) {
    auto& row = tasklets_.at(id);
    if (rec.status == TaskStatus::Done) {
      row.status = TaskletStatus::Processed;
    } else {
      // Failure or eviction: the work returns to the pool for resubmission.
      row.status = TaskletStatus::Pending;
      ++row.attempts;
      row.task_id = 0;
    }
  }
}

const TaskRecord& Db::task(std::uint64_t task_id) const {
  const auto it = tasks_.find(task_id);
  if (it == tasks_.end())
    throw std::out_of_range("db: unknown task " + std::to_string(task_id));
  return it->second;
}

std::map<TaskStatus, std::size_t> Db::task_status_counts() const {
  std::map<TaskStatus, std::size_t> out;
  for (const auto& [id, rec] : tasks_) ++out[rec.status];
  return out;
}

std::uint64_t Db::record_output(std::uint64_t task_id, const std::string& path,
                                double bytes) {
  if (!tasks_.count(task_id))
    throw std::out_of_range("db: unknown task " + std::to_string(task_id));
  OutputRecord rec;
  rec.output_id = next_output_id_++;
  rec.task_id = task_id;
  rec.path = path;
  rec.bytes = bytes;
  const std::uint64_t id = rec.output_id;
  outputs_.emplace(id, std::move(rec));
  return id;
}

void Db::mark_merged(const std::vector<std::uint64_t>& output_ids) {
  for (std::uint64_t id : output_ids) {
    auto it = outputs_.find(id);
    if (it == outputs_.end())
      throw std::out_of_range("db: unknown output " + std::to_string(id));
    if (it->second.merged)
      throw std::logic_error("db: output " + std::to_string(id) +
                             " merged twice");
    it->second.merged = true;
    // Mark the owning task's tasklets Merged.
    const auto& task = tasks_.at(it->second.task_id);
    for (std::uint64_t tid : task.tasklets) {
      auto tit = tasklets_.find(tid);
      if (tit != tasklets_.end() &&
          tit->second.status == TaskletStatus::Processed)
        tit->second.status = TaskletStatus::Merged;
    }
  }
}

std::vector<OutputRecord> Db::unmerged_outputs() const {
  std::vector<OutputRecord> out;
  for (const auto& [id, rec] : outputs_)
    if (!rec.merged) out.push_back(rec);
  return out;
}

const OutputRecord& Db::output(std::uint64_t id) const {
  const auto it = outputs_.find(id);
  if (it == outputs_.end())
    throw std::out_of_range("db: unknown output " + std::to_string(id));
  return it->second;
}

util::Histogram Db::segment_histogram(Segment s, std::size_t nbins,
                                      double max_seconds) const {
  util::Histogram h(nbins, 0.0, max_seconds);
  const std::size_t idx = static_cast<std::size_t>(s);
  for (const auto& [id, rec] : tasks_)
    if (rec.status != TaskStatus::Submitted &&
        rec.status != TaskStatus::Created)
      h.fill(rec.segment_time[idx]);
  return h;
}

std::vector<double> Db::segment_totals() const {
  std::vector<double> out(kNumSegments, 0.0);
  for (const auto& [id, rec] : tasks_)
    for (std::size_t s = 0; s < kNumSegments; ++s)
      out[s] += rec.segment_time[s];
  return out;
}

double Db::total_cpu_time() const {
  double sum = 0.0;
  for (const auto& [id, rec] : tasks_) sum += rec.cpu_time;
  return sum;
}

double Db::total_lost_time() const {
  double sum = 0.0;
  for (const auto& [id, rec] : tasks_) sum += rec.lost_time;
  return sum;
}

std::vector<std::pair<std::string, double>> Db::counter_plane() const {
  std::vector<std::pair<std::string, double>> out;
  out.emplace_back("core.db.cpu_seconds", total_cpu_time());
  out.emplace_back("core.db.lost_seconds", total_lost_time());
  double output_bytes = 0.0;
  for (const auto& [id, rec] : outputs_) output_bytes += rec.bytes;
  out.emplace_back("core.db.output_bytes", output_bytes);
  out.emplace_back("core.db.outputs_total",
                   static_cast<double>(outputs_.size()));
  const std::vector<double> seg = segment_totals();
  for (std::size_t s = 0; s < kNumSegments; ++s)
    out.emplace_back(std::string("core.db.segment_") +
                         to_string(static_cast<Segment>(s)) + "_seconds",
                     seg[s]);
  for (const auto& [status, n] : tasklet_status_counts())
    out.emplace_back(std::string("core.db.tasklets_") + to_string(status),
                     static_cast<double>(n));
  for (const auto& [status, n] : task_status_counts())
    out.emplace_back(std::string("core.db.tasks_") + to_string(status),
                     static_cast<double>(n));
  std::sort(out.begin(), out.end());
  return out;
}

// ---- persistence ------------------------------------------------------------

namespace {
// Minimal JSON string escaping for paths.
std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}
}  // namespace

void Db::save_journal(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("db: cannot write " + path);
  out.precision(17);
  for (const auto& [id, row] : tasklets_) {
    out << R"({"type":"tasklet","id":)" << id << R"(,"lfn":")"
        << escape(row.tasklet.input_lfn) << R"(","events":)"
        << row.tasklet.events << R"(,"bytes":)" << row.tasklet.input_bytes
        << R"(,"out_bytes":)" << row.tasklet.expected_output_bytes
        << R"(,"run":)" << row.tasklet.first_lumi.run << R"(,"lumi0":)"
        << row.tasklet.first_lumi.lumi << R"(,"lumi1":)"
        << row.tasklet.last_lumi.lumi << R"(,"status":)"
        << static_cast<int>(row.status) << R"(,"attempts":)" << row.attempts
        << R"(,"task":)" << row.task_id << "}\n";
  }
  for (const auto& [id, rec] : tasks_) {
    out << R"({"type":"task","id":)" << id << R"(,"kind":)"
        << static_cast<int>(rec.kind) << R"(,"status":)"
        << static_cast<int>(rec.status) << R"(,"exit":)" << rec.exit_code
        << R"(,"worker":")" << escape(rec.worker) << R"(","submit":)"
        << rec.submit_time << R"(,"finish":)" << rec.finish_time
        << R"(,"cpu":)" << rec.cpu_time << R"(,"lost":)" << rec.lost_time
        << R"(,"segments":[)";
    for (std::size_t s = 0; s < kNumSegments; ++s)
      out << (s ? "," : "") << rec.segment_time[s];
    out << R"(],"tasklets":[)";
    for (std::size_t i = 0; i < rec.tasklets.size(); ++i)
      out << (i ? "," : "") << rec.tasklets[i];
    out << "]}\n";
  }
  for (const auto& [id, rec] : outputs_) {
    out << R"({"type":"output","id":)" << id << R"(,"task":)" << rec.task_id
        << R"(,"path":")" << escape(rec.path) << R"(","bytes":)" << rec.bytes
        << R"(,"merged":)" << (rec.merged ? "true" : "false") << "}\n";
  }
}

namespace {
// A line-oriented parser for the journal we write: extracts one scalar or
// array field by key; nullopt when the key is missing or its value is cut
// short.  Not a general JSON parser — only the journal's own format is
// supported.
std::optional<std::string> field(const std::string& line,
                                 const std::string& key) {
  const std::string pat = "\"" + key + "\":";
  const auto pos = line.find(pat);
  if (pos == std::string::npos) return std::nullopt;
  std::size_t begin = pos + pat.size();
  if (line[begin] == '"') {
    std::string out;
    for (std::size_t i = begin + 1; i < line.size(); ++i) {
      if (line[i] == '\\') {
        ++i;
        out += line[i];
      } else if (line[i] == '"') {
        return out;
      } else {
        out += line[i];
      }
    }
    return std::nullopt;
  }
  if (line[begin] == '[') {
    const auto end = line.find(']', begin);
    if (end == std::string::npos) return std::nullopt;
    return line.substr(begin + 1, end - begin - 1);
  }
  std::size_t end = begin;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(begin, end - begin);
}
}  // namespace

Db Db::load_journal(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("db: cannot read " + path);
  Db db;
  std::string line;
  std::size_t number = 0;
  // Every key is checked and every number parsed whole.  A crash in the
  // middle of save_journal leaves a cut-short line, and Scheduler::resume
  // must not rebuild state from it.
  const auto bad = [&](const std::string& key) {
    return std::runtime_error("db: " + path + ":" + std::to_string(number) +
                              ": bad or missing '" + key + "'");
  };
  const auto text = [&](const char* key) {
    const auto v = field(line, key);
    if (!v) throw bad(key);
    return *v;
  };
  const auto integer = [&](const char* key, long long lo, long long hi) {
    const auto v = util::parse_int_strict(text(key));
    if (!v || *v < lo || *v > hi) throw bad(key);
    return *v;
  };
  const auto real = [&](const char* key) {
    const auto v = util::parse_double_strict(text(key));
    if (!v) throw bad(key);
    return *v;
  };
  const auto items = [&](const char* key) {
    std::vector<std::string> out;
    std::istringstream in(text(key));
    for (std::string item; std::getline(in, item, ',');) out.push_back(item);
    return out;
  };
  constexpr long long kMax = std::numeric_limits<long long>::max();
  constexpr long long kU32 = std::numeric_limits<std::uint32_t>::max();
  while (std::getline(in, line)) {
    ++number;
    if (line.empty()) continue;
    if (line.back() != '}') throw bad("}");
    const std::string type = text("type");
    if (type == "tasklet") {
      TaskletRow row;
      row.tasklet.id = static_cast<std::uint64_t>(integer("id", 0, kMax));
      row.tasklet.input_lfn = text("lfn");
      row.tasklet.events =
          static_cast<std::uint64_t>(integer("events", 0, kMax));
      row.tasklet.input_bytes = real("bytes");
      row.tasklet.expected_output_bytes = real("out_bytes");
      row.tasklet.first_lumi.run =
          static_cast<std::uint32_t>(integer("run", 0, kU32));
      row.tasklet.first_lumi.lumi =
          static_cast<std::uint32_t>(integer("lumi0", 0, kU32));
      row.tasklet.last_lumi.run = row.tasklet.first_lumi.run;
      row.tasklet.last_lumi.lumi =
          static_cast<std::uint32_t>(integer("lumi1", 0, kU32));
      row.status = static_cast<TaskletStatus>(
          integer("status", 0, static_cast<long long>(TaskletStatus::Failed)));
      row.attempts = static_cast<std::uint32_t>(integer("attempts", 0, kU32));
      row.task_id = static_cast<std::uint64_t>(integer("task", 0, kMax));
      db.tasklets_.emplace(row.tasklet.id, std::move(row));
    } else if (type == "task") {
      TaskRecord rec;
      rec.task_id = static_cast<std::uint64_t>(integer("id", 0, kMax));
      rec.kind = static_cast<TaskKind>(
          integer("kind", 0, static_cast<long long>(TaskKind::Merge)));
      rec.status = static_cast<TaskStatus>(
          integer("status", 0, static_cast<long long>(TaskStatus::Evicted)));
      rec.exit_code = static_cast<int>(
          integer("exit", std::numeric_limits<int>::min(),
                  std::numeric_limits<int>::max()));
      rec.worker = text("worker");
      rec.submit_time = real("submit");
      rec.finish_time = real("finish");
      rec.cpu_time = real("cpu");
      rec.lost_time = real("lost");
      const auto segs = items("segments");
      if (segs.size() != kNumSegments) throw bad("segments");
      for (std::size_t s = 0; s < kNumSegments; ++s) {
        const auto v = util::parse_double_strict(segs[s]);
        if (!v) throw bad("segments");
        rec.segment_time[s] = *v;
      }
      for (const std::string& t : items("tasklets")) {
        const auto v = util::parse_int_strict(t);
        if (!v || *v < 0) throw bad("tasklets");
        rec.tasklets.push_back(static_cast<std::uint64_t>(*v));
      }
      db.next_task_id_ = std::max(db.next_task_id_, rec.task_id + 1);
      db.tasks_.emplace(rec.task_id, std::move(rec));
    } else if (type == "output") {
      OutputRecord rec;
      rec.output_id = static_cast<std::uint64_t>(integer("id", 0, kMax));
      rec.task_id = static_cast<std::uint64_t>(integer("task", 0, kMax));
      rec.path = text("path");
      rec.bytes = real("bytes");
      const std::string merged = text("merged");
      if (merged != "true" && merged != "false") throw bad("merged");
      rec.merged = merged == "true";
      db.next_output_id_ = std::max(db.next_output_id_, rec.output_id + 1);
      db.outputs_.emplace(rec.output_id, std::move(rec));
    } else {
      throw std::runtime_error("db: unknown journal record type " + type);
    }
  }
  return db;
}

std::size_t Db::recover_in_flight() {
  std::size_t recovered = 0;
  for (auto& [id, rec] : tasks_) {
    if (rec.status != TaskStatus::Submitted &&
        rec.status != TaskStatus::Created)
      continue;
    rec.status = TaskStatus::Evicted;
    rec.exit_code = 179;  // evicted: the crash lost whatever was running
    ++recovered;
    if (rec.kind != TaskKind::Analysis) continue;
    for (std::uint64_t tid : rec.tasklets) {
      auto it = tasklets_.find(tid);
      if (it != tasklets_.end() &&
          it->second.status == TaskletStatus::Assigned) {
        it->second.status = TaskletStatus::Pending;
        ++it->second.attempts;
        it->second.task_id = 0;
      }
    }
  }
  return recovered;
}

std::string Db::tasks_csv() const {
  std::ostringstream out;
  out << "task_id,kind,status,exit_code,worker,submit,finish,cpu,lost";
  for (std::size_t s = 0; s < kNumSegments; ++s)
    out << ',' << to_string(static_cast<Segment>(s));
  out << '\n';
  for (const auto& [id, rec] : tasks_) {
    out << id << ',' << to_string(rec.kind) << ',' << to_string(rec.status)
        << ',' << rec.exit_code << ',' << rec.worker << ',' << rec.submit_time
        << ',' << rec.finish_time << ',' << rec.cpu_time << ','
        << rec.lost_time;
    for (std::size_t s = 0; s < kNumSegments; ++s)
      out << ',' << rec.segment_time[s];
    out << '\n';
  }
  return out.str();
}

}  // namespace lobster::core
