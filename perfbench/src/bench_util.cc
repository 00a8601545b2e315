#include "bench_util.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

extern char** environ;

namespace perfbench {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             Clock::now().time_since_epoch())
      .count();
}

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(q / 100.0 * n));
  if (rank < 1) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double Geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

Tail TailOf(std::vector<double> samples, size_t beyond) {
  Tail tail;
  tail.n = samples.size();
  if (samples.size() <= beyond) return tail;
  std::sort(samples.begin(), samples.end());
  tail.value = samples[samples.size() - beyond - 1];
  tail.pct = 100.0 * static_cast<double>(samples.size() - beyond) /
             static_cast<double>(samples.size());
  tail.ok = true;
  return tail;
}

std::string TailNote(const Tail& tail) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "p%.2f, n=%zu", tail.pct, tail.n);
  return buf;
}

// ---------------------------------------------------------------- Report

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  json_.push_back({name, {value, unit}});
  lines_.push_back({name, value, unit, ""});
}

bool Report::HasMetric(const std::string& name) const {
  for (const auto& entry : json_) {
    if (entry.first == name) return true;
  }
  return false;
}

void Report::Info(const std::string& name, double value,
                  const std::string& unit, const std::string& note) {
  lines_.push_back({name, value, unit, note});
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Count(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) correct_ = false;
}

void Report::CheckFailed(const std::string& what) {
  notes_.push_back("CHECK FAILED: " + what);
  ++failed_;
  correct_ = false;
}

void Report::Check(bool ok, const std::string& what) {
  if (!ok) CheckFailed(what);
}

void Report::Print() const {
  for (const std::string& note : notes_) std::printf("# %s\n", note.c_str());
  for (const Line& line : lines_) {
    std::printf("%-36s %16.6f %-10s %s\n", line.name.c_str(), line.value,
                line.unit.c_str(), line.note.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct_ ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value_unit] : json_) {
    if (!first) json += ", ";
    first = false;
    double value = value_unit.first;
    if (!std::isfinite(value)) value = 1e300;  // only on failed runs
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    json += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" +
            value_unit.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------- Tracer

int Tracer::Begin(const std::string& name, int64_t request, int parent) {
  Span span;
  span.name = name;
  span.request = request;
  span.parent = parent;
  span.start_ms = NowMs();
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int span) {
  spans_[static_cast<size_t>(span)].end_ms = NowMs();
}

double Tracer::DurationMs(int span) const {
  const Span& s = spans_[static_cast<size_t>(span)];
  return s.end_ms - s.start_ms;
}

std::map<std::string, double> Tracer::SelfMsByName() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ms[static_cast<size_t>(s.parent)] += s.end_ms - s.start_ms;
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += spans_[i].end_ms - spans_[i].start_ms - child_ms[i];
  }
  return out;
}

std::map<std::string, int64_t> Tracer::CountByName() const {
  std::map<std::string, int64_t> out;
  for (const Span& s : spans_) ++out[s.name];
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  char line[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"id\":%zu,\"name\":\"%s\",\"request\":%lld,"
                  "\"parent\":%d,\"start_ms\":%.6f,\"end_ms\":%.6f}\n",
                  i, s.name.c_str(), static_cast<long long>(s.request),
                  s.parent, s.start_ms, s.end_ms);
    out << line;
  }
  return out.good();
}

// ---------------------------------------------------------------- Child

Child::~Child() {
  if (pid_ > 0) Finish(nullptr, 5000.0);
}

bool Child::Start(const std::string& self_exe,
                  const std::vector<std::string>& args) {
  int in_pipe[2];
  int out_pipe[2];
  if (pipe2(in_pipe, O_CLOEXEC) != 0) return false;
  if (pipe2(out_pipe, O_CLOEXEC) != 0) {
    close(in_pipe[0]);
    close(in_pipe[1]);
    return false;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, in_pipe[0], 0);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);
  std::vector<std::string> storage;
  storage.push_back(self_exe);
  for (const auto& a : args) storage.push_back(a);
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, self_exe.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(in_pipe[0]);
  close(out_pipe[1]);
  if (rc != 0) {
    close(in_pipe[1]);
    close(out_pipe[0]);
    return false;
  }
  pid_ = pid;
  in_fd_ = in_pipe[1];
  out_fd_ = out_pipe[0];
  return true;
}

bool Child::ReadLine(std::string* line, double timeout_ms) {
  const auto start = Clock::now();
  for (;;) {
    const size_t eol = buffer_.find('\n');
    if (eol != std::string::npos) {
      *line = buffer_.substr(0, eol);
      buffer_.erase(0, eol + 1);
      return true;
    }
    const double left = timeout_ms - MsSince(start);
    if (left <= 0 || out_fd_ < 0) return false;
    pollfd pfd{out_fd_, POLLIN, 0};
    const int ready = poll(&pfd, 1, static_cast<int>(std::ceil(left)));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    char chunk[4096];
    const ssize_t got = read(out_fd_, chunk, sizeof(chunk));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(got));
  }
}

int Child::Finish(std::string* rest, double timeout_ms) {
  if (pid_ <= 0) return -1;
  if (in_fd_ >= 0) {
    close(in_fd_);
    in_fd_ = -1;
  }
  const auto start = Clock::now();
  std::string line;
  while (ReadLine(&line, timeout_ms - MsSince(start))) {
    if (rest != nullptr) *rest += line + "\n";
  }
  if (out_fd_ >= 0) {
    close(out_fd_);
    out_fd_ = -1;
  }
  int status = 0;
  pid_t done = 0;
  while ((done = waitpid(pid_, &status, WNOHANG)) == 0 &&
         MsSince(start) < timeout_ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (done == 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

long ReadRssKb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmRSS:") {
      long kb = -1;
      in >> kb;
      return kb;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return -1;
}

std::string SelfExe() {
  char path[4096];
  const ssize_t n = readlink("/proc/self/exe", path, sizeof(path) - 1);
  if (n <= 0) return "";
  path[n] = '\0';
  return path;
}

}  // namespace perfbench
