// Shared pieces of the benchmark harness: timing, the latency statistics
// every workload reports, the result record printed at the end of a run,
// the in-memory span tracer of the traced run, and child-process helpers.
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds on the steady clock since an arbitrary fixed origin.
double NowMs();

double MsSince(Clock::time_point start);

/// Nearest-rank percentile (q in [0, 100]) of `sorted` (ascending).
double Percentile(const std::vector<double>& sorted, double q);

double Median(std::vector<double> values);

double Mean(const std::vector<double>& values);

/// Geometric mean of positive values.
double Geomean(const std::vector<double>& values);

/// The highest percentile that still has at least `beyond` samples above
/// it: the (beyond+1)-th largest sample, reported with its percentile
/// 100 * (n - beyond) / n and the sample count n. Needs n > beyond.
struct Tail {
  double value = 0.0;
  double pct = 0.0;
  size_t n = 0;
  bool ok = false;
};
Tail TailOf(std::vector<double> samples, size_t beyond = 10);
/// "p98.57, n=700": the percentile and sample count a tail is reported with.
std::string TailNote(const Tail& tail);

/// What one run prints: human-readable lines for every metric the
/// workload measures, then one JSON line with the metrics BENCHMARK.json
/// names for the chosen mode.
class Report {
 public:
  /// Adds a metric to the JSON line (and to the human lines).
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Adds a human-readable line only.
  void Info(const std::string& name, double value, const std::string& unit,
            const std::string& note = "");
  void Note(const std::string& line);
  /// Records `attempted` operations of which `failed` failed.
  void Count(uint64_t attempted, uint64_t failed);
  /// A failed correctness check: counted as a failure, the run is
  /// reported incorrect.
  void CheckFailed(const std::string& what);
  /// Asserts `ok`; on false records CheckFailed(what).
  void Check(bool ok, const std::string& what);

  /// True when Metric(name, ...) was called.
  bool HasMetric(const std::string& name) const;

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return correct_; }

  /// Prints the human lines and the final JSON line to stdout.
  void Print() const;

 private:
  struct Line {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Line> lines_;
  std::vector<std::string> notes_;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> json_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

/// In-memory spans for the traced run: name, start, end, parent span and
/// request id. Recorded only from the benchmark's own code around calls
/// into the program's layers; written out when the run ends.
class Tracer {
 public:
  /// Opens a span; returns its index. `parent` is -1 for a root span.
  int Begin(const std::string& name, int64_t request, int parent = -1);
  void End(int span);
  /// Duration of a closed span in ms.
  double DurationMs(int span) const;

  /// Per-name self time: a span's duration minus the part of it covered
  /// by its children, summed over all spans of that name.
  std::map<std::string, double> SelfMsByName() const;
  /// Per-name span count.
  std::map<std::string, int64_t> CountByName() const;

  /// Writes one JSON object per span, one per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int64_t request = -1;
    int parent = -1;
    double start_ms = 0.0;
    double end_ms = 0.0;
  };
  std::vector<Span> spans_;
};

/// RAII span scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int64_t request,
             int parent = -1)
      : tracer_(tracer),
        span_(tracer != nullptr ? tracer->Begin(name, request, parent) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int span_;
};

/// A child process running this executable with `args`, its stdin and
/// stdout connected to pipes. Destruction closes stdin and reaps it.
class Child {
 public:
  Child() = default;
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Spawns `self_exe args...`. False on failure.
  bool Start(const std::string& self_exe, const std::vector<std::string>& args);
  /// Reads one line from the child's stdout (without the newline); false
  /// at EOF or when `timeout_ms` passes first.
  bool ReadLine(std::string* line, double timeout_ms);
  /// Closes the child's stdin (its signal to finish), drains its stdout
  /// into `rest` (may be null) and waits for it. Returns the exit code, or
  /// -1 when it did not exit normally.
  int Finish(std::string* rest = nullptr, double timeout_ms = 30000.0);
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  int in_fd_ = -1;
  int out_fd_ = -1;
  std::string buffer_;
};

/// Resident set size of `pid` in KB from /proc; -1 when unreadable.
long ReadRssKb(pid_t pid);

/// Path of the running executable.
std::string SelfExe();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
