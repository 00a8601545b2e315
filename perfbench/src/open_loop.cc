#include "open_loop.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <deque>
#include <limits>

#include "bench_util.h"
#include "server/framing.h"

namespace perfbench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double MonoMs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

struct Conn {
  int fd = -1;
  bool dead = false;
  mrs::FrameParser parser;
  std::deque<size_t> outstanding;  // request indices, FIFO
  std::string wbuf;
  size_t woff = 0;
  bool want_write = false;
};

int ConnectLoopback(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (!mrs::SetNonBlocking(fd, true).ok()) {
    close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

bool OpenLoopResult::BacklogGrowing(int connections) const {
  const size_t n = outstanding_at_send.size();
  if (n < 30) return false;
  double first = 0.0;
  double last = 0.0;
  for (size_t i = 0; i < n / 3; ++i) first += outstanding_at_send[i];
  for (size_t i = n - n / 3; i < n; ++i) last += outstanding_at_send[i];
  first /= static_cast<double>(n / 3);
  last /= static_cast<double>(n / 3);
  return last > 2.0 * first && last > connections;
}

double OpenLoopResult::GeneratorLateP99() const {
  std::vector<double> sorted = late_ms;
  std::sort(sorted.begin(), sorted.end());
  return Percentile(sorted, 99.0);
}

bool OpenLoopResult::GeneratorFellBehind() const {
  return Median(late_ms) > kMaxGeneratorMedianLateMs;
}

bool MeetsLimit(const OpenLoopResult& r, double limit_ms, int connections) {
  std::vector<double> sorted = r.latency_ms;
  std::sort(sorted.begin(), sorted.end());
  return r.failed == 0 && !sorted.empty() &&
         Percentile(sorted, 99.0) <= limit_ms &&
         !r.BacklogGrowing(connections);
}

RateSearch SearchMaxRate(const std::function<bool(double rate)>& probe,
                         double start_rate, int start_met, double step,
                         double resolution, int max_probes) {
  RateSearch s;
  double& lo = s.max_rps;
  auto record = [&](double rate, bool met) {
    s.trail.emplace_back(rate, met);
    if (met) {
      lo = std::max(lo, rate);
    } else if (s.hi == 0.0 || rate < s.hi) {
      s.hi = rate;
    }
  };
  auto closed = [&] { return lo > 0.0 && s.hi > 0.0 && s.hi / lo <= resolution; };
  if (start_met >= 0) {
    record(start_rate, start_met == 1);
  } else {
    ++s.probes;
    record(start_rate, probe(start_rate));
  }
  while (s.probes < max_probes && !closed()) {
    double rate = 0.0;
    if (lo == 0.0) {
      rate = s.hi / step;
    } else if (s.hi == 0.0) {
      rate = lo * step;
    } else {
      rate = std::sqrt(lo * s.hi);
    }
    ++s.probes;
    record(rate, probe(rate));
  }
  s.resolved = closed();
  return s;
}

OpenLoopResult RunOpenLoop(int port, int connections,
                           const std::vector<Arrival>& stream,
                           const std::vector<std::string>& templates) {
  OpenLoopResult out;
  const size_t n = stream.size();
  out.latency_ms.assign(n, kInf);
  out.late_ms.assign(n, 0.0);
  out.info.assign(n, ResponseInfo{});
  out.attempted = n;
  auto fail = [&](size_t idx, const std::string& why) {
    out.latency_ms[idx] = kInf;
    ++out.failed;
    if (out.errors.size() < 5) out.errors.push_back(why);
  };

  // Frames are encoded up front: the generator's send path is a copy.
  std::vector<std::string> frames;
  frames.reserve(templates.size());
  for (const std::string& t : templates) {
    auto frame = mrs::EncodeFrame(t);
    frames.push_back(frame.ok() ? std::move(frame).value() : std::string());
  }

  const int epfd = epoll_create1(EPOLL_CLOEXEC);
  const int tfd = timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  std::vector<Conn> conns(static_cast<size_t>(std::max(1, connections)));
  for (size_t c = 0; c < conns.size(); ++c) {
    conns[c].fd = ConnectLoopback(port);
    if (conns[c].fd < 0) {
      conns[c].dead = true;
      continue;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = c;
    epoll_ctl(epfd, EPOLL_CTL_ADD, conns[c].fd, &ev);
  }
  {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conns.size();  // the timer
    epoll_ctl(epfd, EPOLL_CTL_ADD, tfd, &ev);
  }

  auto kill_conn = [&](Conn& conn, const std::string& why) {
    if (conn.dead) return;
    conn.dead = true;
    epoll_ctl(epfd, EPOLL_CTL_DEL, conn.fd, nullptr);
    close(conn.fd);
    conn.fd = -1;
    for (size_t idx : conn.outstanding) fail(idx, why);
    conn.outstanding.clear();
  };
  auto set_write_interest = [&](size_t c, bool on) {
    Conn& conn = conns[c];
    if (conn.want_write == on || conn.dead) return;
    conn.want_write = on;
    epoll_event ev{};
    ev.events = EPOLLIN | (on ? EPOLLOUT : 0u);
    ev.data.u64 = c;
    epoll_ctl(epfd, EPOLL_CTL_MOD, conn.fd, &ev);
  };
  auto flush = [&](size_t c) {
    Conn& conn = conns[c];
    while (!conn.dead && conn.woff < conn.wbuf.size()) {
      const ssize_t wrote =
          send(conn.fd, conn.wbuf.data() + conn.woff,
               conn.wbuf.size() - conn.woff, MSG_NOSIGNAL);
      if (wrote > 0) {
        conn.woff += static_cast<size_t>(wrote);
      } else if (wrote < 0 && errno == EINTR) {
        continue;
      } else if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        set_write_interest(c, true);
        return;
      } else {
        kill_conn(conn, "send failed");
        return;
      }
    }
    conn.wbuf.clear();
    conn.woff = 0;
    set_write_interest(c, false);
  };

  int live_outstanding = 0;
  size_t next = 0;
  size_t rr = 0;
  const double t0 = MonoMs();
  double last_progress = 0.0;  // last send or response, ms from t0
  std::string payload;
  std::vector<char> chunk(256 * 1024);
  epoll_event events[16];
  double response_bytes = 0.0;
  uint64_t responses = 0;

  for (;;) {
    double now = MonoMs() - t0;
    // Send everything that is due.
    while (next < n && stream[next].due_ms <= now) {
      const size_t idx = next++;
      size_t best = conns.size();
      for (size_t k = 0; k < conns.size(); ++k) {
        const size_t c = (rr + k) % conns.size();
        if (conns[c].dead) continue;
        if (best == conns.size() ||
            conns[c].outstanding.size() < conns[best].outstanding.size()) {
          best = c;
        }
      }
      rr = (rr + 1) % conns.size();
      out.outstanding_at_send.push_back(live_outstanding);
      out.late_ms[idx] = now - stream[idx].due_ms;
      const std::string& frame =
          frames[static_cast<size_t>(stream[idx].template_index)];
      if (best == conns.size() || frame.empty()) {
        fail(idx, "no live connection");
        continue;
      }
      conns[best].wbuf += frame;
      conns[best].outstanding.push_back(idx);
      flush(best);
      now = MonoMs() - t0;
      last_progress = now;
    }
    live_outstanding = 0;
    for (const Conn& conn : conns) {
      live_outstanding += static_cast<int>(conn.outstanding.size());
    }
    if (next >= n && live_outstanding == 0) break;
    if (next >= n && now > last_progress + kDrainTimeoutMs) {
      for (Conn& conn : conns) kill_conn(conn, "no response before drain timeout");
      break;
    }

    // Sleep until a response arrives or the next send is due.
    int timeout_ms = -1;
    if (next < n) {
      const double due_abs = t0 + stream[next].due_ms;
      itimerspec spec{};
      spec.it_value.tv_sec = static_cast<time_t>(due_abs / 1e3);
      spec.it_value.tv_nsec = static_cast<long>(
          std::fmod(due_abs, 1e3) * 1e6);
      if (spec.it_value.tv_sec == 0 && spec.it_value.tv_nsec == 0) {
        spec.it_value.tv_nsec = 1;
      }
      timerfd_settime(tfd, TFD_TIMER_ABSTIME, &spec, nullptr);
    } else {
      timeout_ms = static_cast<int>(
          std::max(1.0, last_progress + kDrainTimeoutMs - now));
    }
    const int ready = epoll_wait(epfd, events, 16, timeout_ms);
    if (ready < 0 && errno != EINTR) break;
    for (int e = 0; e < ready; ++e) {
      const size_t c = events[e].data.u64;
      if (c == conns.size()) {
        uint64_t expirations = 0;
        [[maybe_unused]] ssize_t r = read(tfd, &expirations, sizeof(expirations));
        continue;
      }
      Conn& conn = conns[c];
      if (conn.dead) continue;
      if (events[e].events & EPOLLOUT) flush(c);
      if (!(events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR))) continue;
      for (;;) {
        const ssize_t got = read(conn.fd, chunk.data(), chunk.size());
        if (got > 0) {
          const double recv_ms = MonoMs() - t0;
          if (!conn.parser.Append(chunk.data(), static_cast<size_t>(got)).ok()) {
            kill_conn(conn, "bad response framing");
            break;
          }
          while (conn.parser.Next(&payload)) {
            if (conn.outstanding.empty()) {
              kill_conn(conn, "unsolicited response");
              break;
            }
            const size_t idx = conn.outstanding.front();
            conn.outstanding.pop_front();
            response_bytes += static_cast<double>(payload.size());
            ++responses;
            last_progress = recv_ms;
            out.last_response_ms = recv_ms;
            std::string error;
            ResponseInfo info;
            if (!CheckScheduleResponse(payload, kServeSites, &info, &error)) {
              fail(idx, error);
              continue;
            }
            out.info[idx] = info;
            out.latency_ms[idx] = recv_ms - stream[idx].due_ms;
          }
          if (conn.dead) break;
          continue;
        }
        if (got < 0 && errno == EINTR) continue;
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        kill_conn(conn, "connection closed by server");
        break;
      }
    }
  }
  out.response_bytes = responses > 0 ? response_bytes / responses : 0.0;
  for (Conn& conn : conns) {
    if (!conn.dead) close(conn.fd);
  }
  close(tfd);
  close(epfd);
  return out;
}

}  // namespace perfbench
