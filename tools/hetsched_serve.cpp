// hetsched_serve -- the long-lived factorization daemon (docs/serving.md).
//
//   hetsched_serve --socket=PATH [--threads=T] [--max-batch=B]
//                  [--policy=SPEC] [--max-depth=D] [--max-latency-ms=L]
//                  [--retries=R] [--seed=S] [--default-deadline-ms=D]
//                  [--kill-worker=W --kill-at=T]
//
// --policy takes a SchedulerRegistry spec ("priority", "ws",
// "hybrid:static_fraction=0.6", ...; --policy=help lists them); it drives
// every batch run. The default, "priority", preserves the historical
// central submission-order queue. Every numeric flag must be a whole,
// in-range number ("--threads=2x" or "--max-depth=-1" exit 2 with usage).
//
// Serves FactorizationServer over a Unix domain socket with a line
// protocol (one request line in, one response line out per command):
//
//   SUBMIT <tiles> <nb> <seed> <priority> <deadline_ms>
//     -> OK <id> <depth> [shed <id>]      admitted
//     -> REJECT <reason> <detail...>      not admitted
//   STATUS <id>   -> <STATE> <id> <state> <attempts> <latency_ms> [error...]
//   WAIT <id>     -> DONE <id> <state> <attempts> <latency_ms> [error...]
//                    (blocks until the job is terminal)
//   METRICS       -> one JSON object (FactorizationServer::metrics_json)
//   DRAIN         -> OK draining          (stop admitting; jobs finish)
//   PING          -> PONG
//
// SIGTERM / SIGINT trigger a graceful drain: stop accepting connections,
// stop admitting, let queued + in-flight jobs finish, flush metric sinks,
// print the final metrics JSON on stdout and exit 0. Worker faults
// (--kill-worker) are injected into every batch run; the daemon stays up.
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "hetsched.hpp"

namespace {

using namespace hetsched;
using serve::FactorizationServer;

int g_signal_pipe[2] = {-1, -1};

void on_terminate(int) {
  const char byte = 1;
  // Best effort: a full pipe already has a wakeup pending.
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "error: %s\n", why);
  std::fprintf(stderr,
               "usage: hetsched_serve --socket=PATH [--threads=T] "
               "[--max-batch=B]\n"
               "       [--policy=SPEC] (--policy=help lists policies)\n"
               "       [--max-depth=D] [--max-latency-ms=L] [--retries=R]\n"
               "       [--seed=S] [--default-deadline-ms=D]\n"
               "       [--kill-worker=W --kill-at=T]\n"
               "       (see the header of tools/hetsched_serve.cpp and "
               "docs/serving.md)\n");
  std::exit(2);
}

struct DaemonArgs {
  std::string socket_path;
  serve::ServerOptions server;
  double default_deadline_ms = 0.0;  ///< applied when SUBMIT passes 0
};

bool flag(const std::string& arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

// Whole-string integer in [lo, hi]; anything else exits through usage().
long long int_flag(const char* name, const std::string& v, long long lo,
                   long long hi) {
  long long x = 0;
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, x);
  if (v.empty() || ec != std::errc() || ptr != end || x < lo || x > hi)
    usage(("--" + std::string(name) + " takes an integer in [" +
           std::to_string(lo) + ", " + std::to_string(hi) + "], got '" + v +
           "'")
              .c_str());
  return x;
}

// Whole-string finite number >= 0; anything else exits through usage().
double real_flag(const char* name, const std::string& v) {
  double x = 0.0;
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, x);
  if (v.empty() || ec != std::errc() || ptr != end || !std::isfinite(x) ||
      x < 0.0)
    usage(("--" + std::string(name) +
           " takes a finite number >= 0, got '" + v + "'")
              .c_str());
  return x;
}

DaemonArgs parse(int argc, char** argv) {
  constexpr long long kIntMax = std::numeric_limits<int>::max();
  DaemonArgs a;
  int kill_worker = -1;
  double kill_at = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (flag(arg, "socket", &v)) a.socket_path = v;
    else if (flag(arg, "threads", &v))
      a.server.threads = static_cast<int>(int_flag("threads", v, 1, kIntMax));
    else if (flag(arg, "max-batch", &v))
      a.server.max_batch =
          static_cast<int>(int_flag("max-batch", v, 1, kIntMax));
    else if (flag(arg, "policy", &v)) a.server.policy = v;
    else if (flag(arg, "max-depth", &v))
      a.server.admission.max_depth =
          static_cast<std::size_t>(int_flag("max-depth", v, 1, kIntMax));
    else if (flag(arg, "max-latency-ms", &v))
      a.server.admission.max_latency_ms = real_flag("max-latency-ms", v);
    else if (flag(arg, "retries", &v))
      a.server.retry.max_retries =
          static_cast<int>(int_flag("retries", v, 0, kIntMax));
    else if (flag(arg, "seed", &v))
      a.server.seed = static_cast<unsigned>(
          int_flag("seed", v, 0, std::numeric_limits<unsigned>::max()));
    else if (flag(arg, "default-deadline-ms", &v))
      a.default_deadline_ms = real_flag("default-deadline-ms", v);
    else if (flag(arg, "kill-worker", &v))
      kill_worker = static_cast<int>(int_flag("kill-worker", v, 0, kIntMax));
    else if (flag(arg, "kill-at", &v)) kill_at = real_flag("kill-at", v);
    else
      usage(("unknown option " + arg).c_str());
  }
  if (a.server.policy == "help" || a.server.policy == "list") {
    std::fputs(sched::scheduler_help_text().c_str(), stdout);
    std::exit(0);
  }
  if (a.socket_path.empty()) usage("missing --socket=PATH");
  if (kill_worker >= 0)
    a.server.faults.deaths.push_back({kill_worker, kill_at});
  return a;
}

bool send_line(int fd, const std::string& line) {
  const std::string msg = line + "\n";
  std::size_t off = 0;
  while (off < msg.size()) {
    const ssize_t n = ::write(fd, msg.data() + off, msg.size() - off);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::string job_line(const char* verb, const FactorizationServer::JobStatus& s) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s %d %s %d %.3f", verb, s.id,
                serve::to_string(s.state), s.attempts, s.latency_ms);
  std::string line = buf;
  if (!s.error.empty()) line += " " + s.error;
  return line;
}

/// One request line -> one response line. Returns false when the
/// connection should close (unparseable request).
std::string handle(FactorizationServer& server, double default_deadline_ms,
                   const std::string& req) {
  if (req == "PING") return "PONG";
  if (req == "METRICS") return server.metrics_json();
  if (req == "DRAIN") {
    server.drain();
    return "OK draining";
  }
  int tiles = 0, nb = 0, priority = 0;
  unsigned seed = 0;
  double deadline_ms = 0.0;
  if (std::sscanf(req.c_str(), "SUBMIT %d %d %u %d %lf", &tiles, &nb, &seed,
                  &priority, &deadline_ms) == 5) {
    serve::JobSpec spec;
    spec.tiles = tiles;
    spec.nb = nb;
    spec.seed = seed;
    spec.priority = priority;
    spec.deadline_ms = deadline_ms > 0.0 ? deadline_ms : default_deadline_ms;
    const serve::SubmitResult res = server.submit(spec);
    if (!res.admitted)
      return std::string("REJECT ") + serve::to_string(res.reason) + " " +
             res.message;
    std::string line = "OK " + std::to_string(res.id) + " " +
                       std::to_string(res.depth);
    if (res.shed_id >= 0) line += " shed " + std::to_string(res.shed_id);
    return line;
  }
  int id = -1;
  if (std::sscanf(req.c_str(), "WAIT %d", &id) == 1) {
    const FactorizationServer::JobStatus s = server.wait(id);
    if (!s.known) return "ERR unknown job " + std::to_string(id);
    return job_line("DONE", s);
  }
  if (std::sscanf(req.c_str(), "STATUS %d", &id) == 1) {
    const FactorizationServer::JobStatus s = server.status(id);
    if (!s.known) return "ERR unknown job " + std::to_string(id);
    return job_line("STATE", s);
  }
  return "ERR bad request";
}

void serve_connection(FactorizationServer* server, double default_deadline_ms,
                      int fd) {
  std::string line;
  char c = 0;
  for (;;) {
    const ssize_t n = ::read(fd, &c, 1);
    if (n <= 0) break;
    if (c != '\n') {
      line.push_back(c);
      continue;
    }
    if (!send_line(fd, handle(*server, default_deadline_ms, line))) break;
    line.clear();
  }
  ::close(fd);
}

}  // namespace

int main(int argc, char** argv) {
  const DaemonArgs a = parse(argc, argv);

  FactorizationServer server(a.server);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::perror("pipe");
    return 1;
  }
  struct sigaction sa{};
  sa.sa_handler = on_terminate;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);  // a client hanging up must not kill us

  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    std::perror("socket");
    return 1;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (a.socket_path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "error: socket path too long: %s\n",
                 a.socket_path.c_str());
    return 2;
  }
  std::strncpy(addr.sun_path, a.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ::unlink(a.socket_path.c_str());  // stale socket from a previous run
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd, 16) != 0) {
    std::perror("bind/listen");
    ::close(listen_fd);
    return 1;
  }
  std::fprintf(stderr, "hetsched_serve: listening on %s (%d threads, batch "
               "up to %d)\n",
               a.socket_path.c_str(), a.server.threads, a.server.max_batch);

  // Open connection fds, so shutdown can unblock handler threads stuck in
  // read() on an idle client.
  std::mutex conn_mu;
  std::vector<int> conn_fds;
  std::vector<std::thread> handlers;

  for (;;) {
    pollfd fds[2] = {{listen_fd, POLLIN, 0}, {g_signal_pipe[0], POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      std::perror("poll");
      break;
    }
    if (fds[1].revents != 0) break;  // SIGTERM/SIGINT: drain and exit
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) continue;
    {
      std::lock_guard<std::mutex> lock(conn_mu);
      conn_fds.push_back(conn);
    }
    handlers.emplace_back(serve_connection, &server, a.default_deadline_ms,
                          conn);
  }

  std::fprintf(stderr, "hetsched_serve: draining...\n");
  ::close(listen_fd);
  ::unlink(a.socket_path.c_str());
  // Graceful: stop admitting, finish queued + in-flight jobs, flush sinks.
  server.shutdown(FactorizationServer::Shutdown::kGraceful);
  {
    // Unblock handlers parked in read(); WAIT responses already went out
    // because every job is terminal after the graceful shutdown.
    std::lock_guard<std::mutex> lock(conn_mu);
    for (const int fd : conn_fds) ::shutdown(fd, SHUT_RDWR);
  }
  for (std::thread& t : handlers) t.join();
  std::printf("%s\n", server.metrics_json().c_str());
  std::fprintf(stderr, "hetsched_serve: drained, exiting\n");
  return 0;
}
