#include "sweep/daemon.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "apps/apps.h"
#include "io/exploration_io.h"
#include "io/request_codec.h"
#include "select/explorer.h"
#include "sweep/coordinator.h"
#include "topo/library.h"

namespace sunmap::sweep {

namespace {

/// One resident (application, library) pair with its live context pool.
/// The app and library are heap-stable, so the pool's identity binding
/// (ExplorerContextPool::bound_app/bound_topologies) holds across requests.
/// The mutex serializes explore() calls over this entry: a context pool is
/// single-consumer, so requests sharing a pool queue on it while requests
/// over other (app, library) pairs run on other accept threads in parallel.
struct PoolEntry {
  std::unique_ptr<mapping::CoreGraph> app;
  std::vector<std::unique_ptr<topo::Topology>> library;
  select::ExplorerContextPool pool;
  std::mutex mutex;
};

/// Finds or creates the resident pool entry a request addresses. The map
/// mutex covers lookup and creation (app + library construction is cheap
/// next to an explore), so two threads never build the same key twice;
/// entries are never erased once created, so the returned reference stays
/// valid after the lock is released (std::map nodes are address-stable).
PoolEntry& resolve_pool(const io::DecodedRequest& decoded,
                        std::map<std::string, PoolEntry>& pools,
                        std::mutex& pools_mutex) {
  if (decoded.app.empty()) {
    throw std::runtime_error("request needs app=<name>");
  }
  const std::string pool_key =
      decoded.app + (decoded.extensions ? "+ext" : "");
  std::lock_guard<std::mutex> lock(pools_mutex);
  const auto [entry_it, inserted] = pools.try_emplace(pool_key);
  if (inserted) {
    auto app = apps::by_name(decoded.app);
    if (!app) {
      pools.erase(entry_it);
      throw std::runtime_error("unknown app " + decoded.app);
    }
    entry_it->second.app =
        std::make_unique<mapping::CoreGraph>(std::move(*app));
    entry_it->second.library = topo::standard_library(
        entry_it->second.app->num_cores(), decoded.extensions);
  }
  return entry_it->second;
}

void write_all_fd(int fd, const char* data, std::size_t size) {
  std::size_t done = 0;
  while (done < size) {
    // MSG_NOSIGNAL: a peer that hung up must not SIGPIPE the process.
    const ssize_t n = ::send(fd, data + done, size - done, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // Peer gone; nothing useful left to do with this conn.
    }
    done += static_cast<std::size_t>(n);
  }
}

/// Reads one request: until a blank terminator line or EOF. Throws
/// std::runtime_error when the whole request has not arrived within
/// kRequestDeadlineMs or exceeds kMaxRequestBytes, so a silent or flooding
/// client holds an accept thread for at most the deadline.
std::string read_request(int fd) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kRequestDeadlineMs);
  std::string text;
  char buffer[4096];
  while (text.find("\n\n") == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    pollfd client{fd, POLLIN, 0};
    const int ready =
        left > 0 ? ::poll(&client, 1, static_cast<int>(left)) : 0;
    if (ready == 0) {
      throw std::runtime_error("no complete request within " +
                               std::to_string(kRequestDeadlineMs) + " ms");
    }
    if (ready < 0) continue;  // EINTR; the deadline still bounds the wait.
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buffer, static_cast<std::size_t>(n));
    if (text.size() > kMaxRequestBytes) {
      throw std::runtime_error("request exceeds " +
                               std::to_string(kMaxRequestBytes) + " bytes");
    }
  }
  return text;
}

}  // namespace

DaemonStats serve(const DaemonOptions& options) {
  if (options.socket_path.empty()) {
    throw std::runtime_error("sweep daemon: socket path is empty");
  }
  if (options.accept_threads < 1 ||
      options.accept_threads > select::kMaxThreads) {
    throw std::runtime_error("sweep daemon: accept_threads must be in [1, " +
                             std::to_string(select::kMaxThreads) + "], got " +
                             std::to_string(options.accept_threads));
  }
  sockaddr_un address{};
  if (options.socket_path.size() >= sizeof(address.sun_path)) {
    throw std::runtime_error("sweep daemon: socket path too long: " +
                             options.socket_path);
  }
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd < 0) {
    throw std::runtime_error("sweep daemon: socket() failed");
  }
  address.sun_family = AF_UNIX;
  std::strncpy(address.sun_path, options.socket_path.c_str(),
               sizeof(address.sun_path) - 1);
  ::unlink(options.socket_path.c_str());
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&address),
             sizeof(address)) != 0 ||
      ::listen(listen_fd, 8) != 0) {
    ::close(listen_fd);
    throw std::runtime_error("sweep daemon: cannot bind " +
                             options.socket_path + ": " +
                             std::strerror(errno));
  }

  // Nonblocking listener: every accept worker polls the same fd, so all of
  // them wake on a connection but only one accept() wins — the losers get
  // EAGAIN and return to poll instead of blocking.
  const int flags = ::fcntl(listen_fd, F_GETFL, 0);
  ::fcntl(listen_fd, F_SETFL, flags | O_NONBLOCK);

  std::map<std::string, PoolEntry> pools;
  std::mutex pools_mutex;
  std::atomic<int> served{0};
  std::atomic<int> failed{0};
  // Remaining request budget. A worker takes one ticket BEFORE accepting,
  // so at most max_requests connections are ever handled no matter how
  // many workers race on the listener; an unused ticket (stop while
  // polling) is returned.
  const bool bounded = options.max_requests >= 0;
  std::atomic<int> tickets{options.max_requests};

  const auto worker = [&]() {
    for (;;) {
      if (stop_requested()) break;
      if (bounded && tickets.fetch_sub(1) <= 0) {
        tickets.fetch_add(1);
        break;
      }
      int conn = -1;
      while (!stop_requested()) {
        pollfd listener{listen_fd, POLLIN, 0};
        const int ready = ::poll(&listener, 1, 200);
        if (ready < 0 && errno != EINTR) break;
        if (ready <= 0) continue;
        conn = ::accept(listen_fd, nullptr, nullptr);
        if (conn >= 0) break;  // EAGAIN: another worker won this one.
      }
      if (conn < 0) {
        if (bounded) tickets.fetch_add(1);
        break;
      }
      std::string response;
      try {
        auto decoded = io::decode_request(read_request(conn));
        PoolEntry& entry = resolve_pool(decoded, pools, pools_mutex);
        std::lock_guard<std::mutex> lock(entry.mutex);
        auto& request = decoded.request;
        request.app = entry.app.get();
        request.library = &entry.library;
        request.context_pool = &entry.pool;
        const std::string json = io::exploration_report_json(
            select::DesignSpaceExplorer().explore(request));
        response = "OK " + std::to_string(json.size()) + "\n" + json;
        const int count = served.fetch_add(1) + 1;
        if (options.verbose) {
          std::fprintf(stderr, "sweep daemon: served request %d (%zu bytes)\n",
                       count, json.size());
        }
      } catch (const std::exception& e) {
        response = std::string("ERR ") + e.what() + "\n";
        failed.fetch_add(1);
        if (options.verbose) {
          std::fprintf(stderr, "sweep daemon: request failed: %s\n", e.what());
        }
      }
      write_all_fd(conn, response.data(), response.size());
      ::close(conn);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(
      static_cast<std::size_t>(options.accept_threads - 1));
  for (int i = 1; i < options.accept_threads; ++i) threads.emplace_back(worker);
  worker();
  for (auto& thread : threads) thread.join();

  ::close(listen_fd);
  ::unlink(options.socket_path.c_str());
  DaemonStats stats;
  stats.requests_served = served.load();
  stats.requests_failed = failed.load();
  return stats;
}

std::string call_daemon(const std::string& socket_path,
                        const std::string& request_text) {
  sockaddr_un address{};
  if (socket_path.size() >= sizeof(address.sun_path)) {
    throw std::runtime_error("sweep daemon: socket path too long: " +
                             socket_path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("sweep daemon: socket() failed");
  address.sun_family = AF_UNIX;
  std::strncpy(address.sun_path, socket_path.c_str(),
               sizeof(address.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&address),
                sizeof(address)) != 0) {
    ::close(fd);
    throw std::runtime_error("sweep daemon: cannot connect to " +
                             socket_path + ": " + std::strerror(errno));
  }
  std::string text = request_text;
  if (text.size() < 2 || text.substr(text.size() - 2) != "\n\n") {
    if (!text.empty() && text.back() != '\n') text += '\n';
    text += '\n';
  }
  write_all_fd(fd, text.data(), text.size());
  ::shutdown(fd, SHUT_WR);

  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);

  if (response.rfind("OK ", 0) == 0) {
    const auto newline = response.find('\n');
    if (newline == std::string::npos) {
      throw std::runtime_error("sweep daemon: malformed OK response");
    }
    return response.substr(newline + 1);
  }
  if (response.rfind("ERR ", 0) == 0) {
    auto message = response.substr(4);
    while (!message.empty() &&
           (message.back() == '\n' || message.back() == '\r')) {
      message.pop_back();
    }
    throw std::runtime_error("sweep daemon: " + message);
  }
  throw std::runtime_error("sweep daemon: malformed response");
}

}  // namespace sunmap::sweep
