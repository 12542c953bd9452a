#include "perfbench/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

extern char** environ;

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kStartTimeoutS = 120.0;
constexpr double kStopGraceS = 20.0;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Waits for `pid` up to `timeout_s`; true once reaped (status in *status).
bool WaitFor(pid_t pid, double timeout_s, int* status) {
  const Clock::time_point start = Clock::now();
  while (true) {
    const pid_t done = waitpid(pid, status, WNOHANG);
    if (done == pid || (done < 0 && errno != EINTR)) {
      return true;
    }
    if (SecondsSince(start) > timeout_s) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace

ServerProcess::~ServerProcess() { Stop(); }

bool ServerProcess::Start(const std::string& binary, const std::vector<std::string>& args,
                          double* setup_s, std::string* error) {
  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDERR_FILENO);
  posix_spawn_file_actions_addclose(&actions, pipe_fds[0]);
  posix_spawn_file_actions_addclose(&actions, pipe_fds[1]);
  posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null", O_WRONLY, 0);
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(binary.c_str()));
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);

  const Clock::time_point start = Clock::now();
  const int spawned = posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(pipe_fds[1]);
  stderr_fd_ = pipe_fds[0];
  fcntl(stderr_fd_, F_SETFL, fcntl(stderr_fd_, F_GETFL) | O_NONBLOCK);
  if (spawned != 0) {
    pid_ = -1;
    *error = "spawn " + binary + ": " + std::strerror(spawned);
    return false;
  }

  // The server announces "maya_serve: listening on HOST:PORT" on stderr.
  std::string log;
  const std::string marker = "listening on ";
  while (SecondsSince(start) < kStartTimeoutS) {
    pollfd pfd{stderr_fd_, POLLIN, 0};
    if (poll(&pfd, 1, 100) <= 0) {
      continue;
    }
    char buffer[4096];
    const ssize_t n = read(stderr_fd_, buffer, sizeof(buffer));
    if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
      continue;
    }
    if (n <= 0) {
      break;  // the child exited before listening
    }
    log.append(buffer, static_cast<size_t>(n));
    const size_t at = log.find(marker);
    const size_t eol = at == std::string::npos ? at : log.find('\n', at);
    if (eol != std::string::npos) {
      *setup_s = SecondsSince(start);
      const std::string endpoint = log.substr(at + marker.size(), eol - at - marker.size());
      port_ = std::atoi(endpoint.c_str() + endpoint.rfind(':') + 1);
      return port_ > 0;
    }
  }
  *error = "maya_serve did not start listening; its stderr:\n" + log;
  return false;
}

double ServerProcess::PeakRssMb() const {
  if (pid_ <= 0) {
    return 0.0;
  }
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

bool ServerProcess::Stop() {
  if (pid_ <= 0) {
    return true;
  }
  // maya_serve waits for SIGTERM with a flag check followed by pause(); a
  // signal landing between the two is lost and the server sleeps on. So the
  // signal is repeated each second until the child exits (and counted).
  int status = 0;
  int sigterms = 0;
  const Clock::time_point start = Clock::now();
  bool reaped = false;
  while (!reaped && SecondsSince(start) < kStopGraceS) {
    if (SecondsSince(start) >= sigterms) {
      kill(pid_, SIGTERM);
      ++sigterms;
    }
    // Drain stderr so a chatty shutdown cannot block on the pipe.
    char buffer[4096];
    while (read(stderr_fd_, buffer, sizeof(buffer)) > 0) {
    }
    reaped = WaitFor(pid_, 0.02, &status);
  }
  if (!reaped) {
    kill(pid_, SIGKILL);
    WaitFor(pid_, kStopGraceS, &status);
  }
  if (sigterms > 1) {
    std::fprintf(stderr, "perfbench: maya_serve needed %d SIGTERMs to drain\n", sigterms);
  }
  close(stderr_fd_);
  stderr_fd_ = -1;
  pid_ = -1;
  return reaped && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

LineConnection::~LineConnection() {
  if (fd_ >= 0) {
    close(fd_);
  }
}

bool LineConnection::Connect(int port) {
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return false;
  }
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fcntl(fd_, F_SETFL, fcntl(fd_, F_GETFL) | O_NONBLOCK) == 0;
}

bool LineConnection::SendAll(const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      pollfd pfd{fd_, POLLOUT, 0};
      poll(&pfd, 1, 100);
    } else {
      return false;
    }
  }
  return true;
}

bool LineConnection::ReadLines(std::vector<std::string>* lines) {
  char buffer[1 << 16];
  bool open = true;
  while (true) {
    const ssize_t n = recv(fd_, buffer, sizeof(buffer), 0);
    if (n > 0) {
      pending_.append(buffer, static_cast<size_t>(n));
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      open = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
      break;
    }
  }
  size_t begin = 0;
  for (size_t eol = pending_.find('\n'); eol != std::string::npos;
       eol = pending_.find('\n', begin)) {
    lines->emplace_back(pending_, begin, eol - begin);
    begin = eol + 1;
  }
  pending_.erase(0, begin);
  return open;
}

}  // namespace perfbench
