// The production server as a child process, and the loopback connections
// the load generator drives it through.
#ifndef PERFBENCH_SERVER_H_
#define PERFBENCH_SERVER_H_

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

// `maya_serve --listen=127.0.0.1:0` started as a child. Start() returns once
// the server announces its port; the destructor stops it (SIGTERM, then
// SIGKILL after a grace period) and reaps it.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  // Spawns `binary` with `args` and waits for the listening line. On success
  // `setup_s` holds the seconds from spawn to that line.
  bool Start(const std::string& binary, const std::vector<std::string>& args, double* setup_s,
             std::string* error);
  // Peak resident set (VmHWM) of the running child, in MiB; 0 if unknown.
  double PeakRssMb() const;
  // Graceful drain; returns true when the child exited with status 0.
  bool Stop();

  int port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int stderr_fd_ = -1;
  int port_ = 0;
};

// One blocking-connect, non-blocking-IO loopback connection speaking the
// NDJSON line protocol.
class LineConnection {
 public:
  LineConnection() = default;
  ~LineConnection();
  LineConnection(const LineConnection&) = delete;
  LineConnection& operator=(const LineConnection&) = delete;

  bool Connect(int port);
  int fd() const { return fd_; }
  // Writes the whole buffer (polling while the socket is full).
  bool SendAll(const std::string& bytes);
  // Reads what is available (non-blocking) and appends complete lines to
  // `lines`. Returns false on EOF or error.
  bool ReadLines(std::vector<std::string>* lines);

 private:
  int fd_ = -1;
  std::string pending_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVER_H_
