#ifndef PERFBENCH_DAEMON_H_
#define PERFBENCH_DAEMON_H_

#include <sys/types.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// Resource readings of a process from /proc/<pid>.
struct ProcSample {
  double vm_hwm_mb = 0.0;
  double vm_size_mb = 0.0;
  double threads = 0.0;
  double fds = 0.0;
};

/// Reads VmHWM, VmSize, Threads and the open-fd count of `pid`.
hlm::Result<ProcSample> SampleProc(pid_t pid);

/// Peak RSS growth of this process over a stretch of work: returns
/// freed heap pages to the OS and resets VmHWM at construction, so
/// GrowthMb() is the peak the work added above the RSS it started from.
class RssPeak {
 public:
  RssPeak();
  double GrowthMb() const;

 private:
  double base_mb_ = 0.0;
};

/// Keeps every core of the VM awake for its lifetime: one spinning thread
/// per core at SCHED_IDLE, which runs only when nothing else wants the
/// core and yields it at once when something does. A vCPU left idle halts,
/// and on the VM the benchmark was tuned on a halted vCPU takes about a
/// second to run again, so work after a quiet spell otherwise runs on
/// fewer cores than it asked for, by an amount that changes from run to run.
class KeepAwake {
 public:
  explicit KeepAwake(int cores);
  ~KeepAwake();
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// A child process run to completion.
struct JobResult {
  double wall_s = 0.0;      // spawn to reaped
  double max_rss_mb = 0.0;  // the child's peak RSS (ru_maxrss)
};

/// Runs `args` (args[0] is the binary) with stdout and stderr appended to
/// `log_file`, waits for it and reports its peak RSS. A non-zero exit is
/// an error.
hlm::Result<JobResult> RunJob(const std::vector<std::string>& args,
                              const std::string& log_file);

/// A live hlm_serve child process on an ephemeral loopback port. The
/// destructor stops it (SIGTERM, then SIGKILL) and reaps it.
class Daemon {
 public:
  /// Spawns `binary --manifest ... --port 0` with the given manifest
  /// poll interval, waits for its port file, then polls /healthz until
  /// the first 200. Port file and log go to `work_dir`.
  static hlm::Result<std::unique_ptr<Daemon>> Start(
      const std::string& binary, const std::string& manifest,
      int poll_interval_ms, const std::string& work_dir);

  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// Stops and reaps the process; idempotent.
  void Stop();

 private:
  Daemon() = default;

  pid_t pid_ = -1;
  int port_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_DAEMON_H_
