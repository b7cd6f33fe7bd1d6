#include "daemon.h"

#include <dirent.h>
#include <fcntl.h>
#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "serve/http_client.h"

extern char** environ;

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Value of a "Key:   123 kB" line of a /proc status file, or -1.
double StatusField(const std::string& status, const std::string& key) {
  std::istringstream lines(status);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.size() > key.size() && line.compare(0, key.size(), key) == 0 &&
        line[key.size()] == ':') {
      return std::atof(line.c_str() + key.size() + 1);
    }
  }
  return -1.0;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

}  // namespace

hlm::Result<ProcSample> SampleProc(pid_t pid) {
  const std::string dir = "/proc/" + std::to_string(pid);
  const std::string status = ReadFile(dir + "/status");
  ProcSample sample;
  sample.vm_hwm_mb = StatusField(status, "VmHWM") / 1024.0;
  sample.vm_size_mb = StatusField(status, "VmSize") / 1024.0;
  sample.threads = StatusField(status, "Threads");
  if (sample.vm_hwm_mb < 0 || sample.threads < 0) {
    return hlm::Status::NotFound("cannot read " + dir + "/status");
  }
  DIR* fds = ::opendir((dir + "/fd").c_str());
  if (fds == nullptr) return hlm::Status::NotFound("cannot list " + dir + "/fd");
  while (const struct dirent* entry = ::readdir(fds)) {
    if (entry->d_name[0] != '.') sample.fds += 1.0;
  }
  ::closedir(fds);
  return sample;
}

namespace {

double SelfStatusMb(const std::string& key) {
  return StatusField(ReadFile("/proc/self/status"), key) / 1024.0;
}

}  // namespace

RssPeak::RssPeak() {
  ::malloc_trim(0);
  base_mb_ = SelfStatusMb("VmRSS");
  std::ofstream("/proc/self/clear_refs") << "5";
}

double RssPeak::GrowthMb() const { return SelfStatusMb("VmHWM") - base_mb_; }

namespace {

/// Spawns `args` with stdout and stderr appended to `log_file`.
hlm::Result<pid_t> Spawn(std::vector<std::string> args,
                         const std::string& log_file) {
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_file.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(),
                               environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) return hlm::Status::Internal("cannot spawn " + args[0]);
  return pid;
}

}  // namespace

KeepAwake::KeepAwake(int cores) {
  for (int i = 0; i < cores; ++i) {
    threads_.emplace_back([this] {
      sched_param param{};
      ::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
        __builtin_ia32_pause();
      }
    });
  }
}

KeepAwake::~KeepAwake() {
  stop_.store(true);
  for (std::thread& t : threads_) t.join();
}

hlm::Result<JobResult> RunJob(const std::vector<std::string>& args,
                              const std::string& log_file) {
  const Clock::time_point start = Clock::now();
  hlm::Result<pid_t> pid = Spawn(args, log_file);
  if (!pid.ok()) return pid.status();
  int status = 0;
  struct rusage usage {};
  if (::wait4(pid.value(), &status, 0, &usage) != pid.value()) {
    return hlm::Status::Internal("cannot reap " + args[0]);
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return hlm::Status::Internal(args[0] + " failed; see " + log_file);
  }
  JobResult result;
  result.wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  result.max_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return result;
}

hlm::Result<std::unique_ptr<Daemon>> Daemon::Start(
    const std::string& binary, const std::string& manifest,
    int poll_interval_ms, const std::string& work_dir) {
  const std::string port_file = work_dir + "/daemon.port";
  ::unlink(port_file.c_str());
  std::unique_ptr<Daemon> daemon(new Daemon());
  const std::string log_file = work_dir + "/daemon.log";
  hlm::Result<pid_t> pid =
      Spawn({binary, "--manifest", manifest, "--port", "0", "--port_file",
             port_file, "--poll_interval_ms", std::to_string(poll_interval_ms)},
            log_file);
  if (!pid.ok()) return pid.status();
  daemon->pid_ = pid.value();

  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
  while (daemon->port_ == 0) {
    if (Clock::now() > deadline || ::waitpid(daemon->pid_, nullptr, WNOHANG) != 0) {
      return hlm::Status::Internal("daemon did not start; see " + log_file);
    }
    const std::string text = ReadFile(port_file);
    if (!text.empty() && text.back() == '\n') daemon->port_ = std::stoi(text);
    else std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  while (true) {
    hlm::Result<hlm::serve::HttpClient> client =
        hlm::serve::HttpClient::Connect("127.0.0.1", daemon->port_);
    if (client.ok()) {
      hlm::Result<hlm::serve::HttpResponse> health = client->Get("/healthz");
      if (health.ok() && health->status_code == 200) break;
    }
    if (Clock::now() > deadline) {
      return hlm::Status::Internal("daemon never answered /healthz");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return daemon;
}

Daemon::~Daemon() { Stop(); }

void Daemon::Stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(10);
  while (::waitpid(pid_, nullptr, WNOHANG) == 0) {
    if (Clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
}

}  // namespace perfbench
