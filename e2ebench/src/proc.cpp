#include "proc.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <spawn.h>
#include <stdexcept>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

extern char** environ;

namespace e2ebench {

namespace {

std::atomic<pid_t> g_live_daemon{-1};

std::vector<char*> c_argv(const std::vector<std::string>& argv) {
  std::vector<char*> out;
  for (const auto& a : argv) out.push_back(const_cast<char*>(a.c_str()));
  out.push_back(nullptr);
  return out;
}

int decode_status(int status) {
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

}  // namespace

ChildResult run_child(const std::vector<std::string>& argv, const std::string& err_path) {
  int pipefd[2];
  if (pipe2(pipefd, O_CLOEXEC) != 0) throw std::runtime_error("pipe: " + std::string(strerror(errno)));
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, pipefd[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, err_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  auto args = c_argv(argv);
  ChildResult r;
  const auto t0 = std::chrono::steady_clock::now();
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, args[0], &fa, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  close(pipefd[1]);
  if (rc != 0) {
    close(pipefd[0]);
    throw std::runtime_error("spawn " + argv[0] + ": " + strerror(rc));
  }
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(pipefd[0], buf, sizeof buf);
    if (n > 0) {
      r.out.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(pipefd[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  r.wall_ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  r.exit_code = decode_status(status);
  return r;
}

Daemon::Daemon(const std::vector<std::string>& argv, const std::string& log_path) {
  auto args = c_argv(argv);
  const int log_fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) throw std::runtime_error("open " + log_path + ": " + strerror(errno));
  const pid_t parent = getpid();
  pid_ = fork();
  if (pid_ < 0) {
    close(log_fd);
    throw std::runtime_error("fork: " + std::string(strerror(errno)));
  }
  if (pid_ == 0) {
    // Die with the benchmark, even if it is killed without a chance to
    // clean up; re-check the parent in case it died before prctl.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(log_fd, STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    execv(args[0], args.data());
    _exit(127);
  }
  close(log_fd);
  g_live_daemon.store(pid_);
}

Daemon::~Daemon() { stop(); }

bool Daemon::running() {
  if (pid_ <= 0) return false;
  int status = 0;
  if (waitpid(pid_, &status, WNOHANG) != pid_) return true;
  exit_code_ = decode_status(status);
  g_live_daemon.store(-1);
  pid_ = -1;
  return false;
}

int Daemon::stop(int grace_ms) {
  if (pid_ <= 0) return exit_code_;
  kill(pid_, SIGTERM);
  int status = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(grace_ms);
  for (;;) {
    const pid_t w = waitpid(pid_, &status, WNOHANG);
    if (w == pid_) break;
    if (w < 0 && errno != EINTR) break;
    if (std::chrono::steady_clock::now() > deadline) {
      kill(pid_, SIGKILL);
      while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  exit_code_ = decode_status(status);
  g_live_daemon.store(-1);
  pid_ = -1;
  return exit_code_;
}

void kill_live_daemon_from_signal() {
  const pid_t pid = g_live_daemon.load();
  if (pid > 0) kill(pid, SIGKILL);
}

}  // namespace e2ebench
