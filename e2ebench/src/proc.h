// Child processes of the benchmark: timed one-shot runs of the `paragraph`
// CLI (stdout captured) and the long-lived
// `paragraph serve` daemon, which is always stopped and reaped.
#pragma once

#include <string>
#include <sys/types.h>
#include <vector>

namespace e2ebench {

struct ChildResult {
  int exit_code = -1;   // exit status, or 128 + signal number
  double wall_ms = 0.0;  // spawn to reap
  std::string out;       // captured stdout
};

// Runs argv to completion. stdout is captured; stderr goes to `err_path`
// (truncated), so a failure can be explained without interleaving it
// with the result line.
ChildResult run_child(const std::vector<std::string>& argv, const std::string& err_path);

// A `paragraph serve` child. The child is killed if the benchmark dies
// (PR_SET_PDEATHSIG), and the destructor stops and reaps it.
class Daemon {
 public:
  Daemon(const std::vector<std::string>& argv, const std::string& log_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // False once the child has exited (it is then reaped).
  bool running();
  // SIGTERM (the daemon drains and exits 0), then SIGKILL after
  // `grace_ms`. Returns the exit code as in ChildResult. Idempotent.
  int stop(int grace_ms = 10000);

 private:
  pid_t pid_ = -1;
  int exit_code_ = -1;
};

// Kills the live daemon, if any; called from the benchmark's own signal
// handler so an interrupted run leaves no process behind.
void kill_live_daemon_from_signal();

}  // namespace e2ebench
