#include "probe.h"

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <fcntl.h>
#include <numeric>
#include <stdexcept>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <csignal>
#include <unistd.h>

#include "bench.h"
#include "stats.h"

namespace e2ebench {

namespace {

// The probe process: builds the cycle, then answers each byte it reads with
// one probe's time in ms, until its input closes.
[[noreturn]] void probe_main(int in, int out) {
  // One cycle through every slot (Sattolo's algorithm, fixed seed).
  std::vector<std::uint32_t> next((std::size_t{32} << 20) / sizeof(std::uint32_t));
  std::iota(next.begin(), next.end(), 0u);
  std::uint64_t s = 0x9E3779B97F4A7C15ull;
  for (std::size_t i = next.size() - 1; i > 0; --i) {
    s ^= s << 13, s ^= s >> 7, s ^= s << 17;
    std::swap(next[i], next[s % i]);
  }
  char cmd = 0;
  while (read(in, &cmd, 1) == 1) {
    constexpr std::size_t kBytes = std::size_t{16} << 20;
    const auto t0 = Clock::now();
    void* p = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p != MAP_FAILED) {
      auto* bytes = static_cast<volatile char*>(p);
      for (std::size_t i = 0; i < kBytes; i += 4096) bytes[i] = 1;
      munmap(p, kBytes);
    }
    std::uint32_t x = 0;
    for (int i = 0; i < 200000; ++i) x = next[x];
    double ms = secs_since(t0) * 1000.0;
    if (x == 0xFFFFFFFFu) ms += 1.0;  // keeps the loads live
    if (write(out, &ms, sizeof ms) != static_cast<ssize_t>(sizeof ms)) break;
  }
  _exit(0);
}

}  // namespace

HostProbe::HostProbe() {
  int down[2], up[2];
  if (pipe2(down, O_CLOEXEC) != 0 || pipe2(up, O_CLOEXEC) != 0)
    throw std::runtime_error("host probe: pipe failed");
  const pid_t parent = getpid();
  pid_ = fork();
  if (pid_ < 0) throw std::runtime_error("host probe: fork failed");
  if (pid_ == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(0);
    close(down[1]);
    close(up[0]);
    probe_main(down[0], up[1]);
  }
  close(down[0]);
  close(up[1]);
  to_probe_ = down[1];
  from_probe_ = up[0];
}

HostProbe::~HostProbe() {
  close(to_probe_);  // the probe process exits on end of input
  close(from_probe_);
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
}

double HostProbe::sample() {
  const char cmd = 'p';
  double ms = 0.0;
  if (write(to_probe_, &cmd, 1) != 1 || read(from_probe_, &ms, sizeof ms) != static_cast<ssize_t>(sizeof ms))
    throw std::runtime_error("host probe: the probe process is gone");
  samples_.push_back(ms);
  return ms;
}

double HostProbe::median_ms() const { return samples_.empty() ? 0.0 : percentile(samples_, 50); }

double host_factor(const HostProbe& probe) {
  const double m = probe.median_ms();
  return m > 0.0 ? kRefProbeMs / m : 1.0;
}

}  // namespace e2ebench
