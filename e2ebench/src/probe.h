// A fixed probe of the host's memory system, independent of the program
// under test. On a shared host the benchmark's figures follow page-fault
// and memory latency far more than core speed: over minutes both drift by
// 15% and more, together. Each run samples this probe while the program is
// idle, and the end-to-end time metrics are reported at a reference probe
// time (see host_factor), so a change of the host between two sets of runs
// does not read as a change of the program.
//
// The probe runs in a small process of its own, forked at start-up, so its
// pages count neither in the benchmark's peak RSS nor in its children's.
#pragma once

#include <sys/types.h>
#include <vector>

namespace e2ebench {

class HostProbe {
 public:
  // Forks the probe process; call while the benchmark is single-threaded.
  HostProbe();
  ~HostProbe();  // stops and reaps the probe process
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  // One probe, in ms: first touch of 16 MiB of fresh anonymous pages plus
  // 200,000 dependent loads over a 32 MiB random cycle. Recorded for
  // median_ms(). Throws when the probe process is gone.
  double sample();
  double median_ms() const;  // 0 before the first sample

 private:
  pid_t pid_ = -1;
  int to_probe_ = -1;
  int from_probe_ = -1;
  std::vector<double> samples_;
};

// What a time measured in this run is multiplied by to read as it would at
// the reference probe time (bench.h, kRefProbeMs): kRefProbeMs / median.
// 1 when nothing was sampled.
double host_factor(const HostProbe& probe);

}  // namespace e2ebench
