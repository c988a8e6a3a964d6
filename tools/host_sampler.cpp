// host_sampler — a statistical host-CPU profiler loaded with LD_PRELOAD.
//
// When HOST_SAMPLER_OUT is set, the library arms ITIMER_PROF at load time.
// Every SIGPROF (one per kIntervalUs microseconds of process CPU time)
// records the interrupted program counter, whatever code it is
// in: inlined callees, libc and other shared objects included.  At exit the
// process writes <HOST_SAMPLER_OUT>.<pid>: its /proc/self/maps, then each
// sampled address with its count.  scripts/host_profile.py runs a command
// under the sampler and turns those files into per-layer shares.
//
//   HOST_SAMPLER_OUT=/tmp/prof LD_PRELOAD=build/tools/libhost_sampler.so cmd
//
// Forked children get no timer (POSIX does not inherit itimers) and write
// nothing; exec'd children arm their own timer and write their own file.

#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

constexpr std::size_t kMaxSamples = std::size_t{1} << 20;
constexpr long kIntervalUs = 1000;

std::uintptr_t g_pcs[kMaxSamples];
std::atomic<std::size_t> g_taken{0};
const char* g_prefix = nullptr;
pid_t g_pid = 0;

void on_sigprof(int, siginfo_t*, void* raw) {
  const auto* uc = static_cast<const ucontext_t*>(raw);
  std::uintptr_t pc = 0;
#if defined(__x86_64__)
  pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
  (void)uc;
#endif
  const std::size_t slot = g_taken.fetch_add(1, std::memory_order_relaxed);
  if (slot < kMaxSamples) g_pcs[slot] = pc;
}

void set_timer(long interval_us) {
  itimerval t{};
  t.it_interval.tv_sec = interval_us / 1000000;
  t.it_interval.tv_usec = interval_us % 1000000;
  t.it_value = t.it_interval;
  setitimer(ITIMER_PROF, &t, nullptr);
}

__attribute__((constructor)) void start_sampling() {
  g_prefix = std::getenv("HOST_SAMPLER_OUT");
  if (g_prefix == nullptr || *g_prefix == '\0') {
    g_prefix = nullptr;
    return;
  }
  g_pid = getpid();
  struct sigaction sa {};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  set_timer(kIntervalUs);
}

__attribute__((destructor)) void write_samples() {
  if (g_prefix == nullptr || getpid() != g_pid) return;
  set_timer(0);
  const std::size_t taken = g_taken.load();
  const std::size_t kept = std::min(taken, kMaxSamples);
  const std::string path = std::string(g_prefix) + "." + std::to_string(g_pid);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  std::fprintf(out, "host_sampler interval_us %ld samples %zu dropped %zu\n",
               kIntervalUs, kept, taken - kept);
  if (std::FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char line[4096];
    while (std::fgets(line, sizeof line, maps) != nullptr)
      std::fprintf(out, "map %s", line);
    std::fclose(maps);
  }
  std::sort(g_pcs, g_pcs + kept);
  for (std::size_t i = 0; i < kept;) {
    std::size_t j = i;
    while (j < kept && g_pcs[j] == g_pcs[i]) ++j;
    std::fprintf(out, "pc %zx %zu\n", static_cast<std::size_t>(g_pcs[i]), j - i);
    i = j;
  }
  std::fclose(out);
}

}  // namespace
