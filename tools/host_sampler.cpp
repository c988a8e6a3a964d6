// host_sampler — a statistical host-CPU profiler loaded with LD_PRELOAD.
//
// When HOST_SAMPLER_OUT is set, the library arms ITIMER_PROF at load time.
// Every SIGPROF records the interrupted program counter, whatever code it
// is in: inlined callees, libc and other shared objects included.  Next to
// it go two guesses at the return address, so that a sample in an object
// without symbols (a stripped libc) can be charged to its caller: the word
// at the stack pointer, which is the return address in a leaf routine such
// as memset, and the word above the frame pointer, the first return
// address of the frame-pointer chain.  Either may be any value; the
// reader keeps one only if it follows a call instruction.  The timer
// asks for one signal per kIntervalUs microseconds of process CPU time, but
// the kernel may deliver fewer (about one per 3.9 ms on some VMs), so the
// library also reads CLOCK_PROCESS_CPUTIME_ID at load and at exit.  At exit
// the process writes <HOST_SAMPLER_OUT>.<pid>: a header with the measured
// CPU time, its /proc/self/maps, then each sampled address with its count
// and its two return-address guesses (0 when unreadable).
// scripts/host_profile.py runs a command under the sampler and turns those
// files into per-layer CPU time, each sample weighing CPU time / samples.
//
//   HOST_SAMPLER_OUT=/tmp/prof LD_PRELOAD=build/tools/libhost_sampler.so cmd
//
// Forked children get no timer (POSIX does not inherit itimers) and write
// nothing; exec'd children arm their own timer and write their own file.

#include <sys/time.h>
#include <sys/uio.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <tuple>

namespace {

constexpr std::size_t kMaxSamples = std::size_t{1} << 20;
constexpr long kIntervalUs = 1000;

struct Sample {
  std::uintptr_t pc = 0;
  std::uintptr_t sp_word = 0;  // the word at the stack pointer
  std::uintptr_t fp_ret = 0;   // the word above the frame pointer

  bool operator<(const Sample& o) const {
    return std::tie(pc, sp_word, fp_ret) < std::tie(o.pc, o.sp_word, o.fp_ret);
  }
  bool operator==(const Sample& o) const {
    return pc == o.pc && sp_word == o.sp_word && fp_ret == o.fp_ret;
  }
};

Sample g_samples[kMaxSamples];
std::atomic<std::size_t> g_taken{0};
const char* g_prefix = nullptr;
pid_t g_pid = 0;
std::int64_t g_cpu_start_ns = 0;

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

// Reads one word through the kernel, which fails with EFAULT where a plain
// load would fault: code built without frame pointers uses the register as
// any other.  0 when unreadable.
std::uintptr_t read_word(std::uintptr_t addr) {
  std::uintptr_t word = 0;
  iovec local{&word, sizeof word};
  iovec remote{reinterpret_cast<void*>(addr), sizeof word};
  return process_vm_readv(g_pid, &local, 1, &remote, 1, 0) ==
                 static_cast<ssize_t>(sizeof word)
             ? word
             : 0;
}

void on_sigprof(int, siginfo_t*, void* raw) {
  // read_word's syscall sets errno when it fails; the interrupted code may
  // be about to read errno from a call of its own.
  const int saved_errno = errno;
  const auto* uc = static_cast<const ucontext_t*>(raw);
  Sample s;
#if defined(__x86_64__)
  const auto reg = [uc](int r) {
    return static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[r]);
  };
  s.pc = reg(REG_RIP);
  // The stack pointer always points at mapped stack.
  s.sp_word = *reinterpret_cast<const std::uintptr_t*>(reg(REG_RSP));
  s.fp_ret = read_word(reg(REG_RBP) + sizeof(std::uintptr_t));
#elif defined(__aarch64__)
  s.pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
  (void)uc;
#endif
  const std::size_t slot = g_taken.fetch_add(1, std::memory_order_relaxed);
  if (slot < kMaxSamples) g_samples[slot] = s;
  errno = saved_errno;
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
  g_cpu_start_ns = process_cpu_ns();
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
  const std::int64_t cpu_ns = process_cpu_ns() - g_cpu_start_ns;
  const std::size_t taken = g_taken.load();
  const std::size_t kept = std::min(taken, kMaxSamples);
  const std::string path = std::string(g_prefix) + "." + std::to_string(g_pid);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  std::fprintf(out,
               "host_sampler interval_us %ld samples %zu dropped %zu "
               "cpu_ns %lld\n",
               kIntervalUs, kept, taken - kept,
               static_cast<long long>(cpu_ns));
  if (std::FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char line[4096];
    while (std::fgets(line, sizeof line, maps) != nullptr)
      std::fprintf(out, "map %s", line);
    std::fclose(maps);
  }
  std::sort(g_samples, g_samples + kept);
  for (std::size_t i = 0; i < kept;) {
    std::size_t j = i;
    while (j < kept && g_samples[j] == g_samples[i]) ++j;
    const Sample& s = g_samples[i];
    std::fprintf(out, "pc %zx %zu %zx %zx\n", static_cast<std::size_t>(s.pc),
                 j - i, static_cast<std::size_t>(s.sp_word),
                 static_cast<std::size_t>(s.fp_ret));
    i = j;
  }
  std::fclose(out);
}

}  // namespace
