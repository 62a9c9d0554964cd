// Crash stacks for every test binary: a gtest global environment that
// installs a fatal-signal handler printing the faulting thread's stack with
// glibc backtrace(), then re-raising the signal with its default action (so
// the exit status and any core dump are what they would have been).
//
// Linked into each test executable as an object (CMakeLists.txt), so the
// registration below runs before gtest_main's RUN_ALL_TESTS. A signal whose
// disposition is no longer SIG_DFL at install time is left alone: under
// ASan/TSan the sanitizer's own handler owns it and keeps reporting.

#include <execinfo.h>
#include <signal.h>
#include <unistd.h>

#include <gtest/gtest.h>

namespace {

constexpr int kFatalSignals[] = {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT};

void print_stack_and_reraise(int sig) {
  // Only async-signal-safe calls: write, backtrace (its library was loaded
  // at install time), backtrace_symbols_fd (writes, never mallocs), raise.
  static const char kHeader[] = "\n*** fatal signal in test; stack:\n";
  (void)!::write(STDERR_FILENO, kHeader, sizeof(kHeader) - 1);
  void* frames[64];
  const int n = ::backtrace(frames, 64);
  ::backtrace_symbols_fd(frames, n, STDERR_FILENO);
  // SA_RESETHAND restored SIG_DFL on entry; the signal is blocked while
  // this handler runs, so it is delivered with the default action the
  // moment the handler returns.
  ::raise(sig);
}

class CrashStackEnvironment final : public ::testing::Environment {
 public:
  void SetUp() override {
    // backtrace() loads libgcc on its first call, which allocates: do that
    // now, never inside the handler.
    void* warm[1];
    (void)::backtrace(warm, 1);
    for (const int sig : kFatalSignals) {
      struct sigaction old {};
      if (::sigaction(sig, nullptr, &old) != 0) continue;
      if ((old.sa_flags & SA_SIGINFO) != 0 || old.sa_handler != SIG_DFL) {
        continue;
      }
      struct sigaction sa {};
      sa.sa_handler = print_stack_and_reraise;
      sigemptyset(&sa.sa_mask);
      sa.sa_flags = SA_RESETHAND;
      ::sigaction(sig, &sa, nullptr);
    }
  }
};

// gtest takes ownership of the environment.
[[maybe_unused]] ::testing::Environment* const kCrashStacks =
    ::testing::AddGlobalTestEnvironment(new CrashStackEnvironment);

}  // namespace
