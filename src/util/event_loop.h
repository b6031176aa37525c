// One readiness loop over poll(2), shared by the shard coordinator and the
// serve daemon's protocol thread.
//
// A caller registers each fd it wants read with a callback, once, and
// removes it when it stops caring (before closing the fd). wait() blocks
// until a registered fd is readable (or hung up / errored), wake() is
// called, or the caller's deadline passes, then runs the callbacks of the
// fds that were ready, in registration order. The loop keeps no timers:
// callers already know their next deadline and pass it to wait().
//
// wake() is the one thread-safe entry point. It writes an eventfd, so it
// is also async-signal-safe: a signal handler or another thread can end a
// wait() without a tick.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include <poll.h>

namespace netsample::util {

class EventLoop {
 public:
  using Clock = std::chrono::steady_clock;
  using Callback = std::function<void()>;

  /// Throws std::system_error when the wake eventfd cannot be made.
  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Watch `fd` for readability. An fd is registered at most once.
  void add(int fd, Callback on_ready);

  /// Stop watching `fd` (no-op when it is not registered). Safe inside a
  /// callback, for any fd: a removed fd's callback does not run even if it
  /// was ready in the same wait().
  void remove(int fd);

  /// End the current (or the next) wait() early. Thread-safe and
  /// async-signal-safe.
  void wake() noexcept;

  /// Block until a registered fd is ready, wake() is called, or `deadline`
  /// passes (none: no time limit), then run the ready fds' callbacks.
  /// Returns false only when poll(2) itself failed (errno says why); an
  /// interrupting signal returns true with nothing run.
  bool wait(std::optional<Clock::time_point> deadline);

 private:
  struct Entry {
    int fd;
    std::uint64_t id;  // tells a re-added fd from the one that was ready
    std::shared_ptr<const Callback> on_ready;
  };

  int wake_fd_{-1};
  std::uint64_t next_id_{0};
  std::vector<Entry> entries_;
  std::vector<pollfd> pollfds_;  // [0] is wake_fd_, then entries_ in order
};

}  // namespace netsample::util
