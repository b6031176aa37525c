// util::EventLoop: fd readiness dispatch, wake() from another thread, a
// deadline with nothing to watch, and removal from inside a callback.
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "util/event_loop.h"

namespace netsample::util {
namespace {

/// A pipe whose ends close with the test.
struct Pipe {
  int fds[2] = {-1, -1};
  Pipe() { EXPECT_EQ(::pipe(fds), 0); }
  ~Pipe() {
    ::close(fds[0]);
    ::close(fds[1]);
  }
  int read_end() const { return fds[0]; }
  void make_readable() const { ASSERT_EQ(::write(fds[1], "x", 1), 1); }
};

TEST(EventLoop, RunsTheCallbackOfEachReadyFdOnly) {
  EventLoop loop;
  Pipe ready;
  Pipe idle;
  std::vector<int> ran;
  loop.add(ready.read_end(), [&] { ran.push_back(1); });
  loop.add(idle.read_end(), [&] { ran.push_back(2); });
  ready.make_readable();
  ASSERT_TRUE(loop.wait(std::nullopt));
  EXPECT_EQ(ran, std::vector<int>{1});

  // Level-triggered: an unread fd stays ready; a removed one is not
  // watched at all.
  loop.remove(ready.read_end());
  idle.make_readable();
  ASSERT_TRUE(loop.wait(std::nullopt));
  EXPECT_EQ(ran, (std::vector<int>{1, 2}));
}

TEST(EventLoop, WakeFromAnotherThreadEndsAnUnboundedWait) {
  EventLoop loop;
  Pipe idle;
  bool ran = false;
  loop.add(idle.read_end(), [&] { ran = true; });
  // Whether wake() lands before or during the wait, the wait returns.
  std::thread waker([&loop] { loop.wake(); });
  EXPECT_TRUE(loop.wait(std::nullopt));
  waker.join();
  EXPECT_FALSE(ran);

  // A wake consumed by one wait does not end the next one.
  const auto deadline =
      EventLoop::Clock::now() + std::chrono::milliseconds(5);
  EXPECT_TRUE(loop.wait(deadline));
  EXPECT_GE(EventLoop::Clock::now(), deadline);
}

TEST(EventLoop, DeadlineWithNoFdsReturnsOnceItPasses) {
  EventLoop loop;
  const auto deadline =
      EventLoop::Clock::now() + std::chrono::milliseconds(20);
  EXPECT_TRUE(loop.wait(deadline));
  EXPECT_GE(EventLoop::Clock::now(), deadline);
  // A deadline already past does not block.
  EXPECT_TRUE(loop.wait(EventLoop::Clock::now() - std::chrono::seconds(1)));
}

TEST(EventLoop, RemovalInsideACallbackIsSafeAndSkipsTheRemovedFd) {
  EventLoop loop;
  Pipe first;
  Pipe second;
  int first_runs = 0;
  int second_runs = 0;
  // Both are ready in the same wait; the first callback removes itself and
  // the second fd, so the second callback must not run.
  loop.add(first.read_end(), [&] {
    ++first_runs;
    loop.remove(first.read_end());
    loop.remove(second.read_end());
  });
  loop.add(second.read_end(), [&] { ++second_runs; });
  first.make_readable();
  second.make_readable();
  ASSERT_TRUE(loop.wait(std::nullopt));
  EXPECT_EQ(first_runs, 1);
  EXPECT_EQ(second_runs, 0);

  // Re-added inside a callback, an fd runs its new callback next time.
  loop.add(second.read_end(), [&] { second_runs += 10; });
  ASSERT_TRUE(loop.wait(std::nullopt));
  EXPECT_EQ(first_runs, 1);
  EXPECT_EQ(second_runs, 10);
}

}  // namespace
}  // namespace netsample::util
