#include "util/event_loop.h"

#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <system_error>
#include <utility>

namespace netsample::util {

EventLoop::EventLoop()
    : wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  if (wake_fd_ < 0) {
    throw std::system_error(errno, std::generic_category(), "eventfd");
  }
  pollfds_.push_back(pollfd{wake_fd_, POLLIN, 0});
}

EventLoop::~EventLoop() { ::close(wake_fd_); }

void EventLoop::add(int fd, Callback on_ready) {
  entries_.push_back(Entry{fd, next_id_++,
                           std::make_shared<const Callback>(
                               std::move(on_ready))});
  pollfds_.push_back(pollfd{fd, POLLIN, 0});
}

void EventLoop::remove(int fd) {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].fd != fd) continue;
    entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
    pollfds_.erase(pollfds_.begin() + static_cast<std::ptrdiff_t>(i + 1));
    return;
  }
}

void EventLoop::wake() noexcept {
  const std::uint64_t one = 1;
  // EAGAIN means the counter is already nonzero: a wake is pending anyway.
  (void)!::write(wake_fd_, &one, sizeof one);
}

bool EventLoop::wait(std::optional<Clock::time_point> deadline) {
  int timeout_ms = -1;
  if (deadline.has_value()) {
    const auto left = *deadline - Clock::now();
    // Round up, so a wait that times out has reached its deadline.
    const auto ms =
        std::chrono::ceil<std::chrono::milliseconds>(left).count();
    timeout_ms = static_cast<int>(
        std::clamp<std::int64_t>(ms, 0, static_cast<std::int64_t>(INT_MAX)));
  }
  for (auto& p : pollfds_) p.revents = 0;
  const int rc =
      ::poll(pollfds_.data(), static_cast<nfds_t>(pollfds_.size()), timeout_ms);
  if (rc < 0) return errno == EINTR;
  if (rc == 0) return true;

  if (pollfds_[0].revents != 0) {
    std::uint64_t count = 0;
    (void)!::read(wake_fd_, &count, sizeof count);
  }
  // Callbacks may add and remove entries, so take the ready set first and
  // look each one up again before running it.
  std::vector<std::uint64_t> ready;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (pollfds_[i + 1].revents != 0) ready.push_back(entries_[i].id);
  }
  for (const std::uint64_t id : ready) {
    const auto it = std::find_if(entries_.begin(), entries_.end(),
                                 [id](const Entry& e) { return e.id == id; });
    if (it == entries_.end()) continue;
    const std::shared_ptr<const Callback> on_ready = it->on_ready;
    (*on_ready)();
  }
  return true;
}

}  // namespace netsample::util
