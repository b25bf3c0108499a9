#include "sim/engine.hpp"

#include <algorithm>
#include <utility>

#include "sim/driver.hpp"
#include "util/error.hpp"

namespace stellaris::sim {

Driver& Engine::driver() const {
  return driver_ ? *driver_ : inline_driver();
}

void Engine::schedule_at(SimTime t, std::function<void()> fn) {
  STELLARIS_CHECK_MSG(t >= now_, "scheduling into the past: t=" << t
                                                                << " now="
                                                                << now_);
  push(Event{t, next_seq_++, std::move(fn), nullptr});
}

void Engine::schedule_after(SimTime delay, std::function<void()> fn) {
  STELLARIS_CHECK_MSG(delay >= 0.0, "negative delay " << delay);
  schedule_at(now_ + delay, std::move(fn));
}

Engine::CancelHandle Engine::schedule_cancellable_at(SimTime t,
                                                     std::function<void()> fn) {
  STELLARIS_CHECK_MSG(t >= now_, "scheduling into the past: t=" << t
                                                                << " now="
                                                                << now_);
  auto handle = std::make_shared<std::atomic<bool>>(false);
  push(Event{t, next_seq_++, std::move(fn), handle});
  return handle;
}

Engine::CancelHandle Engine::schedule_cancellable_after(
    SimTime delay, std::function<void()> fn) {
  STELLARIS_CHECK_MSG(delay >= 0.0, "negative delay " << delay);
  return schedule_cancellable_at(now_ + delay, std::move(fn));
}

void Engine::push(Event ev) {
  heap_.push_back(std::move(ev));
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

Engine::Event Engine::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  return ev;
}

bool Engine::step() {
  while (!heap_.empty()) {
    Event ev = pop();
    // Cancelled events are dropped without touching the clock: a dead timer
    // must leave no trace in `now()` or `executed_events()`.
    if (ev.cancelled && *ev.cancelled) continue;
    now_ = ev.t;
    ++executed_;
    ev.fn();
    return true;
  }
  return false;
}

void Engine::run() {
  while (step()) {
  }
}

void Engine::run_until(SimTime deadline) {
  while (!heap_.empty()) {
    const Event& top = heap_.front();
    if (top.cancelled && *top.cancelled) {
      pop();
      continue;
    }
    if (top.t > deadline) break;
    step();
  }
  if (now_ < deadline && heap_.empty()) now_ = deadline;
}

}  // namespace stellaris::sim
