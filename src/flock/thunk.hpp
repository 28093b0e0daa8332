// thunk.hpp — a thunk is "a procedure with no arguments" (paper §3.1).
//
// Descriptors store the critical-section lambda by value (the paper's
// "[=]": captures must outlive the caller's stack frame because helpers may
// run the thunk later), inline in the descriptor. A capture larger than
// kThunkInlineBytes, or over-aligned, does not compile: capture a pointer
// to the state instead.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

#include "config.hpp"

namespace flock {

/// A callable whose captures fit a thunk's inline buffer. A critical
/// section that fails this must capture a pointer to its state instead.
template <class F>
concept inline_thunk =
    sizeof(std::decay_t<F>) <= kThunkInlineBytes &&  // else capture a pointer
    alignof(std::decay_t<F>) <= alignof(std::max_align_t);

class thunk {
 public:
  thunk() = default;
  thunk(const thunk&) = delete;
  thunk& operator=(const thunk&) = delete;
  ~thunk() { clear(); }

  template <inline_thunk F>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    clear();
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    invoke_ = [](void* p) { return (*static_cast<Fn*>(p))(); };
    destroy_ = [](void* p) { static_cast<Fn*>(p)->~Fn(); };
  }

  bool operator()() { return invoke_(buf_); }

  bool empty() const { return invoke_ == nullptr; }

  void clear() {
    if (destroy_ != nullptr) destroy_(buf_);
    invoke_ = nullptr;
    destroy_ = nullptr;
  }

 private:
  alignas(std::max_align_t) unsigned char buf_[kThunkInlineBytes];
  bool (*invoke_)(void*) = nullptr;
  void (*destroy_)(void*) = nullptr;
};

}  // namespace flock
