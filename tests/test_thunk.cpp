// Tests for the inline-storage thunk type.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <memory>
#include <utility>

#include "flock/flock.hpp"

namespace {

// Captures that do not fit inline are rejected at compile time; the
// caller captures a pointer instead.
template <class F>
constexpr bool emplaceable = requires(flock::thunk& t, F f) {
  t.emplace(std::move(f));
};
struct alignas(2 * alignof(std::max_align_t)) over_aligned {
  bool operator()() const { return true; }
};
constexpr auto fits = [b = std::array<char, flock::kThunkInlineBytes>{}] {
  return b[0] == 0;
};
constexpr auto too_big =
    [b = std::array<char, flock::kThunkInlineBytes + 1>{}] {
      return b[0] == 0;
    };
static_assert(emplaceable<decltype(fits)>);
static_assert(!emplaceable<decltype(too_big)>);
static_assert(!emplaceable<over_aligned>);
static_assert(emplaceable<decltype([p = &fits] { return (*p)(); })>);

TEST(Thunk, InvokesSmallLambda) {
  flock::thunk t;
  int x = 41;
  t.emplace([x] { return x + 1 == 42; });
  EXPECT_FALSE(t.empty());
  EXPECT_TRUE(t());
}

TEST(Thunk, CapturesByValue) {
  flock::thunk t;
  {
    int local = 7;
    t.emplace([local] { return local == 7; });
    local = 8;  // must not affect the stored copy
  }
  EXPECT_TRUE(t());
}

TEST(Thunk, DestructorRunsCaptures) {
  static std::atomic<int> dtors{0};
  struct probe {
    bool moved = false;
    probe() = default;
    probe(const probe&) {}
    probe(probe&& o) noexcept { o.moved = true; }
    ~probe() {
      if (!moved) dtors.fetch_add(1);
    }
  };
  dtors.store(0);
  {
    flock::thunk t;
    probe p;
    t.emplace([p] {
      (void)&p;
      return true;
    });
  }
  // At least the stored copy was destroyed.
  EXPECT_GE(dtors.load(), 1);
}

TEST(Thunk, ReEmplaceReplaces) {
  flock::thunk t;
  t.emplace([] { return false; });
  t.emplace([] { return true; });
  EXPECT_TRUE(t());
}

TEST(Thunk, SharedPtrCaptureRefcount) {
  auto sp = std::make_shared<int>(5);
  flock::thunk t;
  t.emplace([sp] { return *sp == 5; });
  EXPECT_EQ(sp.use_count(), 2);
  EXPECT_TRUE(t());
  t.clear();
  EXPECT_EQ(sp.use_count(), 1);
}

}  // namespace
