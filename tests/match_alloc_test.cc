// Heap allocations per delivered match. This binary replaces the global
// operator new/delete with counting versions, so it is its own test
// executable: no other suite is affected.
//
// The engine lends one reused Match to its callback (exec/engine_core.h),
// so delivering a match to a consumer that only reads it must cost no
// allocation beyond what counting the match alone costs. On the Kleene
// path each delivered match shares its freshly collected group: one
// make_shared (its control block and its element storage) per match.
#include <atomic>
#include <cstdlib>
#include <new>

#include "test_util.h"
#include "workload/stock_gen.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};

}  // namespace

// Not inlined: once the malloc/free inside is visible at a call site,
// GCC's -Wmismatched-new-delete (an error under -Werror) pairs it with
// the matching delete/new expression and reports a mismatch.
__attribute__((noinline)) void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace zstream::testing {
namespace {

enum class Consumer { kNone, kBorrow, kMove };

struct Window {
  uint64_t allocs = 0;
  uint64_t matches = 0;
};

/// Compiles `query` (planner's choice, as the session API runs it),
/// pushes the first half of `events` to reach steady state, then counts
/// the heap allocations and matches of the second half.
Window SteadyState(const std::string& query,
                   const std::vector<EventPtr>& events, Consumer consumer) {
  ZStream session;
  EXPECT_TRUE(session
                  .Execute("CREATE STREAM stock (id INT, name STRING, "
                           "price DOUBLE, volume INT, ts INT)")
                  .ok());
  auto compiled = session.Compile("stock", query);
  EXPECT_TRUE(compiled.ok()) << compiled.status();
  if (!compiled.ok()) return {};
  Query& q = **compiled;
  uint64_t seen = 0;
  if (consumer == Consumer::kBorrow) {
    q.SetMatchCallback([&](Match&& m) {
      for (const EventPtr& e : m.slots) {
        if (e != nullptr) ++seen;
      }
    });
  } else if (consumer == Consumer::kMove) {
    q.SetMatchCallback([&](Match&& m) {
      std::vector<EventPtr> slots = std::move(m.slots);
      seen += slots.size();
    });
  }
  const size_t half = events.size() / 2;
  for (size_t i = 0; i < half; ++i) q.Push(events[i]);
  const uint64_t before = q.num_matches();
  g_allocs.store(0);
  g_counting.store(true);
  for (size_t i = half; i < events.size(); ++i) q.Push(events[i]);
  g_counting.store(false);
  Window w;
  w.allocs = g_allocs.load();
  w.matches = q.num_matches() - before;
  if (consumer != Consumer::kNone) {
    EXPECT_GT(seen, 0u);
  }
  return w;
}

std::vector<EventPtr> StockTrace() {
  StockGenOptions gen;
  gen.names = {"IBM", "Sun", "Oracle"};
  gen.weights = {1, 1, 1};
  gen.num_events = 20000;
  gen.seed = 3;
  gen.fixed_price = {{"Sun", FixedPriceForSelectivity(0.25, 0, 100)}};
  return GenerateStockTrades(gen);
}

// The repo benchmark's stock-seq query: paper Query 4 at selectivity 1/4.
TEST(MatchAlloc, BorrowingCallbackAllocatesNothingPerMatch) {
  const std::string query =
      "PATTERN IBM;Sun;Oracle "
      "WHERE IBM.name='IBM' AND Sun.name='Sun' AND Oracle.name='Oracle' "
      "AND IBM.price > Sun.price WITHIN 200";
  const std::vector<EventPtr> events = StockTrace();
  const Window count_only = SteadyState(query, events, Consumer::kNone);
  const Window borrow = SteadyState(query, events, Consumer::kBorrow);
  const Window move = SteadyState(query, events, Consumer::kMove);
  ASSERT_GT(count_only.matches, 100000u);
  EXPECT_EQ(borrow.matches, count_only.matches);
  EXPECT_EQ(move.matches, count_only.matches);
  // Delivery adds nothing to what counting alone allocates, and that is
  // not a per-match cost either (leaf and chunk bookkeeping only).
  EXPECT_EQ(borrow.allocs, count_only.allocs);
  EXPECT_LT(count_only.allocs * 1000, count_only.matches);
  // The counter sees allocations: moving the slots out makes the engine
  // allocate a fresh slot vector for the next match.
  EXPECT_GE(move.allocs, count_only.allocs + move.matches);
}

TEST(MatchAlloc, KleeneMatchAllocatesOnlyItsSharedGroup) {
  const std::string query =
      "PATTERN IBM;Sun+;Oracle "
      "WHERE IBM.name='IBM' AND Sun.name='Sun' AND Oracle.name='Oracle' "
      "AND IBM.price > Oracle.price WITHIN 20";
  const std::vector<EventPtr> events = StockTrace();
  const Window count_only = SteadyState(query, events, Consumer::kNone);
  const Window borrow = SteadyState(query, events, Consumer::kBorrow);
  ASSERT_GT(count_only.matches, 1000u);
  EXPECT_EQ(borrow.matches, count_only.matches);
  EXPECT_GT(borrow.allocs, count_only.allocs);
  EXPECT_LE(borrow.allocs, count_only.allocs + 2 * borrow.matches);
}

}  // namespace
}  // namespace zstream::testing
