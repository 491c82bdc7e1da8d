// Heap allocations per delivered match. This binary replaces the global
// operator new/delete with counting versions, so it is its own test
// executable: no other suite is affected.
//
// The engine lends one reused Match to its callback (exec/engine.h),
// so delivering a match to a consumer that only reads it must cost no
// allocation beyond what counting the match alone costs. On the Kleene
// path each delivered match shares its freshly collected group: one
// make_shared (its control block and its element storage) per match.
// Counting alone allocates nothing in steady state either: the buffers'
// chunk pools hold their high-water marks, and a session Query::Push is
// a batch of one through the same admission scratch as a larger batch.
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

/// The trace again, shifted past its own end by more than any WITHIN
/// window.
std::vector<EventPtr> Replayed(const std::vector<EventPtr>& events) {
  const Duration shift =
      events.back()->timestamp() - events.front()->timestamp() + 2000;
  std::vector<EventPtr> out;
  out.reserve(events.size());
  for (const EventPtr& e : events) {
    out.push_back(std::make_shared<Event>(e->schema(), e->values(),
                                          e->timestamp() + shift));
  }
  return out;
}

/// Compiles `query` (planner's choice, as the session API runs it) and
/// runs `events` once to reach steady state: every buffer's chunk pool
/// then holds its high-water mark. A drain (one event admitted by no
/// class, far past the window, then Finish) empties every buffer, and
/// the window counts the heap allocations and matches of the trace
/// replayed: the same workload again from empty state, which needs no
/// more chunks than the first pass did.
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
  // The replay is built before counting starts.
  const std::vector<EventPtr> replay = Replayed(events);
  for (const EventPtr& e : events) q.Push(e);
  q.Push(Stock("drain", 0, events.back()->timestamp() + 1000));
  q.Finish();
  const uint64_t before = q.num_matches();
  g_allocs.store(0);
  g_counting.store(true);
  for (const EventPtr& e : replay) q.Push(e);
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
  // The count-only steady state allocates nothing: every buffer's chunk
  // pool covers its high-water mark, and Query::Push (a batch of one)
  // admits through the leaves' reused scratch. Delivery to a borrowing
  // callback adds nothing on top.
  EXPECT_EQ(count_only.allocs, 0u);
  EXPECT_EQ(borrow.allocs, count_only.allocs);
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
