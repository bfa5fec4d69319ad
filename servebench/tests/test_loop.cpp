// The load loop's latency accounting, driven by a fake engine.
#include <gtest/gtest.h>

#include <thread>

#include "loop.hpp"

namespace sb = servebench;
using ftt::serve::RequestState;

namespace {

/// Admits and prefills a request in its first step, then adds one token
/// per step until the budget is spent.  One chosen step sleeps.
class FakeEngine {
 public:
  std::size_t stall_step = SIZE_MAX;
  double stall_s = 0.0;

  std::size_t submit(const ftt::tensor::MatrixF& p, std::size_t budget) {
    reqs_.push_back({p.rows(), budget});
    return reqs_.size() - 1;
  }
  ftt::serve::StepStats step(ftt::fault::FaultInjector*) {
    if (steps_++ == stall_step) {
      std::this_thread::sleep_for(std::chrono::duration<double>(stall_s));
    }
    ftt::serve::StepStats s;
    for (Req& r : reqs_) {
      if (r.state == RequestState::kQueued) {
        r.state = RequestState::kDecoding;
        r.ctx = r.prompt;
        s.prefill_rows += r.prompt;
      } else if (r.ctx < r.prompt + r.budget) {
        ++r.ctx;
        ++s.decoded;
      }
    }
    return s;
  }
  RequestState state(std::size_t id) const { return reqs_.at(id).state; }
  std::size_t context_length(std::size_t id) const { return reqs_.at(id).ctx; }
  std::size_t shared_tile_count(std::size_t) const { return 0; }
  std::span<const float> hidden(std::size_t) const { return hidden_; }
  std::size_t queued() const {
    std::size_t n = 0;
    for (const Req& r : reqs_) n += r.state == RequestState::kQueued;
    return n;
  }

 private:
  struct Req {
    std::size_t prompt, budget, ctx = 0;
    RequestState state = RequestState::kQueued;
  };
  std::vector<Req> reqs_;
  std::size_t steps_ = 0;
  std::vector<float> hidden_ = {1.0f, 2.0f};
};

ftt::tensor::MatrixF prompt(const sb::RequestSpec& r) {
  return ftt::tensor::MatrixF(r.prompt_rows, 2);
}

}  // namespace

TEST(OpenLoop, StalledStepShowsInNextRequestTtftFromItsDueTime) {
  FakeEngine engine;
  engine.stall_step = 1;  // while request 0 decodes
  engine.stall_s = 0.3;
  std::vector<sb::RequestSpec> fleet(2);
  fleet[0] = {4, 20, 0.0};
  fleet[1] = {4, 2, 0.05};
  sb::LoadLoop<FakeEngine> loop(engine, fleet, prompt);
  const sb::PassRecord rec = loop.run_open();

  const sb::RequestRecord& late = rec.requests[1];
  EXPECT_EQ(late.start, 0.05);  // the clock starts when it was due...
  EXPECT_GE(late.submitted - late.start, 0.2);  // ...not when submitted
  // Its TTFT carries the stall it waited out before it could be submitted.
  EXPECT_GE(late.first_token - late.start, 0.25);
  EXPECT_GE(late.first_token, late.submitted);
  // Request 0 saw the stall as one long inter-token gap.
  double longest = 0.0;
  for (const double g : rec.itl_s) longest = std::max(longest, g);
  EXPECT_GE(longest, 0.3);
}

TEST(OpenLoop, EveryTokenIsOneGapAndCompletionCopiesHidden) {
  FakeEngine engine;
  std::vector<sb::RequestSpec> fleet(3);
  fleet[0] = {3, 5, 0.0};
  fleet[1] = {2, 4, 0.01};
  fleet[2] = {6, 1, 0.02};
  sb::LoadLoop<FakeEngine> loop(engine, fleet, prompt);
  const sb::PassRecord rec = loop.run_open();
  EXPECT_EQ(rec.itl_s.size(), 5u + 4u + 1u);
  for (const auto& r : rec.requests) {
    EXPECT_GE(r.done, r.first_token);
    EXPECT_GE(r.first_token, r.admitted);
    EXPECT_EQ(r.hidden.size(), 2u);
  }
  std::size_t decoded = 0;
  for (const auto& t : rec.ticks) decoded += t.stats.decoded;
  EXPECT_EQ(decoded, 10u);
}

TEST(ClosedLoop, ClientSubmitsNextOnlyAfterPreviousCompletes) {
  FakeEngine engine;
  std::vector<sb::RequestSpec> fleet(4);
  for (std::size_t i = 0; i < 4; ++i) {
    fleet[i].prompt_rows = 2;
    fleet[i].budget = 3 + i;
    fleet[i].client = i % 2;
  }
  sb::LoadLoop<FakeEngine> loop(engine, fleet, prompt);
  const sb::PassRecord rec = loop.run_closed(2);
  EXPECT_GE(rec.requests[2].start, rec.requests[0].done);
  EXPECT_GE(rec.requests[3].start, rec.requests[1].done);
  EXPECT_EQ(rec.itl_s.size(), 3u + 4u + 5u + 6u);
  // Entries record the rows each tick computed.
  std::size_t rows = 0;
  for (const auto& t : rec.ticks) {
    for (const auto& e : t.entries) rows += e.q_len;
  }
  EXPECT_EQ(rows, 4u * 2u + 18u);
}
