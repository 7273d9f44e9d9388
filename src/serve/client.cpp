#include "serve/client.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/strfmt.hpp"

namespace ipass::serve {

ResilientClient::ResilientClient(std::string host, std::uint16_t port,
                                 RetryPolicy policy, Sleep sleep, Clock clock)
    : host_(std::move(host)),
      port_(port),
      policy_(policy),
      sleep_(sleep ? std::move(sleep)
                   : [](std::chrono::milliseconds d) { std::this_thread::sleep_for(d); }),
      clock_(clock ? std::move(clock)
                   : [] { return std::chrono::steady_clock::now(); }),
      backoff_rng_(policy.backoff_seed, 0x5e77e5ULL) {
  require(policy_.max_attempts >= 1, "ResilientClient: max_attempts must be >= 1");
  require(policy_.jitter >= 0.0 && policy_.jitter <= 1.0,
          "ResilientClient: jitter must be in [0, 1]");
  require(policy_.base_backoff_ms >= 1, "ResilientClient: base_backoff_ms must be >= 1");
}

bool ResilientClient::attempt_once(const std::string& request,
                                   std::string& response) {
  ++stats_.attempts;
  if (conn_ == nullptr) {
    try {
      conn_ = std::make_unique<SocketClient>(host_, port_);
    } catch (const std::exception& e) {
      ++stats_.connect_failures;
      last_failure_ = e.what();
      return false;
    }
  }
  const TransportStatus status = conn_->try_roundtrip(request, response);
  if (status == TransportStatus::Ok) return true;
  // Connections are single-use after any failure: the stream position is
  // unknown (a torn response may sit half-read), so reconnect from scratch.
  conn_.reset();
  switch (status) {
    case TransportStatus::SendError: ++stats_.send_failures; break;
    case TransportStatus::NoResponse: ++stats_.no_response_failures; break;
    case TransportStatus::TruncatedResponse: ++stats_.truncated_responses; break;
    case TransportStatus::OversizedResponse: ++stats_.oversized_responses; break;
    case TransportStatus::Ok: break;
  }
  last_failure_ = transport_status_name(status);
  return false;
}

std::uint32_t ResilientClient::next_backoff_ms(unsigned attempt) {
  // Exponential: base * 2^(attempt-1), saturating at max.  attempt is the
  // number of attempts already failed (>= 1).
  const unsigned shift = std::min(attempt - 1U, 31U);
  const std::uint64_t raw = static_cast<std::uint64_t>(policy_.base_backoff_ms) << shift;
  const std::uint64_t capped =
      std::min<std::uint64_t>(raw, policy_.max_backoff_ms);
  // Jittered into ((1 - jitter) * b, b]: subtract a uniform fraction of the
  // jitter window so the full value stays reachable and the floor is open.
  const double u = backoff_rng_.uniform();
  const double value = static_cast<double>(capped) * (1.0 - policy_.jitter * u);
  return static_cast<std::uint32_t>(std::max(1.0, value));
}

std::string ResilientClient::call(const std::string& request,
                                  std::int64_t deadline_ms) {
  ++stats_.calls;
  const auto start = clock_();
  const auto remaining = [&]() -> std::int64_t {
    if (deadline_ms <= 0) return -1;  // no deadline
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                             clock_() - start)
                             .count();
    return deadline_ms - elapsed;
  };

  if (breaker_open_) {
    const auto since = std::chrono::duration_cast<std::chrono::milliseconds>(
                           clock_() - breaker_opened_at_)
                           .count();
    if (since < static_cast<std::int64_t>(policy_.breaker_cooldown_ms)) {
      ++stats_.breaker_fast_fails;
      throw PreconditionError(
          strf("ResilientClient: circuit breaker open (%u consecutive failures; "
               "%u ms cooldown)",
               consecutive_failures_, policy_.breaker_cooldown_ms),
          ErrorCode::Overload);
    }
    // Half-open: exactly one probe attempt decides.
    std::string response;
    if (attempt_once(request, response)) {
      breaker_open_ = false;
      consecutive_failures_ = 0;
      ++stats_.successes;
      return response;
    }
    breaker_opened_at_ = clock_();
    throw PreconditionError(
        strf("ResilientClient: half-open probe failed (%s); breaker re-opened",
             last_failure_.c_str()),
        ErrorCode::Overload);
  }

  for (unsigned attempt = 1; attempt <= policy_.max_attempts; ++attempt) {
    if (deadline_ms > 0 && remaining() <= 0) {
      throw PreconditionError(
          strf("ResilientClient: deadline of %lld ms exhausted after %u attempts "
               "(last failure: %s)",
               static_cast<long long>(deadline_ms), attempt - 1,
               attempt > 1 ? last_failure_.c_str() : "none"),
          ErrorCode::Deadline);
    }
    std::string response;
    if (attempt_once(request, response)) {
      consecutive_failures_ = 0;
      ++stats_.successes;
      return response;
    }
    if (policy_.breaker_threshold > 0 &&
        ++consecutive_failures_ >= policy_.breaker_threshold) {
      breaker_open_ = true;
      breaker_opened_at_ = clock_();
      ++stats_.breaker_trips;
      throw PreconditionError(
          strf("ResilientClient: circuit breaker tripped after %u consecutive "
               "failures (last: %s)",
               consecutive_failures_, last_failure_.c_str()),
          ErrorCode::Overload);
    }
    if (attempt == policy_.max_attempts) break;
    std::uint32_t backoff = next_backoff_ms(attempt);
    if (deadline_ms > 0) {
      const std::int64_t left = remaining();
      if (left <= 0) continue;  // next loop iteration throws Deadline
      backoff = static_cast<std::uint32_t>(
          std::min<std::int64_t>(backoff, left));
    }
    backoff_log_.push_back(backoff);
    sleep_(std::chrono::milliseconds(backoff));
  }
  throw PreconditionError(
      strf("ResilientClient: retry budget of %u attempts exhausted (last "
           "failure: %s)",
           policy_.max_attempts, last_failure_.c_str()),
      ErrorCode::Overload);
}

}  // namespace ipass::serve
