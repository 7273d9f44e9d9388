#include "serve/service.hpp"

#include <algorithm>
#include <cstdio>
#include <system_error>
#include <thread>
#include <utility>

#include "common/jsonfmt.hpp"
#include "common/metrics.hpp"
#include "common/strfmt.hpp"
#include "core/pareto.hpp"
#include "core/sensitivity.hpp"
#include "gps/bom.hpp"

namespace ipass::serve {

namespace {

// Deadline bookkeeping for one request.  The clock starts at admission —
// queue wait counts against the deadline, exactly like a client timeout
// would.  A fault-injected deadline is "already expired": it fires at the
// first checkpoint, so the resulting response is deterministic.
struct DeadlineGuard {
  std::chrono::steady_clock::time_point start;
  std::int64_t limit_ms = 0;
  bool forced = false;

  void check(const char* stage) const {
    if (limit_ms <= 0 && !forced) return;
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    if (forced || elapsed >= limit_ms) {
      // No measured time in the message: responses must not depend on it.
      throw PreconditionError(
          strf("serve request: deadline of %lld ms exceeded %s",
               static_cast<long long>(limit_ms), stage),
          ErrorCode::Deadline);
    }
  }
};

void append_buildup_json(std::string& out, const std::string& name,
                         const core::BuildUpSummary& s, bool has_frontier,
                         bool frontier) {
  out += "{\"name\": ";
  append_json_string(out, name);
  const auto field = [&](const char* key, double v) {
    out += ", \"";
    out += key;
    out += "\": ";
    append_json_number(out, v);
  };
  field("performance", s.performance);
  field("module_area_mm2", s.module_area_mm2);
  field("area_rel", s.area_rel);
  field("shipped_fraction", s.shipped_fraction);
  field("direct_cost", s.direct_cost);
  field("yield_loss_per_shipped", s.yield_loss_per_shipped);
  field("nre_per_shipped", s.nre_per_shipped);
  field("final_cost_per_shipped", s.final_cost_per_shipped);
  field("cost_rel", s.cost_rel);
  field("fom", s.fom);
  if (has_frontier) {
    out += ", \"frontier\": ";
    out += frontier ? "true" : "false";
  }
  out += "}";
}

std::uint64_t ns_since(std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
  return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
}

}  // namespace

ServiceMetrics::ServiceMetrics(metrics::MetricsRegistry& registry)
    : admitted(registry.counter("serve_requests_admitted_total")),
      completed(registry.counter("serve_requests_completed_total")),
      ok(registry.counter("serve_requests_ok_total")),
      errors(registry.counter("serve_requests_error_total")),
      overloaded(registry.counter("serve_requests_overloaded_total")),
      degraded(registry.counter("serve_requests_degraded_total")),
      recovered(registry.counter("serve_requests_recovered_total")),
      health(registry.counter("serve_probes_health_total")),
      stats_probes(registry.counter("serve_probes_stats_total")),
      slow_requests(registry.counter("serve_slow_requests_total")),
      deadline_exceeded(registry.counter("serve_requests_deadline_exceeded_total")),
      parse_errors(registry.counter("serve_requests_parse_error_total")),
      validation_errors(registry.counter("serve_requests_validation_error_total")),
      internal_errors(registry.counter("serve_requests_internal_error_total")),
      queue_depth(registry.gauge("serve_queue_depth")),
      parse_ns(registry.histogram("serve_request_parse_ns")),
      queue_wait_ns(registry.histogram("serve_request_queue_wait_ns")),
      cache_ns(registry.histogram("serve_request_cache_ns")),
      evaluate_ns(registry.histogram("serve_request_evaluate_ns")),
      serialize_ns(registry.histogram("serve_request_serialize_ns")),
      journal_append_ns(registry.histogram("serve_request_journal_append_ns")),
      total_ns(registry.histogram("serve_request_total_ns")),
      cache(registry, "serve_cache"),
      perf_cache(registry, "serve_perf_cache") {}

AssessmentService::AssessmentService(const ServiceOptions& options,
                                     metrics::MetricsRegistry* registry)
    : options_(options),
      owned_metrics_(registry == nullptr ? std::make_unique<metrics::MetricsRegistry>()
                                         : nullptr),
      metrics_registry_(registry != nullptr ? *registry : *owned_metrics_),
      metrics_(metrics_registry_),
      registry_(kits::builtin_kit_registry()),
      bom_(gps::gps_front_end_bom()),
      cache_(options.cache_capacity, metrics_registry_, "serve_cache"),
      perf_cache_(options.cache_capacity, metrics_registry_, "serve_perf_cache"),
      traces_(options.trace_capacity > 0 ? options.trace_capacity : 1) {
  require(options_.workers >= 1 && options_.workers <= 256,
          "AssessmentService: workers must be in [1, 256]");
  require(options_.queue_limit >= 1, "AssessmentService: queue_limit must be >= 1");
  if (!options_.journal_path.empty()) {
    Journal::Options jopts;
    jopts.sync = options_.journal_sync;
    journal_ =
        std::make_unique<Journal>(options_.journal_path, metrics_registry_, jopts);
    next_seq_ = journal_->recovered().next_seq;
    // Re-execute the admitted-but-uncommitted suffix synchronously, before
    // any request can be admitted: the regenerated responses land in the
    // journal with their original sequence numbers, byte-identical to what
    // the crashed process would have produced (responses are a pure
    // function of request text, seq and options).
    recover_journal();
  }
}

AssessmentService::Outcome AssessmentService::reexecute_outcome(
    std::uint64_t seq, const std::string& request_text) const {
  Task task;
  task.seq = seq;
  task.request = parse_request_document(request_text);
  task.admitted = std::chrono::steady_clock::now();
  // No trace: the original timings are gone with the process that ran it.
  return process(task, nullptr);
}

std::string AssessmentService::reexecute(std::uint64_t seq,
                                         const std::string& request_text) const {
  return reexecute_outcome(seq, request_text).body;
}

void AssessmentService::recover_journal() {
  for (const JournalEntry& entry : journal_->recovered().entries) {
    if (entry.committed) continue;
    // The outcome counts like any other completed request.
    const Outcome outcome = reexecute_outcome(entry.seq, entry.request);
    journal_->append_commit(entry.seq, outcome.body);
    metrics_.admitted.add();
    metrics_.recovered.add();
    count_outcome(outcome);
  }
  journal_->flush();
}

AssessmentService::~AssessmentService() {
  std::unique_lock<std::mutex> lk(m_);
  draining_ = true;
  drained_cv_.wait(lk, [&] { return in_flight_ == 0; });
}

bool AssessmentService::admit(const std::string& request_text, Task& task,
                              std::string& answer) {
  // The one parse of the request, before the lock: the probe check reads
  // its top-level "kind" and process() reads the fields off the same tape.
  task.received = std::chrono::steady_clock::now();
  task.request = parse_request_document(request_text);
  task.parse_ns = ns_since(task.received);
  // Probes bypass admission entirely: no sequence number, no slot, no
  // journal record — a readiness check or a metrics scrape must not perturb
  // the deterministic request stream.
  const ProbeKind probe = probe_kind(task.request);
  std::lock_guard<std::mutex> lk(m_);
  if (probe == ProbeKind::Health) {
    metrics_.health.add();
    answer = health_response();
    return false;
  }
  if (probe == ProbeKind::Stats) {
    metrics_.stats_probes.add();
    answer = stats_response();
    return false;
  }
  ErrorCode refusal_code = ErrorCode::Overload;
  std::string refusal;
  if (draining_) {
    refusal = "service is draining; retry against another instance or later";
  } else if (in_flight_ >= options_.queue_limit) {
    refusal = "service overloaded; retry later";
  } else if (journal_ != nullptr) {
    // Write-ahead: the admit record must be durable before the request can
    // produce any effect.  Appending under the admission lock means file
    // order == seq order for admits.  An append failure (disk full) refuses
    // the request rather than running it unjournaled.
    try {
      journal_->append_admit(next_seq_, request_text);
    } catch (const std::exception& e) {
      refusal_code = ErrorCode::Internal;
      refusal = strf("journal append failed: %s", e.what());
    }
  }
  if (!refusal.empty()) {
    metrics_.overloaded.add();
    // The client correlates by response order; an admission refusal never
    // reads the request's fields, so it carries no id.
    answer = error_response("", refusal_code, refusal);
    return false;
  }
  task.seq = next_seq_++;
  task.shed = options_.degrade_depth > 0 && in_flight_ >= options_.degrade_depth;
  task.admitted = std::chrono::steady_clock::now();
  ++in_flight_;
  metrics_.admitted.add();
  metrics_.queue_depth.set(static_cast<std::int64_t>(in_flight_));
  return true;
}

std::string AssessmentService::handle(const std::string& request_text) {
  Task task;
  std::string answer;
  if (!admit(request_text, task, answer)) return answer;
  return run(task);
}

std::future<std::string> AssessmentService::submit(const std::string& request_text) {
  Task task;
  std::string answer;
  if (admit(request_text, task, answer)) {
    try {
      return std::async(std::launch::async, [this, task] { return run(task); });
    } catch (const std::system_error&) {
      // No thread to spare: run here rather than leak the admitted request.
      answer = run(task);
    }
  }
  std::promise<std::string> ready;
  ready.set_value(std::move(answer));
  return ready.get_future();
}

std::string AssessmentService::run(const Task& task) {
  {
    std::unique_lock<std::mutex> lk(m_);
    slot_cv_.wait(lk, [&] { return running_ < options_.workers; });
    ++running_;
  }
  RequestTrace trace;
  trace.seq = task.seq;
  trace.parse_ns = task.parse_ns;
  trace.queue_wait_ns = ns_since(task.admitted);
  Outcome outcome = process(task, &trace);
  // Commit BEFORE the response is returned: once a client can observe it,
  // a crash must not forget it (write-ahead on both edges).  Commits from
  // concurrent requests may interleave out of seq order in the file;
  // recovery orders by seq.
  if (journal_ != nullptr) {
    const auto journal_start = std::chrono::steady_clock::now();
    try {
      journal_->append_commit(task.seq, outcome.body);
    } catch (const std::exception&) {
      // A failed commit append (disk full) leaves the request admitted-
      // but-uncommitted: the next boot re-executes it, which is safe.
    }
    trace.journal_append_ns = ns_since(journal_start);
  }
  trace.ok = outcome.ok;
  trace.degraded = outcome.degraded;
  trace.error = outcome.error;
  trace.total_ns = ns_since(task.received);
  finish_trace(trace);
  // Release the slot and settle the counters before returning: a caller
  // that sees the response observes its slot free (the replay
  // window-throttling guarantee) and the stats settled.  Notifying under
  // the lock keeps *this alive until both notifications are done.
  std::lock_guard<std::mutex> lk(m_);
  --running_;
  --in_flight_;
  count_outcome(outcome);
  metrics_.queue_depth.set(static_cast<std::int64_t>(in_flight_));
  slot_cv_.notify_one();
  if (in_flight_ == 0) drained_cv_.notify_all();
  return std::move(outcome.body);
}

void AssessmentService::count_outcome(const Outcome& outcome) const {
  metrics_.completed.add();
  if (outcome.ok) {
    metrics_.ok.add();
  } else {
    metrics_.errors.add();
    switch (outcome.error) {
      case ErrorCode::Deadline:
        metrics_.deadline_exceeded.add();
        break;
      case ErrorCode::Parse:
        metrics_.parse_errors.add();
        break;
      case ErrorCode::Validation:
        metrics_.validation_errors.add();
        break;
      default:
        metrics_.internal_errors.add();
        break;
    }
  }
  if (outcome.degraded) metrics_.degraded.add();
}

void AssessmentService::finish_trace(RequestTrace& trace) const {
  const ServiceMetrics& m = metrics_;
  m.parse_ns.record(trace.parse_ns);
  m.queue_wait_ns.record(trace.queue_wait_ns);
  m.cache_ns.record(trace.cache_ns);
  m.evaluate_ns.record(trace.evaluate_ns);
  m.serialize_ns.record(trace.serialize_ns);
  m.journal_append_ns.record(trace.journal_append_ns);
  m.total_ns.record(trace.total_ns);
  traces_.push(trace);
  if (options_.slow_request_ms >= 0 &&
      trace.total_ns >=
          static_cast<std::uint64_t>(options_.slow_request_ms) * 1000000ull) {
    m.slow_requests.add();
    // One line, stderr only: the threshold and the timings can never reach
    // a response byte.
    std::fprintf(stderr, "%s\n", trace_to_string(trace).c_str());
  }
}

void AssessmentService::begin_drain() {
  std::lock_guard<std::mutex> lk(m_);
  draining_ = true;
}

bool AssessmentService::await_drained(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lk(m_);
  return drained_cv_.wait_for(lk, timeout, [&] { return in_flight_ == 0; });
}

void AssessmentService::flush_journal() {
  if (journal_ != nullptr) journal_->flush();
}

std::string AssessmentService::health_response() const {
  // Caller holds m_.  A single line mirroring the response format; every
  // field is a cheap counter read, so probes are safe at any frequency.
  return strf(
      "{\"status\": \"ok\", \"version\": \"%s\", \"queue_depth\": %zu, "
      "\"running\": %zu, \"workers\": %u, \"admitted\": %llu, "
      "\"completed\": %llu, \"cache_size\": %zu, \"cache_hits\": %llu, "
      "\"journal\": %s, \"journal_lag\": %llu, \"draining\": %s}",
      kWireVersion, in_flight_ - running_, running_, options_.workers,
      static_cast<unsigned long long>(metrics_.admitted.value()),
      static_cast<unsigned long long>(metrics_.completed.value()), cache_.size(),
      static_cast<unsigned long long>(metrics_.cache.hits.value()),
      journal_ != nullptr ? "true" : "false",
      static_cast<unsigned long long>(journal_ != nullptr ? journal_->lag() : 0),
      draining_ ? "true" : "false");
}

std::string AssessmentService::stats_response() const {
  // Caller holds m_.  The full operational picture in one line: admission
  // and outcome counters (with the per-taxonomy error breakdown), queue
  // pressure, cache behavior, journal position and the trace ring — every
  // field a cheap counter read, safe to scrape at any frequency.
  const ServiceMetrics& m = metrics_;
  const auto u64 = [](std::uint64_t v) {
    return static_cast<unsigned long long>(v);
  };
  const auto n = [](const metrics::Counter& c) {
    return static_cast<unsigned long long>(c.value());
  };
  std::string out = strf(
      "{\"status\": \"ok\", \"kind\": \"stats\", \"version\": \"%s\", "
      "\"queue_depth\": %zu, \"queue_high_water\": %llu, \"running\": %zu, "
      "\"workers\": %u, \"admitted\": %llu, \"completed\": %llu, "
      "\"ok\": %llu, \"errors\": %llu, \"overloaded\": %llu, "
      "\"degraded\": %llu, \"deadline_exceeded\": %llu, "
      "\"parse_errors\": %llu, \"validation_errors\": %llu, "
      "\"internal_errors\": %llu, \"recovered\": %llu, "
      "\"health_probes\": %llu, \"stats_probes\": %llu",
      kWireVersion, in_flight_ - running_,
      static_cast<unsigned long long>(m.queue_depth.high_water()), running_,
      options_.workers, n(m.admitted), n(m.completed), n(m.ok), n(m.errors),
      n(m.overloaded), n(m.degraded), n(m.deadline_exceeded), n(m.parse_errors),
      n(m.validation_errors), n(m.internal_errors), n(m.recovered), n(m.health),
      n(m.stats_probes));
  out += strf(
      ", \"cache\": {\"size\": %zu, \"hits\": %llu, \"misses\": %llu, "
      "\"waits\": %llu, \"evictions\": %llu, \"failures\": %llu}",
      cache_.size(), n(m.cache.hits), n(m.cache.misses), n(m.cache.waits),
      n(m.cache.evictions), n(m.cache.failures));
  out += strf(
      ", \"journal\": {\"enabled\": %s, \"admits\": %llu, \"commits\": %llu, "
      "\"lag\": %llu}",
      journal_ != nullptr ? "true" : "false",
      u64(journal_ != nullptr ? journal_->admit_count() : 0),
      u64(journal_ != nullptr ? journal_->commit_count() : 0),
      u64(journal_ != nullptr ? journal_->lag() : 0));
  out += strf(
      ", \"traces\": {\"capacity\": %zu, \"recorded\": %llu}, "
      "\"draining\": %s}",
      traces_.capacity(), u64(traces_.pushed()),
      draining_ ? "true" : "false");
  return out;
}

AssessmentService::Outcome AssessmentService::process(const Task& task,
                                                      RequestTrace* trace) const {
  std::string id;
  const auto fail = [&](ErrorCode code, const std::string& message) {
    Outcome out;
    out.body = error_response(id, code, message);
    out.ok = false;
    out.degraded = false;
    out.error = code;
    return out;
  };
  try {
    const auto read_start = std::chrono::steady_clock::now();
    if (options_.faults.fires(task.seq, FaultKind::Parse)) {
      throw PreconditionError("serve request: injected parse fault",
                              ErrorCode::Parse);
    }
    // Throws the parse error admission captured, or reads the tape; the
    // parse stage is the tape parse plus this read.
    const AssessmentRequest request = parse_request(task.request);
    if (trace != nullptr) trace->parse_ns += ns_since(read_start);
    id = request.id;
    return run_assessment(task, request, trace);
  } catch (const PreconditionError& e) {
    // Unspecified precondition failures from the engines are contract
    // violations of the request's inputs — validation on the wire.
    const ErrorCode code =
        e.code() == ErrorCode::Unspecified ? ErrorCode::Validation : e.code();
    return fail(code, e.what());
  } catch (const std::exception& e) {
    return fail(ErrorCode::Internal, e.what());
  } catch (...) {
    return fail(ErrorCode::Internal, "unknown error");
  }
}

AssessmentService::Outcome AssessmentService::run_assessment(
    const Task& task, const AssessmentRequest& request,
    RequestTrace* trace) const {
  const FaultPlan& faults = options_.faults;
  const DeadlineGuard deadline{task.admitted, request.deadline_ms,
                               faults.fires(task.seq, FaultKind::Deadline)};
  deadline.check("after parse");

  if (request.bom != "gps-front-end") {
    throw PreconditionError(
        strf("serve request: unknown bom '%s' (available: 'gps-front-end')",
             request.bom.c_str()),
        ErrorCode::Validation);
  }
  const kits::ProcessKit& reference = registry_.at(request.reference);
  for (const kits::KitVariant& v : reference.variants) {
    if (v.policy != core::PassivePolicy::AllSmd) {
      throw PreconditionError(
          strf("serve request: reference kit '%s' must be an all-SMD carrier",
               reference.name.c_str()),
          ErrorCode::Validation);
    }
  }
  const kits::ProcessKit& kit =
      request.has_inline_kit ? request.inline_kit : registry_.at(request.kit_name);
  const bool is_reference = !request.has_inline_kit && kit.name == reference.name;
  const std::size_t own_offset = is_reference ? 0 : reference.variants.size();

  // The cache stage covers deriving the key (an inline kit is serialized
  // into it) as well as the lookup or compile.
  const auto cache_start = std::chrono::steady_clock::now();
  const std::string key = study_cache_key(request);
  if (faults.fires(task.seq, FaultKind::Evict)) cache_.evict(key);

  // Same study shape as kits::sweep_kits: the reference kit's build-ups
  // anchor the 100% rows, the requested kit's variants follow.  A study
  // miss takes each build-up's performance rows from the performance tier,
  // so only a kit with new electrical inputs runs MNA sweeps.
  CacheOutcome cache_outcome = CacheOutcome::None;
  const std::shared_ptr<const core::CompiledStudy> study = cache_.get_or_compile(
      key,
      [&] {
        std::vector<core::BuildUp> buildups = kits::make_buildups(reference);
        if (!is_reference) {
          for (core::BuildUp& b :
               kits::make_buildups(kit, static_cast<int>(buildups.size()) + 1)) {
            buildups.push_back(std::move(b));
          }
        }
        const core::TechKits tech = kits::apply_passives(kit);
        core::StudyParts given;
        if (request.scope == core::PipelineScope::Full) {
          given.performance.reserve(buildups.size());
          for (const core::BuildUp& b : buildups) {
            given.performance.push_back(*perf_cache_.get_or_compile(
                core::performance_key(bom_, b, tech), [&] {
                  return std::make_shared<const core::PerformanceResult>(
                      core::assess_performance(bom_, b, tech));
                }));
          }
        }
        return core::compile_study(bom_, std::move(buildups), tech, request.scope,
                                   std::move(given));
      },
      &cache_outcome);
  if (trace != nullptr) {
    trace->cache_ns = ns_since(cache_start);
    trace->cache = cache_outcome;
  }
  deadline.check("after compile");

  if (faults.fires(task.seq, FaultKind::Stall)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(faults.stall_ms));
    deadline.check("after compile");
  }
  if (faults.fires(task.seq, FaultKind::WorkerThrow)) {
    throw std::runtime_error("injected worker fault");
  }

  const auto evaluate_start = std::chrono::steady_clock::now();
  const std::size_t n = study->buildups.size();
  const core::AssessmentPipeline pipeline(study);
  core::AssessmentInputs point;
  point.weights = request.weights;
  if (request.volume > 0.0) {
    point.production.reserve(n);
    for (const core::BuildUp& b : study->buildups) {
      core::ProductionData pd = b.production;
      pd.volume = request.volume;
      point.production.push_back(pd);
    }
  }
  const core::BatchAssessmentResult batch =
      pipeline.evaluate({point}, options_.eval_threads);
  deadline.check("after evaluation");

  // Optional stages: shed under load (admission decided), flagged in the
  // response so the client knows the answer is the mandatory core only.
  bool degraded = false;
  std::vector<bool> frontier;
  if (request.want_pareto) {
    if (task.shed) {
      degraded = true;
    } else {
      frontier.resize(n);
      for (const core::ParetoEntry& e : core::pareto_analysis(batch, 0)) {
        frontier[e.index] = !e.dominated;
      }
      deadline.check("after pareto");
    }
  }

  core::SensitivityReport sensitivity;
  bool have_sensitivity = false;
  std::size_t sensitivity_target = 0;
  if (request.want_sensitivity) {
    if (task.shed) {
      degraded = true;
    } else {
      sensitivity_target = own_offset;
      for (std::size_t b = own_offset; b < n; ++b) {
        if (batch.at(0, b).fom > batch.at(0, sensitivity_target).fom) {
          sensitivity_target = b;
        }
      }
      core::BuildUp target = study->buildups[sensitivity_target];
      if (request.volume > 0.0) target.production.volume = request.volume;
      core::SensitivityOptions opts;
      opts.threads = options_.eval_threads;
      // The compiled area serves: a volume override never reaches area.
      sensitivity = core::cost_sensitivity(bom_, target, kits::apply_passives(kit),
                                           study->areas[sensitivity_target], opts);
      have_sensitivity = true;
      deadline.check("after sensitivity");
    }
  }
  if (trace != nullptr) trace->evaluate_ns = ns_since(evaluate_start);

  const auto serialize_start = std::chrono::steady_clock::now();
  std::string out;
  out.reserve(1024);
  out += "{\"id\": ";
  append_json_string(out, request.id);
  out += ", \"status\": \"ok\", \"degraded\": ";
  out += degraded ? "true" : "false";
  out += ", \"kit\": ";
  append_json_string(out, kit.name);
  out += ", \"reference\": ";
  append_json_string(out, reference.name);
  out += ", \"scope\": \"";
  out += request.scope == core::PipelineScope::Full ? "full" : "cost-only";
  out += "\", \"winner\": ";
  out += std::to_string(batch.winners[0]);
  out += ", \"buildups\": [";
  for (std::size_t b = 0; b < n; ++b) {
    if (b > 0) out += ", ";
    append_buildup_json(out, study->buildups[b].name, batch.at(0, b),
                        !frontier.empty(), !frontier.empty() && frontier[b]);
  }
  out += "]";
  if (have_sensitivity) {
    out += ", \"sensitivity\": {\"buildup\": ";
    append_json_string(out, study->buildups[sensitivity_target].name);
    out += ", \"rows\": [";
    for (std::size_t i = 0; i < sensitivity.rows.size(); ++i) {
      const core::SensitivityRow& row = sensitivity.rows[i];
      if (i > 0) out += ", ";
      out += "{\"input\": ";
      append_json_string(out, row.input);
      out += ", \"elasticity\": ";
      append_json_number(out, row.elasticity);
      out += ", \"base_cost\": ";
      append_json_number(out, row.base_cost);
      out += ", \"perturbed_cost\": ";
      append_json_number(out, row.perturbed_cost);
      out += "}";
    }
    out += "]}";
  }
  out += "}";
  if (trace != nullptr) trace->serialize_ns = ns_since(serialize_start);
  Outcome result;
  result.body = std::move(out);
  result.ok = true;
  result.degraded = degraded;
  return result;
}

}  // namespace ipass::serve
