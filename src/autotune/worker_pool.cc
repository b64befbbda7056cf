#include "src/autotune/worker_pool.h"

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <limits>
#include <string>

#include "src/autotune/measure.h"  // RetryPolicy + RetryBackoffMs
#include "src/support/trace.h"

namespace alt::autotune {

namespace {

int64_t NowMs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000;
}

bool HookFires(uint64_t hook_site, int attempt_bound, uint64_t site, int attempt) {
  if (hook_site == 0) {
    return false;
  }
  if (hook_site != kAnyMeasureSite && hook_site != site) {
    return false;
  }
  return attempt_bound <= 0 || attempt < attempt_bound;
}

Status StatusFromCode(int code, std::string message) {
  if (code <= 0 || code > static_cast<int>(StatusCode::kDeadlineExceeded)) {
    return Status::Internal("worker reported an unknown status code: " + std::move(message));
  }
  return Status(static_cast<StatusCode>(code), std::move(message));
}

// Reply payload: "r <item> <code> <latency %.17g> <eval_ns>[ <message>]".
struct Reply {
  int item = -1;
  int code = 0;
  double latency_us = 0.0;
  long long eval_ns = 0;
  std::string message;
};

bool ParseReply(const std::string& payload, Reply* out) {
  int consumed = 0;
  if (std::sscanf(payload.c_str(), "r %d %d %lf %lld%n", &out->item, &out->code,
                  &out->latency_us, &out->eval_ns, &consumed) != 4) {
    return false;
  }
  if (consumed + 1 < static_cast<int>(payload.size())) {
    out->message = payload.substr(consumed + 1);
  }
  return true;
}

}  // namespace

WorkerPool::WorkerPool(const IsolateOptions& options, const RetryPolicy& retry,
                       const FaultInjector* injector, const std::vector<uint64_t>& sites,
                       EvalFn eval)
    : options_(options),
      retry_(retry),
      injector_(injector),
      sites_(sites),
      eval_(std::move(eval)) {
  if (options_.workers <= 0) {
    options_.workers = 1;
  }
  // A worker killed between our poll and our write turns the write into
  // SIGPIPE; the parent must see EPIPE from write(2) instead and respawn.
  static const bool sigpipe_ignored = [] {
    ::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)sigpipe_ignored;
}

WorkerPool::~WorkerPool() {
  // Reaping a forked child tears down its copy of the address space; on a
  // short batch this costs as much as a candidate, so it gets its own span.
  TraceSpan span("measure.worker_shutdown");
  for (Slot& slot : slots_) {
    KillChild(&slot.proc);
  }
}

int WorkerPool::ChildMain(int request_fd, int reply_fd) {
  std::string payload;
  for (;;) {
    FrameReadResult r = ReadFrame(request_fd, &payload, /*deadline_ms=*/-1);
    if (r != FrameReadResult::kOk) {
      return 0;  // parent closed the request pipe (or died): clean exit
    }
    int item = 0;
    int attempt = 0;
    if (std::sscanf(payload.c_str(), "m %d %d", &item, &attempt) != 2 || work_ == nullptr ||
        item < 0 || item >= static_cast<int>(work_->size())) {
      return 1;
    }
    const int index = (*work_)[item];
    const uint64_t site = sites_[index];
    const WorkerFaultHooks& hooks = options_.faults;
    if (HookFires(hooks.crash_site, hooks.crash_attempts, site, attempt)) {
      ::raise(SIGKILL);  // indistinguishable from an external kill -9
    }
    if (HookFires(hooks.hang_site, hooks.hang_attempts, site, attempt)) {
      for (;;) {
        ::sleep(3600);  // the parent watchdog kills us long before this matters
      }
    }
    const int64_t start_ns = TraceRecorder::NowNs();
    WorkerEval eval;
    try {
      eval = eval_(index);
    } catch (const std::exception& e) {
      eval.status = Status::Internal(std::string("measurement threw: ") + e.what());
    } catch (...) {
      eval.status = Status::Internal("measurement threw");
    }
    const long long eval_ns = TraceRecorder::NowNs() - start_ns;
    char head[128];
    std::snprintf(head, sizeof(head), "r %d %d %.17g %lld", item,
                  static_cast<int>(eval.status.code()), eval.latency_us, eval_ns);
    std::string reply = head;
    if (!eval.status.ok() && !eval.status.message().empty()) {
      reply += " " + eval.status.message();
    }
    std::string frame = EncodeFrame(reply);
    if (HookFires(hooks.garble_site, hooks.garble_attempts, site, attempt)) {
      frame.back() ^= 0x5a;  // flip payload bits so the parent's CRC check trips
    }
    if (!WriteAll(reply_fd, frame).ok()) {
      return 1;
    }
  }
}

Status WorkerPool::Spawn(Slot* slot) {
  // A child must not inherit its siblings' pipe ends: a crashed sibling is
  // detected by EOF, which only fires once every copy of its write end is
  // closed.
  std::vector<int> close_in_child;
  for (const Slot& other : slots_) {
    if (&other != slot && other.proc.running()) {
      close_in_child.push_back(other.proc.read_fd);
      close_in_child.push_back(other.proc.write_fd);
    }
  }
  auto child = SpawnChild(
      [this](int request_fd, int reply_fd) { return ChildMain(request_fd, reply_fd); },
      close_in_child);
  if (!child.ok()) {
    return child.status();
  }
  slot->proc = *child;
  return Status::Ok();
}

void WorkerPool::Respawn(Slot* slot) {
  KillChild(&slot->proc);
  ++restarts_;
  // A failed respawn leaves the slot dead; dispatch tries to spawn again and
  // fails the candidate if workers truly cannot be created.
  Status ignored = Spawn(slot);
  (void)ignored;
}

std::vector<WorkerOutcome> WorkerPool::Run(const std::vector<int>& work) {
  std::vector<WorkerOutcome> out(work.size());
  if (work.empty()) {
    return out;
  }
  work_ = &work;
  const int max_attempts = std::max(1, retry_.max_attempts);
  constexpr int64_t kFarFuture = std::numeric_limits<int64_t>::max();

  struct Item {
    int item = 0;
    int attempt = 0;
    int64_t ready_at_ms = 0;  // backoff release time
  };
  std::deque<Item> queue;
  for (int j = 0; j < static_cast<int>(work.size()); ++j) {
    queue.push_back({j, 0, 0});
  }
  size_t done = 0;

  // Parent-side per-candidate trace spans: the child's recorder dies with the
  // child, so the dispatch-to-completion window is stamped here instead. A
  // span covers every attempt of its item, backoff included, matching what
  // TraceSpan("measure.candidate") wraps on the in-process path.
  const bool tracing = TraceRecorder::Global().enabled();
  std::vector<int64_t> started_ns(work.size(), 0);
  auto finish = [&](int item) {
    ++done;
    if (tracing && started_ns[item] != 0) {
      TraceRecorder::Global().Record("measure.candidate", "", started_ns[item],
                                     TraceRecorder::NowNs(), /*instant=*/false);
    }
  };

  if (static_cast<int>(slots_.size()) < options_.workers) {
    slots_.resize(options_.workers);
  }

  // Charges one failed attempt, then requeues with backoff or finalizes.
  // Mirrors the in-process accounting: retries/backoff are charged when the
  // retry is scheduled, i.e. for attempts numbered >= 1.
  auto transient_failure = [&](int item, int attempt, Status why) {
    ++out[item].attempts;
    if (attempt + 1 < max_attempts) {
      ++out[item].retries;
      const int delay = RetryBackoffMs(retry_, attempt + 1);
      out[item].backoff_ms += delay;
      queue.push_back({item, attempt + 1, NowMs() + delay});
    } else {
      out[item].status = std::move(why);
      finish(item);
    }
  };

  while (done < work.size()) {
    const int64_t now = NowMs();

    // Dispatch ready items onto idle workers. Injected faults are decided
    // HERE, parent-side, so the child never runs for them and each
    // (site, attempt) pair meets exactly the fate the in-process path gives
    // it — journal resume stays deterministic under isolation.
    for (Slot& slot : slots_) {
      if (slot.busy) {
        continue;
      }
      bool dispatched = false;
      while (!dispatched) {
        auto it = std::find_if(queue.begin(), queue.end(),
                               [now](const Item& q) { return q.ready_at_ms <= now; });
        if (it == queue.end()) {
          break;
        }
        const Item item = *it;
        queue.erase(it);
        if (tracing && started_ns[item.item] == 0) {
          started_ns[item.item] = TraceRecorder::NowNs();
        }
        const uint64_t site = sites_[work[item.item]];
        if (injector_ != nullptr && injector_->enabled() &&
            injector_->ShouldFail(site, item.attempt)) {
          ++out[item.item].injected;
          transient_failure(item.item, item.attempt,
                            Status::Unavailable("injected transient measurement fault"));
          continue;  // the slot is still free; try the next ready item
        }
        if (!slot.proc.running()) {
          Status spawned = Spawn(&slot);
          if (!spawned.ok()) {
            // Cannot create workers (fd/process exhaustion): retrying without
            // one is pointless, so the candidate fails outright.
            out[item.item].status = spawned;
            finish(item.item);
            continue;
          }
        }
        const std::string request =
            "m " + std::to_string(item.item) + " " + std::to_string(item.attempt);
        Status wrote = WriteFrame(slot.proc.write_fd, request);
        if (!wrote.ok()) {
          // The worker died while idle; replace it and try once more.
          Respawn(&slot);
          if (slot.proc.running()) {
            wrote = WriteFrame(slot.proc.write_fd, request);
          }
          if (!wrote.ok()) {
            transient_failure(item.item, item.attempt,
                              Status::Unavailable("measurement worker unreachable: " +
                                                  wrote.message()));
            continue;
          }
        }
        slot.busy = true;
        slot.item = item.item;
        slot.attempt = item.attempt;
        slot.deadline_abs_ms = options_.deadline_ms > 0 ? NowMs() + options_.deadline_ms : 0;
        dispatched = true;
      }
    }
    if (done >= work.size()) {
      break;
    }

    // Sleep until a reply arrives, a watchdog expires, or a backoff releases.
    std::vector<struct pollfd> pfds;
    std::vector<Slot*> pfd_slots;
    int64_t wake = kFarFuture;
    for (Slot& slot : slots_) {
      if (!slot.busy) {
        continue;
      }
      pfds.push_back({slot.proc.read_fd, POLLIN, 0});
      pfd_slots.push_back(&slot);
      if (slot.deadline_abs_ms > 0) {
        wake = std::min(wake, slot.deadline_abs_ms);
      }
    }
    for (const Item& q : queue) {
      wake = std::min(wake, q.ready_at_ms);
    }
    if (pfds.empty() && wake == kFarFuture) {
      break;  // defensive: no in-flight work and nothing queued
    }
    int timeout_ms = -1;
    if (wake != kFarFuture) {
      timeout_ms = static_cast<int>(std::clamp<int64_t>(wake - NowMs(), 0, 60000));
    }
    ::poll(pfds.data(), pfds.size(), timeout_ms);

    const int64_t after = NowMs();
    for (size_t k = 0; k < pfds.size(); ++k) {
      Slot& slot = *pfd_slots[k];
      if (!slot.busy || (pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      const int item = slot.item;
      const int attempt = slot.attempt;
      std::string payload;
      const int remaining =
          slot.deadline_abs_ms > 0
              ? static_cast<int>(std::max<int64_t>(0, slot.deadline_abs_ms - after))
              : -1;
      FrameReadResult fr = ReadFrame(slot.proc.read_fd, &payload, remaining);
      Reply reply;
      if (fr == FrameReadResult::kOk && ParseReply(payload, &reply) && reply.item == item) {
        ++out[item].attempts;
        out[item].eval_ns += reply.eval_ns;
        if (reply.code == 0) {
          out[item].status = Status::Ok();
          out[item].latency_us = reply.latency_us;
        } else {
          // Deterministic evaluation failure (e.g. a lowering error): the
          // in-process path never retries these either.
          out[item].status = StatusFromCode(reply.code, std::move(reply.message));
        }
        finish(item);
        slot.busy = false;
      } else if (fr == FrameReadResult::kTimeout) {
        // A partial frame straddled the watchdog deadline: same as a hang.
        Respawn(&slot);
        slot.busy = false;
        transient_failure(item, attempt,
                          Status::Unavailable("measurement worker missed deadline"));
      } else {
        const char* what = fr == FrameReadResult::kEof     ? "died"
                           : fr == FrameReadResult::kOk    ? "spoke out of protocol"
                                                           : "wrote a garbled frame";
        Respawn(&slot);
        slot.busy = false;
        transient_failure(
            item, attempt,
            Status::Unavailable(std::string("measurement worker ") + what +
                                "; killed and respawned"));
      }
    }

    // Watchdog sweep: kill and respawn workers that missed their deadline.
    if (options_.deadline_ms > 0) {
      const int64_t sweep_now = NowMs();
      for (Slot& slot : slots_) {
        if (slot.busy && slot.deadline_abs_ms > 0 && sweep_now >= slot.deadline_abs_ms) {
          const int item = slot.item;
          const int attempt = slot.attempt;
          Respawn(&slot);
          slot.busy = false;
          transient_failure(item, attempt,
                            Status::Unavailable("measurement worker missed deadline"));
        }
      }
    }
  }
  work_ = nullptr;
  return out;
}

}  // namespace alt::autotune
