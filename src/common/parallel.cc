#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "common/query_profile.h"

namespace nexus {

namespace {

std::atomic<int64_t> g_morsels{0};
std::atomic<int64_t> g_regions{0};
std::atomic<const ParallelHooks*> g_hooks{nullptr};

thread_local const TaskContext* t_task_context = nullptr;

/// RAII region observation: captures the hook table once so a region sees
/// a consistent table even if telemetry flips mid-flight.
struct RegionScope {
  RegionScope() : hooks(g_hooks.load(std::memory_order_acquire)) {
    if (hooks != nullptr) token = hooks->region_begin();
  }
  ~RegionScope() {
    if (hooks != nullptr && token != 0) hooks->region_end(token);
  }
  RegionScope(const RegionScope&) = delete;
  RegionScope& operator=(const RegionScope&) = delete;

  template <typename Fn>
  void RunMorsel(int64_t index, Fn&& body) const {
    if (hooks == nullptr || token == 0) {
      body();
      return;
    }
    uint64_t handle = hooks->morsel_begin(token, index);
    body();
    hooks->morsel_end(handle);
  }

  const ParallelHooks* hooks;
  uint64_t token = 0;
};

/// Counts one executed morsel, process-wide and for the query whose
/// context is installed on the calling thread.
void CountMorsel() {
  g_morsels.fetch_add(1, std::memory_order_relaxed);
  CountForQuery(QueryStat::kMorsels);
}

int ClampThreads(int n) { return std::clamp(n, 1, kMaxThreads); }

/// True when the calling thread's installed context has a fired cancel
/// token — the inline (budget 1) paths use this to skip remaining morsels,
/// mirroring the pooled claim-and-skip drain.
bool CallerCancelled() {
  return t_task_context != nullptr && t_task_context->cancel != nullptr &&
         t_task_context->cancel->cancelled();
}

int InitialThreadCount() {
  // NEXUS_THREADS overrides the hardware default, so benches and CI can pin
  // the budget without touching code.
  if (const char* env = std::getenv("NEXUS_THREADS")) {
    int n = std::atoi(env);
    if (n > 0) return ClampThreads(n);
  }
  return HardwareThreads();
}

std::atomic<int> g_thread_count{0};  // 0 = not yet initialized

/// One parallel region in flight. Workers claim task indices off `next`;
/// the region is finished when `done` reaches `total`.
struct TaskGroup {
  explicit TaskGroup(int64_t n, const std::function<void(int64_t)>& f)
      : total(n), run(&f) {
    if (t_task_context != nullptr) ctx = *t_task_context;
  }
  const int64_t total;
  const std::function<void(int64_t)>* run;
  /// Submitter's scheduling/attribution context, by value: the pointers
  /// inside outlive the region (the submitter blocks until it drains).
  TaskContext ctx;
  std::atomic<int64_t> next{0};
  std::atomic<int64_t> done{0};
  int refs = 1;  // caller + workers inside ExecuteFrom; guarded by pool mutex
  std::exception_ptr error;  // first failure; guarded by the pool mutex

  bool Cancelled() const {
    return ctx.cancel != nullptr && ctx.cancel->cancelled();
  }
};

/// Lazy global worker pool. Workers are spawned on demand (up to the
/// requested budget) and then parked on a condition variable; they scan the
/// active-group list and self-schedule morsels. The submitting thread always
/// participates in its own group and only its own group, which makes nested
/// parallel regions deadlock-free: a region's caller can always drain it
/// alone even when every worker is busy elsewhere.
class Pool {
 public:
  static Pool& Get() {
    static Pool* pool = new Pool();  // leaked: workers outlive static dtors
    return *pool;
  }

  void Run(int64_t tasks, const std::function<void(int64_t)>& fn, int helpers) {
    TaskGroup group(tasks, fn);
    {
      std::lock_guard<std::mutex> lock(mu_);
      EnsureWorkers(helpers);
      active_.push_back(&group);
    }
    work_cv_.notify_all();
    // The caller is worker zero.
    ExecuteFrom(&group);
    {
      // Wait until every task ran AND no worker still holds a reference —
      // a worker that claimed the group may otherwise probe its cursor
      // after this frame (and the group with it) is gone.
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [&] {
        return group.done.load() == group.total && group.refs == 1;
      });
      active_.erase(std::find(active_.begin(), active_.end(), &group));
      if (group.error) std::rethrow_exception(group.error);
    }
  }

 private:
  Pool() = default;

  void EnsureWorkers(int target) {  // caller holds mu_
    target = std::min(target, kMaxThreads - 1);
    while (static_cast<int>(workers_.size()) < target) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  /// Claims and executes tasks of `group` until its cursor is exhausted.
  /// The group's TaskContext is installed for the duration, so morsel
  /// bodies see the submitting query's cancel token and memory meter even
  /// on pool workers. A cancelled group's remaining morsels are claimed
  /// and skipped — the region drains at memory speed and the submitter's
  /// own token check surfaces the cancellation.
  void ExecuteFrom(TaskGroup* group) {
    const TaskContext* saved = t_task_context;
    t_task_context = &group->ctx;
    for (;;) {
      int64_t i = group->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= group->total) break;
      if (!group->Cancelled()) {
        try {
          (*group->run)(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu_);
          if (!group->error) group->error = std::current_exception();
        }
        CountMorsel();
      }
      if (group->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          group->total) {
        { std::lock_guard<std::mutex> lock(mu_); }  // pair with done_cv_ wait
        done_cv_.notify_all();
      }
    }
    t_task_context = saved;
  }

  /// Weighted-deficit region pick (caller holds mu_): among regions with
  /// unclaimed morsels, take the one with the lowest claimed/weight ratio.
  /// With equal weights (the default) and one region this degrades to the
  /// legacy first-active pick; with mixed weights, heavier classes claim
  /// proportionally more workers, so a flood of weight-1 batch regions
  /// cannot starve a weight-8 interactive region.
  TaskGroup* PickGroup() {
    TaskGroup* best = nullptr;
    double best_key = 0.0;
    for (TaskGroup* g : active_) {
      int64_t claimed = g->next.load(std::memory_order_relaxed);
      if (claimed >= g->total) continue;
      double key = static_cast<double>(claimed) /
                   static_cast<double>(g->ctx.weight < 1 ? 1 : g->ctx.weight);
      if (best == nullptr || key < best_key) {
        best = g;
        best_key = key;
      }
    }
    return best;
  }

  void WorkerLoop() {
    for (;;) {
      TaskGroup* group = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        work_cv_.wait(lock, [&] {
          for (TaskGroup* g : active_) {
            if (g->next.load(std::memory_order_relaxed) < g->total) return true;
          }
          return false;
        });
        group = PickGroup();
        if (group != nullptr) ++group->refs;
      }
      if (group != nullptr) {
        ExecuteFrom(group);
        {
          std::lock_guard<std::mutex> lock(mu_);
          --group->refs;
        }
        done_cv_.notify_all();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  std::vector<TaskGroup*> active_;
};

}  // namespace

int HardwareThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return ClampThreads(hw == 0 ? 1 : static_cast<int>(hw));
}

void SetThreadCount(int threads) {
  g_thread_count.store(threads <= 0 ? InitialThreadCount()
                                    : ClampThreads(threads));
}

int GetThreadCount() {
  int n = g_thread_count.load();
  if (n == 0) {
    n = InitialThreadCount();
    g_thread_count.store(n);
  }
  return n;
}

ParallelStats GetParallelStats() {
  ParallelStats s;
  s.morsels = g_morsels.load(std::memory_order_relaxed);
  s.regions = g_regions.load(std::memory_order_relaxed);
  return s;
}

void SetParallelHooks(const ParallelHooks* hooks) {
  g_hooks.store(hooks, std::memory_order_release);
}

const TaskContext* CurrentTaskContext() { return t_task_context; }

Status SkippedMorselStatus() {
  if (CallerCancelled()) return t_task_context->cancel->status();
  return Status::Internal("morsel not evaluated");
}

ScopedTaskContext::ScopedTaskContext(const TaskContext* ctx)
    : saved_(t_task_context) {
  t_task_context = ctx;
}

ScopedTaskContext::~ScopedTaskContext() { t_task_context = saved_; }

void ParallelFor(int64_t n, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& body,
                 int threads) {
  if (n <= 0) return;
  if (grain <= 0) grain = kMorselRows;
  int64_t morsels = (n + grain - 1) / grain;
  int budget = threads > 0 ? ClampThreads(threads) : GetThreadCount();
  RegionScope region;
  if (budget == 1 || morsels == 1) {
    if (!CallerCancelled()) {
      region.RunMorsel(0, [&] { body(0, n); });
      CountMorsel();
    }
    return;
  }
  g_regions.fetch_add(1, std::memory_order_relaxed);
  std::function<void(int64_t)> run = [&](int64_t m) {
    region.RunMorsel(m, [&] {
      int64_t begin = m * grain;
      body(begin, std::min(n, begin + grain));
    });
  };
  Pool::Get().Run(morsels, run, budget - 1);
}

void ParallelRun(const std::vector<std::function<void()>>& tasks,
                 int threads) {
  if (tasks.empty()) return;
  int budget = threads > 0 ? ClampThreads(threads) : GetThreadCount();
  RegionScope region;
  if (budget == 1 || tasks.size() == 1) {
    for (size_t i = 0; i < tasks.size(); ++i) {
      if (CallerCancelled()) return;
      region.RunMorsel(static_cast<int64_t>(i), [&] { tasks[i](); });
      CountMorsel();
    }
    return;
  }
  g_regions.fetch_add(1, std::memory_order_relaxed);
  std::function<void(int64_t)> run = [&](int64_t i) {
    region.RunMorsel(i, [&] { tasks[static_cast<size_t>(i)](); });
  };
  Pool::Get().Run(static_cast<int64_t>(tasks.size()), run, budget - 1);
}

}  // namespace nexus
