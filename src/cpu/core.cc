#include "cpu/core.hh"

#include <utility>

#include "sim/logging.hh"
#include "trace/tracer.hh"

namespace fsim
{

CpuModel::CpuModel(EventQueue &eq, CacheModel &cache,
                   const CycleCosts &costs, int n_cores)
    : eq_(eq), cache_(cache), costs_(costs), cores_(n_cores)
{
    fsim_assert(n_cores > 0);
    for (int i = 0; i < n_cores; ++i)
        cores_[i].id_ = i;
}

void
CpuModel::post(CoreId c, TaskPrio prio, Task task)
{
    Core &core = cores_.at(c);
    core.queues_[static_cast<int>(prio)].push_back(std::move(task));
    if (tracer_)
        tracer_->noteQueueDepth(prio == TaskPrio::kSoftIrq
                                    ? TraceQueueId::kSoftirqBacklog
                                    : TraceQueueId::kProcessBacklog,
                                eq_.now(),
                                core.queues_[static_cast<int>(prio)].size());
    if (!core.running_) {
        core.running_ = true;
        Tick start = std::max(eq_.now(), core.busyUntil_);
        eq_.schedule(start, [this, c] { runNext(c); });
    }
}

void
CpuModel::runNext(CoreId c)
{
    Core &core = cores_.at(c);
    RingQueue<Task> *q = nullptr;
    if (!core.queues_[0].empty())
        q = &core.queues_[0];
    else if (!core.queues_[1].empty())
        q = &core.queues_[1];

    if (!q) {
        core.running_ = false;
        return;
    }

    bool softirq = q == &core.queues_[0];
    Task task = std::move(q->front());
    q->pop_front();

    Tick start = eq_.now();
    if (start < core.busyUntil_)
        fsim_panic("core %d task overlap: start=%llu busyUntil=%llu",
                   c, (unsigned long long)start,
                   (unsigned long long)core.busyUntil_);
    if (tracer_) {
        tracer_->noteQueueDepth(softirq ? TraceQueueId::kSoftirqBacklog
                                        : TraceQueueId::kProcessBacklog,
                                start, q->size());
        // The root frame: everything the task does nests under it, so
        // attributed cycles partition the core's busy time exactly.
        tracer_->pushPhase(c, softirq ? Phase::kSoftirq : Phase::kApp,
                           start);
    }
    Tick end = task(start);
    if (end < start)
        fsim_panic("task finished before it started");
    // Gray-machine degrade: stretch the task's busy window. Integer
    // math keeps same-seed runs bit-identical; stretching before the
    // root phase frame closes keeps attributed cycles == busy ticks.
    if (slowdownPermille_ > 1000) {
        Tick work = end - start;
        end += work * (slowdownPermille_ - 1000) / 1000;
    }
    if (tracer_)
        tracer_->popPhase(c, end);

    Tick work = end - start;
    core.busyTicks_ += work;
    core.busyUntil_ = end;
    ++core.tasksRun_;
    // Implicit always-local accesses for miss-rate realism.
    cache_.noteLocalAccesses(c, work / costs_.cyclesPerLocalAccess);

    if (core.queues_[0].empty() && core.queues_[1].empty()) {
        core.running_ = false;
    } else {
        eq_.schedule(end, [this, c] { runNext(c); });
    }
}

std::uint64_t
CpuModel::totalBusyTicks() const
{
    std::uint64_t total = 0;
    for (const Core &core : cores_)
        total += core.busyTicks_;
    return total;
}

} // namespace fsim
