#include "timerwheel/timer_wheel.hh"

#include <utility>

#include "sim/logging.hh"

namespace fsim
{

TimerWheel::Node *
TimerWheel::nodeAt(TimerId id)
{
    const std::uint32_t idx = static_cast<std::uint32_t>(id);
    if (idx == 0 || idx > nodeCount_)
        return nullptr;
    Node &n = slab(idx - 1);
    if (!n.live || n.gen != static_cast<std::uint32_t>(id >> 32))
        return nullptr;
    return &n;
}

void
TimerWheel::freeNode(TimerId id)
{
    const std::uint32_t idx = static_cast<std::uint32_t>(id) - 1;
    Node &n = slab(idx);
    n.cb.reset();
    n.live = false;
    n.level = kDetached;
    ++n.gen;   // every outstanding handle to this slot goes stale
    n.next = freeHead_;
    freeHead_ = idx;
}

TimerWheel::TimerId
TimerWheel::add(std::uint64_t expires, Callback cb)
{
    std::uint32_t idx;
    if (freeHead_ != kNil) {
        idx = freeHead_;
        freeHead_ = slab(idx).next;
    } else {
        idx = nodeCount_++;
        if (idx == chunks_.size() * kChunkSize)
            chunks_.push_back(std::make_unique<Node[]>(kChunkSize));
    }
    Node &n = slab(idx);
    n.expires = expires;
    n.cb = std::move(cb);
    n.live = true;
    n.level = kDetached;
    const TimerId id =
        (static_cast<TimerId>(n.gen) << 32) | (idx + 1);
    ++liveCount_;
    place(idx);
    return id;
}

bool
TimerWheel::cancel(TimerId id)
{
    if (!nodeAt(id))
        return false;
    detach(static_cast<std::uint32_t>(id) - 1);
    freeNode(id);
    --liveCount_;
    return true;
}

bool
TimerWheel::modify(TimerId id, std::uint64_t expires)
{
    Node *n = nodeAt(id);
    if (!n)
        return false;
    const std::uint32_t idx = static_cast<std::uint32_t>(id) - 1;
    detach(idx);
    n->expires = expires;
    place(idx);
    return true;
}

TimerWheel::Slot &
TimerWheel::slotAt(std::uint8_t level, std::uint32_t index)
{
    if (level == 0)
        return tv1_[index];
    return tvn_[level - 1][index];
}

void
TimerWheel::place(std::uint32_t idx)
{
    Node &node = slab(idx);
    // Clamp far-future timers into the outermost level, like the kernel.
    constexpr std::uint64_t kMaxDelta =
        (1ull << (kTv1Bits + kLevels * kTvnBits)) - 1;
    std::uint64_t expires = node.expires;
    if (expires > jiffy_ + kMaxDelta)
        expires = jiffy_ + kMaxDelta;

    std::uint64_t delta =
        expires > jiffy_ ? expires - jiffy_ : 0;

    std::uint8_t level;
    std::uint32_t index;
    if (delta == 0) {
        // Already (or about to be) expired: fire on the next tick.
        level = 0;
        index = (jiffy_ + 1) & (kTv1Size - 1);
    } else if (delta < kTv1Size) {
        level = 0;
        index = expires & (kTv1Size - 1);
    } else {
        level = kLevels;    // outermost unless a lower level fits
        index = 0;
        for (std::uint32_t l = 0; l < kLevels; ++l) {
            std::uint32_t shift = kTv1Bits + (l + 1) * kTvnBits;
            if (delta < (1ull << shift) || l == kLevels - 1) {
                level = static_cast<std::uint8_t>(l + 1);
                index = (expires >> (shift - kTvnBits)) & (kTvnSize - 1);
                break;
            }
        }
    }

    Slot &slot = slotAt(level, index);
    node.level = level;
    node.index = index;
    node.prev = slot.tail;
    node.next = kNil;
    if (slot.tail != kNil)
        slab(slot.tail).next = idx;
    else
        slot.head = idx;
    slot.tail = idx;
    ++slot.count;
}

void
TimerWheel::detach(std::uint32_t idx)
{
    Node &node = slab(idx);
    if (node.level == kDetached)
        return;
    Slot &slot = slotAt(node.level, node.index);
    fsim_assert(slot.count > 0);
    const std::uint32_t t = slot.tail;
    if (t == idx) {
        slot.tail = node.prev;
        if (node.prev != kNil)
            slab(node.prev).next = kNil;
        else
            slot.head = kNil;
    } else {
        // Move the tail node into the hole (swap-with-last order).
        Node &moved = slab(t);
        slot.tail = moved.prev;
        slab(moved.prev).next = kNil;
        moved.prev = node.prev;
        moved.next = node.next;
        if (moved.prev != kNil)
            slab(moved.prev).next = t;
        else
            slot.head = t;
        if (moved.next != kNil)
            slab(moved.next).prev = t;
        else
            slot.tail = t;
    }
    --slot.count;
    node.level = kDetached;
}

void
TimerWheel::cascade(std::uint32_t level, std::uint32_t index)
{
    Slot &slot = tvn_[level][index];
    cascaded_ += slot.count;
    // Unhook the whole chain first: place() may legally re-append into
    // this same slot (clamped far-future timers).
    std::uint32_t idx = slot.head;
    slot = Slot{};
    while (idx != kNil) {
        const std::uint32_t next = slab(idx).next;
        slab(idx).level = kDetached;
        place(idx);
        idx = next;
    }
}

void
TimerWheel::tickOnce()
{
    ++jiffy_;
    std::uint32_t idx1 = jiffy_ & (kTv1Size - 1);
    if (idx1 == 0) {
        for (std::uint32_t level = 0; level < kLevels; ++level) {
            std::uint32_t shift = kTv1Bits + level * kTvnBits;
            std::uint32_t idx = (jiffy_ >> shift) & (kTvnSize - 1);
            cascade(level, idx);
            if (idx != 0)
                break;
        }
    }

    // The due batch is detached from the wheel: copy its handles to a
    // reusable scratch and mark members so a cancel()/modify() issued by
    // an earlier callback in this batch does not try to unlink from the
    // already-emptied slot.
    std::vector<TimerId> due;
    due.swap(due_);
    Slot &slot = tv1_[idx1];
    for (std::uint32_t i = slot.head; i != kNil; i = slab(i).next) {
        Node &n = slab(i);
        n.level = kDetached;
        due.push_back((static_cast<TimerId>(n.gen) << 32) | (i + 1));
    }
    slot = Slot{};
    for (TimerId id : due) {
        Node *n = nodeAt(id);
        if (!n)
            continue;   // cancelled by an earlier callback in this batch
        if (n->expires > jiffy_) {
            // Re-armed to a later time by an earlier callback; if it is
            // still detached, give it back a real slot.
            if (n->level == kDetached)
                place(static_cast<std::uint32_t>(id) - 1);
            continue;
        }
        // Re-armed into the past by an earlier callback: it fires now,
        // so take it back off the slot it was re-linked into.
        detach(static_cast<std::uint32_t>(id) - 1);
        Callback cb = std::move(n->cb);
        freeNode(id);
        --liveCount_;
        ++fired_;
        cb();
    }
    due.clear();
    due.swap(due_);
}

std::size_t
TimerWheel::advance(std::uint64_t to_jiffy)
{
    std::size_t before = fired_;
    while (jiffy_ < to_jiffy)
        tickOnce();
    return fired_ - before;
}

std::size_t
TimerWheel::slotEntries() const
{
    std::size_t n = 0;
    for (const Slot &s : tv1_)
        n += s.count;
    for (const auto &level : tvn_)
        for (const Slot &s : level)
            n += s.count;
    return n;
}

} // namespace fsim
