/**
 * @file
 * The locations a log-based runtime has already versioned in the
 * current epoch (since its undo or version log was last cleared), each
 * with the widest extent logged. TICS and the Chinchilla-like runtime
 * consult it on every write barrier to skip re-logging a location, and
 * clear it on every commit and boot.
 *
 * An open-addressing table whose slots carry the generation that
 * filled them: clear() bumps the generation, so every commit costs
 * O(1) however many slots the epoch touched, and nothing is allocated
 * after construction unless an epoch outgrows the table. A dense list
 * of live slots, in insertion order, serves snapshot save/load.
 */

#ifndef TICSIM_TICS_EPOCH_SET_HPP
#define TICSIM_TICS_EPOCH_SET_HPP

#include <cstdint>
#include <vector>

#include "support/statebuf.hpp"

namespace ticsim::tics {

class EpochSet
{
  public:
    /** Sized so @p entries keys (the log's entry capacity) fill at
     *  most half the table. */
    explicit EpochSet(std::uint32_t entries)
    {
        std::uint32_t cap = 16;
        while (cap < 2 * entries)
            cap *= 2;
        resize(cap);
        order_.reserve(entries);
    }

    /** Whether @p p was logged this epoch with an extent of at least
     *  @p bytes. */
    bool
    covers(const void *p, std::uint32_t bytes) const
    {
        const Slot &s = slots_[probe(p)];
        return s.stamp == gen_ && s.bytes >= bytes;
    }

    /** Record that @p p was logged with extent @p bytes (replacing a
     *  narrower record). */
    void
    set(const void *p, std::uint32_t bytes)
    {
        std::uint32_t i = probe(p);
        if (slots_[i].stamp != gen_) {
            if (2 * (order_.size() + 1) > slots_.size()) {
                grow();
                i = probe(p);
            }
            order_.push_back(i);
        }
        slots_[i] = Slot{p, bytes, gen_};
    }

    /** Forget every location (a commit or boot started a new epoch). */
    void
    clear()
    {
        order_.clear();
        if (++gen_ == 0) {
            // The stamp wrapped: wipe it so no stale slot looks live.
            for (Slot &s : slots_)
                s.stamp = 0;
            gen_ = 1;
        }
    }

    std::size_t size() const { return order_.size(); }

    /** Snapshot support: the live entries, in insertion order. */
    void
    saveState(StateWriter &w) const
    {
        w.put(static_cast<std::uint64_t>(order_.size()));
        for (const std::uint32_t i : order_) {
            w.put(reinterpret_cast<std::uintptr_t>(slots_[i].key));
            w.put(slots_[i].bytes);
        }
    }

    void
    loadState(StateReader &r)
    {
        clear();
        const auto n = r.get<std::uint64_t>();
        for (std::uint64_t k = 0; k < n; ++k) {
            const auto *p =
                reinterpret_cast<const void *>(r.get<std::uintptr_t>());
            set(p, r.get<std::uint32_t>());
        }
    }

  private:
    struct Slot {
        const void *key = nullptr;
        std::uint32_t bytes = 0;
        std::uint32_t stamp = 0; ///< live iff equal to gen_
    };

    /** The slot holding @p p, or the empty slot where it would go. */
    std::uint32_t
    probe(const void *p) const
    {
        const auto mask = static_cast<std::uint32_t>(slots_.size() - 1);
        // Fibonacci hashing: the top bits of the product mix every
        // address bit, so aligned pointers spread over the table.
        auto i = static_cast<std::uint32_t>(
            (reinterpret_cast<std::uintptr_t>(p) *
             0x9E3779B97F4A7C15ull) >>
            shift_);
        while (slots_[i].stamp == gen_ && slots_[i].key != p)
            i = (i + 1) & mask;
        return i;
    }

    void
    resize(std::uint32_t cap)
    {
        slots_.assign(cap, Slot{});
        shift_ = 64;
        for (std::uint32_t c = cap; c > 1; c /= 2)
            --shift_;
    }

    /** Double the table, re-inserting the live entries in order. */
    void
    grow()
    {
        std::vector<Slot> live;
        live.reserve(order_.size());
        for (const std::uint32_t i : order_)
            live.push_back(slots_[i]);
        resize(static_cast<std::uint32_t>(2 * slots_.size()));
        order_.clear();
        for (const Slot &s : live) {
            const std::uint32_t i = probe(s.key);
            slots_[i] = s;
            order_.push_back(i);
        }
    }

    std::vector<Slot> slots_;          ///< power-of-two size
    std::vector<std::uint32_t> order_; ///< live slots, insertion order
    std::uint32_t gen_ = 1;
    unsigned shift_ = 64; ///< 64 - log2(slots_.size())
};

} // namespace ticsim::tics

#endif // TICSIM_TICS_EPOCH_SET_HPP
