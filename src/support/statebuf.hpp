/**
 * @file
 * Flat byte-buffer serialization for snapshot/restore.
 *
 * Polymorphic simulator components (supplies, timekeepers, runtimes)
 * expose their mutable dynamics to board::Snapshot through opaque
 * byte blobs: each class appends its fields with StateWriter and
 * reads them back, in the same order, with StateReader. The blob is
 * only ever replayed into the *same object* it was captured from
 * (restore-in-place), so no type tags or versioning are needed —
 * a length mismatch is a programming error and asserts.
 */

#ifndef TICSIM_SUPPORT_STATEBUF_HPP
#define TICSIM_SUPPORT_STATEBUF_HPP

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "support/logging.hpp"

namespace ticsim {

/** Opaque captured state. */
using StateBlob = std::vector<std::uint8_t>;

/**
 * Appends trivially-copyable values to a caller's blob, which it
 * overwrites in place. The blob keeps its capacity, so a snapshot
 * captured again and again into the same storage stops allocating once
 * its blobs have grown to size.
 */
class StateWriter
{
  public:
    explicit StateWriter(StateBlob &out) : buf_(out) { buf_.clear(); }
    StateWriter(const StateWriter &) = delete;
    StateWriter &operator=(const StateWriter &) = delete;

    template <typename T>
    void
    put(const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "state fields must be trivially copyable");
        putBytes(&v, sizeof(T));
    }

    void
    putBytes(const void *p, std::size_t n)
    {
        // insert() copies straight in; resize() would zero-fill first.
        const auto *b = static_cast<const std::uint8_t *>(p);
        buf_.insert(buf_.end(), b, b + n);
    }

    std::size_t size() const { return buf_.size(); }

  private:
    StateBlob &buf_;
};

/** Reads values back in the order they were written. */
class StateReader
{
  public:
    explicit StateReader(const StateBlob &b) : buf_(b) {}

    template <typename T>
    T
    get()
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "state fields must be trivially copyable");
        T v;
        getBytes(&v, sizeof(T));
        return v;
    }

    void
    getBytes(void *p, std::size_t n)
    {
        TICSIM_ASSERT(off_ + n <= buf_.size(), "state blob underrun");
        std::memcpy(p, buf_.data() + off_, n);
        off_ += n;
    }

    /** All bytes consumed — assert this after the last field so a
     *  field-list mismatch cannot pass silently. */
    bool exhausted() const { return off_ == buf_.size(); }

  private:
    const StateBlob &buf_;
    std::size_t off_ = 0;
};

} // namespace ticsim

#endif // TICSIM_SUPPORT_STATEBUF_HPP
