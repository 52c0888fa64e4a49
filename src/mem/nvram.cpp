#include "nvram.hpp"

#include <cstring>

#include "support/logging.hpp"

namespace ticsim::mem {

NvRam::NvRam(std::uint32_t size)
    : size_(size), data_(std::make_unique_for_overwrite<std::uint8_t[]>(size))
{
}

Addr
NvRam::allocate(const std::string &name, std::uint32_t size,
                std::uint32_t align)
{
    if (align == 0 || (align & (align - 1)) != 0)
        fatal("nvram: alignment %u is not a power of two", align);
    const std::uint32_t base = (next_ + align - 1) & ~(align - 1);
    if (base + size > size_ || base + size < base) {
        fatal("nvram: out of memory allocating '%s' (%u bytes; %u of %u "
              "used)", name.c_str(), size, next_, size_);
    }
    std::memset(data_.get() + next_, 0, base + size - next_);
    next_ = base + size;
    regions_.push_back({name, base, size});
    return base;
}

std::uint8_t *
NvRam::hostPtr(Addr a)
{
    TICSIM_ASSERT(a < size_, "addr %u", a);
    return data_.get() + a;
}

const std::uint8_t *
NvRam::hostPtr(Addr a) const
{
    TICSIM_ASSERT(a < size_, "addr %u", a);
    return data_.get() + a;
}

Addr
NvRam::addrOf(const void *hostPtr) const
{
    const auto *p = static_cast<const std::uint8_t *>(hostPtr);
    TICSIM_ASSERT(contains(hostPtr), "host pointer outside arena");
    return static_cast<Addr>(p - data_.get());
}

bool
NvRam::contains(const void *hostPtr) const
{
    const auto *p = static_cast<const std::uint8_t *>(hostPtr);
    return p >= data_.get() && p < data_.get() + size_;
}

const NvRegion *
NvRam::regionAt(Addr a) const
{
    // First region with base > a, then step back one.
    std::size_t lo = 0, hi = regions_.size();
    while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (regions_[mid].base <= a)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo == 0)
        return nullptr;
    const NvRegion &r = regions_[lo - 1];
    return a < r.base + r.size ? &r : nullptr;
}

} // namespace ticsim::mem
