#include "sim/memory.h"

#include <sstream>

namespace astra {

namespace {

std::string
memory_error_message(MemoryError::Kind kind, int64_t requested,
                     int64_t capacity)
{
    std::ostringstream os;
    switch (kind) {
      case MemoryError::Kind::Exhausted:
        os << "simulated HBM exhausted: need " << requested
           << " bytes of " << capacity;
        break;
      case MemoryError::Kind::BadPointer:
        os << "bad device pointer " << requested << " (capacity "
           << capacity << ")";
        break;
      case MemoryError::Kind::Injected:
        os << "injected allocation fault: " << requested << " bytes of "
           << capacity;
        break;
    }
    return os.str();
}

}  // namespace

MemoryError::MemoryError(Kind kind, int64_t requested, int64_t capacity)
    : std::runtime_error(memory_error_message(kind, requested, capacity)),
      kind_(kind), requested_(requested), capacity_(capacity)
{
}

SimMemory::SimMemory(int64_t bytes, bool zero)
    : capacity_(bytes), zero_(zero)
{
}

uint8_t*
SimMemory::host(DevPtr p) const
{
    if (p < 0 || p >= capacity_)
        throw MemoryError(MemoryError::Kind::BadPointer, p, capacity_);
    std::call_once(backed_, [this] {
        const size_t n = static_cast<size_t>(capacity_);
        pool_.reset(zero_ ? new uint8_t[n]() : new uint8_t[n]);
    });
    return pool_.get() + p;
}

void
SimMemory::arm_faults(const FaultPlan* plan, uint64_t salt)
{
    injector_ = FaultInjector(plan, salt);
}

int64_t
SimMemory::effective_capacity() const
{
    const double headroom = injector_.alloc_headroom();
    if (headroom <= 1.0)
        return capacity_;
    return static_cast<int64_t>(static_cast<double>(capacity_) /
                                headroom);
}

DevPtr
SimMemory::allocate(int64_t bytes, int64_t align)
{
    ASTRA_ASSERT(bytes >= 0 && align > 0);
    if (injector_.on_alloc())
        throw MemoryError(MemoryError::Kind::Injected, bytes, capacity_);
    const int64_t base = (next_ + align - 1) / align * align;
    if (base + bytes > effective_capacity())
        throw MemoryError(MemoryError::Kind::Exhausted, bytes,
                          effective_capacity());
    next_ = base + bytes;
    return base;
}

}  // namespace astra
