/**
 * @file
 * Heap-allocation counting for a whole program.
 *
 * Including this header replaces the global operator new and delete
 * with malloc()/free() versions that count every allocation in
 * heapAllocations(). A hot path's allocations are then a count that
 * repeats on any host with the same standard library, unlike its
 * time. Include it from exactly one source file of a program (a bench
 * or a test binary), never from a library: the replacements are
 * definitions.
 *
 * The plain and nothrow forms are replaced; the array forms reach
 * them through the standard library, and the aligned forms are left
 * alone. A sanitizer that supplies its own operators still sees every
 * pair matched.
 */

#ifndef CONTUTTO_SIM_HEAP_COUNT_HH
#define CONTUTTO_SIM_HEAP_COUNT_HH

#include <cstdint>
#include <cstdlib>
#include <new>

namespace contutto
{

/** Global operator new calls since the program started. */
inline std::uint64_t &
heapAllocations()
{
    static std::uint64_t count = 0;
    return count;
}

} // namespace contutto

// All out of line: inlined, the compiler would see malloc() paired
// with operator delete and warn of a mismatch.

[[gnu::noinline]] void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    ++contutto::heapAllocations();
    return std::malloc(n ? n : 1);
}

[[gnu::noinline]] void *
operator new(std::size_t n)
{
    if (void *p = operator new(n, std::nothrow))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

#endif // CONTUTTO_SIM_HEAP_COUNT_HH
