/**
 * @file
 * A growable FIFO on one power-of-two ring of slots.
 *
 * The per-trip queues of the detailed path (link send queues, the MBS
 * upstream queue, the host port's tag-wait queue, the DDR3 and Avalon
 * request queues) hold a handful of elements at a time. libstdc++'s
 * std::deque frees and re-allocates a 512-byte node every few
 * elements that pass through a nearly empty queue; a Ring allocates
 * only when it outgrows its slots, which stops happening once a run
 * has seen its deepest queue. pop_front() moves the element out and
 * resets its slot to T{}, so a popped shared_ptr is released at once,
 * not when the slot is next overwritten.
 */

#ifndef CONTUTTO_SIM_RING_HH
#define CONTUTTO_SIM_RING_HH

#include <cstddef>
#include <utility>
#include <vector>

namespace contutto::sim
{

template <typename T>
class Ring
{
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    T &front() { return slots_[head_]; }

    /** The @p i-th element from the front. */
    T &operator[](std::size_t i)
    {
        return slots_[(head_ + i) & (slots_.size() - 1)];
    }

    void
    push_back(T v)
    {
        if (size_ == slots_.size())
            grow();
        slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(v);
        ++size_;
    }

    /** Remove and return the front element; its slot is reset. */
    T
    pop_front()
    {
        T v = std::move(slots_[head_]);
        slots_[head_] = T{};
        head_ = (head_ + 1) & (slots_.size() - 1);
        --size_;
        return v;
    }

    /** Drop every element (each slot is reset); keeps the slots. */
    void
    clear()
    {
        while (!empty())
            pop_front();
    }

  private:
    /** Double the slots (8 to start), unrolling the ring to 0. */
    void
    grow()
    {
        std::vector<T> bigger(slots_.empty() ? 8 : 2 * slots_.size());
        for (std::size_t i = 0; i < size_; ++i)
            bigger[i] = std::move((*this)[i]);
        slots_.swap(bigger);
        head_ = 0;
    }

    std::vector<T> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace contutto::sim

#endif // CONTUTTO_SIM_RING_HH
