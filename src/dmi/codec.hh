/**
 * @file
 * Conversion between memory commands/responses and DMI frames.
 *
 * A command becomes one command frame plus, for stores, eight 16 B
 * write-data frames (nine for partial writes, which first ship the
 * byte-enable map). A read response is four 32 B read-data frames;
 * completions are done frames carrying up to four tags. Write data
 * for different commands may be interleaved on the link (paper
 * §3.3(iii)), so the assemblers track per-tag state.
 *
 * The codec allocates nothing: encoding and response assembly return
 * an InlineList, a fixed-capacity list held by value that converts
 * to a std::vector for code that keeps the frames.
 */

#ifndef CONTUTTO_DMI_CODEC_HH
#define CONTUTTO_DMI_CODEC_HH

#include <array>
#include <cstddef>
#include <new>
#include <optional>
#include <type_traits>
#include <vector>

#include "dmi/frame.hh"
#include "sim/logging.hh"

namespace contutto::dmi
{

/**
 * At most @p N values, stored inline. The slots are raw storage
 * until emplace_back() constructs one, so an empty list costs
 * nothing to make, whatever its capacity.
 */
template <typename T, std::size_t N>
class InlineList
{
    static_assert(std::is_trivially_copyable_v<T>
                  && std::is_trivially_destructible_v<T>);

  public:
    InlineList() {}

    /** Append a default-constructed value; returns it. */
    T &
    emplace_back()
    {
        ct_assert(size_ < N);
        return *::new (&items_[size_++]) T();
    }

    std::size_t size() const { return size_; }
    const T &operator[](std::size_t i) const { return items_[i]; }
    const T *begin() const { return items_; }
    const T *end() const { return items_ + size_; }

    /** A heap copy, for callers that keep the values. */
    operator std::vector<T>() const { return {begin(), end()}; }

  private:
    union
    {
        T items_[N];
    };
    std::size_t size_ = 0;
};

/** A command's frames: header, byte-enable map, eight data chunks. */
using CommandFrames = InlineList<DownFrame, 2 + downFramesPerLine>;
/** A response's frames: a read's four data chunks at most. */
using ResponseFrames = InlineList<UpFrame, upFramesPerLine>;
/** What one upstream frame completes: a done frame's four tags. */
using Responses = InlineList<MemResponse, 4>;

/** Expand a command into the downstream frames that carry it. */
CommandFrames encodeCommand(const MemCommand &cmd);

/** Expand a response into the upstream frames that carry it. */
ResponseFrames encodeResponse(const MemResponse &resp);

/**
 * Reassembles downstream frames into complete commands.
 *
 * Used by the memory-buffer side (Centaur model and ConTutto MBS).
 * Commands complete when the header and all expected data chunks for
 * the tag have arrived, in any interleaving.
 */
class CommandAssembler
{
  public:
    /**
     * Feed one frame.
     * @return a completed command if this frame finished one.
     */
    std::optional<MemCommand> feed(const DownFrame &frame);

    /** True if any tag has partially-assembled state. */
    bool idle() const;

    /** Drop all partial state (used on channel reset). */
    void reset();

  private:
    struct Pending
    {
        bool active = false;
        bool haveHeader = false;
        MemCommand cmd;
        unsigned chunksSeen = 0;
        bool haveEnables = false;
    };

    std::optional<MemCommand> finishIfComplete(Pending &p);

    std::array<Pending, numTags> pending_{};
};

/**
 * Reassembles upstream frames into complete responses.
 *
 * Used by the processor side. Read data arrives as four chunks which
 * must be contiguous per tag (paper §3.3(iii): "upstream data must be
 * sent in contiguous frames"), but we tolerate interleaving to keep
 * the assembler general. A done frame may complete several tags; one
 * MemResponse is produced per tag.
 */
class ResponseAssembler
{
  public:
    /** Feed one frame; may complete several responses (done frames). */
    Responses feed(const UpFrame &frame);

    void reset();

  private:
    struct Pending
    {
        bool active = false;
        CacheLine data{};
        unsigned chunksSeen = 0;
        bool poisoned = false; ///< Any chunk carried the poison flag.
    };

    std::array<Pending, numTags> pending_{};
};

} // namespace contutto::dmi

#endif // CONTUTTO_DMI_CODEC_HH
