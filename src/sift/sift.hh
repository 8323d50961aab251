/**
 * @file
 * SIFT-like binary instruction trace format (record once, replay many).
 *
 * Mirrors the Sniper Instruction Trace Format workflow from the paper:
 * the front-end (functional core, standing in for DynamoRIO on the ARM
 * board) records a trace once; timing simulations replay it any number
 * of times, possibly on a different machine. The format embeds the
 * static program image and stores only the dynamic facts (memory
 * addresses, branch outcomes) as zigzag-varint deltas, so traces stay
 * compact.
 *
 * Layout (little-endian):
 *   magic "RVSIFT01"
 *   varint nameLen, name bytes
 *   varint codeBase, varint codeWords, raw 4-byte words
 *   varint dataSegments, each: varint base, varint len, raw bytes
 *   varint instCount
 *   event bytes (per instruction, in execution order):
 *     load/store: zigzag varint (memAddr - prevMemAddr)
 *     branch:     byte 0|1 (taken); if taken zigzag varint
 *                 (target - pc) / 4
 *     other:      nothing
 *
 * Sift is the on-disk form only (the engine's TraceBank keeps its
 * recordings as vm::PackedTrace). The parsed form is split into an
 * immutable, shareable SiftTrace (bytes + embedded program + static
 * decode, parsed once) and lightweight SiftCursor replay handles, so
 * several readers can replay one file without re-parsing it.
 */

#ifndef RACEVAL_SIFT_SIFT_HH
#define RACEVAL_SIFT_SIFT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "isa/program.hh"
#include "vm/trace.hh"

namespace raceval::sift
{

/**
 * Encode a full trace into a byte buffer.
 *
 * Drains the source to completion (the source is reset() first so the
 * recording always starts from the beginning).
 *
 * @param prog the program the source executes (embedded in the trace).
 * @param source dynamic stream to record.
 * @return the encoded trace bytes.
 */
std::vector<uint8_t> encodeTrace(const isa::Program &prog,
                                 vm::TraceSource &source);

/** Encode and write to a file; fatal() on I/O failure. */
void writeTrace(const std::string &path, const isa::Program &prog,
                vm::TraceSource &source);

/** Read a whole file into memory; fatal() on I/O failure. */
std::vector<uint8_t> readFile(const std::string &path);

/**
 * An immutable parsed trace: the encoded bytes plus the embedded
 * program re-decoded once.
 *
 * SiftTrace is safe to share across threads behind a shared_ptr; every
 * replay goes through its own SiftCursor, which carries all mutable
 * replay state. The trace re-decodes the embedded program with its own
 * Decoder, so decoder fault injection can be applied at replay time --
 * just like Sniper's back-end re-decoding SIFT input through Capstone.
 */
class SiftTrace
{
  public:
    /** Parse encoded bytes (takes ownership of the buffer). */
    explicit SiftTrace(std::vector<uint8_t> buffer,
                       isa::DecoderOptions decoder_options = {});

    const std::string &name() const { return progName; }
    const isa::Program &program() const { return prog; }

    /** @return total instructions in the trace. */
    uint64_t instCount() const { return totalInsts; }

    /** @return size of the encoded representation. */
    size_t encodedBytes() const { return bytes.size(); }

    /** @return static decode of instruction word i. */
    const isa::DecodedInst &decodedAt(size_t i) const { return decoded[i]; }

  private:
    friend class SiftCursor;

    std::vector<uint8_t> bytes;
    std::string progName;
    isa::Program prog;
    std::vector<isa::DecodedInst> decoded;
    uint64_t totalInsts = 0;
    size_t eventStart = 0; //!< byte offset of the event stream
};

/**
 * One replay of a shared SiftTrace as a TraceSource.
 *
 * Cursors are cheap (a shared_ptr plus a few counters); open as many
 * as you have concurrent timing runs.
 */
class SiftCursor final : public vm::TraceSource
{
  public:
    explicit SiftCursor(std::shared_ptr<const SiftTrace> trace);

    bool next(vm::DynInst &out) override;
    void reset() override;
    const std::string &name() const override { return trace->name(); }
    const isa::Program *program() const override
    {
        return &trace->program();
    }

  private:
    std::shared_ptr<const SiftTrace> trace;
    size_t cursor = 0;    //!< current byte offset in the event stream
    uint64_t emitted = 0; //!< instructions emitted so far
    uint64_t pc = 0;
    uint64_t prevMemAddr = 0;
};

/**
 * Replays a recorded trace as a TraceSource.
 *
 * Convenience wrapper owning a single-reader SiftTrace + SiftCursor
 * pair; use SiftTrace/SiftCursor directly to share one parsed trace
 * between many replays.
 */
class SiftReader : public vm::TraceSource
{
  public:
    /** Construct from encoded bytes (takes ownership of the buffer). */
    explicit SiftReader(std::vector<uint8_t> buffer,
                        isa::DecoderOptions decoder_options = {});

    /** Construct by reading a trace file. */
    explicit SiftReader(const std::string &path,
                        isa::DecoderOptions decoder_options = {});

    bool next(vm::DynInst &out) override { return cursor.next(out); }
    void reset() override { cursor.reset(); }
    const std::string &name() const override { return trace->name(); }
    const isa::Program *program() const override
    {
        return &trace->program();
    }

    /** @return total instructions in the trace. */
    uint64_t instCount() const { return trace->instCount(); }

  private:
    std::shared_ptr<const SiftTrace> trace;
    SiftCursor cursor;
};

} // namespace raceval::sift

#endif // RACEVAL_SIFT_SIFT_HH
