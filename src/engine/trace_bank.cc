#include "engine/trace_bank.hh"

#include "common/log.hh"
#include "engine/fingerprint.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "vm/functional.hh"

namespace raceval::engine
{

size_t
TraceBank::add(const isa::Program &program)
{
    uint64_t fp = fingerprint(program);
    std::lock_guard<std::mutex> lock(mutex);
    auto it = byFingerprint.find(fp);
    if (it != byFingerprint.end())
        return it->second;
    size_t id = entries.size();
    auto entry = std::make_unique<Entry>();
    entry->program = program;
    entries.push_back(std::move(entry));
    byFingerprint.emplace(fp, id);
    counters.instances = entries.size();
    return id;
}

size_t
TraceBank::size() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return entries.size();
}

const isa::Program &
TraceBank::program(size_t id) const
{
    std::lock_guard<std::mutex> lock(mutex);
    RV_ASSERT(id < entries.size(), "trace bank: bad instance id %zu", id);
    return entries[id]->program;
}

TraceBank::Entry &
TraceBank::entryFor(size_t id)
{
    std::lock_guard<std::mutex> lock(mutex);
    RV_ASSERT(id < entries.size(), "trace bank: bad instance id %zu", id);
    return *entries[id];
}

void
TraceBank::record(Entry &entry)
{
    std::call_once(entry.recordOnce, [&] {
        RV_SPAN("bank.record");
        vm::FunctionalCore live(entry.program);
        auto trace = std::make_shared<const vm::PackedTrace>(
            vm::PackedTrace::build(live));
        std::lock_guard<std::mutex> lock(mutex);
        ++counters.recordings;
        counters.recordedInsts += trace->instCount();
        counters.packedBytes += trace->packedBytes();
        RV_GAUGE_SET("bank.packed_bytes",
                     static_cast<int64_t>(counters.packedBytes));
        entry.trace = std::move(trace);
    });
}

std::shared_ptr<const vm::PackedTrace>
TraceBank::packed(size_t id)
{
    Entry &entry = entryFor(id);
    record(entry);
    std::lock_guard<std::mutex> lock(mutex);
    ++counters.replays;
    return entry.trace;
}

uint64_t
TraceBank::instCount(size_t id)
{
    Entry &entry = entryFor(id);
    record(entry);
    std::lock_guard<std::mutex> lock(mutex);
    return entry.trace->instCount();
}

TraceBankStats
TraceBank::stats() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return counters;
}

} // namespace raceval::engine
