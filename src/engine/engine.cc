#include "engine/engine.hh"

#include <chrono>

#include "common/json_writer.hh"
#include "common/log.hh"
#include "core/timing_model.hh"
#include "obs/trace.hh"

namespace raceval::engine
{

namespace
{

uint64_t
mixedKey(const EvalKey &key)
{
    return Fingerprinter::mix64(key.model
                                ^ Fingerprinter::mix64(key.instance));
}

} // namespace

// ----------------------------------------------------------- EngineStats

std::string
EngineStats::summary() const
{
    std::string out;
    out += strprintf(
        "engine: %llu instances, %llu recorded (%llu insts; "
        "%.1f MiB packed)\n",
        static_cast<unsigned long long>(bank.instances),
        static_cast<unsigned long long>(bank.recordings),
        static_cast<unsigned long long>(bank.recordedInsts),
        static_cast<double>(bank.packedBytes) / (1024.0 * 1024.0));
    out += strprintf(
        "        cache: %llu hits / %llu misses (%.1f%% hit rate), "
        "%llu entries\n",
        static_cast<unsigned long long>(cache.hits),
        static_cast<unsigned long long>(cache.misses),
        100.0 * cache.hitRate(),
        static_cast<unsigned long long>(cache.entries));
    out += strprintf(
        "        %llu requests -> %llu fresh evals (%llu replays) in "
        "%.2f s = %.0f experiments/s; %llu batches "
        "(%llu submitted, %llu deduplicated)",
        static_cast<unsigned long long>(requests),
        static_cast<unsigned long long>(evaluations),
        static_cast<unsigned long long>(bank.replays),
        evalSeconds, experimentsPerSecond(),
        static_cast<unsigned long long>(batches),
        static_cast<unsigned long long>(batchSubmissions),
        static_cast<unsigned long long>(batchDeduplicated));
    out += strprintf(
        "\n        step cost: %llu insts simulated, %.1f ns/inst, "
        "%.1f simulated MIPS",
        static_cast<unsigned long long>(instsSimulated), nsPerInst(),
        simulatedMips());
    return out;
}

std::string
EngineStats::json() const
{
    JsonWriter w;
    w.beginObject()
        .field("instances", bank.instances)
        .field("recordings", bank.recordings)
        .field("recorded_insts", bank.recordedInsts)
        .field("packed_bytes", bank.packedBytes)
        .field("replays", bank.replays)
        .field("cache_hits", cache.hits)
        .field("cache_misses", cache.misses)
        .field("cache_hit_rate", cache.hitRate())
        .field("cache_entries", cache.entries)
        .field("requests", requests)
        .field("fresh_evals", evaluations)
        .field("eval_seconds", evalSeconds)
        .field("experiments_per_s", experimentsPerSecond())
        .field("batches", batches)
        .field("batch_submitted", batchSubmissions)
        .field("batch_deduplicated", batchDeduplicated)
        .field("insts_simulated", instsSimulated)
        .field("ns_per_inst", nsPerInst())
        .field("simulated_mips", simulatedMips())
        .endObject();
    return w.str();
}

std::vector<obs::Sample>
EngineStats::samples() const
{
    auto n = [](uint64_t v) { return static_cast<double>(v); };
    return {
        {"instances", n(bank.instances)},
        {"recordings", n(bank.recordings)},
        {"recorded_insts", n(bank.recordedInsts)},
        {"packed_bytes", n(bank.packedBytes)},
        {"replays", n(bank.replays)},
        {"cache_hits", n(cache.hits)},
        {"cache_misses", n(cache.misses)},
        {"cache_hit_rate", cache.hitRate()},
        {"cache_entries", n(cache.entries)},
        {"requests", n(requests)},
        {"fresh_evals", n(evaluations)},
        {"eval_seconds", evalSeconds},
        {"experiments_per_s", experimentsPerSecond()},
        {"batches", n(batches)},
        {"batch_submitted", n(batchSubmissions)},
        {"batch_deduplicated", n(batchDeduplicated)},
        {"insts_simulated", n(instsSimulated)},
        {"ns_per_inst", nsPerInst()},
        {"simulated_mips", simulatedMips()},
    };
}

// ------------------------------------------------------------ EvalEngine

EvalEngine::EvalEngine(core::ModelFamily family, EngineOptions options)
    : fam(family), pool(options.threads)
{
    // Export this engine's aggregate stats through the registry; the
    // metrics files pull them at snapshot time. The handle unregisters in ~EvalEngine before any sampled
    // member dies.
    obsSource = obs::MetricRegistry::instance().addSource(
        "engine", [this] { return stats().samples(); });
}

size_t
EvalEngine::addInstance(const isa::Program &program)
{
    uint64_t program_fp = fingerprint(program);
    size_t id = bank.add(program);

    // Resolve any warm-start entries that were waiting for this
    // program to be registered.
    std::lock_guard<std::mutex> lock(pendingMutex);
    auto it = pendingWarmStart.find(program_fp);
    if (it != pendingWarmStart.end()) {
        for (const auto &[model, value] : it->second)
            cache.insert(EvalKey{model, id}, value);
        pendingWarmStart.erase(it);
    }
    return id;
}

EvalKey
EvalEngine::modelKey(core::ModelFamily family,
                     const core::CoreParams &model, size_t instance,
                     size_t domain) const
{
    // One key family for everything: raced configurations are
    // materialized first and keyed by model content, so racing, error
    // reports and perturbation sweeps all share cache entries. The
    // domain's cost tag keeps different metrics apart; the timing
    // family's salt keeps model families apart (CoreParams content
    // alone cannot -- the same struct configures every family).
    return EvalKey{Fingerprinter::mix64(
                       fingerprint(model)
                       ^ Fingerprinter::mix64(domains[domain].tag)
                       ^ Fingerprinter::mix64(
                           core::modelFamilySalt(family))),
                   instance};
}

core::CoreParams
EvalEngine::materialize(const tuner::Configuration &config) const
{
    RV_ASSERT(modelFn != nullptr,
              "engine: configuration evaluation without a model fn");
    return modelFn(config);
}

core::CoreStats
EvalEngine::replayRun(const core::CoreParams &model, size_t instance)
{
    return replayRun(fam, model, instance);
}

core::CoreStats
EvalEngine::replayRun(core::ModelFamily family,
                      const core::CoreParams &model, size_t instance)
{
    // The hot path: replay the packed SoA form through the family's
    // step loop.
    RV_SPAN("replay.run", static_cast<uint64_t>(instance));
    std::shared_ptr<const vm::PackedTrace> packed = bank.packed(instance);
    return core::makeTimingModel(family, model)->run(*packed);
}

EvalValue
EvalEngine::computeFresh(core::ModelFamily family,
                         const core::CoreParams &model, size_t instance,
                         size_t domain)
{
    RV_SPAN("engine.eval", static_cast<uint64_t>(instance));
    auto fresh_start = std::chrono::steady_clock::now();
    core::CoreStats run = replayRun(family, model, instance);
    instsSimulatedCount += run.instructions;
    RV_HISTOGRAM_RECORD(
        "engine.eval_ns",
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - fresh_start)
                .count()));
    const SimCostFn &cost = domains[domain].fn;
    EvalValue value;
    value.simCpi = run.cpi();
    value.cost = cost ? cost(run, instance) : value.simCpi;
    ++evaluations;
    return value;
}

void
EvalEngine::chargeWall(std::chrono::steady_clock::time_point start)
{
    auto elapsed = std::chrono::steady_clock::now() - start;
    evalNanos += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count());
}

void
EvalEngine::recordAhead()
{
    size_t from = recordedAhead.load();
    size_t to = bank.size();
    if (from >= to)
        return;
    pool.parallelFor(to - from,
                     [&](size_t k) { bank.instCount(from + k); });
    recordedAhead.store(to);
}

void
EvalEngine::markHeldOut(size_t instance)
{
    RV_ASSERT(instance < bank.size(),
              "engine: markHeldOut on unknown instance %zu", instance);
    if (heldOutFlags.size() < bank.size())
        heldOutFlags.resize(bank.size(), false);
    heldOutFlags[instance] = true;
}

double
EvalEngine::evaluate(const tuner::Configuration &config, size_t instance)
{
    RV_ASSERT(!isHeldOut(instance),
              "engine: racing experiment against held-out instance %zu "
              "(hold-out workloads are report-only)", instance);
    return evaluateModel(materialize(config), instance).cost;
}

EvalValue
EvalEngine::evaluateModel(const core::CoreParams &model, size_t instance)
{
    return evaluateModel(fam, model, instance);
}

EvalValue
EvalEngine::evaluateModel(core::ModelFamily family,
                          const core::CoreParams &model, size_t instance)
{
    ++requests;
    EvalKey key = modelKey(family, model, instance, 0);
    EvalValue value;
    if (cache.lookup(key, value))
        return value;
    auto start = std::chrono::steady_clock::now();
    value = computeFresh(family, model, instance, 0);
    chargeWall(start);
    cache.insert(key, value);
    return value;
}

std::vector<double>
EvalEngine::evaluateMany(const std::vector<tuner::EvalPair> &pairs)
{
    BatchEvaluator batch(*this);
    std::vector<BatchEvaluator::Ticket> tickets;
    tickets.reserve(pairs.size());
    for (const auto &[config, instance] : pairs)
        tickets.push_back(batch.submit(config, instance));
    batch.collect();
    std::vector<double> costs;
    costs.reserve(pairs.size());
    for (BatchEvaluator::Ticket ticket : tickets)
        costs.push_back(batch.cost(ticket));
    return costs;
}

namespace
{

/**
 * Persisted-cache format stamp. Since every key carries its timing
 * family's salt, one cache file safely serves engines of every family
 * (the stamp used to encode the engine's in-order/OoO kind; that
 * distinction now lives in the keys, so files written by the
 * pre-family format are refused by version).
 */
uint64_t
persistDigest()
{
    return Fingerprinter()
        .mix(uint64_t{0x524e47ull})
        .mix(uint64_t{3}) // family-salted keys, v3 sorted file format
        .value();
}

} // namespace

size_t
EvalEngine::saveCache(const std::string &path) const
{
    RV_SPAN("cache.save");
    // Translate the instance half of each key from the bank-local id
    // to the program's content fingerprint before writing, so the
    // file is valid for any future run that registers the same
    // programs -- in any order, with any extras. Still-pending
    // warm-start entries (programs this run never registered) are
    // written back untouched rather than dropped.
    EvalCache on_disk;
    for (const auto &[key, value] : cache.entries()) {
        on_disk.insert(
            EvalKey{key.model, fingerprint(bank.program(key.instance))},
            value);
    }
    {
        std::lock_guard<std::mutex> lock(pendingMutex);
        for (const auto &[program_fp, entries] : pendingWarmStart) {
            for (const auto &[model, value] : entries)
                on_disk.insert(EvalKey{model, program_fp}, value);
        }
    }
    return on_disk.save(path, persistDigest());
}

size_t
EvalEngine::loadCache(const std::string &path)
{
    RV_SPAN("cache.load");
    EvalCache from_disk;
    bool compatible = true;
    if (from_disk.load(path, persistDigest(), &compatible) == 0) {
        warmRefused = !compatible;
        return 0;
    }

    // Index registered programs by fingerprint; resolve what we can
    // now, park the rest until addInstance() registers their program.
    std::unordered_map<uint64_t, size_t> registered;
    for (size_t id = 0; id < bank.size(); ++id)
        registered.emplace(fingerprint(bank.program(id)), id);

    size_t accepted = 0;
    std::lock_guard<std::mutex> lock(pendingMutex);
    for (const auto &[key, value] : from_disk.entries()) {
        auto it = registered.find(key.instance);
        if (it != registered.end())
            cache.insert(EvalKey{key.model, it->second}, value);
        else
            pendingWarmStart[key.instance].emplace_back(key.model,
                                                        value);
        ++accepted;
    }
    return accepted;
}

EngineStats
EvalEngine::stats() const
{
    EngineStats out;
    out.bank = bank.stats();
    out.cache = cache.stats();
    out.requests = requests.load();
    out.evaluations = evaluations.load();
    out.batches = batches.load();
    out.batchSubmissions = batchSubmissions.load();
    out.batchDeduplicated = batchDeduplicated.load();
    out.instsSimulated = instsSimulatedCount.load();
    out.evalSeconds = static_cast<double>(evalNanos.load()) / 1e9;
    return out;
}

// -------------------------------------------------------- BatchEvaluator

BatchEvaluator::BatchEvaluator(EvalEngine &engine_) : engine(engine_) {}

BatchEvaluator::Ticket
BatchEvaluator::submit(const tuner::Configuration &config, size_t instance)
{
    RV_ASSERT(!engine.isHeldOut(instance),
              "engine: racing experiment against held-out instance %zu "
              "(hold-out workloads are report-only)", instance);
    return submitModel(engine.materialize(config), instance);
}

BatchEvaluator::Ticket
BatchEvaluator::submitModel(const core::CoreParams &model,
                            size_t instance, size_t domain)
{
    return submitModel(engine.fam, model, instance, domain);
}

BatchEvaluator::Ticket
BatchEvaluator::submitModel(core::ModelFamily family,
                            const core::CoreParams &model,
                            size_t instance, size_t domain)
{
    RV_ASSERT(domain < engine.domains.size(),
              "batch: unknown cost domain %zu", domain);
    ++engine.requests;
    ++engine.batchSubmissions;
    EvalKey key = engine.modelKey(family, model, instance, domain);
    uint64_t mixed = mixedKey(key);
    auto it = slotIndex.find(mixed);
    if (it != slotIndex.end()) {
        ++engine.batchDeduplicated;
        tickets.push_back(it->second);
        return tickets.size() - 1;
    }

    Slot slot;
    slot.key = key;
    slot.instance = instance;
    slot.domain = domain;
    slot.family = family;
    if (engine.cache.lookup(key, slot.value))
        slot.served = true;
    else
        slot.model = model;
    slotIndex.emplace(mixed, slots.size());
    slots.push_back(std::move(slot));
    collected = false;
    tickets.push_back(slots.size() - 1);
    return tickets.size() - 1;
}

void
BatchEvaluator::runSlot(Slot &slot)
{
    slot.value = engine.computeFresh(slot.family, slot.model,
                                     slot.instance, slot.domain);
    engine.cache.insert(slot.key, slot.value);
    slot.served = true;
}

void
BatchEvaluator::collect()
{
    if (collected)
        return;
    std::vector<size_t> fresh;
    for (size_t s = 0; s < slots.size(); ++s) {
        if (!slots[s].served)
            fresh.push_back(s);
    }
    if (!fresh.empty()) {
        RV_SPAN("engine.batch", static_cast<uint64_t>(fresh.size()));
        // One wall-clock charge for the whole parallel wave, so
        // experimentsPerSecond() reports real throughput rather than
        // summed per-thread time.
        auto start = std::chrono::steady_clock::now();
        engine.recordAhead();
        engine.pool.parallelFor(fresh.size(), [&](size_t k) {
            runSlot(slots[fresh[k]]);
        });
        engine.chargeWall(start);
        RV_HISTOGRAM_RECORD(
            "engine.batch_ns",
            static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count()));
    }
    ++engine.batches;
    collected = true;
}

double
BatchEvaluator::cost(Ticket ticket) const
{
    RV_ASSERT(ticket < tickets.size(), "batch: bad ticket %zu", ticket);
    const Slot &slot = slots[tickets[ticket]];
    RV_ASSERT(slot.served, "batch: result read before collect()");
    return slot.value.cost;
}

double
BatchEvaluator::simCpi(Ticket ticket) const
{
    RV_ASSERT(ticket < tickets.size(), "batch: bad ticket %zu", ticket);
    const Slot &slot = slots[tickets[ticket]];
    RV_ASSERT(slot.served, "batch: result read before collect()");
    return slot.value.simCpi;
}

} // namespace raceval::engine
