//! Probe ids: the closed set of names a [`ProbeRegistry`] can hold.
//!
//! Every counter is a [`Probe`] and every histogram a [`HistogramProbe`],
//! so a misspelt probe or a counter read as a histogram is a compile
//! error, and each name is written once, in [`Probe::name`] or
//! [`HistogramProbe::name`].
//!
//! [`ProbeRegistry`]: crate::ProbeRegistry

use crate::stall::StallCause;

/// A counter in a [`ProbeRegistry`](crate::ProbeRegistry).
///
/// [`name`](Probe::name) is the export form in probe reports and
/// `/metrics.json`, so a variant's name never changes. Probes order by
/// name, which keeps every export alphabetical.
///
/// A probe that is not a variant does not compile:
///
/// ```compile_fail
/// use hbc_probe::{Probe, ProbeRegistry};
///
/// ProbeRegistry::new().set(Probe::MemLbHtis, 1);
/// ```
///
/// and neither does a name given as a string:
///
/// ```compile_fail
/// use hbc_probe::ProbeRegistry;
///
/// let _ = ProbeRegistry::new().get("mem.lb.hits");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    // hbc-cpu `RunStats`.
    /// Cycles in the measured window.
    CpuRunCycles,
    /// Instructions retired.
    CpuRetireInstructions,
    /// Loads retired.
    CpuRetireLoads,
    /// Stores retired.
    CpuRetireStores,
    /// Mispredicted control transfers retired.
    CpuRetireMispredicts,
    /// Sum of retired loads' dispatch-to-data latencies.
    CpuRetireLoadLatencySum,
    /// Cycles dispatch stopped on a full reorder buffer.
    CpuFetchRobFullCycles,
    /// Cycles dispatch stopped on a full load/store queue.
    CpuFetchLsqFullCycles,
    /// Cycles fetch was squelched behind a mispredict.
    CpuFetchSquelchCycles,
    /// Cycles commit waited on a full store buffer.
    CpuCommitStoreStallCycles,
    /// Cycles charged to one stall cause (`cpu.stall.<label>`).
    Stall(StallCause),
    // hbc-mem `MemStats` and `MemSystem`.
    /// Load requests presented, retries included.
    MemLoadRequests,
    /// Loads served by the line buffer.
    MemLbHits,
    /// Line-buffer lookups.
    MemLbLookups,
    /// Loads that hit the primary cache.
    MemL1LoadHits,
    /// Loads that missed the primary cache.
    MemL1LoadMisses,
    /// Loads merged into an outstanding miss.
    MemL1MissMerges,
    /// Loads denied a port or bank.
    MemL1LoadRejections,
    /// Loads denied an MSHR.
    MemL1MshrRejections,
    /// Second-level hits.
    MemL2Hits,
    /// Second-level misses.
    MemL2Misses,
    /// Accesses denied by a bank conflict.
    MemPortsBankConflicts,
    /// Accesses denied a port.
    MemPortsRejections,
    /// Stores accepted into the store buffer.
    MemStoreAccepted,
    /// Stores that missed the primary cache.
    MemStoreMisses,
    /// Stores still waiting to drain.
    MemStorePending,
    // hbc-serve `Metrics` and its result cache.
    /// HTTP requests that reached a handler.
    ServeHttpRequests,
    /// `200` responses.
    ServeHttpResponsesOk,
    /// `400` responses.
    ServeHttpResponsesBadRequest,
    /// `404` responses.
    ServeHttpResponsesNotFound,
    /// `429` responses.
    ServeHttpResponsesRejected,
    /// `503` responses.
    ServeHttpResponsesUnavailable,
    /// `504` responses.
    ServeHttpResponsesTimeout,
    /// `500` responses.
    ServeHttpResponsesError,
    /// Result-cache hits from memory.
    ServeCacheHitsMemory,
    /// Result-cache hits from disk.
    ServeCacheHitsDisk,
    /// Result-cache misses.
    ServeCacheMisses,
    /// Requests coalesced onto an in-flight simulation.
    ServeCacheCoalesced,
    /// Entries evicted from the in-memory result cache.
    ServeCacheEvictions,
    /// Simulations executed.
    ServeExecRuns,
    /// Current admission-queue depth.
    ServeQueueDepth,
    /// Admission-queue high-water mark.
    ServeQueuePeak,
}

impl Probe {
    /// The probe's export name (`mem.lb.hits`, `cpu.stall.commit`, …).
    pub fn name(self) -> &'static str {
        match self {
            Probe::CpuRunCycles => "cpu.run.cycles",
            Probe::CpuRetireInstructions => "cpu.retire.instructions",
            Probe::CpuRetireLoads => "cpu.retire.loads",
            Probe::CpuRetireStores => "cpu.retire.stores",
            Probe::CpuRetireMispredicts => "cpu.retire.mispredicts",
            Probe::CpuRetireLoadLatencySum => "cpu.retire.load_latency_sum",
            Probe::CpuFetchRobFullCycles => "cpu.fetch.rob_full_cycles",
            Probe::CpuFetchLsqFullCycles => "cpu.fetch.lsq_full_cycles",
            Probe::CpuFetchSquelchCycles => "cpu.fetch.squelch_cycles",
            Probe::CpuCommitStoreStallCycles => "cpu.commit.store_stall_cycles",
            Probe::Stall(cause) => cause.probe_name(),
            Probe::MemLoadRequests => "mem.load.requests",
            Probe::MemLbHits => "mem.lb.hits",
            Probe::MemLbLookups => "mem.lb.lookups",
            Probe::MemL1LoadHits => "mem.l1.load_hits",
            Probe::MemL1LoadMisses => "mem.l1.load_misses",
            Probe::MemL1MissMerges => "mem.l1.miss_merges",
            Probe::MemL1LoadRejections => "mem.l1.load_rejections",
            Probe::MemL1MshrRejections => "mem.l1.mshr_rejections",
            Probe::MemL2Hits => "mem.l2.hits",
            Probe::MemL2Misses => "mem.l2.misses",
            Probe::MemPortsBankConflicts => "mem.ports.bank_conflicts",
            Probe::MemPortsRejections => "mem.ports.rejections",
            Probe::MemStoreAccepted => "mem.store.accepted",
            Probe::MemStoreMisses => "mem.store.misses",
            Probe::MemStorePending => "mem.store.pending",
            Probe::ServeHttpRequests => "serve.http.requests",
            Probe::ServeHttpResponsesOk => "serve.http.responses.ok",
            Probe::ServeHttpResponsesBadRequest => "serve.http.responses.bad_request",
            Probe::ServeHttpResponsesNotFound => "serve.http.responses.not_found",
            Probe::ServeHttpResponsesRejected => "serve.http.responses.rejected",
            Probe::ServeHttpResponsesUnavailable => "serve.http.responses.unavailable",
            Probe::ServeHttpResponsesTimeout => "serve.http.responses.timeout",
            Probe::ServeHttpResponsesError => "serve.http.responses.error",
            Probe::ServeCacheHitsMemory => "serve.cache.hits.memory",
            Probe::ServeCacheHitsDisk => "serve.cache.hits.disk",
            Probe::ServeCacheMisses => "serve.cache.misses",
            Probe::ServeCacheCoalesced => "serve.cache.coalesced",
            Probe::ServeCacheEvictions => "serve.cache.evictions",
            Probe::ServeExecRuns => "serve.exec.runs",
            Probe::ServeQueueDepth => "serve.queue.depth",
            Probe::ServeQueuePeak => "serve.queue.peak",
        }
    }
}

/// A histogram in a [`ProbeRegistry`](crate::ProbeRegistry).
///
/// A separate type from [`Probe`], so a counter id read as a histogram
/// does not compile:
///
/// ```compile_fail
/// use hbc_probe::{Probe, ProbeRegistry};
///
/// let _ = ProbeRegistry::new().get_histogram(Probe::MemLbHits);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistogramProbe {
    /// Instructions issued per cycle.
    CpuIssueWidthUsed,
    /// End-to-end `hbc-serve` request latency in microseconds.
    ServeLatencyMicros,
}

impl HistogramProbe {
    /// The histogram's export name (`cpu.issue.width_used`, …).
    pub fn name(self) -> &'static str {
        match self {
            HistogramProbe::CpuIssueWidthUsed => "cpu.issue.width_used",
            HistogramProbe::ServeLatencyMicros => "serve.latency.micros",
        }
    }
}

impl PartialOrd for Probe {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Probe {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.name().cmp(other.name())
    }
}

impl PartialOrd for HistogramProbe {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HistogramProbe {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.name().cmp(other.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_valid_probe_name;

    const PLAIN: [Probe; 41] = [
        Probe::CpuRunCycles,
        Probe::CpuRetireInstructions,
        Probe::CpuRetireLoads,
        Probe::CpuRetireStores,
        Probe::CpuRetireMispredicts,
        Probe::CpuRetireLoadLatencySum,
        Probe::CpuFetchRobFullCycles,
        Probe::CpuFetchLsqFullCycles,
        Probe::CpuFetchSquelchCycles,
        Probe::CpuCommitStoreStallCycles,
        Probe::MemLoadRequests,
        Probe::MemLbHits,
        Probe::MemLbLookups,
        Probe::MemL1LoadHits,
        Probe::MemL1LoadMisses,
        Probe::MemL1MissMerges,
        Probe::MemL1LoadRejections,
        Probe::MemL1MshrRejections,
        Probe::MemL2Hits,
        Probe::MemL2Misses,
        Probe::MemPortsBankConflicts,
        Probe::MemPortsRejections,
        Probe::MemStoreAccepted,
        Probe::MemStoreMisses,
        Probe::MemStorePending,
        Probe::ServeHttpRequests,
        Probe::ServeHttpResponsesOk,
        Probe::ServeHttpResponsesBadRequest,
        Probe::ServeHttpResponsesNotFound,
        Probe::ServeHttpResponsesRejected,
        Probe::ServeHttpResponsesUnavailable,
        Probe::ServeHttpResponsesTimeout,
        Probe::ServeHttpResponsesError,
        Probe::ServeCacheHitsMemory,
        Probe::ServeCacheHitsDisk,
        Probe::ServeCacheMisses,
        Probe::ServeCacheCoalesced,
        Probe::ServeCacheEvictions,
        Probe::ServeExecRuns,
        Probe::ServeQueueDepth,
        Probe::ServeQueuePeak,
    ];

    /// Checks one id type: valid names, unique names, and `Ord` equal to
    /// the byte order of the names (what keeps exports byte-stable).
    fn check_ids<T: Ord + Copy + std::fmt::Debug>(ids: &[T], name: fn(T) -> &'static str) {
        let mut names: Vec<&str> = ids.iter().map(|&id| name(id)).collect();
        for n in &names {
            assert!(is_valid_probe_name(n), "bad probe name {n:?}");
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ids.len(), "probe names must be unique");
        let mut by_ord = ids.to_vec();
        by_ord.sort();
        let mut by_name = ids.to_vec();
        by_name.sort_by_key(|&id| name(id));
        assert_eq!(by_ord, by_name);
    }

    #[test]
    fn every_id_has_a_valid_unique_name_in_byte_order() {
        let counters: Vec<Probe> =
            PLAIN.into_iter().chain(StallCause::ALL.map(Probe::Stall)).collect();
        check_ids(&counters, Probe::name);
        check_ids(
            &[HistogramProbe::CpuIssueWidthUsed, HistogramProbe::ServeLatencyMicros],
            HistogramProbe::name,
        );
    }
}
