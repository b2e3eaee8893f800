//! The four workloads: what each one sends, how its inputs follow from
//! `--seed`, and what each response must be.

use std::ops::RangeInclusive;

/// The seed whose response digests are committed under `expected/`.
pub const DEFAULT_SEED: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One client, fresh-seed `fig6` fast sweeps: the whole cold path
    /// through the cycle-level core.
    ColdFig6,
    /// One client, fresh-seed `fig3` standard-preset sweeps of the three
    /// representatives: the cold path without the core.
    ColdFig3,
    /// Open loop at 500 req/s against `hbc-serve`: 90% cache hits.
    ServeMix,
    /// The same stream at 250 req/s through a coordinator and two workers.
    ClusterMix,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::ColdFig6, Workload::ColdFig3, Workload::ServeMix, Workload::ClusterMix];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdFig6 => "cold_fig6",
            Workload::ColdFig3 => "cold_fig3",
            Workload::ServeMix => "serve_mix",
            Workload::ClusterMix => "cluster_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests per second of the open-loop serving workloads; `None` for
    /// the closed-loop cold sweeps.
    pub fn rate(self) -> Option<f64> {
        match self {
            Workload::ServeMix => Some(500.0),
            Workload::ClusterMix => Some(250.0),
            Workload::ColdFig6 | Workload::ColdFig3 => None,
        }
    }
}

/// Independent seed streams derived from `--seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// The cold sweeps that are timed.
    Measured = 0,
    /// One unmeasured cold sweep per set-up.
    Warmup = 1,
    /// Seeds of the serving workloads' cache-missing specs.
    Miss = 2,
    /// The serving workloads' hit/miss and spec choices.
    Choice = 3,
}

/// The seeds of the hot specs, which fresh seeds must never reuse.
const HOT_SEEDS: RangeInclusive<u64> = 40..=43;

/// Item `i` of `stream` under `seed`. Distinct `(stream, i)` pairs give
/// distinct values (the mix is a bijection of its packed input), none of
/// them a hot seed, so every cold request misses both the result cache
/// and the simulator's warm-stream memo.
pub fn derive(seed: u64, stream: Stream, i: u64) -> u64 {
    assert!(i < 1 << 20, "stream index {i} out of range");
    let s = splitmix64(seed << 24 | (stream as u64) << 20 | i);
    if HOT_SEEDS.contains(&s) {
        s | 1 << 63
    } else {
        s
    }
}

/// The SplitMix64 finalizer: a bijection on `u64`.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The cold sweep request with workload seed `s`.
pub fn cold_spec(w: Workload, s: u64) -> String {
    match w {
        Workload::ColdFig6 => format!(r#"{{"experiment":"fig6","preset":"fast","seed":{s}}}"#),
        _ => format!(r#"{{"experiment":"fig3","preset":"standard","reps":true,"seed":{s}}}"#),
    }
}

/// The figure binary and arguments whose standard output is the body of
/// [`cold_spec`]`(w, s)`.
pub fn cold_command(w: Workload, s: u64) -> (&'static str, Vec<String>) {
    let seed = s.to_string();
    match w {
        Workload::ColdFig6 => {
            ("fig6", ["--fast", "--seed", &seed, "--jobs", "1"].map(String::from).into())
        }
        _ => ("fig3", ["--reps", "--seed", &seed, "--jobs", "1"].map(String::from).into()),
    }
}

/// The committed digest of the cold body for workload seed `s`, known
/// for the first sweeps at [`DEFAULT_SEED`].
pub fn cold_digest(w: Workload, s: u64) -> Option<&'static str> {
    let table = match w {
        Workload::ColdFig6 => include_str!("../expected/cold_fig6.txt"),
        _ => include_str!("../expected/cold_fig3.txt"),
    };
    lookup(table, &s.to_string())
}

/// Cold sweeps per workload with a committed digest at the default seed.
pub const COLD_DIGESTS: u64 = 100;

/// The experiments of the sixteen hot specs, each at the four hot seeds:
/// the spec set the serve crate's `mixed_request` stream draws from.
const HOT_EXPERIMENTS: [&str; 4] = ["fig4", "fig5", "fig6", "table2"];
pub const HOT_SPECS: usize = 16;

pub fn hot_spec(k: usize) -> String {
    let seed = HOT_SEEDS.start() + (k % 4) as u64;
    format!(r#"{{"experiment":"{}","preset":"fast","seed":{seed}}}"#, HOT_EXPERIMENTS[k / 4])
}

/// The figure binary and arguments whose standard output is the body of
/// [`hot_spec`]`(k)`.
pub fn hot_command(k: usize) -> (&'static str, Vec<String>) {
    let seed = (HOT_SEEDS.start() + (k % 4) as u64).to_string();
    (HOT_EXPERIMENTS[k / 4], ["--fast", "--seed", &seed, "--jobs", "1"].map(String::from).into())
}

/// The experiments of the cache-missing serving specs. Their tables take
/// no simulation parameters, so every seed gives the same body.
pub const MISS_EXPERIMENTS: [&str; 2] = ["fig1", "table1"];

/// One serving request: its body, and the key of its expected digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServingRequest {
    pub spec: String,
    pub digest_key: String,
}

impl ServingRequest {
    pub fn hot(k: usize) -> ServingRequest {
        let spec = hot_spec(k);
        ServingRequest { digest_key: spec.clone(), spec }
    }

    /// The committed digest of this request's body (seed-independent:
    /// hot specs have fixed seeds, and fig1/table1 ignore theirs).
    pub fn digest(&self) -> Option<&'static str> {
        lookup(include_str!("../expected/serving.txt"), &self.digest_key)
    }
}

/// Request `i` of the serving stream: 90% one of the sixteen hot specs,
/// 10% a `fig1` or `table1` spec with a fresh seed, which misses the
/// cache, runs in under a millisecond and is put into the LRU.
pub fn serving_request(seed: u64, i: u64) -> ServingRequest {
    let r = derive(seed, Stream::Choice, i);
    if r.is_multiple_of(10) {
        let experiment = MISS_EXPERIMENTS[(r >> 8) as usize % 2];
        let s = derive(seed, Stream::Miss, i);
        ServingRequest {
            spec: format!(r#"{{"experiment":"{experiment}","seed":{s}}}"#),
            digest_key: experiment.to_string(),
        }
    } else {
        ServingRequest::hot((r >> 8) as usize % HOT_SPECS)
    }
}

/// The digest for `key` in a `key digest` table.
fn lookup(table: &'static str, key: &str) -> Option<&'static str> {
    table.lines().find_map(|l| l.rsplit_once(' ').filter(|(k, _)| *k == key).map(|(_, d)| d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn streams_are_deterministic_and_seeded() {
        let a: Vec<_> = (0..500).map(|i| serving_request(7, i)).collect();
        let b: Vec<_> = (0..500).map(|i| serving_request(7, i)).collect();
        assert_eq!(a, b);
        assert_ne!(a, (0..500).map(|i| serving_request(8, i)).collect::<Vec<_>>());
        assert_eq!(derive(3, Stream::Measured, 5), derive(3, Stream::Measured, 5));
        assert_eq!(
            cold_spec(Workload::ColdFig6, 9),
            r#"{"experiment":"fig6","preset":"fast","seed":9}"#
        );
    }

    #[test]
    fn cold_seeds_are_fresh_and_distinct() {
        for seed in [0, 1, 2, 42, u64::MAX] {
            let mut seen = BTreeSet::new();
            for stream in [Stream::Measured, Stream::Warmup, Stream::Miss] {
                for i in 0..2_000 {
                    let s = derive(seed, stream, i);
                    assert!(!HOT_SEEDS.contains(&s), "seed {seed}: {s} is a hot seed");
                    assert!(seen.insert(s), "seed {seed}: {s} repeats");
                }
            }
        }
    }

    #[test]
    fn serving_mix_is_ninety_percent_hot_over_all_sixteen() {
        let reqs: Vec<_> = (0..20_000).map(|i| serving_request(DEFAULT_SEED, i)).collect();
        let misses = reqs.iter().filter(|r| !r.spec.contains("\"preset\"")).count();
        assert!((1_800..2_200).contains(&misses), "{misses} misses in 20000");
        let hot: BTreeSet<_> =
            reqs.iter().filter(|r| r.spec.contains("\"preset\"")).map(|r| &r.spec).collect();
        assert_eq!(hot.len(), HOT_SPECS);
        let fresh: BTreeSet<_> =
            reqs.iter().filter(|r| !r.spec.contains("\"preset\"")).map(|r| &r.spec).collect();
        assert_eq!(fresh.len(), misses, "every miss spec is new");
    }

    #[test]
    fn every_served_body_has_a_committed_digest() {
        for k in 0..HOT_SPECS {
            assert!(ServingRequest::hot(k).digest().is_some(), "{}", hot_spec(k));
        }
        for i in 0..1_000 {
            assert!(serving_request(5, i).digest().is_some());
        }
        for w in [Workload::ColdFig6, Workload::ColdFig3] {
            for i in 0..COLD_DIGESTS {
                assert!(cold_digest(w, derive(DEFAULT_SEED, Stream::Measured, i)).is_some());
            }
        }
    }
}
