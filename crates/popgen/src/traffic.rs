//! Client-population traffic model for the production serving driver.
//!
//! The serving benchmark pushes millions of client queries through the
//! resolver fleet; this module decides *what those clients ask*. Three
//! design constraints, all inherited from the experiment pipelines:
//!
//! 1. **Index stability.** Like [`crate::DomainGenerator`], the stream
//!    is a pure function of `(model, index)`: [`TrafficGenerator::get`]
//!    materialises query `i` in O(1) with no state spanning positions,
//!    so any sharding of `0..len` concatenates to the full stream and
//!    every resolver in the fleet can regenerate its own slice.
//! 2. **O(1) sampling.** Popularity follows a Zipf law (the observed
//!    shape of resolver workloads — heavy head, long tail). The sampler
//!    is a Vose alias table (`ZipfAlias`): O(n) to build once, two
//!    uniform draws per sample, no per-query CDF walk.
//! 3. **Reusable burst machinery.** Diurnal load peaks are modelled as
//!    time-windowed [`netsim`] fault episodes ([`diurnal_schedule`]):
//!    the same `FaultSchedule` plumbing every driver already installs,
//!    so peak-hour congestion composes with loss and retry accounting.
//!
//! The per-client query mix separates three behaviours that stress
//! different cache layers: existing names (answer-cache hits), repeated
//! misses (negative answer-cache hits), and unique misses — the
//! water-torture shape that only RFC 8198 aggressive NSEC3 caching can
//! collapse (see `dns_resolver::aggressive`).

use std::io::Write;

use dns_wire::name::Name;
use dns_wire::WireError;
use netsim::{Episode, EpisodeKind, FaultSchedule, Scope};
use sim_rng::{Permutation, Rng, SplitMix64, Xoshiro256pp};

/// What one client query asks for, relative to its target domain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    /// An existing name under the domain (`www.<domain>`): a positive
    /// answer, cacheable by qname.
    Existing,
    /// A unique nonexistent name (`nx<index>.<domain>`): cache-busting
    /// NXDOMAIN — only aggressive NSEC3 synthesis keeps it off the wire.
    NxUnique,
    /// The shared nonexistent name (`miss.<domain>`): a repeat NXDOMAIN
    /// that the plain negative answer cache absorbs.
    NxRepeat,
}

/// Per-client query mix, in percent. Must sum to 100.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryMix {
    /// Share of [`QueryKind::Existing`] queries.
    pub existing_pct: f64,
    /// Share of [`QueryKind::NxUnique`] queries.
    pub nx_unique_pct: f64,
    /// Share of [`QueryKind::NxRepeat`] queries.
    pub nx_repeat_pct: f64,
}

impl QueryMix {
    /// Ordinary browsing traffic: mostly existing names, a thin stream
    /// of typo misses.
    pub fn browsing() -> Self {
        QueryMix {
            existing_pct: 80.0,
            nx_unique_pct: 12.0,
            nx_repeat_pct: 8.0,
        }
    }

    /// NXDOMAIN-heavy traffic — the random-subdomain shape the RFC 8198
    /// fast path exists for.
    pub fn nxdomain_heavy() -> Self {
        QueryMix {
            existing_pct: 25.0,
            nx_unique_pct: 65.0,
            nx_repeat_pct: 10.0,
        }
    }

    fn assert_valid(&self) {
        let sum = self.existing_pct + self.nx_unique_pct + self.nx_repeat_pct;
        assert!(
            (sum - 100.0).abs() < 1e-6,
            "query mix must sum to 100, got {sum}"
        );
        assert!(self.existing_pct >= 0.0 && self.nx_unique_pct >= 0.0 && self.nx_repeat_pct >= 0.0);
    }
}

/// The client population: who queries, how often, with what skew.
#[derive(Clone, Debug)]
pub struct TrafficModel {
    /// Number of distinct clients.
    pub clients: u64,
    /// Queries each client issues.
    pub queries_per_client: u64,
    /// Zipf exponent over domain popularity ranks (1.0 = classic).
    pub zipf_skew: f64,
    /// Per-client query mix.
    pub mix: QueryMix,
    /// Seed for every sampling decision.
    pub seed: u64,
}

impl TrafficModel {
    /// `clients × queries_per_client` browsing-mix model at skew 1.0.
    pub fn new(clients: u64, queries_per_client: u64, seed: u64) -> Self {
        TrafficModel {
            clients,
            queries_per_client,
            zipf_skew: 1.0,
            mix: QueryMix::browsing(),
            seed,
        }
    }

    /// The same model under a different mix.
    pub fn with_mix(mut self, mix: QueryMix) -> Self {
        self.mix = mix;
        self
    }
}

/// One materialised client query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClientQuery {
    /// Position in the stream (`0..generator.len()`).
    pub index: u64,
    /// Issuing client (`index / queries_per_client`).
    pub client: u64,
    /// Index into the domain population this query targets.
    pub domain: u64,
    /// What the query asks for.
    pub kind: QueryKind,
}

impl ClientQuery {
    /// The query name, given the target domain's name (absolute,
    /// dot-terminated — `DomainSpec::name` form).
    pub fn qname(&self, domain: &str) -> String {
        match self.kind {
            QueryKind::Existing => format!("www.{domain}"),
            QueryKind::NxUnique => format!("nx{}.{domain}", self.index),
            QueryKind::NxRepeat => format!("miss.{domain}"),
        }
    }

    /// [`ClientQuery::qname`] as a wire name under an already-parsed
    /// apex: one label prepended, nothing formatted and re-parsed per
    /// query. The `nx{index}` label is written on the stack, so the name
    /// is the one allocation.
    pub fn qname_under(&self, apex: &Name) -> Result<Name, WireError> {
        match self.kind {
            QueryKind::Existing => apex.prepend(b"www"),
            QueryKind::NxUnique => {
                // `nx` and at most 20 digits (`u64::MAX`).
                let mut label = [0u8; 22];
                let mut rest = &mut label[..];
                write!(rest, "nx{}", self.index).expect("22 octets hold nx and any u64");
                let unused = rest.len();
                apex.prepend(&label[..label.len() - unused])
            }
            QueryKind::NxRepeat => apex.prepend(b"miss"),
        }
    }
}

/// O(1) Zipf sampler over ranks `0..n` via the Vose alias method.
///
/// Build cost is O(n) once; each sample is one bounded-integer draw plus
/// one coin flip — no CDF binary search on the per-query hot path. The
/// table is a pure function of `(n, skew)`, so two instances built with
/// the same parameters sample identically from identical RNG streams.
#[derive(Clone, Debug)]
pub(crate) struct ZipfAlias {
    /// Acceptance probability per slot.
    prob: Vec<f64>,
    /// Overflow rank per slot.
    alias: Vec<u32>,
}

impl ZipfAlias {
    /// Alias table for Zipf(`skew`) over ranks `0..n`.
    pub(crate) fn new(n: u64, skew: f64) -> Self {
        assert!(n > 0, "empty rank universe");
        assert!(n <= u32::MAX as u64, "alias table is u32-indexed");
        let n = n as usize;
        // Weights scaled to mean 1: w_r = n · pmf(r).
        let mut w: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(skew)).collect();
        let total: f64 = w.iter().sum();
        let scale = n as f64 / total;
        for x in w.iter_mut() {
            *x *= scale;
        }
        let mut prob = vec![1.0f64; n];
        let mut alias: Vec<u32> = (0..n as u32).collect();
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &x) in w.iter().enumerate() {
            if x < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            prob[s as usize] = w[s as usize];
            alias[s as usize] = l;
            w[l as usize] += w[s as usize] - 1.0;
            if w[l as usize] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Leftovers (float residue) keep acceptance probability 1.
        ZipfAlias { prob, alias }
    }

    /// Draw one rank: uniform slot, then the alias coin.
    pub(crate) fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        let slot = rng.gen_range(0..self.prob.len() as u64) as usize;
        if rng.next_f64() < self.prob[slot] {
            slot as u64
        } else {
            self.alias[slot] as u64
        }
    }
}

/// The deterministic query stream: `get(i)` materialises query `i` in
/// O(1). Popularity ranks map onto domain indices through a keyed
/// [`Permutation`], so rank 0 (the hottest domain) is not systematically
/// the population's first index.
#[derive(Clone, Debug)]
pub struct TrafficGenerator {
    model: TrafficModel,
    zipf: ZipfAlias,
    /// The keyed permutation, tabulated once: O(n) to build like the
    /// alias table, one load per query instead of its Feistel rounds.
    rank_to_domain: Vec<u32>,
    /// Per-query RNG base, mixed with the index per `get`.
    base: u64,
}

impl TrafficGenerator {
    /// A generator for `model` over a population of `domains` domains.
    pub fn new(model: TrafficModel, domains: u64) -> Self {
        assert!(domains > 0, "serving needs a nonempty domain population");
        model.mix.assert_valid();
        let zipf = ZipfAlias::new(domains, model.zipf_skew);
        let permutation = Permutation::new(
            domains,
            SplitMix64::new(model.seed ^ 0x7aff_1c5e).next_u64(),
        );
        // `ZipfAlias::new` has checked that every index fits a u32.
        let rank_to_domain = (0..domains)
            .map(|rank| permutation.apply(rank) as u32)
            .collect();
        let base = SplitMix64::new(model.seed ^ 0x00c1_1e47).next_u64();
        TrafficGenerator {
            model,
            zipf,
            rank_to_domain,
            base,
        }
    }

    /// Total stream length: `clients × queries_per_client`.
    pub(crate) fn len(&self) -> u64 {
        self.model.clients * self.model.queries_per_client
    }

    /// Query `i` of the stream — a pure function of `(model, i)`.
    pub fn get(&self, i: u64) -> ClientQuery {
        assert!(i < self.len(), "index {i} exceeds stream {}", self.len());
        let mut rng = Xoshiro256pp::seed_from_u64(
            self.base
                .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        let rank = self.zipf.sample(&mut rng);
        let domain = u64::from(self.rank_to_domain[rank as usize]);
        let pick: f64 = rng.gen_range(0.0..100.0);
        let kind = if pick < self.model.mix.existing_pct {
            QueryKind::Existing
        } else if pick < self.model.mix.existing_pct + self.model.mix.nx_unique_pct {
            QueryKind::NxUnique
        } else {
            QueryKind::NxRepeat
        };
        ClientQuery {
            index: i,
            client: i / self.model.queries_per_client,
            domain,
            kind,
        }
    }
}

/// A diurnal load profile as time-windowed fault episodes: two rush-hour
/// congestion windows over a virtual day of `day_secs`, adding
/// `extra_micros` (morning) and `2 × extra_micros` (evening) of jittered
/// latency to every path. Install it like any other schedule
/// (`net.set_schedule`) — retries, breakers, and loss accounting apply
/// unchanged, which is the point of reusing the episode machinery.
pub fn diurnal_schedule(seed: u64, day_secs: u64, extra_micros: u64) -> FaultSchedule {
    let day = day_secs * 1_000_000;
    FaultSchedule {
        base: Default::default(),
        seed,
        episodes: vec![
            Episode::window(
                day * 35 / 100,
                day * 45 / 100,
                EpisodeKind::LatencySpike {
                    scope: Scope::All,
                    extra_micros,
                    jitter_micros: extra_micros / 4,
                },
            ),
            Episode::window(
                day * 75 / 100,
                day * 90 / 100,
                EpisodeKind::LatencySpike {
                    scope: Scope::All,
                    extra_micros: extra_micros * 2,
                    jitter_micros: extra_micros / 2,
                },
            ),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table's oracle.
    impl ZipfAlias {
        /// The probability mass the table assigns to `rank` — reconstructed
        /// from the slots, for verifying the table against the analytic pmf.
        fn mass(&self, rank: u64) -> f64 {
            let mut m = self.prob[rank as usize];
            for (slot, &a) in self.alias.iter().enumerate() {
                if u64::from(a) == rank && slot != rank as usize {
                    m += 1.0 - self.prob[slot];
                }
            }
            m / self.prob.len() as f64
        }

        /// Analytic Zipf(`skew`) pmf over `0..n`.
        fn pmf(n: u64, skew: f64, rank: u64) -> f64 {
            let total: f64 = (1..=n).map(|r| 1.0 / (r as f64).powf(skew)).sum();
            (1.0 / ((rank + 1) as f64).powf(skew)) / total
        }
    }

    /// Inverse-CDF Zipf sampler — the reference the alias table must
    /// match in distribution.
    struct ZipfCdf {
        cdf: Vec<f64>,
    }

    impl ZipfCdf {
        fn new(n: u64, skew: f64) -> Self {
            let mut cdf = Vec::with_capacity(n as usize);
            let mut acc = 0.0;
            for r in 1..=n {
                acc += 1.0 / (r as f64).powf(skew);
                cdf.push(acc);
            }
            ZipfCdf { cdf }
        }

        fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
            let total = *self.cdf.last().unwrap();
            let u = rng.next_f64() * total;
            self.cdf.partition_point(|&c| c <= u) as u64
        }
    }

    #[test]
    fn alias_table_mass_matches_analytic_pmf() {
        for (n, skew) in [(1u64, 1.0), (7, 1.0), (500, 1.0), (500, 0.8), (64, 1.3)] {
            let alias = ZipfAlias::new(n, skew);
            for rank in 0..n {
                let mass = alias.mass(rank);
                let pmf = ZipfAlias::pmf(n, skew, rank);
                assert!(
                    (mass - pmf).abs() < 1e-12,
                    "n={n} skew={skew} rank={rank}: table mass {mass} vs pmf {pmf}"
                );
            }
        }
    }

    #[test]
    fn alias_sampling_matches_direct_cdf_sampling() {
        // Two independent streams, one per sampler; empirical frequencies
        // must agree with each other and with the pmf.
        let n = 200u64;
        let draws = 200_000u64;
        let alias = ZipfAlias::new(n, 1.0);
        let cdf = ZipfCdf::new(n, 1.0);
        let mut rng_a = Xoshiro256pp::seed_from_u64(11);
        let mut rng_c = Xoshiro256pp::seed_from_u64(22);
        let mut freq_a = vec![0u64; n as usize];
        let mut freq_c = vec![0u64; n as usize];
        for _ in 0..draws {
            freq_a[alias.sample(&mut rng_a) as usize] += 1;
            freq_c[cdf.sample(&mut rng_c) as usize] += 1;
        }
        // Total-variation distance between the two empirical laws.
        let tv: f64 = freq_a
            .iter()
            .zip(&freq_c)
            .map(|(&a, &c)| ((a as f64 - c as f64) / draws as f64).abs())
            .sum::<f64>()
            / 2.0;
        assert!(tv < 0.02, "total-variation distance {tv} too large");
        // Head ranks match the analytic pmf within 5 % relative error.
        for rank in 0..5 {
            let pmf = ZipfAlias::pmf(n, 1.0, rank);
            let emp = freq_a[rank as usize] as f64 / draws as f64;
            assert!(
                (emp - pmf).abs() / pmf < 0.05,
                "rank {rank}: empirical {emp} vs pmf {pmf}"
            );
        }
        // The head dominates: rank 0 beats rank 19 by about 20×.
        assert!(freq_a[0] > 10 * freq_a[19]);
    }

    #[test]
    fn generator_is_index_stable() {
        let model = TrafficModel::new(16, 25, 42);
        let g1 = TrafficGenerator::new(model.clone(), 64);
        let g2 = TrafficGenerator::new(model, 64);
        assert_eq!(g1.len(), 400);
        // get(i) is a pure function of (model, i): fresh construction,
        // repeated access, and out-of-order access all agree.
        for i in [0u64, 1, 17, 399, 200, 17] {
            assert_eq!(g1.get(i), g2.get(i));
            assert_eq!(g1.get(i), g1.get(i));
        }
        // Sharded regeneration concatenates to the sequential stream.
        let seq: Vec<ClientQuery> = (0..g1.len()).map(|i| g1.get(i)).collect();
        let mut sharded = Vec::new();
        for chunk in [(0u64, 133u64), (133, 266), (266, 400)] {
            sharded.extend((chunk.0..chunk.1).map(|i| g2.get(i)));
        }
        assert_eq!(seq, sharded);
    }

    sim_check::props! {
        /// The rank table holds exactly what the keyed permutation it
        /// tabulates maps each rank to.
        fn rank_table_equals_the_keyed_permutation(
            seed in sim_check::gens::u64s(..),
            domains in sim_check::gens::u64s(1..=5_000),
        ) {
            let g = TrafficGenerator::new(TrafficModel::new(1, 1, seed), domains);
            let key = SplitMix64::new(seed ^ 0x7aff_1c5e).next_u64();
            let permutation = Permutation::new(domains, key);
            assert_eq!(g.rank_to_domain.len() as u64, domains);
            for (rank, &domain) in g.rank_to_domain.iter().enumerate() {
                assert_eq!(u64::from(domain), permutation.apply(rank as u64), "rank {rank} of {domains}");
            }
        }
    }

    #[test]
    fn generator_pins_first_queries() {
        // The index-stability pin: these exact values are what model
        // (16 clients × 25 queries, seed 42, browsing mix) over 64
        // domains produced when the generator was introduced. Any drift
        // in the sampling pipeline shows up here before it silently
        // reshuffles every serving benchmark.
        let g = TrafficGenerator::new(TrafficModel::new(16, 25, 42), 64);
        let rendered: Vec<String> = (0..3).map(|i| format!("{:?}", g.get(i))).collect();
        assert_eq!(
            rendered,
            [
                "ClientQuery { index: 0, client: 0, domain: 15, kind: Existing }",
                "ClientQuery { index: 1, client: 0, domain: 3, kind: Existing }",
                "ClientQuery { index: 2, client: 0, domain: 46, kind: Existing }"
            ]
        );
    }

    #[test]
    fn mix_fractions_converge() {
        let model = TrafficModel::new(100, 200, 7).with_mix(QueryMix::nxdomain_heavy());
        let g = TrafficGenerator::new(model, 32);
        let mut counts = [0u64; 3];
        for i in 0..g.len() {
            match g.get(i).kind {
                QueryKind::Existing => counts[0] += 1,
                QueryKind::NxUnique => counts[1] += 1,
                QueryKind::NxRepeat => counts[2] += 1,
            }
        }
        let total = g.len() as f64;
        for (got, want) in counts.iter().zip([25.0, 65.0, 10.0]) {
            let pct = *got as f64 / total * 100.0;
            assert!(
                (pct - want).abs() < 2.0,
                "mix share {pct:.1} % vs configured {want} %"
            );
        }
    }

    #[test]
    fn qnames_follow_kind() {
        let q = ClientQuery {
            index: 9,
            client: 0,
            domain: 3,
            kind: QueryKind::NxUnique,
        };
        assert_eq!(q.qname("d4.com."), "nx9.d4.com.");
        let q = ClientQuery {
            kind: QueryKind::Existing,
            ..q
        };
        assert_eq!(q.qname("d4.com."), "www.d4.com.");
        let q = ClientQuery {
            kind: QueryKind::NxRepeat,
            ..q
        };
        assert_eq!(q.qname("d4.com."), "miss.d4.com.");
    }

    #[test]
    fn qname_under_parsed_apex_equals_parsed_qname() {
        let apex = Name::parse("d4.com.").unwrap();
        for kind in [
            QueryKind::Existing,
            QueryKind::NxUnique,
            QueryKind::NxRepeat,
        ] {
            let q = ClientQuery {
                index: u64::MAX,
                client: 0,
                domain: 3,
                kind,
            };
            assert_eq!(
                q.qname_under(&apex).unwrap(),
                Name::parse(&q.qname("d4.com.")).unwrap()
            );
        }
        // Both spellings refuse a name the extra label pushes past 255
        // octets (251 on the wire, plus the 5 of `miss`).
        let long = format!("{0}.{0}.{0}.{1}.", "a".repeat(63), "a".repeat(57));
        let q = ClientQuery {
            index: 0,
            client: 0,
            domain: 0,
            kind: QueryKind::NxRepeat,
        };
        assert!(Name::parse(&q.qname(&long)).is_err());
        assert!(q.qname_under(&Name::parse(&long).unwrap()).is_err());
    }

    #[test]
    fn diurnal_schedule_is_windowed_and_live() {
        let sched = diurnal_schedule(9, 86_400, 2_000);
        assert!(!sched.is_inert(), "rush-hour episodes must register");
        assert_eq!(sched.episodes.len(), 2);
    }
}
