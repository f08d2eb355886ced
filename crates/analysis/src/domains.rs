//! §5.1 aggregation: domain-population statistics, Figure 1 CDFs, and the
//! Table 2 operator breakdown.

use std::collections::BTreeMap;

use crate::stats::{pct, Cdf};

/// One analyzed domain (from the census pipeline or from declared specs).
#[derive(Clone, Debug)]
pub struct DomainRecord {
    /// Domain name (presentation form).
    pub name: String,
    /// DNSSEC-enabled (DNSKEY present).
    pub dnssec: bool,
    /// NSEC3 parameters if NSEC3-enabled: `(iterations, salt_len)`.
    pub nsec3: Option<(u16, u8)>,
    /// Opt-out flag observed.
    pub opt_out: bool,
    /// Exclusive operator (registered domain of all NS targets), if any.
    pub operator: Option<String>,
    /// Probe traffic for this domain was lost to network faults: the
    /// record carries no measurement and must not be classified.
    pub probe_loss: bool,
}

/// `(iterations, salt_len)` → domains, per exclusive operator: what
/// Table 2 is computed from.
type OperatorCounts = BTreeMap<String, BTreeMap<(u16, u8), u64>>;

/// Aggregate statistics over a domain population (the §5.1 numbers).
#[derive(Clone)]
pub struct DomainStats {
    /// Total domains analyzed.
    pub total: u64,
    /// Domains whose probes were lost to network faults. Lost records
    /// carry no measurement: they are excluded from every other tally
    /// and from percentage denominators (clean runs have `lost = 0`).
    pub lost: u64,
    /// DNSSEC-enabled count.
    pub dnssec: u64,
    /// NSEC3-enabled count.
    pub nsec3: u64,
    /// NSEC3-enabled domains with zero additional iterations.
    pub zero_iterations: u64,
    /// NSEC3-enabled domains without salt.
    pub no_salt: u64,
    /// NSEC3-enabled domains with opt-out set.
    pub opt_out: u64,
    /// CDF of additional iterations (NSEC3-enabled only).
    pub iterations_cdf: Cdf,
    /// CDF of salt lengths in bytes (NSEC3-enabled only).
    pub salt_cdf: Cdf,
    /// NSEC3-enabled domains per exclusive operator and parameter set
    /// ([`operator_table`] reads it).
    operators: OperatorCounts,
}

impl std::fmt::Debug for DomainStats {
    /// The nine §5.1 fields, as `derive(Debug)` rendered them before the
    /// per-operator counts existed: the pinned driver reports and the
    /// benchmark's digests print a [`DomainStats`] and must not move.
    /// Table 2 has its own rendering ([`crate::render_table2`]).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DomainStats")
            .field("total", &self.total)
            .field("lost", &self.lost)
            .field("dnssec", &self.dnssec)
            .field("nsec3", &self.nsec3)
            .field("zero_iterations", &self.zero_iterations)
            .field("no_salt", &self.no_salt)
            .field("opt_out", &self.opt_out)
            .field("iterations_cdf", &self.iterations_cdf)
            .field("salt_cdf", &self.salt_cdf)
            .finish()
    }
}

/// Incremental [`DomainStats`] accumulator — the streaming census's
/// sink. Records are folded in one at a time ([`DomainTally::add`]),
/// shard tallies combine with [`DomainTally::merge`], and the footprint
/// stays O(distinct parameter values) no matter how many domains flow
/// through: the CDFs and the per-operator parameter sets accumulate as
/// count maps, never as per-domain sample vectors.
/// [`DomainStats::compute`] folds a record list through this same type,
/// so statistics over declared specs and the census's count alike.
#[derive(Clone, Debug, Default)]
pub struct DomainTally {
    total: u64,
    lost: u64,
    dnssec: u64,
    nsec3: u64,
    zero_iterations: u64,
    no_salt: u64,
    opt_out: u64,
    iterations: BTreeMap<u32, u64>,
    salt: BTreeMap<u32, u64>,
    operators: OperatorCounts,
}

impl DomainTally {
    /// An empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one record in.
    pub fn add(&mut self, rec: &DomainRecord) {
        self.total += 1;
        if rec.probe_loss {
            // Lost records carry no measurement: counted, not tallied.
            self.lost += 1;
            return;
        }
        if rec.dnssec {
            self.dnssec += 1;
        }
        if let Some((iterations, salt_len)) = rec.nsec3 {
            self.nsec3 += 1;
            if iterations == 0 {
                self.zero_iterations += 1;
            }
            if salt_len == 0 {
                self.no_salt += 1;
            }
            if rec.opt_out {
                self.opt_out += 1;
            }
            *self.iterations.entry(iterations as u32).or_default() += 1;
            *self.salt.entry(salt_len as u32).or_default() += 1;
            if let Some(operator) = rec.operator.as_deref() {
                // Probed by `&str`: the key is owned once per operator,
                // not once per record.
                let set = (iterations, salt_len);
                if let Some(params) = self.operators.get_mut(operator) {
                    *params.entry(set).or_default() += 1;
                } else {
                    let first = BTreeMap::from([(set, 1)]);
                    self.operators.insert(operator.to_owned(), first);
                }
            }
        }
    }

    /// Combine another tally in (shard merge). Order-insensitive: every
    /// field is a sum or a count map.
    pub fn merge(&mut self, other: DomainTally) {
        self.total += other.total;
        self.lost += other.lost;
        self.dnssec += other.dnssec;
        self.nsec3 += other.nsec3;
        self.zero_iterations += other.zero_iterations;
        self.no_salt += other.no_salt;
        self.opt_out += other.opt_out;
        for (v, c) in other.iterations {
            *self.iterations.entry(v).or_default() += c;
        }
        for (v, c) in other.salt {
            *self.salt.entry(v).or_default() += c;
        }
        for (operator, params) in other.operators {
            let mine = self.operators.entry(operator).or_default();
            for (p, c) in params {
                *mine.entry(p).or_default() += c;
            }
        }
    }

    /// The finished statistics.
    pub fn finish(self) -> DomainStats {
        DomainStats {
            total: self.total,
            lost: self.lost,
            dnssec: self.dnssec,
            nsec3: self.nsec3,
            zero_iterations: self.zero_iterations,
            no_salt: self.no_salt,
            opt_out: self.opt_out,
            iterations_cdf: Cdf::from_counts(self.iterations),
            salt_cdf: Cdf::from_counts(self.salt),
            operators: self.operators,
        }
    }
}

impl DomainStats {
    /// Compute from records — a fold through [`DomainTally`].
    pub fn compute(records: &[DomainRecord]) -> Self {
        let mut tally = DomainTally::new();
        for rec in records {
            tally.add(rec);
        }
        tally.finish()
    }

    /// DNSSEC share of all measured domains (paper: 8.8 %). Lost
    /// records drop out of the denominator rather than masquerading as
    /// not-DNSSEC.
    pub fn dnssec_pct(&self) -> f64 {
        pct(self.dnssec, self.total - self.lost)
    }

    /// NSEC3 share of DNSSEC-enabled (paper: 58.9 %).
    pub fn nsec3_of_dnssec_pct(&self) -> f64 {
        pct(self.nsec3, self.dnssec)
    }

    /// The headline: share of NSEC3-enabled domains violating item 2
    /// (paper: 87.8 %).
    pub fn non_compliant_pct(&self) -> f64 {
        pct(self.nsec3 - self.zero_iterations, self.nsec3)
    }

    /// Item 2 compliance (paper: 12.2 %).
    pub fn zero_iteration_pct(&self) -> f64 {
        pct(self.zero_iterations, self.nsec3)
    }

    /// Item 3 compliance (paper: 8.6 %).
    pub fn no_salt_pct(&self) -> f64 {
        pct(self.no_salt, self.nsec3)
    }

    /// Opt-out share (paper: 6.4 %).
    pub fn opt_out_pct(&self) -> f64 {
        pct(self.opt_out, self.nsec3)
    }
}

/// One row of the Table 2 reproduction.
#[derive(Clone, Debug)]
pub struct OperatorRow {
    /// Operator registered domain.
    pub operator: String,
    /// NSEC3-enabled domains served exclusively.
    pub count: u64,
    /// Share of all NSEC3-enabled domains (%).
    pub share_pct: f64,
    /// Parameter sets `(iterations, salt_len)` with their share of this
    /// operator's domains (%), descending, covering ≥ 99.9 %.
    pub params: Vec<(u16, u8, f64)>,
}

/// Compute the Table 2 operator breakdown: top `n` operators by
/// exclusively-served NSEC3-enabled domains. The order is total —
/// operators by count descending then name, parameter sets by count
/// descending then `(iterations, salt_len)` — so equal shares never come
/// out in an order that differs between runs.
pub fn operator_table(stats: &DomainStats, n: usize) -> Vec<OperatorRow> {
    let mut rows: Vec<OperatorRow> = stats
        .operators
        .iter()
        .map(|(operator, params)| {
            let count: u64 = params.values().sum();
            let mut params: Vec<((u16, u8), u64)> = params.iter().map(|(&p, &c)| (p, c)).collect();
            params.sort_by_key(|&(p, c)| (std::cmp::Reverse(c), p));
            OperatorRow {
                operator: operator.clone(),
                count,
                share_pct: pct(count, stats.nsec3),
                params: params
                    .into_iter()
                    .map(|((it, salt), c)| (it, salt, pct(c, count)))
                    .collect(),
            }
        })
        .collect();
    // Stable over the map's name order: ties stay alphabetical.
    rows.sort_by_key(|r| std::cmp::Reverse(r.count));
    rows.truncate(n);
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(nsec3: Option<(u16, u8)>, opt_out: bool, op: Option<&str>) -> DomainRecord {
        DomainRecord {
            name: "x.com.".into(),
            dnssec: nsec3.is_some(),
            nsec3,
            opt_out,
            operator: op.map(String::from),
            probe_loss: false,
        }
    }

    #[test]
    fn stats_compute() {
        let records = vec![
            rec(None, false, None),
            rec(Some((0, 0)), false, None),
            rec(Some((1, 8)), true, None),
            rec(Some((5, 0)), false, None),
            DomainRecord {
                name: "n.com.".into(),
                dnssec: true,
                nsec3: None,
                opt_out: false,
                operator: None,
                probe_loss: false,
            },
        ];
        let s = DomainStats::compute(&records);
        assert_eq!(s.total, 5);
        assert_eq!(s.lost, 0);
        assert_eq!(s.dnssec, 4);
        assert_eq!(s.nsec3, 3);
        assert_eq!(s.zero_iterations, 1);
        assert_eq!(s.no_salt, 2);
        assert_eq!(s.opt_out, 1);
        assert!((s.non_compliant_pct() - 66.666).abs() < 0.01);
        assert!((s.dnssec_pct() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn operator_table_orders_and_shares() {
        let mut records = Vec::new();
        for _ in 0..60 {
            records.push(rec(Some((1, 8)), false, Some("big.example.")));
        }
        for _ in 0..30 {
            records.push(rec(Some((0, 0)), false, Some("small.example.")));
        }
        for _ in 0..10 {
            records.push(rec(Some((5, 4)), false, None)); // multi-operator
        }
        let table = operator_table(&DomainStats::compute(&records), 10);
        assert_eq!(table.len(), 2);
        assert_eq!(table[0].operator, "big.example.");
        assert_eq!(table[0].count, 60);
        assert!((table[0].share_pct - 60.0).abs() < 1e-9);
        assert_eq!(table[0].params[0], (1, 8, 100.0));
        assert_eq!(table[1].count, 30);
    }

    #[test]
    fn operator_table_breaks_ties_the_same_way_every_run() {
        // Two operators of equal size, each with two equally common
        // parameter sets, fed in the order a hash map would be free to
        // pick: the table is ordered by name and by (iterations, salt).
        let mut records = Vec::new();
        for (op, sets) in [
            ("b.example.", [(1, 4), (0, 0)]),
            ("a.example.", [(5, 4), (1, 2)]),
        ] {
            for set in sets {
                for _ in 0..7 {
                    records.push(rec(Some(set), false, Some(op)));
                }
            }
        }
        // `RandomState` is seeded per map, so twenty tables in one
        // process are twenty draws of the order the parent left to it.
        for _ in 0..20 {
            let table = operator_table(&DomainStats::compute(&records), 10);
            let order = |row: &OperatorRow| {
                let sets: Vec<String> = row
                    .params
                    .iter()
                    .map(|(i, s, _)| format!("{i}/{s}"))
                    .collect();
                format!("{} {}", row.operator, sets.join(" "))
            };
            let got: Vec<String> = table.iter().map(order).collect();
            assert_eq!(got, ["a.example. 1/2 5/4", "b.example. 0/0 1/4"]);
        }
    }

    #[test]
    fn lost_records_never_skew_shares() {
        // 8 measured (4 DNSSEC) + 2 lost: the lost pair must neither
        // count as not-DNSSEC nor dilute the share.
        let mut records: Vec<DomainRecord> = (0..8)
            .map(|i| rec((i % 2 == 0).then_some((0, 0)), false, None))
            .collect();
        for _ in 0..2 {
            let mut r = rec(None, false, None);
            r.probe_loss = true;
            records.push(r);
        }
        let s = DomainStats::compute(&records);
        assert_eq!(s.total, 10);
        assert_eq!(s.lost, 2);
        assert_eq!(s.dnssec, 4);
        assert!((s.dnssec_pct() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn sharded_tally_merge_matches_single_pass() {
        let records: Vec<DomainRecord> = (0..200)
            .map(|i| {
                let mut r = rec(
                    (i % 3 == 0).then_some(((i % 7) as u16, (i % 5) as u8)),
                    i % 11 == 0,
                    (i % 4 != 0).then_some(["a.example.", "b.example."][i % 2]),
                );
                r.probe_loss = i % 31 == 0;
                r
            })
            .collect();
        let whole = DomainStats::compute(&records);
        // Merge three uneven shard tallies.
        let mut merged = DomainTally::new();
        for chunk in [&records[..50], &records[50..51], &records[51..]] {
            let mut part = DomainTally::new();
            for r in chunk {
                part.add(r);
            }
            merged.merge(part);
        }
        assert_eq!(merged.total, 200);
        let stats = merged.finish();
        assert_eq!(stats.total, whole.total);
        assert_eq!(stats.lost, whole.lost);
        assert_eq!(stats.dnssec, whole.dnssec);
        assert_eq!(stats.nsec3, whole.nsec3);
        assert_eq!(stats.zero_iterations, whole.zero_iterations);
        assert_eq!(stats.no_salt, whole.no_salt);
        assert_eq!(stats.opt_out, whole.opt_out);
        assert_eq!(stats.iterations_cdf.points(), whole.iterations_cdf.points());
        assert_eq!(stats.salt_cdf.points(), whole.salt_cdf.points());
        assert_eq!(stats.operators, whole.operators);
    }

    #[test]
    fn figure1_cdf_values() {
        let records: Vec<DomainRecord> = (0..100)
            .map(|i| rec(Some((if i < 12 { 0 } else { 1 }, 8)), false, None))
            .collect();
        let s = DomainStats::compute(&records);
        assert!((s.iterations_cdf.fraction_at_most(0) - 0.12).abs() < 1e-9);
        assert!((s.zero_iteration_pct() - 12.0).abs() < 1e-9);
    }
}
