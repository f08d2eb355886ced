//! Property-based tests for the population generators: calibration
//! invariants must hold for every seed and a wide range of scales.

use popgen::domains::{DnssecKind, TAIL_OPERATOR};
use popgen::resolvers::Behavior;
use popgen::{allocate, generate_domains, generate_fleet, generate_tranco, Scale};
use sim_check::{gens, props};

props! {
    #![cases = 24]

    /// allocate() is exact, non-negative, and order-respecting for any
    /// weights.
    fn allocate_invariants(
        total in gens::u64s(0..100_000),
        weights in gens::vec_of(gens::f64s(0.0..100.0), 1..12),
    ) {
        let parts = allocate(total, &weights);
        assert_eq!(parts.len(), weights.len());
        let sum: f64 = weights.iter().sum();
        if sum > 0.0 {
            assert_eq!(parts.iter().sum::<u64>(), total);
        } else {
            assert!(parts.iter().all(|&p| p == 0));
        }
        // A strictly larger weight never gets a smaller share by more than
        // the rounding unit.
        for i in 0..weights.len() {
            for j in 0..weights.len() {
                if weights[i] > weights[j] {
                    assert!(parts[i] + 1 >= parts[j], "{:?} vs {:?}", weights, parts);
                }
            }
        }
    }

    /// Domain populations hold their calibration for any seed.
    fn domain_population_invariants(seed in gens::u64s(..)) {
        let specs = generate_domains(Scale(1.0 / 20_000.0), seed);
        let total = specs.len() as f64;
        let dnssec = specs.iter().filter(|d| d.dnssec != DnssecKind::None).count() as f64;
        let nsec3: Vec<_> = specs.iter().filter_map(|d| d.nsec3()).collect();
        // Marginals within generous tolerances at this scale.
        assert!((dnssec / total * 100.0 - 8.8).abs() < 2.5);
        let zero = nsec3.iter().filter(|(it, _, _)| *it == 0).count() as f64;
        assert!((zero / nsec3.len() as f64 * 100.0 - 12.2).abs() < 4.0);
        // Absolute tails always present and attributed.
        let at500: Vec<_> = specs
            .iter()
            .filter(|d| matches!(d.nsec3(), Some((500, _, _))))
            .collect();
        assert_eq!(at500.len(), 12);
        assert!(at500.iter().all(|d| d.operator == Some(TAIL_OPERATOR)));
        // Names are unique.
        let mut names: Vec<&str> = specs.iter().map(|d| d.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    /// Fleet pools and behaviour groups survive every seed.
    fn fleet_invariants(seed in gens::u64s(..)) {
        let fleet = generate_fleet(Scale(1.0 / 2_000.0), seed);
        let validators = fleet.iter().filter(|r| r.behavior != Behavior::NonValidator).count() as f64;
        assert!(validators > 40.0);
        // Validator share of open v4 near the paper's 7.5 %.
        let open_v4: Vec<_> = fleet
            .iter()
            .filter(|r| {
                r.access == popgen::Access::Open && r.family == popgen::Family::V4
            })
            .collect();
        let v = open_v4.iter().filter(|r| r.behavior != Behavior::NonValidator).count() as f64;
        let share = v / open_v4.len() as f64 * 100.0;
        assert!((share - 7.5).abs() < 2.0, "open v4 validator share {share}");
        // The copier class always survives.
        assert!(fleet.iter().any(|r| r.behavior == popgen::Behavior::QueryCopier));
    }

    /// Tranco entries keep ranks unique and ascending for any seed/scale.
    fn tranco_invariants(seed in gens::u64s(..), denom in gens::u32s(10..200)) {
        let list = generate_tranco(Scale(1.0 / denom as f64), seed);
        assert!(!list.is_empty());
        assert!(list.windows(2).all(|w| w[0].rank < w[1].rank));
        assert_eq!(list.first().unwrap().rank, 1);
    }
}
