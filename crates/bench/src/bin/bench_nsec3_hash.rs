//! Micro-bench: the NSEC3 hash itself — the primitive whose repetition
//! is CVE-2023-50868. Sweeps iterations and salt length (DESIGN.md
//! ablation 1), then races the single-block fast engine against the
//! streaming reference (`fastpath_vs_reference`). That the two agree
//! byte for byte — digest *and* compressions — is the test
//! `fast_engine_matches_reference_for_every_salt_length`
//! (`crates/zone/tests/proptests.rs`). Writes `BENCH_nsec3_hash.json`.

use std::hint::black_box;

use dns_wire::name::name;
use dns_zone::nsec3hash::{
    clear_thread_cache, nsec3_hash, nsec3_hash_cached, nsec3_hash_reference, Nsec3Params,
};
use heroes_bench::microbench::Suite;

fn main() {
    let mut suite = Suite::new("nsec3_hash");

    let n = name("some-average-length-label.example.com.");

    for iterations in [0u16, 1, 10, 50, 150, 500, 2500] {
        let params = Nsec3Params::new(iterations, vec![]);
        suite.bench(&format!("iterations/{iterations}"), || {
            nsec3_hash(black_box(&n), black_box(&params))
        });
    }

    for salt_len in [0usize, 8, 64, 255] {
        let params = Nsec3Params::new(150, vec![0xab; salt_len]);
        suite.bench(&format!("salt_len_at_150_iterations/{salt_len}"), || {
            nsec3_hash(black_box(&n), black_box(&params))
        });
    }

    let www = name("www.example.com.");
    let presets: [(&str, Nsec3Params); 4] = [
        ("presets/rfc9276_zero_no_salt", Nsec3Params::rfc9276()),
        (
            "presets/squarespace_1_8",
            Nsec3Params::new(1, vec![0xab; 8]),
        ),
        (
            "presets/identity_digital_100_8",
            Nsec3Params::new(100, vec![0xab; 8]),
        ),
        (
            "presets/wild_maximum_500_8",
            Nsec3Params::new(500, vec![0xab; 8]),
        ),
    ];
    for (label, p) in presets {
        suite.bench(label, || nsec3_hash(black_box(&www), &p));
    }

    // Head-to-head rows: the single-block engine vs the streaming
    // reference it replaced, at the iteration counts the paper's cost
    // model cares about, plus the thread-local cache on a hot key.
    for iterations in [0u16, 150, 500] {
        let params = Nsec3Params::new(iterations, vec![]);
        suite.bench(&format!("fastpath_vs_reference/fast_{iterations}"), || {
            nsec3_hash(black_box(&n), black_box(&params))
        });
        suite.bench(
            &format!("fastpath_vs_reference/reference_{iterations}"),
            || nsec3_hash_reference(black_box(&n), black_box(&params)),
        );
    }
    let params = Nsec3Params::new(500, vec![]);
    clear_thread_cache();
    suite.bench("fastpath_vs_reference/cached_500", || {
        nsec3_hash_cached(black_box(&n), black_box(&params))
    });

    suite.finish();
}
