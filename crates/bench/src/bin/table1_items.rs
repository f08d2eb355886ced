//! E4 — Table 1: the twelve RFC 9276 guidance items, with this
//! implementation's conformance-check coverage.

use analysis::rfc9276::ITEMS;

fn main() {
    println!("RFC 9276 guidance items (Table 1) and where this system checks them\n");
    println!(
        "{:<4} {:<16} {:<64} checked by",
        "item", "keyword", "guidance"
    );
    println!("{}", "-".repeat(120));
    for item in ITEMS {
        let checker = match item.number {
            1 => "analysis::DomainStats (NSEC vs NSEC3 shares)",
            2 => "analysis::DomainStats::zero_iterations",
            3 => "analysis::DomainStats::no_salt",
            4 => "analysis::DomainStats::opt_out",
            5 => "popgen::tlds (85.4 % opt-out among TLDs)",
            6 => "scanner::ResolverClassification::implements_item6",
            7 => "scanner::ResolverClassification::item7_violation (it-2501-expired)",
            8 => "scanner::ResolverClassification::implements_item8",
            9 => "excluded, as in the paper (§4.2: non-strict wording)",
            10 => "scanner::ResolverClassification::ede27_on_limit",
            11 => "excluded, as in the paper (follows from item 9)",
            12 => "scanner::ResolverClassification::item12_gap",
            _ => unreachable!(),
        };
        println!(
            "{:<4} {:<16} {:<64} {}",
            item.number,
            item.keyword.as_str(),
            item.guidance,
            checker
        );
    }
}
