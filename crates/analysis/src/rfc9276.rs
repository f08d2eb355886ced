//! Table 1 of the paper: the twelve RFC 9276 guidance items, with
//! programmatic compliance checks where the measurement can decide them.

/// RFC 2119 requirement levels used by RFC 9276.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum Keyword {
    Should,
    ShouldNot,
    Must,
    MustNot,
    May,
    NotRecommended,
}

impl Keyword {
    /// Presentation string.
    pub fn as_str(self) -> &'static str {
        match self {
            Keyword::Should => "SHOULD",
            Keyword::ShouldNot => "SHOULD NOT",
            Keyword::Must => "MUST",
            Keyword::MustNot => "MUST NOT",
            Keyword::May => "MAY",
            Keyword::NotRecommended => "NOT RECOMMENDED",
        }
    }
}

/// One guidance item (1–5 for authoritative side, 6–12 for validators).
#[derive(Clone, Copy, Debug)]
pub struct Item {
    /// Item number as in Table 1.
    pub number: u8,
    /// Requirement level.
    pub keyword: Keyword,
    /// Abbreviated guidance text.
    pub guidance: &'static str,
    /// What in this workspace decides the item for one domain or one
    /// resolver — or why nothing does.
    pub checker: &'static str,
}

/// All twelve items of Table 1.
pub const ITEMS: [Item; 12] = [
    Item {
        number: 1,
        keyword: Keyword::Should,
        guidance: "prefer NSEC over NSEC3 if NSEC3's features are not needed",
        checker: "`analysis::DomainStats::nsec3_of_dnssec_pct` (NSEC against NSEC3)",
    },
    Item {
        number: 2,
        keyword: Keyword::Must,
        guidance: "set the number of additional iterations to 0",
        checker: "`analysis::DomainStats::zero_iteration_pct`",
    },
    Item {
        number: 3,
        keyword: Keyword::ShouldNot,
        guidance: "use a salt",
        checker: "`analysis::DomainStats::no_salt_pct`",
    },
    Item {
        number: 4,
        keyword: Keyword::NotRecommended,
        guidance: "set the opt-out flag for small zones",
        checker: "`analysis::DomainStats::opt_out_pct`",
    },
    Item {
        number: 5,
        keyword: Keyword::May,
        guidance: "set opt-out for very large, sparsely signed zones",
        checker: "`nsec3_core::TldObservation::opt_out` (opt-out among the TLDs)",
    },
    Item {
        number: 6,
        keyword: Keyword::May,
        guidance: "return an insecure response for non-compliant NSEC3",
        checker: "`dns_scanner::ResolverClassification::implements_item6`",
    },
    Item {
        number: 7,
        keyword: Keyword::Should,
        guidance: "verify NSEC3 RRSIGs before honoring iteration counts",
        checker: "`dns_scanner::ResolverClassification::item7_violation` (`it-2501-expired`)",
    },
    Item {
        number: 8,
        keyword: Keyword::May,
        guidance: "SERVFAIL for non-compliant NSEC3",
        checker: "`dns_scanner::ResolverClassification::implements_item8`",
    },
    Item {
        number: 9,
        keyword: Keyword::May,
        guidance: "ignore non-compliant responses (likely SERVFAIL)",
        checker: "excluded, as in the paper (§4.2: non-strict wording)",
    },
    Item {
        number: 10,
        keyword: Keyword::Should,
        guidance: "return EDE INFO-CODE 27 when items 6/8 trigger",
        checker: "`dns_scanner::ResolverClassification::ede27_on_limit`",
    },
    Item {
        number: 11,
        keyword: Keyword::MustNot,
        guidance: "omit the EDE when item 9 is implemented",
        checker: "excluded, as in the paper (follows from item 9)",
    },
    Item {
        number: 12,
        keyword: Keyword::Should,
        guidance: "use the same threshold for items 6 and 8",
        checker: "`dns_scanner::ResolverClassification::item12_gap`",
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_items_with_table1_keywords() {
        assert_eq!(ITEMS.len(), 12);
        assert_eq!(ITEMS[1].number, 2);
        assert_eq!(ITEMS[1].keyword, Keyword::Must);
        assert_eq!(ITEMS[2].keyword, Keyword::ShouldNot);
        assert_eq!(ITEMS[10].keyword, Keyword::MustNot);
        assert_eq!(Keyword::NotRecommended.as_str(), "NOT RECOMMENDED");
        for item in ITEMS {
            let excluded = item.checker.starts_with("excluded");
            assert_eq!(excluded, matches!(item.number, 9 | 11), "{item:?}");
        }
    }
}
