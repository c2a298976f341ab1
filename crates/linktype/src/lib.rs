//! Access-link technology inference from reverse DNS names (§2.3.3).
//!
//! ISPs frequently encode the last-mile technology in PTR records. The
//! paper's classifier:
//!
//! 1. looks up the reverse name of every address in a block;
//! 2. string-matches each name against 16 keywords, *non-exclusively* (the
//!    name `dhcp-dialup-001.example.com` is both DHCP and dial-up);
//! 3. represents the block as a vector of 256 per-address feature sets;
//! 4. suppresses minor features with fewer than 1/15th of the most frequent
//!    feature's count;
//! 5. labels the block with every remaining non-zero feature.
//!
//! A name is matched in one pass ([`feature_mask`]) and counted into a
//! [`BlockLabel`], `n` names that share one mask at once with
//! [`BlockLabel::add_names`]; [`BlockLabel::finish`] applies step 4.
//! [`classify_block`] is those two over an iterator of names.
//!
//! Seven of the 16 keywords (`rtr`, `gw`, `ded`, `client`, `sql`,
//! `wireless`, `wifi`) are dominant in fewer than 1000 blocks of the
//! paper's dataset and are discarded from the analysis; they are still
//! matched here so the dataset-level filtering decision stays visible.
//!
//! # Example
//!
//! ```
//! use sleepwatch_linktype::{classify_block, LinkFeature};
//!
//! let names: Vec<Option<String>> = (0..256)
//!     .map(|i| Some(format!("dhcp-dialup-{i:03}.example.com")))
//!     .collect();
//! let label = classify_block(names.iter().map(|n| n.as_deref()));
//! assert!(label.features.contains(LinkFeature::Dhcp));
//! assert!(label.features.contains(LinkFeature::Dial));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

/// The 16 link-type keywords of §2.3.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum LinkFeature {
    Sta,
    Dyn,
    Srv,
    Rtr,
    Gw,
    Dhcp,
    Ppp,
    Dsl,
    Dial,
    Cable,
    Ded,
    Res,
    Client,
    Sql,
    Wireless,
    Wifi,
}

impl LinkFeature {
    /// All 16 features, in the paper's listing order.
    pub const ALL: [LinkFeature; 16] = [
        LinkFeature::Sta,
        LinkFeature::Dyn,
        LinkFeature::Srv,
        LinkFeature::Rtr,
        LinkFeature::Gw,
        LinkFeature::Dhcp,
        LinkFeature::Ppp,
        LinkFeature::Dsl,
        LinkFeature::Dial,
        LinkFeature::Cable,
        LinkFeature::Ded,
        LinkFeature::Res,
        LinkFeature::Client,
        LinkFeature::Sql,
        LinkFeature::Wireless,
        LinkFeature::Wifi,
    ];

    /// The nine features the paper keeps for the Fig. 17 analysis.
    pub const KEPT: [LinkFeature; 9] = [
        LinkFeature::Sta,
        LinkFeature::Dyn,
        LinkFeature::Srv,
        LinkFeature::Dhcp,
        LinkFeature::Ppp,
        LinkFeature::Dsl,
        LinkFeature::Dial,
        LinkFeature::Cable,
        LinkFeature::Res,
    ];

    /// The substring matched in reverse names.
    pub const fn keyword(self) -> &'static str {
        match self {
            LinkFeature::Sta => "sta",
            LinkFeature::Dyn => "dyn",
            LinkFeature::Srv => "srv",
            LinkFeature::Rtr => "rtr",
            LinkFeature::Gw => "gw",
            LinkFeature::Dhcp => "dhcp",
            LinkFeature::Ppp => "ppp",
            LinkFeature::Dsl => "dsl",
            LinkFeature::Dial => "dial",
            LinkFeature::Cable => "cable",
            LinkFeature::Ded => "ded",
            LinkFeature::Res => "res",
            LinkFeature::Client => "client",
            LinkFeature::Sql => "sql",
            LinkFeature::Wireless => "wireless",
            LinkFeature::Wifi => "wifi",
        }
    }

    /// `true` for the seven keywords the paper discards (dominant in fewer
    /// than 1000 blocks).
    pub fn discarded(self) -> bool {
        matches!(
            self,
            LinkFeature::Rtr
                | LinkFeature::Gw
                | LinkFeature::Ded
                | LinkFeature::Client
                | LinkFeature::Sql
                | LinkFeature::Wireless
                | LinkFeature::Wifi
        )
    }

    /// Index into 16-wide count arrays and bit of a [`feature_mask`]: the
    /// position in [`ALL`](Self::ALL), which is declaration order.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The feature whose [`keyword`](Self::keyword) is exactly `s`.
    pub fn from_keyword(s: &str) -> Option<LinkFeature> {
        LinkFeature::ALL.into_iter().find(|f| f.keyword() == s)
    }
}

/// A set of link features: bit [`LinkFeature::index`] of a `u16`, the
/// layout of a [`feature_mask`]. Iterating a set by reference yields its
/// keywords in [`LinkFeature::ALL`] order — the order every dataset row
/// prints them in; [`features`](Self::features) yields the features.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkSet(u16);

impl LinkSet {
    /// The set whose bit `i` stands for `LinkFeature::ALL[i]`.
    pub const fn from_bits(bits: u16) -> LinkSet {
        LinkSet(bits)
    }

    /// The set as a [`feature_mask`]-layout bit mask.
    pub const fn bits(self) -> u16 {
        self.0
    }

    /// Whether `feature` is in the set.
    pub const fn contains(self, feature: LinkFeature) -> bool {
        self.0 & 1 << feature.index() != 0
    }

    /// Whether the set is empty.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The set without the seven keywords the paper discards.
    pub fn kept(self) -> LinkSet {
        self.features().filter(|f| !f.discarded()).collect()
    }

    /// The features, in [`LinkFeature::ALL`] order.
    pub const fn features(self) -> Features {
        Features(self.0)
    }
}

impl FromIterator<LinkFeature> for LinkSet {
    fn from_iter<I: IntoIterator<Item = LinkFeature>>(iter: I) -> LinkSet {
        LinkSet(iter.into_iter().fold(0, |bits, f| bits | 1 << f.index()))
    }
}

impl IntoIterator for &LinkSet {
    type Item = &'static str;
    type IntoIter = std::iter::Map<Features, fn(LinkFeature) -> &'static str>;

    fn into_iter(self) -> Self::IntoIter {
        self.features().map(LinkFeature::keyword)
    }
}

impl std::fmt::Debug for LinkSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self).finish()
    }
}

/// The features of a [`LinkSet`], in [`LinkFeature::ALL`] order.
#[derive(Debug, Clone)]
pub struct Features(u16);

impl Iterator for Features {
    type Item = LinkFeature;

    fn next(&mut self) -> Option<LinkFeature> {
        let i = self.0.trailing_zeros() as usize;
        let f = *LinkFeature::ALL.get(i)?;
        self.0 &= self.0 - 1;
        Some(f)
    }
}

impl std::fmt::Display for LinkFeature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.keyword())
    }
}

/// Every keyword is non-empty and lower-case ASCII letters only. The
/// matcher's tables rely on it, and so does labelling a block from the
/// text around its names' octet: no keyword holds a digit, so no match
/// spans the octet's digits.
const _: () = {
    let mut i = 0;
    while i < LinkFeature::ALL.len() {
        let kw = LinkFeature::ALL[i].keyword().as_bytes();
        assert!(!kw.is_empty(), "empty keyword");
        let mut j = 0;
        while j < kw.len() {
            assert!(kw[j].is_ascii_lowercase(), "keyword byte not a lower-case ASCII letter");
            j += 1;
        }
        i += 1;
    }
};

/// `FIRST[b]`: the [`feature_mask`] bits of the keywords whose first byte is
/// `b` (keywords are lower-case ASCII, so only lower-case bytes are set).
const FIRST: [u16; 256] = {
    let mut table = [0u16; 256];
    let mut i = 0;
    while i < LinkFeature::ALL.len() {
        table[LinkFeature::ALL[i].keyword().as_bytes()[0] as usize] |= 1 << i;
        i += 1;
    }
    table
};

/// One keyword as [`feature_mask`] compares it: its first four bytes
/// (fewer for a shorter keyword) packed little-endian, the mask of those
/// bytes, and the bytes after them.
#[derive(Clone, Copy)]
struct Key {
    head: u32,
    head_mask: u32,
    tail: &'static [u8],
}

/// [`Key`]s, in [`LinkFeature::ALL`] order.
const KEYS: [Key; 16] = {
    let mut keys = [Key { head: 0, head_mask: 0, tail: &[] }; 16];
    let mut i = 0;
    while i < LinkFeature::ALL.len() {
        let kw = LinkFeature::ALL[i].keyword().as_bytes();
        let (head, tail) = kw.split_at(if kw.len() < 4 { kw.len() } else { 4 });
        let mut j = 0;
        while j < head.len() {
            keys[i].head |= (head[j] as u32) << (8 * j);
            keys[i].head_mask |= 0xFF << (8 * j);
            j += 1;
        }
        keys[i].tail = tail;
        i += 1;
    }
    keys
};

/// The features found in one address's reverse name as a bit mask (bit
/// [`LinkFeature::index`]), in one pass over the name: bit `f` is set
/// exactly when `name.to_ascii_lowercase().contains(f.keyword())`.
///
/// Every keyword is ASCII, so the test at each offset is on lower-cased
/// bytes: the byte there selects the keywords starting with it
/// (`FIRST`), a four-byte window of lower-cased bytes from there (zero
/// past the end, a byte no keyword holds) is compared with each one's
/// head, and only a keyword longer than four bytes compares the rest.
pub fn feature_mask(name: &str) -> u16 {
    let bytes = name.as_bytes();
    let lower = |i: usize| bytes.get(i).map_or(0, u8::to_ascii_lowercase) as u32;
    let mut window = lower(0) | lower(1) << 8 | lower(2) << 16 | lower(3) << 24;
    let mut mask = 0u16;
    for i in 0..bytes.len() {
        let mut candidates = FIRST[(window & 0xFF) as usize] & !mask;
        while candidates != 0 {
            let f = candidates.trailing_zeros() as usize;
            candidates &= candidates - 1;
            let key = &KEYS[f];
            if window & key.head_mask == key.head
                && (key.tail.is_empty()
                    || bytes
                        .get(i + 4..i + 4 + key.tail.len())
                        .is_some_and(|t| t.eq_ignore_ascii_case(key.tail)))
            {
                mask |= 1 << f;
            }
        }
        window = window >> 8 | lower(i + 4) << 24;
    }
    mask
}

/// Features found in one address's reverse name (non-exclusive substring
/// match, case-insensitive).
pub fn address_features(name: &str) -> LinkSet {
    LinkSet::from_bits(feature_mask(name))
}

/// Per-feature address counts for one block, before and after the 1/15
/// minor-feature suppression.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockLabel {
    /// Raw per-feature address counts (indexed by [`LinkFeature::index`]).
    pub counts: [u32; 16],
    /// Features surviving suppression.
    pub features: LinkSet,
    /// Number of addresses that had any reverse name.
    pub named_addresses: u32,
}

impl BlockLabel {
    /// Counts one address's reverse name (addresses without a PTR record
    /// are simply not added).
    pub(crate) fn add_name(&mut self, name: &str) {
        self.add_names(1, feature_mask(name));
    }

    /// Counts `n` named addresses whose names all have the [`feature_mask`]
    /// `mask` — what `n` calls of `add_name` with such
    /// names count.
    pub fn add_names(&mut self, n: u32, mut mask: u16) {
        self.named_addresses += n;
        while mask != 0 {
            self.counts[mask.trailing_zeros() as usize] += n;
            mask &= mask - 1;
        }
    }

    /// Labels the block from the counted names: applies the 1/15
    /// minor-feature suppression and sets [`features`](Self::features).
    pub fn finish(mut self) -> BlockLabel {
        sleepwatch_obs::global().linktype.blocks_classified.incr();
        let max = self.counts.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return self;
        }
        // "filtering out features that are less than 1/15th of the most
        // frequent feature … label the block with all remaining features that
        // have non-zero counts."
        let threshold = max.div_ceil(SUPPRESSION_DIVISOR);
        self.features = LinkFeature::ALL
            .iter()
            .copied()
            .filter(|f| {
                let c = self.counts[f.index()];
                c > 0 && c >= threshold
            })
            .collect();
        self
    }
}

/// Suppression threshold: features with fewer than `max/15` addresses are
/// dropped (§2.3.3).
const SUPPRESSION_DIVISOR: u32 = 15;

/// Classifies one block from its per-address reverse names (`None` where no
/// PTR record exists). Accepts any iterator of up to 256 entries.
pub fn classify_block<'a>(names: impl IntoIterator<Item = Option<&'a str>>) -> BlockLabel {
    let mut label = BlockLabel::default();
    for name in names.into_iter().flatten() {
        label.add_name(name);
    }
    label.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_of(parts: &[(&str, usize)]) -> Vec<Option<String>> {
        let mut out = Vec::new();
        for &(tpl, n) in parts {
            for i in 0..n {
                out.push(Some(format!("{tpl}-{i:03}.example.com")));
            }
        }
        while out.len() < 256 {
            out.push(None);
        }
        out
    }

    fn classify(names: &[Option<String>]) -> BlockLabel {
        classify_block(names.iter().map(|n| n.as_deref()))
    }

    #[test]
    fn paper_example_dhcp_dialup() {
        let fs = address_features("dhcp-dialup-001.example.com");
        assert!(fs.contains(LinkFeature::Dhcp));
        assert!(fs.contains(LinkFeature::Dial));
    }

    #[test]
    fn abbreviations_match_full_words() {
        assert!(address_features("static-pool-7.isp.net").contains(LinkFeature::Sta));
        assert!(address_features("DYNAMIC-44.ISP.NET").contains(LinkFeature::Dyn));
        assert!(address_features("adsl-modem.example.org").contains(LinkFeature::Dsl));
        assert!(address_features("resnet-12.campus.edu").contains(LinkFeature::Res));
    }

    #[test]
    fn unrelated_names_match_nothing() {
        assert!(address_features("host-1-2-3.example.com").is_empty());
        assert!(address_features("").is_empty());
        assert!(address_features("mail.example.org").is_empty());
    }

    #[test]
    fn sixteen_keywords_nine_kept() {
        assert_eq!(LinkFeature::ALL.len(), 16);
        assert_eq!(LinkFeature::KEPT.len(), 9);
        assert_eq!(LinkFeature::ALL.iter().filter(|f| f.discarded()).count(), 7);
        for f in LinkFeature::KEPT {
            assert!(!f.discarded());
        }
    }

    #[test]
    fn block_with_uniform_names_gets_one_feature() {
        let names = names_of(&[("cable", 200)]);
        let label = classify(&names);
        assert_eq!(label.features, LinkSet::from_iter([LinkFeature::Cable]));
        assert_eq!(label.named_addresses, 200);
        assert!(!label.features.is_empty());
        assert_eq!(label.features.features().count(), 1);
    }

    #[test]
    fn minor_feature_suppressed() {
        // 150 dsl + 5 srv: 5 < ceil(150/15)=10 → srv suppressed.
        let names = names_of(&[("dsl", 150), ("srv", 5)]);
        let label = classify(&names);
        assert_eq!(label.features, LinkSet::from_iter([LinkFeature::Dsl]));
        assert_eq!(label.counts[LinkFeature::Srv.index()], 5);
    }

    #[test]
    fn significant_second_feature_survives() {
        // 150 dsl + 20 srv: 20 ≥ 10 → both kept.
        let names = names_of(&[("dsl", 150), ("srv", 20)]);
        let label = classify(&names);
        assert!(label.features.contains(LinkFeature::Dsl));
        assert!(label.features.contains(LinkFeature::Srv));
        assert_eq!(label.features.features().count(), 2);
    }

    #[test]
    fn unnamed_block_is_unclassified() {
        let names: Vec<Option<String>> = vec![None; 256];
        let label = classify(&names);
        assert!(label.features.is_empty());
        assert_eq!(label.named_addresses, 0);
    }

    #[test]
    fn named_but_keywordless_block_is_unclassified() {
        let names = names_of(&[("host", 100)]);
        let label = classify(&names);
        assert_eq!(label.named_addresses, 100);
        assert!(label.features.is_empty());
    }

    #[test]
    fn multi_keyword_names_count_for_each() {
        let names = names_of(&[("dhcp-dial", 100)]);
        let label = classify(&names);
        assert_eq!(label.counts[LinkFeature::Dhcp.index()], 100);
        assert_eq!(label.counts[LinkFeature::Dial.index()], 100);
        assert!(
            label.features.contains(LinkFeature::Dhcp)
                && label.features.contains(LinkFeature::Dial)
        );
    }

    #[test]
    fn add_names_counts_what_as_many_add_name_calls_count() {
        let name = "dhcp-dial-007.example.com";
        let mut one_by_one = BlockLabel::default();
        for _ in 0..37 {
            one_by_one.add_name(name);
        }
        let mut at_once = BlockLabel::default();
        at_once.add_names(37, feature_mask(name));
        assert_eq!(at_once, one_by_one);
        assert_eq!(at_once.finish(), one_by_one.finish());
    }

    #[test]
    fn kept_features_filters_discarded() {
        let names = names_of(&[("wireless", 120), ("dyn", 120)]);
        let label = classify(&names);
        assert!(label.features.contains(LinkFeature::Wireless), "matched before filtering");
        assert_eq!(label.features.kept(), LinkSet::from_iter([LinkFeature::Dyn]));
    }

    #[test]
    fn boundary_of_one_fifteenth() {
        // max=150 → threshold ceil(150/15)=10; exactly 10 survives, 9 doesn't.
        let at = classify(&names_of(&[("ppp", 150), ("cable", 10)]));
        assert!(at.features.contains(LinkFeature::Cable));
        let below = classify(&names_of(&[("ppp", 150), ("cable", 9)]));
        assert!(!below.features.contains(LinkFeature::Cable));
    }

    #[test]
    fn index_is_the_position_in_all() {
        for (i, f) in LinkFeature::ALL.into_iter().enumerate() {
            assert_eq!(f.index(), i, "{f}");
        }
    }

    #[test]
    fn display_and_index_roundtrip() {
        for f in LinkFeature::ALL {
            assert_eq!(LinkFeature::ALL[f.index()], f);
            assert_eq!(format!("{f}"), f.keyword());
            assert_eq!(LinkFeature::from_keyword(f.keyword()), Some(f));
        }
        assert_eq!(LinkFeature::from_keyword("adsl"), None);
        assert_eq!(LinkFeature::from_keyword("DSL"), None);
    }

    #[test]
    fn a_link_set_is_its_mask_in_all_order() {
        let set = LinkSet::from_iter([LinkFeature::Wifi, LinkFeature::Sta, LinkFeature::Cable]);
        assert_eq!(set.bits(), 1 | 1 << 9 | 1 << 15);
        assert!(set.contains(LinkFeature::Cable) && !set.contains(LinkFeature::Dsl));
        let features: Vec<LinkFeature> = set.features().collect();
        assert_eq!(features, [LinkFeature::Sta, LinkFeature::Cable, LinkFeature::Wifi]);
        let keywords: Vec<&str> = (&set).into_iter().collect();
        assert_eq!(keywords, ["sta", "cable", "wifi"]);
        assert_eq!(format!("{set:?}"), r#"{"sta", "cable", "wifi"}"#);
        assert!(LinkSet::default().is_empty());
        assert_eq!(LinkSet::from_bits(u16::MAX).features().count(), 16);
    }
}
