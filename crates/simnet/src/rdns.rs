//! Reverse-DNS synthesis (generator side of §2.3.3).
//!
//! Real ISPs encode link technology in PTR records
//! (`dhcp-dialup-001.example.com`); the paper's classifier string-matches
//! 16 keywords against those names. This module produces names with the
//! same structure for the synthetic world: per-block templates derived from
//! the block's [`crate::block::LinkClass`]es, a realistic share of addresses with no PTR
//! at all, and occasional multi-keyword names.

use crate::block::BlockSpec;
use sleepwatch_geoecon::rng::KeyedRng;
use sleepwatch_geoecon::COUNTRIES;

/// Stream tag for name-synthesis draws.
const STREAM_RDNS: u64 = 0x7264_6e73; // "rdns"

/// Fraction of blocks whose ISP publishes no PTR records at all. The paper
/// classifies 46.3 % of blocks (22.4 % after keyword filtering); tuning
/// this reproduces that coverage.
const NO_PTR_BLOCK_FRACTION: f64 = 0.45;

/// Within a named block, fraction of individual addresses lacking a PTR.
const NO_PTR_ADDR_FRACTION: f64 = 0.15;

/// A block's reverse-DNS template: the per-block draws (no-PTR coin, name
/// style, one or both link keywords) made once, and everything of the name
/// but the address octet rendered once — so each address's name is one
/// keyed coin and three appends, and every name of the block shares the
/// [`head`](PtrTemplate::head) and [`tail`](PtrTemplate::tail) around its
/// octet.
#[derive(Debug, Clone, Copy)]
pub struct PtrTemplate {
    seed: u64,
    id: u64,
    /// The name around the octet: `text[..head]` precedes it and
    /// `text[head..len]` follows it (at most 39 bytes plus the country
    /// code).
    text: [u8; 64],
    head: usize,
    len: usize,
    /// Digits the octet is zero-padded to.
    width: usize,
}

impl PtrTemplate {
    /// The block's template, or `None` when its ISP publishes no PTR
    /// records at all (every address unnamed).
    pub fn of(block: &BlockSpec) -> Option<PtrTemplate> {
        let mut blk = KeyedRng::from_parts(&[block.seed, STREAM_RDNS, block.id]);
        if blk.chance(NO_PTR_BLOCK_FRACTION) || block.links.is_empty() {
            return None;
        }
        // Per-block stable choices: domain style and whether names carry one
        // or both link keywords.
        let style = blk.below(3);
        let both_keywords = block.links.len() > 1 && blk.chance(0.6);
        let mut t = PtrTemplate {
            seed: block.seed,
            id: block.id,
            text: [0; 64],
            head: 0,
            len: 0,
            width: 1,
        };
        let tech = |t: &mut PtrTemplate| {
            t.put(block.links[0].keyword().as_bytes());
            if both_keywords {
                t.put(b"-");
                t.put(block.links[1].keyword().as_bytes());
            }
        };
        // `{tech}-{addr:03}`, `{tech}{id % 100}-{addr}` or `host{addr}.{tech}`,
        // then `.isp{asn}.example.{country}`.
        match style {
            0 => {
                tech(&mut t);
                t.put(b"-");
                t.width = 3;
            }
            1 => {
                tech(&mut t);
                t.put(decimal(block.id % 100, 1, &mut [0; 20]));
                t.put(b"-");
            }
            _ => t.put(b"host"),
        }
        t.head = t.len;
        if style >= 2 {
            t.put(b".");
            tech(&mut t);
        }
        t.put(b".isp");
        t.put(decimal(block.asn as u64, 1, &mut [0; 20]));
        t.put(b".example.");
        let country = t.len;
        t.put(COUNTRIES[block.country_idx].code.as_bytes());
        t.text[country..t.len].make_ascii_lowercase();
        Some(t)
    }

    fn put(&mut self, bytes: &[u8]) {
        self.text[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    /// The fixed text every name of the block starts with, up to the
    /// address octet.
    pub fn head(&self) -> &str {
        text(&self.text[..self.head])
    }

    /// The fixed text every name of the block ends with, after the
    /// address octet. A name is [`head`](Self::head), the octet in one to
    /// three decimal digits, then this.
    pub fn tail(&self) -> &str {
        text(&self.text[self.head..self.len])
    }

    /// Whether address `addr` has a PTR record: its keyed no-PTR coin.
    fn is_named(&self, addr: u8) -> bool {
        !KeyedRng::from_parts(&[self.seed, STREAM_RDNS, self.id, addr as u64])
            .chance(NO_PTR_ADDR_FRACTION)
    }

    /// How many of the block's 256 addresses have a PTR record — those
    /// [`write_name`](Self::write_name) writes a name for.
    pub fn named_addresses(&self) -> u32 {
        (0..=255u8).map(|addr| u32::from(self.is_named(addr))).sum()
    }

    /// Appends the PTR name of address `addr` to `out` and returns `true`,
    /// or returns `false` with `out` untouched where that address has no
    /// record. Deterministic in `(block, addr)`.
    pub fn write_name(&self, addr: u8, out: &mut String) -> bool {
        if !self.is_named(addr) {
            return false;
        }
        out.push_str(self.head());
        out.push_str(text(decimal(addr as u64, self.width, &mut [0; 20])));
        out.push_str(self.tail());
        true
    }
}

/// Bytes the template wrote, as `str`.
fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("template pieces are whole strs and ASCII digits")
}

/// `v` in decimal, zero-padded to at least `width` (≥ 1) digits, written
/// to the end of `digits`.
fn decimal(mut v: u64, width: usize, digits: &mut [u8; 20]) -> &[u8] {
    let mut start = digits.len();
    while v > 0 || digits.len() - start < width {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
    }
    &digits[start..]
}

/// Generates the PTR name for one address of a block, or `None` where no
/// record exists. Deterministic in `(block, addr)`.
pub fn ptr_name(block: &BlockSpec, addr: u8) -> Option<String> {
    let template = PtrTemplate::of(block)?;
    let mut name = String::new();
    template.write_name(addr, &mut name).then_some(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{BlockProfile, LinkClass};

    /// PTR names for the whole /24 (index = last octet).
    fn ptr_names(block: &BlockSpec) -> Vec<Option<String>> {
        (0..=255u8).map(|a| ptr_name(block, a)).collect()
    }

    fn block_with_links(id: u64, links: Vec<LinkClass>) -> BlockSpec {
        let mut b = BlockSpec::bare(id, 42, BlockProfile::always_on(100, 0.8));
        b.links = links.into_iter().collect();
        b.asn = 1234;
        b
    }

    #[test]
    fn names_contain_link_keyword() {
        // Scan blocks until one is named (55 % are).
        let mut found = false;
        for id in 0..40 {
            let b = block_with_links(id, vec![LinkClass::Dsl]);
            let names = ptr_names(&b);
            if let Some(name) = names.iter().flatten().next() {
                assert!(name.contains("dsl"), "{name}");
                found = true;
                break;
            }
        }
        assert!(found, "no named block in 40 tries");
    }

    #[test]
    fn deterministic_names() {
        let b = block_with_links(3, vec![LinkClass::Cable]);
        assert_eq!(ptr_name(&b, 17), ptr_name(&b, 17));
        assert_eq!(ptr_names(&b), ptr_names(&b));
    }

    #[test]
    fn some_blocks_entirely_unnamed() {
        let mut unnamed = 0;
        let n = 200;
        for id in 0..n {
            let b = block_with_links(id, vec![LinkClass::Dynamic]);
            if ptr_names(&b).iter().all(Option::is_none) {
                unnamed += 1;
            }
        }
        let frac = unnamed as f64 / n as f64;
        assert!((frac - NO_PTR_BLOCK_FRACTION).abs() < 0.12, "unnamed fraction {frac}");
    }

    #[test]
    fn named_blocks_have_gaps() {
        for id in 0..60 {
            let b = block_with_links(id, vec![LinkClass::Dhcp]);
            let names = ptr_names(&b);
            let named = names.iter().flatten().count();
            if named > 0 {
                assert!(named < 256, "even named blocks should have PTR gaps");
                assert!(named > 150, "most addresses named, got {named}");
                return;
            }
        }
        panic!("no named block found");
    }

    #[test]
    fn dual_technology_blocks_can_emit_both_keywords() {
        let mut saw_both = false;
        for id in 0..200 {
            let b = block_with_links(id, vec![LinkClass::Dhcp, LinkClass::Dialup]);
            for name in ptr_names(&b).iter().flatten() {
                if name.contains("dhcp") && name.contains("dial") {
                    saw_both = true;
                }
            }
        }
        assert!(saw_both, "expected some dhcp-dial names like the paper's example");
    }

    /// The fact a block's label is computed from: every name of a block
    /// is its template's head, the octet in at least one digit, then its
    /// tail — in every style — and the template counts the named ones.
    #[test]
    fn every_name_is_the_head_then_digits_then_the_tail() {
        let mut styles = [0; 3];
        for id in 0..120 {
            let b = block_with_links(id, vec![LinkClass::Dhcp, LinkClass::Dialup]);
            let Some(t) = PtrTemplate::of(&b) else { continue };
            let style = match (t.head(), t.width) {
                ("host", _) => 2,
                (_, 3) => 0,
                _ => 1,
            };
            styles[style] += 1;
            let mut named = 0;
            for addr in 0..=255u8 {
                let Some(name) = ptr_name(&b, addr) else { continue };
                named += 1;
                let octet = name
                    .strip_prefix(t.head())
                    .and_then(|rest| rest.strip_suffix(t.tail()))
                    .unwrap_or_else(|| panic!("{name:?} is not {:?} … {:?}", t.head(), t.tail()));
                assert!(!octet.is_empty() && octet.bytes().all(|c| c.is_ascii_digit()), "{name}");
                assert_eq!(octet.parse::<u8>(), Ok(addr), "{name}");
            }
            assert_eq!(t.named_addresses(), named, "block {id}");
        }
        assert!(styles.iter().all(|&n| n > 0), "styles seen: {styles:?}");
    }

    #[test]
    fn linkless_block_is_unnamed() {
        let b = block_with_links(1, vec![]);
        assert!(ptr_names(&b).iter().all(Option::is_none));
    }

    #[test]
    fn names_are_valid_hostnames() {
        for id in 0..30 {
            let b = block_with_links(id, vec![LinkClass::Ppp]);
            for name in ptr_names(&b).iter().flatten() {
                assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '.'));
                assert!(!name.starts_with('.') && !name.ends_with('.'));
            }
        }
    }
}
