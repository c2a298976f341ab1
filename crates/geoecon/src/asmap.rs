//! AS-number bookkeeping and AS-to-organization clustering (§2.3.2).
//!
//! The paper maps each /24 to an AS (Team Cymru data) and ASes to
//! organizations via WHOIS-derived string clustering \[4\]; to study an ISP
//! `P` it keyword-matches clusters, collects the cluster's ASes, and joins
//! back to blocks. This module implements the clustering over synthetic
//! WHOIS-style records; the block→AS assignment itself lives in the world
//! model.

use std::collections::BTreeMap;

/// A WHOIS-style AS record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsRecord {
    /// Autonomous system number.
    pub asn: u32,
    /// Registered name, e.g. `"TWC-11351 Time Warner Cable Internet LLC"`.
    pub name: String,
}

/// A cluster of ASes inferred to belong to one organization.
#[derive(Debug, Clone)]
pub struct OrgCluster {
    /// Canonical key (the dominant significant token sequence).
    pub key: String,
    /// Member AS numbers, ascending.
    pub asns: Vec<u32>,
    /// The full names that were clustered together.
    pub names: Vec<String>,
}

/// Tokens too generic to identify an organization; ignored when clustering.
const STOPWORDS: &[&str] = &[
    "inc",
    "llc",
    "ltd",
    "limited",
    "corp",
    "corporation",
    "co",
    "company",
    "sa",
    "srl",
    "gmbh",
    "ag",
    "plc",
    "bv",
    "internet",
    "network",
    "networks",
    "communications",
    "communication",
    "telecom",
    "telecommunications",
    "telekom",
    "cable",
    "broadband",
    "online",
    "services",
    "service",
    "group",
    "holdings",
    "the",
    "of",
    "and",
    "for",
    "de",
    "backbone",
    "as",
    "isp",
];

/// Normalizes one name into its significant tokens, lowercased.
fn significant_tokens(name: &str) -> Vec<String> {
    name.split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| t.to_ascii_lowercase())
        // Registry tags like "TWC-11351" contribute their alphabetic part.
        .filter(|t| !t.chars().all(|c| c.is_ascii_digit()))
        .filter(|t| !STOPWORDS.contains(&t.as_str()))
        .collect()
}

/// The AS→organization mapper.
#[derive(Debug, Clone, Default)]
pub struct AsOrgMapper {
    clusters: Vec<OrgCluster>,
}

impl AsOrgMapper {
    /// Clusters records by their leading significant token (the paper's
    /// string-based clustering): ASes whose names share the same first
    /// non-generic word land in one organization.
    pub fn cluster(records: &[AsRecord]) -> Self {
        let mut buckets: BTreeMap<String, (Vec<u32>, Vec<String>)> = BTreeMap::new();
        for r in records {
            let toks = significant_tokens(&r.name);
            let key = match toks.first() {
                Some(t) => t.clone(),
                // Names with nothing significant cluster alone by ASN.
                None => format!("as{}", r.asn),
            };
            let entry = buckets.entry(key).or_default();
            entry.0.push(r.asn);
            entry.1.push(r.name.clone());
        }
        let clusters = buckets
            .into_iter()
            .map(|(key, (mut asns, names))| {
                asns.sort_unstable();
                asns.dedup();
                OrgCluster { key, asns, names }
            })
            .collect();
        AsOrgMapper { clusters }
    }

    /// The cluster containing an AS, if any.
    pub fn cluster_of(&self, asn: u32) -> Option<&OrgCluster> {
        self.clusters.iter().find(|c| c.asns.binary_search(&asn).is_ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records() -> Vec<AsRecord> {
        vec![
            AsRecord { asn: 7843, name: "TWC-7843 Time Warner Cable Internet LLC".into() },
            AsRecord { asn: 11351, name: "TWC-11351 Time Warner Cable Internet LLC".into() },
            AsRecord { asn: 20001, name: "TWC-20001 Time Warner Cable Internet LLC".into() },
            AsRecord { asn: 4134, name: "CHINANET-BACKBONE China Telecom".into() },
            AsRecord { asn: 4837, name: "CHINA169-BACKBONE China Unicom".into() },
            AsRecord { asn: 3320, name: "DTAG Deutsche Telekom AG".into() },
            AsRecord { asn: 7018, name: "ATT-INTERNET4 AT&T Services Inc".into() },
            AsRecord { asn: 701, name: "UUNET Verizon Business".into() },
        ]
    }

    #[test]
    fn tokenizer_strips_generic_and_numeric() {
        let toks = significant_tokens("TWC-11351 Time Warner Cable Internet LLC");
        assert_eq!(toks, vec!["twc", "time", "warner"]);
        let toks = significant_tokens("CHINANET-BACKBONE China Telecom");
        assert_eq!(toks, vec!["chinanet", "china"]);
    }

    #[test]
    fn same_org_ases_cluster_together() {
        let m = AsOrgMapper::cluster(&records());
        let twc = m.cluster_of(7843).unwrap();
        assert_eq!(twc.asns, vec![7843, 11351, 20001]);
    }

    #[test]
    fn different_orgs_stay_separate() {
        let m = AsOrgMapper::cluster(&records());
        let telecom = m.cluster_of(4134).unwrap();
        let unicom = m.cluster_of(4837).unwrap();
        assert_ne!(telecom.key, unicom.key);
        assert!(!telecom.asns.contains(&4837));
    }

    #[test]
    fn empty_name_clusters_alone() {
        let recs =
            vec![AsRecord { asn: 1, name: "12345".into() }, AsRecord { asn: 2, name: "".into() }];
        let m = AsOrgMapper::cluster(&recs);
        assert_eq!(m.clusters.len(), 2);
    }

    #[test]
    fn cluster_of_unknown_asn_is_none() {
        let m = AsOrgMapper::cluster(&records());
        assert!(m.cluster_of(99999).is_none());
    }

    #[test]
    fn duplicate_asns_deduplicated() {
        let recs = vec![
            AsRecord { asn: 5, name: "Acme Networks".into() },
            AsRecord { asn: 5, name: "Acme Networks II".into() },
        ];
        let m = AsOrgMapper::cluster(&recs);
        assert_eq!(m.cluster_of(5).unwrap().asns, vec![5]);
    }
}
