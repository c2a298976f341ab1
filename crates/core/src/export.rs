//! Dataset export/import.
//!
//! The paper publishes its per-block analysis results as public datasets
//! (§2.5: "we add new public datasets for link technology and our new
//! availability and diurnal analysis"). This module writes a
//! [`WorldAnalysis`] in the same spirit — one TSV row per block with the
//! measured diurnal class, phase, availability, location, allocation date
//! and link features — and reads it back, so downstream analyses don't
//! need to re-run probing.
//!
//! Format: a `#`-prefixed header line naming the columns, then
//! tab-separated rows. Missing values are the literal `-`.
//!
//! A [`DatasetRow`] holds no text: its country is a
//! [`COUNTRIES`](sleepwatch_geoecon::COUNTRIES) entry, its
//! allocation date a [`YearMonth`], its links a [`LinkSet`]. So
//! [`read_dataset`] accepts exactly what [`write_dataset_rows`] prints and
//! refuses anything else with a [`ParseError::BadField`] naming the line
//! and column:
//!
//! * `class`: `d`, `r` or `n`; `stationary`, `centroid`: `0` or `1`;
//! * `country`: a code of that table, or `-`;
//! * `alloc`: canonical `YYYY-MM`, month 01–12 (`2001-05`, not `2001-5`);
//! * `links`: `-`, or [`LinkFeature::ALL`] keywords joined by `,`, each at
//!   most once and in that table's order (`sta,cable`, not `cable,sta`);
//! * the other columns: numbers, `-` for an absent phase or location.

use crate::worldrun::WorldAnalysis;
use sleepwatch_geoecon::{by_code, YearMonth};
use sleepwatch_linktype::{LinkFeature, LinkSet};
use sleepwatch_spectral::DiurnalClass;
use std::io::{self, BufRead, Write};
use std::path::{Path, PathBuf};

/// Column header written (and required on import).
const HEADER: &str = "#block_id\tclass\tphase\tmean_a\tstrongest_cpd\tstationary\toutages\tprobes\tlon\tlat\tcountry\tcentroid\talloc\tasn\tlinks";

/// One dataset row: a [`crate::worldrun::WorldBlockReport`] without the
/// planted ground-truth label, which is deliberately not exported, and
/// without the region, which the country implies. `Copy`, with no heap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetRow {
    /// Block id.
    pub block_id: u64,
    /// Measured diurnal class.
    pub class: DiurnalClass,
    /// Phase of the daily component (diurnal blocks only).
    pub phase: Option<f64>,
    /// Mean `Âs`.
    pub mean_a: f64,
    /// Strongest spectral component, cycles/day.
    pub strongest_cpd: f64,
    /// Stationarity screen result.
    pub stationary: bool,
    /// Outages detected.
    pub outages: u32,
    /// Probes spent.
    pub probes: u64,
    /// Geolocated longitude (if located).
    pub lon: Option<f64>,
    /// Geolocated latitude.
    pub lat: Option<f64>,
    /// Country code of a table entry (if located).
    pub country: Option<&'static str>,
    /// Country-centroid fallback flag.
    pub centroid: bool,
    /// /8 allocation date.
    pub alloc: YearMonth,
    /// Origin AS.
    pub asn: u32,
    /// Kept link features.
    pub links: LinkSet,
}

fn class_str(c: DiurnalClass) -> &'static str {
    match c {
        DiurnalClass::Strict => "d",
        DiurnalClass::Relaxed => "r",
        DiurnalClass::NonDiurnal => "n",
    }
}

/// Writes the full analysis as a TSV dataset.
pub fn write_dataset<W: Write>(w: &mut W, analysis: &WorldAnalysis) -> io::Result<()> {
    write_dataset_rows(w, &dataset_rows(analysis))
}

/// The analysis as [`DatasetRow`]s with every float canonicalized to the
/// TSV print precision — exactly the rows [`read_dataset`] would return
/// after a [`write_dataset`] roundtrip, without going through text. This
/// is the canonical input to [`crate::binfmt::encode_dataset`] and to
/// [`write_dataset_rows`], the one TSV row formatter. One allocation: the
/// returned `Vec`.
pub fn dataset_rows(analysis: &WorldAnalysis) -> Vec<DatasetRow> {
    use crate::binfmt::canon;
    analysis
        .reports
        .iter()
        .map(|r| DatasetRow {
            block_id: r.summary.block_id,
            class: r.summary.class,
            phase: r.summary.phase.map(|x| canon(x, 6)),
            mean_a: canon(r.summary.mean_a, 6),
            strongest_cpd: canon(r.summary.strongest_cpd, 4),
            stationary: r.summary.stationary,
            outages: r.summary.outages,
            probes: r.summary.total_probes,
            lon: r.location.map(|l| canon(l.lon, 6)),
            lat: r.location.map(|l| canon(l.lat, 6)),
            country: r.location.map(|l| l.country),
            centroid: r.location.is_some_and(|l| l.centroid_fallback),
            alloc: r.alloc_date,
            asn: r.asn,
            links: r.link_features,
        })
        .collect()
}

/// Writes rows as a TSV dataset — the only place a row is formatted, so a
/// binary decode re-serializes byte-identically to [`write_dataset`].
pub fn write_dataset_rows<W: Write>(w: &mut W, rows: &[DatasetRow]) -> io::Result<()> {
    writeln!(w, "{HEADER}")?;
    let opt = |v: Option<f64>| v.map(|x| format!("{x:.6}")).unwrap_or_else(|| "-".into());
    for r in rows {
        writeln!(
            w,
            "{}\t{}\t{}\t{:.6}\t{:.4}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            r.block_id,
            class_str(r.class),
            opt(r.phase),
            r.mean_a,
            r.strongest_cpd,
            r.stationary as u8,
            r.outages,
            r.probes,
            opt(r.lon),
            opt(r.lat),
            r.country.unwrap_or("-"),
            r.centroid as u8,
            r.alloc,
            r.asn,
            if r.links.is_empty() {
                "-".into()
            } else {
                r.links.into_iter().collect::<Vec<_>>().join(",")
            },
        )?;
    }
    Ok(())
}

/// Errors from the path-based dataset entry points, carrying the file
/// the failure happened on so callers can surface an actionable message.
/// Hand-rolled (no derive-macro dependency), like [`ParseError`].
#[derive(Debug)]
pub enum ExportError {
    /// IO failure reading or writing `path`.
    Io {
        /// File involved.
        path: PathBuf,
        /// Underlying error.
        source: io::Error,
    },
    /// The rows could not be encoded into the binary container bound
    /// for `path`.
    Encode {
        /// File involved.
        path: PathBuf,
        /// Why encoding failed.
        source: crate::binfmt::EncodeError,
    },
}

impl std::fmt::Display for ExportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExportError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            ExportError::Encode { path, source } => write!(f, "{}: {source}", path.display()),
        }
    }
}

impl std::error::Error for ExportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExportError::Io { source, .. } => Some(source),
            ExportError::Encode { source, .. } => Some(source),
        }
    }
}

/// Writes the dataset to a file (created or truncated), buffered, with
/// the failing path carried in the error.
pub fn write_dataset_file(path: &Path, analysis: &WorldAnalysis) -> Result<(), ExportError> {
    let err = |source| ExportError::Io { path: path.to_path_buf(), source };
    let file = std::fs::File::create(path).map_err(err)?;
    let mut w = io::BufWriter::new(file);
    write_dataset(&mut w, analysis).map_err(err)?;
    w.flush().map_err(err)
}

/// Writes the analysis as a compact binary dataset
/// ([`crate::binfmt`]): seed-joined against `world` when a
/// configuration is supplied (the seed-derivable columns are elided and
/// verified), self-contained otherwise.
pub fn write_dataset_bin_file(
    path: &Path,
    analysis: &WorldAnalysis,
    world: Option<&sleepwatch_simnet::WorldConfig>,
) -> Result<(), ExportError> {
    let rows = dataset_rows(analysis);
    write_dataset_rows_bin_file(path, &rows, world)
}

/// Writes pre-canonicalized rows as a compact binary dataset file.
pub fn write_dataset_rows_bin_file(
    path: &Path,
    rows: &[DatasetRow],
    world: Option<&sleepwatch_simnet::WorldConfig>,
) -> Result<(), ExportError> {
    let mode = match world {
        Some(cfg) => crate::binfmt::DatasetMode::SeedJoined(cfg),
        None => crate::binfmt::DatasetMode::SelfContained,
    };
    let bytes = crate::binfmt::encode_dataset(rows, mode)
        .map_err(|source| ExportError::Encode { path: path.to_path_buf(), source })?;
    std::fs::write(path, bytes)
        .map_err(|source| ExportError::Io { path: path.to_path_buf(), source })
}

/// Errors from [`read_dataset`].
#[derive(Debug)]
pub enum ParseError {
    /// Underlying IO failure.
    Io(io::Error),
    /// The header line is missing or doesn't match this format version.
    BadHeader(String),
    /// A row has the wrong number of fields.
    BadShape {
        /// 1-based line number.
        line: usize,
        /// Fields found.
        fields: usize,
    },
    /// A field holds a value outside the accepted vocabulary (see the
    /// module documentation).
    BadField {
        /// 1-based line number.
        line: usize,
        /// Column name, as the header spells it.
        column: &'static str,
        /// What is wrong, quoting the value.
        detail: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "io error: {e}"),
            ParseError::BadHeader(h) => write!(f, "unrecognized header: {h:?}"),
            ParseError::BadShape { line, fields } => {
                write!(f, "line {line}: expected 15 fields, found {fields}")
            }
            ParseError::BadField { line, column, detail } => {
                write!(f, "line {line}, column {column}: {detail}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// One TSV row being read: its 1-based line number and its fields.
struct Fields<'a> {
    line: usize,
    text: Vec<&'a str>,
}

impl Fields<'_> {
    /// Field `c` through `f`, or the refusal that names the line, the
    /// column, `what` the field must be and what it holds.
    fn get<T>(&self, c: usize, what: &str, f: impl Fn(&str) -> Option<T>) -> Result<T, ParseError> {
        f(self.text[c]).ok_or_else(|| ParseError::BadField {
            line: self.line,
            column: HEADER[1..].split('\t').nth(c).unwrap_or_default(),
            detail: format!("expected {what}, found {:?}", self.text[c]),
        })
    }
}

fn num<T: std::str::FromStr>(s: &str) -> Option<T> {
    s.parse().ok()
}

/// `-` as `None`, anything else through `parse`.
fn opt<T>(s: &str, parse: impl Fn(&str) -> Option<T>) -> Option<Option<T>> {
    if s == "-" {
        Some(None)
    } else {
        parse(s).map(Some)
    }
}

fn flag(s: &str) -> Option<bool> {
    (s == "0" || s == "1").then_some(s == "1")
}

fn class_from(s: &str) -> Option<DiurnalClass> {
    let all = [DiurnalClass::Strict, DiurnalClass::Relaxed, DiurnalClass::NonDiurnal];
    all.into_iter().find(|&c| class_str(c) == s)
}

/// `-`, or keywords joined by `,`, each known and above every one before
/// it in table order (so none repeats).
fn links_from(s: &str) -> Option<LinkSet> {
    let bits = s.split(',').filter(|_| s != "-").try_fold(0u16, |bits, kw| {
        let i = LinkFeature::from_keyword(kw)?.index();
        (bits >> i == 0).then_some(bits | 1 << i)
    });
    bits.map(LinkSet::from_bits)
}

/// Reads a dataset written by [`write_dataset`], refusing any value
/// outside the vocabulary in the module documentation.
pub fn read_dataset<R: BufRead>(r: R) -> Result<Vec<DatasetRow>, ParseError> {
    let mut lines = r.lines();
    let header = lines.next().ok_or_else(|| ParseError::BadHeader("<empty file>".into()))??;
    if header != HEADER {
        return Err(ParseError::BadHeader(header));
    }
    let mut rows = Vec::new();
    for (i, line) in lines.enumerate() {
        let line = line?;
        if line.is_empty() {
            continue;
        }
        let f = Fields { line: i + 2, text: line.split('\t').collect() };
        if f.text.len() != 15 {
            return Err(ParseError::BadShape { line: f.line, fields: f.text.len() });
        }
        let country = |s: &str| opt(s, |c| by_code(c).map(|c| c.code));
        rows.push(DatasetRow {
            block_id: f.get(0, "a number", num)?,
            class: f.get(1, "d, r or n", class_from)?,
            phase: f.get(2, "a number or -", |s| opt(s, num))?,
            mean_a: f.get(3, "a number", num)?,
            strongest_cpd: f.get(4, "a number", num)?,
            stationary: f.get(5, "0 or 1", flag)?,
            outages: f.get(6, "a number", num)?,
            probes: f.get(7, "a number", num)?,
            lon: f.get(8, "a number or -", |s| opt(s, num))?,
            lat: f.get(9, "a number or -", |s| opt(s, num))?,
            country: f.get(10, "a country code or -", country)?,
            centroid: f.get(11, "0 or 1", flag)?,
            alloc: f.get(12, "a YYYY-MM date", |s| s.parse().ok())?,
            asn: f.get(13, "a number", num)?,
            links: f.get(14, "link keywords in table order or -", links_from)?,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::AnalysisConfig;
    use crate::worldrun::analyze_world;
    use sleepwatch_simnet::{World, WorldConfig};

    fn analysis() -> WorldAnalysis {
        let world = World::generate(WorldConfig {
            num_blocks: 80,
            seed: 17,
            span_days: 4.0,
            ..Default::default()
        });
        let cfg = AnalysisConfig::over_days(world.cfg.start_time, 4.0);
        analyze_world(&world, &cfg, 2, None)
    }

    #[test]
    fn roundtrip_preserves_rows() {
        let a = analysis();
        let mut buf = Vec::new();
        write_dataset(&mut buf, &a).unwrap();
        let rows = read_dataset(buf.as_slice()).unwrap();
        assert_eq!(rows.len(), a.reports.len());
        for (row, rep) in rows.iter().zip(&a.reports) {
            let s = rep.summary;
            assert_eq!(
                (row.block_id, row.class, row.stationary),
                (s.block_id, s.class, s.stationary)
            );
            assert_eq!((row.outages, row.probes, row.asn), (s.outages, s.total_probes, rep.asn));
            assert_eq!(row.country, rep.location.map(|l| l.country));
            assert!((row.mean_a - s.mean_a).abs() < 1e-5);
            match (row.phase, s.phase) {
                (Some(a), Some(b)) => assert!((a - b).abs() < 1e-5),
                (None, None) => {}
                other => panic!("phase mismatch {other:?}"),
            }
            assert_eq!((row.links, row.alloc), (rep.link_features, rep.alloc_date));
        }
    }

    #[test]
    fn header_is_validated() {
        let bad = "wrong header\n1\td\t-\n";
        assert!(matches!(read_dataset(bad.as_bytes()), Err(ParseError::BadHeader(_))));
        assert!(matches!(read_dataset(&b""[..]), Err(ParseError::BadHeader(_))));
    }

    #[test]
    fn shape_errors_carry_line_numbers() {
        let text = format!("{HEADER}\n1\td\n");
        match read_dataset(text.as_bytes()) {
            Err(ParseError::BadShape { line, fields }) => {
                assert_eq!(line, 2);
                assert_eq!(fields, 2);
            }
            other => panic!("expected shape error, got {other:?}"),
        }
    }

    /// A located, linked row whose every field the reader accepts.
    const GOOD: &str =
        "7\td\t0.250000\t0.500000\t1.0000\t1\t0\t10\t10.000000\t20.000000\tUS\t0\t1990-01\t7\tsta,dsl";

    /// Reads a good row, then on line 3 one with field `column` set to
    /// `value`; the refusal must name line 3, the column `name`, the value.
    fn assert_refused(column: usize, value: &str, name: &str) {
        let mut bad: Vec<&str> = GOOD.split('\t').collect();
        bad[column] = value;
        let text = format!("{HEADER}\n{GOOD}\n{}\n", bad.join("\t"));
        match read_dataset(text.as_bytes()) {
            Err(ParseError::BadField { line: 3, column, detail }) => {
                assert_eq!(column, name, "{value:?}");
                assert!(detail.ends_with(&format!("found {value:?}")), "{detail}");
            }
            other => panic!("{name} = {value:?} not refused: {other:?}"),
        }
    }

    #[test]
    fn the_good_row_reads() {
        let text = format!("{HEADER}\n{GOOD}\n");
        let rows = read_dataset(text.as_bytes()).unwrap();
        assert_eq!(rows[0].country, Some("US"));
        assert_eq!(rows[0].alloc, YearMonth::new(1990, 1));
        assert_eq!(rows[0].links, LinkSet::from_iter([LinkFeature::Sta, LinkFeature::Dsl]));
        let mut tsv = Vec::new();
        write_dataset_rows(&mut tsv, &rows).unwrap();
        assert_eq!(tsv, text.as_bytes(), "the reader accepts exactly what the writer prints");
    }

    #[test]
    fn bad_class_is_rejected() {
        assert_refused(1, "X", "class");
    }

    #[test]
    fn a_country_outside_the_table_is_refused() {
        assert_refused(10, "ZZ", "country");
    }

    #[test]
    fn a_one_digit_month_is_refused() {
        assert_refused(12, "2001-5", "alloc");
    }

    #[test]
    fn month_thirteen_is_refused() {
        assert_refused(12, "2001-13", "alloc");
    }

    #[test]
    fn an_unknown_link_keyword_is_refused() {
        assert_refused(14, "sta,adsl", "links");
    }

    #[test]
    fn a_repeated_link_keyword_is_refused() {
        assert_refused(14, "dsl,dsl", "links");
    }

    #[test]
    fn link_keywords_out_of_order_are_refused() {
        assert_refused(14, "dsl,sta", "links");
    }

    #[test]
    fn a_flag_other_than_zero_or_one_is_refused() {
        for value in ["2", "true", ""] {
            assert_refused(5, value, "stationary");
            assert_refused(11, value, "centroid");
        }
    }

    #[test]
    fn empty_lines_are_skipped() {
        let a = analysis();
        let mut buf = Vec::new();
        write_dataset(&mut buf, &a).unwrap();
        buf.extend_from_slice(b"\n\n");
        let rows = read_dataset(buf.as_slice()).unwrap();
        assert_eq!(rows.len(), a.reports.len());
    }

    #[test]
    fn file_roundtrip_and_error_paths() {
        let a = analysis();
        let dir = std::env::temp_dir().join(format!("swexport-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.tsv");
        write_dataset_file(&path, &a).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        assert_eq!(read_dataset(io::BufReader::new(file)).unwrap(), dataset_rows(&a));
        let _ = std::fs::remove_file(&path);
        // An unwritable path names itself in the error.
        let err = write_dataset_file(&dir.join("no-such-dir/nope.tsv"), &a).unwrap_err();
        assert!(matches!(err, ExportError::Io { .. }));
        assert!(err.to_string().contains("nope.tsv"));
    }

    #[test]
    fn dataset_rows_serialize_byte_identically() {
        let a = analysis();
        let mut direct = Vec::new();
        write_dataset(&mut direct, &a).unwrap();
        // The canonicalized rows are exactly what a text roundtrip
        // would have produced.
        assert_eq!(dataset_rows(&a), read_dataset(direct.as_slice()).unwrap());
    }

    #[test]
    fn bin_file_roundtrip_both_modes() {
        let a = analysis();
        let world_cfg =
            WorldConfig { num_blocks: 80, seed: 17, span_days: 4.0, ..Default::default() };
        let dir = std::env::temp_dir().join(format!("swexport-bin-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let rows = dataset_rows(&a);
        for world in [None, Some(&world_cfg)] {
            let path = dir.join(if world.is_some() { "ds-seed.bin" } else { "ds-self.bin" });
            write_dataset_bin_file(&path, &a, world).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            assert_eq!(crate::binfmt::decode_dataset(&bytes, world).unwrap(), rows);
            let _ = std::fs::remove_file(&path);
        }
        // An unwritable path names itself in the error.
        let err = write_dataset_bin_file(&dir.join("no-such-dir/nope.bin"), &a, None).unwrap_err();
        assert!(matches!(err, ExportError::Io { .. }));
        assert!(err.to_string().contains("nope.bin"));
    }

    #[test]
    fn planted_labels_never_leak() {
        let a = analysis();
        let mut buf = Vec::new();
        write_dataset(&mut buf, &a).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(!text.contains("planted"), "ground truth must not be exported");
    }
}
