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

use crate::worldrun::WorldAnalysis;
use sleepwatch_spectral::DiurnalClass;
use std::io::{self, BufRead, Write};
use std::path::{Path, PathBuf};

/// Column header written (and required on import).
const HEADER: &str = "#block_id\tclass\tphase\tmean_a\tstrongest_cpd\tstationary\toutages\tprobes\tlon\tlat\tcountry\tcentroid\talloc\tasn\tlinks";

/// One parsed dataset row (a deserialized [`crate::worldrun::WorldBlockReport`]
/// without the planted ground-truth label, which is deliberately not
/// exported).
#[derive(Debug, Clone, PartialEq)]
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
    /// Country code (if located).
    pub country: Option<String>,
    /// Country-centroid fallback flag.
    pub centroid: bool,
    /// /8 allocation date, `YYYY-MM`.
    pub alloc: String,
    /// Origin AS.
    pub asn: u32,
    /// Kept link keywords, comma-separated.
    pub links: Vec<String>,
}

fn class_str(c: DiurnalClass) -> &'static str {
    match c {
        DiurnalClass::Strict => "d",
        DiurnalClass::Relaxed => "r",
        DiurnalClass::NonDiurnal => "n",
    }
}

fn class_from(s: &str) -> Result<DiurnalClass, ParseError> {
    match s {
        "d" => Ok(DiurnalClass::Strict),
        "r" => Ok(DiurnalClass::Relaxed),
        "n" => Ok(DiurnalClass::NonDiurnal),
        other => Err(ParseError::BadField(format!("unknown class {other:?}"))),
    }
}

/// Writes the full analysis as a TSV dataset.
pub fn write_dataset<W: Write>(w: &mut W, analysis: &WorldAnalysis) -> io::Result<()> {
    write_dataset_rows(w, &dataset_rows(analysis))
}

/// The analysis as owned [`DatasetRow`]s with every float canonicalized
/// to the TSV print precision — exactly the rows [`read_dataset`] would
/// return after a [`write_dataset`] roundtrip, without going through
/// text. This is the canonical input to [`crate::binfmt::encode_dataset`]
/// and to [`write_dataset_rows`], the one TSV row formatter.
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
            country: r.location.map(|l| l.country.to_string()),
            centroid: r.location.map(|l| l.centroid_fallback).unwrap_or(false),
            alloc: r.alloc_date.to_string(),
            asn: r.asn,
            links: r.link_features.iter().map(|f| f.keyword().to_string()).collect(),
        })
        .collect()
}

/// Writes owned rows as a TSV dataset — the only place a row is
/// formatted, so a binary decode re-serializes byte-identically to
/// [`write_dataset`].
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
            r.country.as_deref().unwrap_or("-"),
            r.centroid as u8,
            r.alloc,
            r.asn,
            if r.links.is_empty() { "-".to_string() } else { r.links.join(",") },
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
    /// A field failed to parse.
    BadField(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "io error: {e}"),
            ParseError::BadHeader(h) => write!(f, "unrecognized header: {h:?}"),
            ParseError::BadShape { line, fields } => {
                write!(f, "line {line}: expected 15 fields, found {fields}")
            }
            ParseError::BadField(msg) => write!(f, "bad field: {msg}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

fn parse_opt_f64(s: &str) -> Result<Option<f64>, ParseError> {
    if s == "-" {
        Ok(None)
    } else {
        s.parse().map(Some).map_err(|_| ParseError::BadField(format!("not a number: {s:?}")))
    }
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, ParseError> {
    s.parse().map_err(|_| ParseError::BadField(format!("not a number: {s:?}")))
}

/// Reads a dataset written by [`write_dataset`].
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
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != 15 {
            return Err(ParseError::BadShape { line: i + 2, fields: fields.len() });
        }
        rows.push(DatasetRow {
            block_id: parse_num(fields[0])?,
            class: class_from(fields[1])?,
            phase: parse_opt_f64(fields[2])?,
            mean_a: parse_num(fields[3])?,
            strongest_cpd: parse_num(fields[4])?,
            stationary: fields[5] == "1",
            outages: parse_num(fields[6])?,
            probes: parse_num(fields[7])?,
            lon: parse_opt_f64(fields[8])?,
            lat: parse_opt_f64(fields[9])?,
            country: if fields[10] == "-" { None } else { Some(fields[10].to_string()) },
            centroid: fields[11] == "1",
            alloc: fields[12].to_string(),
            asn: parse_num(fields[13])?,
            links: if fields[14] == "-" {
                Vec::new()
            } else {
                fields[14].split(',').map(str::to_string).collect()
            },
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
            assert_eq!(row.block_id, rep.summary.block_id);
            assert_eq!(row.class, rep.summary.class);
            assert_eq!(row.stationary, rep.summary.stationary);
            assert_eq!(row.outages, rep.summary.outages);
            assert_eq!(row.probes, rep.summary.total_probes);
            assert_eq!(row.asn, rep.asn);
            assert_eq!(row.country.as_deref(), rep.location.map(|l| l.country));
            assert!((row.mean_a - rep.summary.mean_a).abs() < 1e-5);
            match (row.phase, rep.summary.phase) {
                (Some(a), Some(b)) => assert!((a - b).abs() < 1e-5),
                (None, None) => {}
                other => panic!("phase mismatch {other:?}"),
            }
            assert_eq!(
                row.links,
                rep.link_features.iter().map(|f| f.keyword().to_string()).collect::<Vec<_>>()
            );
            assert_eq!(row.alloc, rep.alloc_date.to_string());
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

    #[test]
    fn bad_class_is_rejected() {
        let text = format!("{HEADER}\n1\tX\t-\t0.5\t1.0\t1\t0\t10\t-\t-\t-\t0\t1990-01\t7\t-\n");
        assert!(matches!(read_dataset(text.as_bytes()), Err(ParseError::BadField(_))));
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
