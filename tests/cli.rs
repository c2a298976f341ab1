//! End-to-end tests of the two binaries, driven as real processes.

use std::process::Command;

/// Locates a workspace binary next to the test executable, or `None` when
/// it hasn't been built (e.g. a narrow `cargo test -p` invocation that
/// doesn't cover the sibling package) — callers skip in that case.
fn bin(name: &str) -> Option<Command> {
    // Cargo puts test binaries in target/<profile>/deps; the package
    // binaries live one directory up.
    let mut path = std::env::current_exe().expect("test binary path");
    path.pop();
    if path.ends_with("deps") {
        path.pop();
    }
    path.push(name);
    if !path.exists() {
        eprintln!("skipping: {} not built (run `cargo test --workspace`)", path.display());
        return None;
    }
    Some(Command::new(path))
}

#[test]
fn sleepwatch_info_runs() {
    let Some(mut cmd) = bin("sleepwatch") else { return };
    let out = cmd.arg("info").output().expect("spawn sleepwatch");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("IMC 2014"));
    assert!(text.contains("660"));
}

#[test]
fn sleepwatch_countries_lists_the_table() {
    let Some(mut cmd) = bin("sleepwatch") else { return };
    let out = cmd.arg("countries").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("China"));
    assert!(text.contains("United States"));
    assert!(text.contains("countries modeled"));
}

#[test]
fn sleepwatch_block_classifies() {
    let Some(mut cmd) = bin("sleepwatch") else { return };
    let out = cmd.args(["block", "--days", "7"]).output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("class"), "{text}");
    assert!(text.contains("probes/hour"));
}

/// `analyze --format bin` writes a seed-joined container, and `convert`
/// turns it back into exactly the TSV the same analysis would have
/// written directly — then round-trips that TSV into a self-contained
/// binary and back, byte-identically.
#[test]
fn sleepwatch_convert_round_trips_both_formats() {
    let dir = std::env::temp_dir().join(format!("swtest-cli-fmt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let world = ["--blocks", "120", "--days", "3", "--seed", "9"];

    let tsv_path = dir.join("direct.tsv");
    let Some(mut cmd) = bin("sleepwatch") else { return };
    let out = cmd
        .args(["analyze", "--dataset"])
        .arg(&tsv_path)
        .args(world)
        .output()
        .expect("spawn analyze tsv");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let want = std::fs::read(&tsv_path).expect("direct tsv");

    let bin_path = dir.join("direct.bin");
    let Some(mut cmd) = bin("sleepwatch") else { return };
    let out = cmd
        .args(["analyze", "--format", "bin", "--dataset"])
        .arg(&bin_path)
        .args(world)
        .output()
        .expect("spawn analyze bin");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let bin_bytes = std::fs::read(&bin_path).expect("binary dataset");
    assert_eq!(&bin_bytes[..8], b"SLPWBIN1");
    assert!(bin_bytes.len() < want.len(), "binary should be smaller than TSV");

    // Seed-joined binary -> TSV needs the producing world's parameters.
    let from_bin = dir.join("from_bin.tsv");
    let Some(mut cmd) = bin("sleepwatch") else { return };
    let out = cmd
        .arg("convert")
        .args([&bin_path, &from_bin])
        .args(world)
        .output()
        .expect("spawn convert bin->tsv");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(want, std::fs::read(&from_bin).expect("converted tsv"));

    // ...and without them the identity check refuses, with a typed error.
    let Some(mut cmd) = bin("sleepwatch") else { return };
    let out =
        cmd.arg("convert").args([&bin_path, &from_bin]).output().expect("spawn convert no-world");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("different run"));

    // TSV -> self-contained binary -> TSV, byte-identical, no world flags.
    let self_bin = dir.join("roundtrip.bin");
    let Some(mut cmd) = bin("sleepwatch") else { return };
    let out = cmd.arg("convert").args([&tsv_path, &self_bin]).output().expect("spawn tsv->bin");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let back = dir.join("back.tsv");
    let Some(mut cmd) = bin("sleepwatch") else { return };
    let out = cmd.arg("convert").args([&self_bin, &back]).output().expect("spawn bin->tsv");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(want, std::fs::read(&back).expect("round-tripped tsv"));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sleepwatch_convert_refuses_a_country_outside_the_table() {
    let dir = std::env::temp_dir().join(format!("swtest-cli-zz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let row = |country: &str| {
        format!("1\td\t0.250000\t0.500000\t1.0000\t1\t0\t10\t10.000000\t20.000000\t{country}\t0\t1990-01\t7\tsta\n")
    };
    let input = dir.join("zz.tsv");
    let header = "#block_id\tclass\tphase\tmean_a\tstrongest_cpd\tstationary\toutages\tprobes\t\
                  lon\tlat\tcountry\tcentroid\talloc\tasn\tlinks\n";
    std::fs::write(&input, format!("{header}{}{}", row("US"), row("ZZ"))).expect("write tsv");
    let output = dir.join("out.bin");
    let Some(mut cmd) = bin("sleepwatch") else { return };
    let out = cmd.arg("convert").args([&input, &output]).output().expect("spawn convert");
    assert!(!out.status.success(), "convert accepted country ZZ");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 3, column country") && stderr.contains("\"ZZ\""), "{stderr}");
    assert!(!output.exists(), "a refused convert wrote its output");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `feed --to-file` then `ingest --from-file` round-trips a small world
/// over the wire format and finalizes every block cleanly.
#[test]
fn sleepwatch_feed_file_round_trips_into_ingest() {
    let dir = std::env::temp_dir().join(format!("swtest-cli-feed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let world = ["--blocks", "16", "--days", "2", "--seed", "11"];
    let feed_path = dir.join("world.feed");

    let Some(mut cmd) = bin("sleepwatch") else { return };
    let out =
        cmd.args(["feed", "--to-file"]).arg(&feed_path).args(world).output().expect("spawn feed");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let bytes = std::fs::read(&feed_path).expect("feed written");
    assert_eq!(&bytes[..8], b"SLPWFEED");

    let Some(mut cmd) = bin("sleepwatch") else { return };
    let out = cmd
        .args(["ingest", "--from-file"])
        .arg(&feed_path)
        .args(world)
        .output()
        .expect("spawn ingest");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("blocks finalized    : 16"), "{text}");
    assert!(text.contains("wire frames"), "{text}");

    // A different world refuses the feed as foreign, with a readable
    // cause and a nonzero exit.
    let Some(mut cmd) = bin("sleepwatch") else { return };
    let out = cmd
        .args(["ingest", "--from-file"])
        .arg(&feed_path)
        .args(["--blocks", "16", "--days", "2", "--seed", "12"])
        .output()
        .expect("spawn foreign ingest");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("different run"), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `feed --to-file` writes the bytes it wrote when it held the whole feed
/// in memory, pinned as length and FNV-1a digest: one chunk of blocks, and
/// two.
#[test]
fn sleepwatch_feed_file_bytes_match_the_pinned_digest() {
    let dir = std::env::temp_dir().join(format!("swtest-cli-feed-pin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let fnv1a = |bytes: &[u8]| {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
    };
    for (blocks, days, pin) in [
        ("64", "3", (632_304, 11_931_760_646_491_472_136)),
        ("300", "2", (1_977_870, 12_294_719_132_169_214_719)),
    ] {
        let path = dir.join(format!("{blocks}.feed"));
        let Some(mut cmd) = bin("sleepwatch") else { return };
        let world = ["--blocks", blocks, "--days", days, "--seed", "7"];
        let out = cmd.args(["feed", "--to-file"]).arg(&path).args(world).output().expect("spawn");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let bytes = std::fs::read(&path).expect("feed written");
        assert_eq!((bytes.len(), fnv1a(&bytes)), pin, "{blocks} blocks over {days} days");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `sleepwatch <command> <args>` exits 2 with the single stderr line
/// `sleepwatch: <args[0]>: …`.
fn assert_flag_refused(command: &str, args: &[&str]) {
    let flag = args[0];
    let Some(mut cmd) = bin("sleepwatch") else { return };
    let out = cmd.arg(command).args(args).output().expect("spawn");
    assert_eq!(out.status.code(), Some(2), "{command} {args:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.starts_with(&format!("sleepwatch: {flag}:")), "{command} {args:?}: {err}");
    assert_eq!(err.lines().count(), 1, "{command} {args:?}: {err}");
    assert!(!err.contains("panic"), "{err}");
}

/// A `--days` that is not a finite span of at least one round, or longer
/// than the FFT planner or memory accepts, is refused up front by every
/// command that builds a world from it — not a planner panic (`1e7`,
/// `inf`), a silent zero-round analysis (`nan`, `-3`, `0`), an
/// allocation until killed (`1000000`, `3661`: past the ten-year bound)
/// or a silent zero-sample analysis (`1`: the midnight trim keeps what
/// lies between two UTC midnights, and one day crosses only one).
#[test]
fn sleepwatch_days_is_validated_by_every_world_command() {
    for command in ["analyze", "block", "ingest", "feed"] {
        for days in ["nan", "inf", "-3", "0", "1e7", "1000000", "3661", "1"] {
            assert_flag_refused(command, &["--days", days, "--blocks", "2"]);
        }
    }
    // A world starts at 17:18 UTC, so its second midnight is 1.28 days in;
    // `block` starts on a midnight and reaches the next after one day.
    for command in ["analyze", "ingest", "feed", "serve", "convert"] {
        assert_flag_refused(command, &["--days", "1.2"]);
    }
    for args in [&["analyze", "--days", "1.5", "--blocks", "20"][..], &["block", "--days", "2"]] {
        let Some(mut cmd) = bin("sleepwatch") else { return };
        assert!(cmd.args(args).output().expect("spawn").status.success(), "{args:?}");
    }
}

/// A command refuses a flag it does not read — `analyze --shards 9` used
/// to run as if the flag were not there.
#[test]
fn sleepwatch_commands_refuse_flags_they_do_not_read() {
    for (command, args) in [
        ("analyze", &["--shards", "9"][..]),
        ("convert", &["--threads", "2"]),
        ("block", &["--blocks", "3"]),
        ("ingest", &["--threads", "2"]),
        ("feed", &["--shards", "2"]),
        ("serve", &["--strict"]),
        ("countries", &["--seed", "1"]),
        ("info", &["--flat"]),
    ] {
        assert_flag_refused(command, args);
    }
    let Some(mut cmd) = bin("sleepwatch") else { return };
    let out = cmd.args(["analyze", "--shards", "9"]).output().expect("spawn");
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "sleepwatch: --shards: not a flag of analyze\n"
    );
}

/// A reader that closes stdout early (`sleepwatch block | head -2`) ends
/// the process quietly: `println!` used to panic on `EPIPE` — "failed
/// printing to stdout: Broken pipe", a backtrace and exit 101. No race:
/// stdout is the write end of a pipe whose only reader has already exited.
#[cfg(unix)]
#[test]
fn sleepwatch_does_not_panic_on_a_closed_stdout() {
    use std::process::Stdio;
    let mut reader = Command::new("true").stdin(Stdio::piped()).spawn().expect("spawn true");
    let pipe = reader.stdin.take().expect("piped stdin");
    reader.wait().expect("wait for true");
    let Some(mut cmd) = bin("sleepwatch") else { return };
    let out = cmd.arg("countries").stdout(Stdio::from(pipe)).output().expect("spawn");
    assert_eq!(out.status.code(), Some(0), "{:?}", out.status);
    assert_eq!(String::from_utf8_lossy(&out.stderr), "");
}

/// A world of no blocks is refused up front — not an empty report with
/// exit 0, nor an 81-byte feed that ingests at "0 rounds/s".
#[test]
fn sleepwatch_refuses_a_zero_block_world() {
    for command in ["analyze", "ingest", "feed"] {
        assert_flag_refused(command, &["--blocks", "0", "--days", "1"]);
    }
}

/// `--threads 0` and `--shards 0` are refused like `--blocks 0`, not
/// clamped to one thread or one shard.
#[test]
fn sleepwatch_refuses_zero_threads_and_shards() {
    for (command, flag) in [("analyze", "--threads"), ("ingest", "--shards")] {
        let Some(mut cmd) = bin("sleepwatch") else { return };
        let out = cmd.args([command, flag, "0", "--blocks", "2"]).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{command} {flag} 0");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err, format!("sleepwatch: {flag}: must be at least 1\n"), "{command}");
    }
}

/// Malformed, out-of-range or missing flag values exit 2 with one line
/// naming the offending flag — never the usage dump, never a panic.
#[test]
fn sleepwatch_transport_flags_reject_malformed_values() {
    for args in [
        &["--read-timeout-ms", "banana"][..],
        &["--read-timeout-ms", "0"],
        &["--reconnect-attempts", "-3"],
        &["--reconnect-attempts", "0"],
        &["--backoff-ms", "1.5"],
        &["--blocks", "many"],
        &["--days", "a-week"],
        &["--seed", "-1"],
        &["--threads", "two"],
        &["--shards", "1.5"],
        &["--format", "xml"],
        // Missing value at end of argv.
        &["--dataset"],
        &["--journal"],
        &["--connect"],
    ] {
        assert_flag_refused("ingest", args);
    }

    // Mutually exclusive sources are refused readably.
    let Some(mut cmd) = bin("sleepwatch") else { return };
    let out = cmd
        .args(["ingest", "--listen", "127.0.0.1:0", "--connect", "127.0.0.1:1"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("mutually exclusive"));
}

/// A dead upstream drains the reconnect budget: nonzero exit with a
/// human-readable exhaustion cause, not a hang or a panic.
#[test]
fn sleepwatch_ingest_reports_budget_exhaustion() {
    let Some(mut cmd) = bin("sleepwatch") else { return };
    // Port 1 is never listening; keep the budget tiny so the test is fast.
    let out = cmd
        .args(["ingest", "--blocks", "4", "--days", "2", "--connect", "127.0.0.1:1"])
        .args(["--reconnect-attempts", "2", "--backoff-ms", "1"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("connection budget exhausted"), "{err}");
    assert!(err.contains("2 attempts"), "{err}");
    assert!(!err.contains("panic"), "{err}");
}

/// `serve` end to end: analyze a world into a binary dataset, serve it
/// on an ephemeral port, and query it over real TCP with a bare-hands
/// HTTP client.
#[test]
fn sleepwatch_serve_answers_queries_end_to_end() {
    use std::io::{BufRead, BufReader, Read, Write};

    let dir = std::env::temp_dir().join(format!("swtest-cli-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let world = ["--blocks", "24", "--days", "2", "--seed", "9"];
    let data = dir.join("world.bin");

    let Some(mut cmd) = bin("sleepwatch") else { return };
    let out = cmd
        .args(["analyze", "--format", "bin", "--dataset"])
        .arg(&data)
        .args(world)
        .output()
        .expect("spawn analyze");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let Some(mut cmd) = bin("sleepwatch") else { return };
    let mut child = cmd
        .args(["serve", "--listen", "127.0.0.1:0", "--dataset"])
        .arg(&data)
        .args(world)
        .args(["--threads", "2", "--lru-capacity", "32"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");

    // The server prints its bound address once it is accepting.
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("read serve banner");
    assert!(line.contains("serving 24 blocks on http://"), "{line}");
    let addr = line.split("http://").nth(1).expect("addr in banner");
    let addr = addr.split_whitespace().next().expect("addr token").to_string();

    // A tiny std TCP client: one request, one response.
    let fetch = |path: &str| -> (u16, String) {
        let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n").expect("send");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read response");
        let status: u16 = raw[9..12].parse().expect("status code");
        let body = raw.split("\r\n\r\n").nth(1).expect("body").to_string();
        (status, body)
    };

    let (status, body) = fetch("/v1/summary");
    assert_eq!(status, 200, "{body}");
    assert!(body.starts_with("{\"blocks\":24,"), "{body}");
    assert!(body.contains("\"diurnal_fraction\":"), "{body}");

    let (status, body) = fetch("/v1/country");
    assert_eq!(status, 200);
    assert!(body.starts_with("{\"countries\":["), "{body}");

    let (status, body) = fetch("/v1/block/0");
    assert_eq!(status, 200);
    assert!(body.starts_with("{\"block\":0,\"class\":"), "{body}");

    let (status, body) = fetch("/v1/nope");
    assert_eq!(status, 404);
    assert_eq!(body, "{\"error\":\"no such route\"}");

    let _ = child.kill();
    let _ = child.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Malformed serve flag values exit 2 and name the offending flag;
/// incoherent flag combinations fail readably.
#[test]
fn sleepwatch_serve_flags_reject_malformed_values() {
    for (flag, value) in
        [("--lru-capacity", "banana"), ("--lru-capacity", "-1"), ("--read-timeout-ms", "0")]
    {
        let Some(mut cmd) = bin("sleepwatch") else { return };
        let out = cmd.args(["serve", flag, value]).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{flag} {value}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag), "stderr does not name {flag}: {err}");
        assert!(!err.contains("panic"), "{err}");
    }

    // No listen address.
    let Some(mut cmd) = bin("sleepwatch") else { return };
    let out = cmd.args(["serve", "--dataset", "x.bin"]).output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--listen"));

    // Zero or two sources.
    let Some(mut cmd) = bin("sleepwatch") else { return };
    let out = cmd.args(["serve", "--listen", "127.0.0.1:0"]).output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("exactly one of --dataset or --journal"));
    let Some(mut cmd) = bin("sleepwatch") else { return };
    let out = cmd
        .args(["serve", "--listen", "127.0.0.1:0", "--dataset", "a", "--journal", "b"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("exactly one of --dataset or --journal"));
}

/// A seed-joined dataset produced by one world refuses to be served as
/// another: identity is checked at load, before any socket is opened.
#[test]
fn sleepwatch_serve_refuses_foreign_datasets() {
    let dir = std::env::temp_dir().join(format!("swtest-cli-serve-foreign-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let data = dir.join("world.bin");

    let Some(mut cmd) = bin("sleepwatch") else { return };
    let out = cmd
        .args(["analyze", "--format", "bin", "--dataset"])
        .arg(&data)
        .args(["--blocks", "24", "--days", "2", "--seed", "9"])
        .output()
        .expect("spawn analyze");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let Some(mut cmd) = bin("sleepwatch") else { return };
    let out = cmd
        .args(["serve", "--listen", "127.0.0.1:0", "--dataset"])
        .arg(&data)
        .args(["--blocks", "24", "--days", "2", "--seed", "10"])
        .output()
        .expect("spawn foreign serve");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("could not load"), "{err}");
    assert!(err.contains("different run"), "{err}");
    assert!(!err.contains("panic"), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A version-1 journal is refused with exit 1 and a message naming the
/// version — and the file is left exactly as it was.
#[test]
fn sleepwatch_serve_refuses_v1_journals() {
    let dir = std::env::temp_dir().join(format!("swtest-cli-serve-v1-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let journal = dir.join("old.journal");
    // On disk the magic's ASCII reads backwards (little-endian u64).
    let mut bytes = b"1LNJWPLS".to_vec();
    bytes.extend((0..124u8).map(|i| i.wrapping_mul(37)));
    std::fs::write(&journal, &bytes).expect("write v1 journal");

    let Some(mut cmd) = bin("sleepwatch") else { return };
    let out = cmd
        .args(["serve", "--listen", "127.0.0.1:0", "--journal"])
        .arg(&journal)
        .args(["--blocks", "24", "--days", "2", "--seed", "9"])
        .output()
        .expect("spawn v1 serve");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("could not load"), "{err}");
    assert!(err.contains("unsupported format version 1"), "{err}");
    assert!(!err.contains("panic"), "{err}");
    assert_eq!(std::fs::read(&journal).expect("still there"), bytes, "serve touched the file");

    let _ = std::fs::remove_dir_all(&dir);
}

/// An unwritable `--dataset` path is a typed error: exit 1, the path in
/// the message, no panic.
#[test]
fn sleepwatch_analyze_reports_unwritable_dataset_path() {
    let missing = std::env::temp_dir()
        .join(format!("swtest-cli-no-such-dir-{}", std::process::id()))
        .join("x.tsv");
    let Some(mut cmd) = bin("sleepwatch") else { return };
    let out = cmd
        .args(["analyze", "--blocks", "8", "--days", "2", "--dataset"])
        .arg(&missing)
        .output()
        .expect("spawn analyze");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains(&*missing.to_string_lossy()), "{err}");
    assert!(!err.contains("panic"), "{err}");
}

#[test]
fn sleepwatch_rejects_unknown_commands() {
    let Some(mut cmd) = bin("sleepwatch") else { return };
    let out = cmd.arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
}

#[test]
fn experiments_list_covers_the_paper() {
    let Some(mut cmd) = bin("experiments") else { return };
    let out = cmd.arg("--list").output().expect("spawn experiments");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // Assert the stable paper set rather than the full current id list:
    // `cargo test` does not refresh sibling packages' bin artifacts, so a
    // stale binary may predate recently added extension ids (run
    // `cargo build --workspace` first for the full check).
    for fig in 1..=17 {
        let id = format!("fig{fig}");
        assert!(text.lines().any(|l| l == id), "missing {id}");
    }
    for table in 1..=5 {
        let id = format!("table{table}");
        assert!(text.lines().any(|l| l == id), "missing {id}");
    }
    // And every listed id is one the current library knows *or* newer —
    // at minimum the list is non-empty and line-per-id shaped.
    assert!(text.lines().count() >= 22);
}

#[test]
fn experiments_runs_a_figure_and_writes_csv() {
    let dir = std::env::temp_dir().join(format!("swtest-{}", std::process::id()));
    let Some(mut cmd) = bin("experiments") else { return };
    let out = cmd.args(["--scale", "0.02", "--out"]).arg(&dir).arg("fig1").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Fig. 1"), "{text}");
    let csv = std::fs::read_to_string(dir.join("fig1.csv")).expect("csv written");
    assert!(csv.starts_with("round,"));
    assert!(csv.lines().count() > 100);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn experiments_format_bin_writes_both_artifacts() {
    let dir = std::env::temp_dir().join(format!("swtest-fmt-{}", std::process::id()));
    let Some(mut cmd) = bin("experiments") else { return };
    let out = cmd
        .args(["--scale", "0.02", "--format", "bin", "--out"])
        .arg(&dir)
        .arg("ext-dataset")
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let tsv = std::fs::read(dir.join("ext-dataset.csv")).expect("tsv artifact");
    let bin = std::fs::read(dir.join("ext-dataset.bin")).expect("binary artifact");
    assert_eq!(&bin[..8], b"SLPWBIN1");
    assert!(bin.len() < tsv.len());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn experiments_rejects_unknown_ids() {
    let Some(mut cmd) = bin("experiments") else { return };
    let out = cmd.args(["--out", "-", "fig99"]).output().expect("spawn");
    assert!(!out.status.success());
}
