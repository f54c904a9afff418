//! The mutant runner: holds the workspace's tests to `mutants.tsv`, the
//! catalogue of hand-written mutants (ROADMAP item 9).
//!
//! Each catalogue row names a file (`path`), an `original` snippet that
//! occurs exactly once in it, its `replacement`, why the mutant matters,
//! and the tests expected to kill it, as `package test::path` entries
//! separated by `; ` (a note in parentheses may follow an entry). A
//! snippet writes a newline as `\n`.
//!
//! ```text
//! mutants check
//! mutants run [--lines 25,41-43]
//! ```
//!
//! Run it from the workspace root, e.g. `cargo run --release -p
//! sandf-bench --bin mutants -- check`.
//!
//! `check` fails when a row's `original` does not occur exactly once in
//! its `path`, so the catalogue cannot go stale unnoticed.
//!
//! `run` first makes the same check and refuses a stale row, so a row
//! whose snippet no longer matches is never reported as a survivor. It
//! then copies the workspace (without `target/` and `.git/`) into
//! `target/mutants` and applies one row at a time there. For each killer
//! it builds the test target its test path starts with (that integration
//! test if the package has one of the name, else the library) in release
//! (in debug when the entry's note says "debug profile only"), runs it
//! under a ten-minute timeout, and restores the file afterwards. A row is
//! `killed` when a target fails, `timeout` when one outlives the timeout,
//! `survived` when every target passes, and `unviable` when the mutant
//! does not build. `--lines` picks rows by their line in the catalogue
//! file (the header is line 1). It prints one line per row and the kill
//! rate, and exits 1 unless every row was killed or timed out.

use std::fs;
use std::io;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// The catalogue, at the workspace root.
const CATALOGUE: &str = "mutants.tsv";

/// The longest a mutant's test target may take to build.
const BUILD_LIMIT: Duration = Duration::from_secs(3600);

/// The longest a test target may run on a mutant before it counts as
/// hung: the slowest killer target runs in seconds in release.
const TEST_LIMIT: Duration = Duration::from_secs(600);

/// One catalogue row.
#[derive(Debug)]
struct Row {
    /// The row's line in the catalogue file (the header is line 1).
    line: usize,
    path: String,
    original: String,
    replacement: String,
    killers: Vec<Killer>,
}

/// One expected killer: a package, the first segment of its test path,
/// and the profile to run it in.
#[derive(Debug, PartialEq)]
struct Killer {
    package: String,
    first: String,
    release: bool,
}

/// What a test target did with a mutant.
enum Verdict {
    Pass,
    Fail,
    Timeout,
}

fn decode(field: &str) -> String {
    field.replace("\\n", "\n")
}

/// Parses the catalogue, header line skipped.
fn parse(catalogue: &str) -> Result<Vec<Row>, String> {
    let lines = catalogue.lines().enumerate().skip(1).filter(|(_, line)| !line.is_empty());
    lines
        .map(|(i, line)| {
            let fields: Vec<&str> = line.split('\t').collect();
            let [path, original, replacement, _, killers] = fields[..] else {
                return Err(format!("line {}: {} fields, want 5", i + 1, fields.len()));
            };
            Ok(Row {
                line: i + 1,
                path: path.to_string(),
                original: decode(original),
                replacement: decode(replacement),
                killers: killers_of(killers),
            })
        })
        .collect()
}

/// Splits the killer column at the `;`s outside braces and parentheses.
fn killers_of(column: &str) -> Vec<Killer> {
    let (mut depth, mut start, mut out) = (0i32, 0, Vec::new());
    for (i, c) in column.char_indices() {
        match c {
            '{' | '(' => depth += 1,
            '}' | ')' => depth -= 1,
            ';' if depth == 0 => {
                out.extend(killer(&column[start..i]));
                start = i + 1;
            }
            _ => {}
        }
    }
    out.extend(killer(&column[start..]));
    out
}

fn killer(entry: &str) -> Option<Killer> {
    let mut words = entry.split_whitespace();
    let package = words.next()?.to_string();
    let first = words.next()?.split("::").next()?.to_string();
    Some(Killer { package, first, release: !entry.contains("debug profile only") })
}

/// What is wrong with each row against the tree at `root`.
fn check(root: &Path, rows: &[Row]) -> Vec<String> {
    let mut problems = Vec::new();
    for row in rows {
        let text = fs::read_to_string(root.join(&row.path)).unwrap_or_default();
        let found = if row.original.is_empty() { 0 } else { text.matches(&row.original).count() };
        if found != 1 {
            problems.push(format!(
                "line {}: original occurs {found} times in {}, want 1",
                row.line, row.path
            ));
        }
        if row.original == row.replacement {
            problems.push(format!("line {}: the replacement changes nothing", row.line));
        }
        if row.killers.is_empty() {
            problems.push(format!("line {}: names no killer", row.line));
        }
    }
    problems
}

/// Copies the tree at `from` into `to`, leaving out every `target` and
/// `.git` directory.
fn copy_tree(from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let name = entry.file_name();
        if name == "target" || name == ".git" {
            continue;
        }
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &to.join(&name))?;
        } else {
            fs::copy(entry.path(), to.join(&name))?;
        }
    }
    Ok(())
}

/// The directory of package `name` under `root`: the root package, a
/// crate or a vendored crate.
fn package_dir(root: &Path, name: &str) -> Option<PathBuf> {
    let mut dirs = vec![PathBuf::new()];
    for group in ["crates", "vendor"] {
        for entry in fs::read_dir(root.join(group)).ok()?.flatten() {
            dirs.push(PathBuf::from(group).join(entry.file_name()));
        }
    }
    let declares = |dir: &PathBuf| {
        let manifest = fs::read_to_string(root.join(dir).join("Cargo.toml")).unwrap_or_default();
        manifest.lines().any(|line| line.trim() == format!("name = \"{name}\""))
    };
    dirs.into_iter().find(declares)
}

/// Runs cargo with `args` in `dir`, its output into `log`, in its own
/// process group, killed whole after `limit`.
fn cargo(dir: &Path, args: &[&str], log: &Path, limit: Duration) -> io::Result<Verdict> {
    let mut child = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args(args)
        .current_dir(dir)
        .stdout(fs::File::create(log)?)
        .stderr(Stdio::null())
        .process_group(0)
        .spawn()?;
    let deadline = Instant::now() + limit;
    loop {
        if let Some(status) = child.try_wait()? {
            return Ok(if status.success() { Verdict::Pass } else { Verdict::Fail });
        }
        if Instant::now() >= deadline {
            Command::new("kill").args(["-KILL", &format!("-{}", child.id())]).status()?;
            child.wait()?;
            return Ok(Verdict::Timeout);
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// The tests a libtest run in `log` reports failed.
fn failed_tests(log: &Path) -> Vec<String> {
    let text = fs::read_to_string(log).unwrap_or_default();
    let names =
        text.lines().filter_map(|line| line.strip_prefix("---- ")?.strip_suffix(" stdout ----"));
    names.map(str::to_string).collect()
}

/// Runs `killers`' test targets in the mutated tree at `dir`, in order,
/// until one fails; returns the outcome and the target that decided it,
/// with the tests that failed there.
fn judge(dir: &Path, killers: &[Killer]) -> io::Result<(&'static str, String)> {
    let mut targets: Vec<(String, Vec<String>)> = Vec::new();
    for killer in killers {
        let package = package_dir(dir, &killer.package).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("no package {}", killer.package))
        })?;
        let mut args = vec!["test".to_string(), "-q".into(), "-p".into(), killer.package.clone()];
        if killer.release {
            args.push("--release".into());
        }
        if dir.join(&package).join("tests").join(format!("{}.rs", killer.first)).exists() {
            args.extend(["--test".into(), killer.first.clone()]);
        } else {
            args.push("--lib".into());
        }
        let label = args[3..].join(" ");
        if !targets.iter().any(|(known, _)| *known == label) {
            targets.push((label, args));
        }
    }
    let log = dir.join("target").join("mutant.log");
    fs::create_dir_all(dir.join("target"))?;
    for (label, args) in targets {
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let build = [&args[..], &["--no-run"]].concat();
        if !matches!(cargo(dir, &build, &log, BUILD_LIMIT)?, Verdict::Pass) {
            return Ok(("unviable", label));
        }
        match cargo(dir, &args, &log, TEST_LIMIT)? {
            Verdict::Pass => {}
            Verdict::Fail => {
                return Ok(("killed", format!("{label}: {}", failed_tests(&log).join(", "))))
            }
            Verdict::Timeout => return Ok(("timeout", label)),
        }
    }
    Ok(("survived", String::new()))
}

/// Applies each of `rows` in the scratch copy `target/mutants` of `root`
/// and judges it; returns whether every row was killed or timed out.
fn run(root: &Path, rows: &[Row]) -> io::Result<bool> {
    let problems = check(root, rows);
    if !problems.is_empty() {
        return Err(io::Error::other(format!("{CATALOGUE}: {}", problems.join("; "))));
    }
    // The scratch copy is cleared before each run (its build cache kept),
    // so a file the tree has since lost cannot linger there.
    let scratch = &root.join("target").join("mutants");
    if scratch.exists() {
        for entry in fs::read_dir(scratch)? {
            let entry = entry?;
            if entry.file_name() != "target" {
                let path = entry.path();
                if entry.file_type()?.is_dir() {
                    fs::remove_dir_all(path)?;
                } else {
                    fs::remove_file(path)?;
                }
            }
        }
    }
    copy_tree(root, scratch)?;
    let mut detected = 0;
    for row in rows {
        let file = scratch.join(&row.path);
        let text = fs::read_to_string(&file)?;
        fs::write(&file, text.replacen(&row.original, &row.replacement, 1))?;
        let started = Instant::now();
        let judged = judge(scratch, &row.killers);
        fs::write(&file, &text)?;
        let (outcome, by) = judged?;
        detected += usize::from(matches!(outcome, "killed" | "timeout"));
        let secs = started.elapsed().as_secs();
        println!("line {}\t{outcome}\t{secs} s\t{}\t{by}", row.line, row.path);
    }
    println!("kill rate: {detected}/{} rows killed or timed out", rows.len());
    Ok(detected == rows.len())
}

/// Parses `--lines` (`25,41-43`) into line numbers.
fn line_set(spec: &str) -> Result<Vec<usize>, String> {
    let mut lines = Vec::new();
    for part in spec.split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let parse = |s: &str| s.trim().parse::<usize>().map_err(|e| format!("--lines {part}: {e}"));
        lines.extend(parse(lo)?..=parse(hi)?);
    }
    Ok(lines)
}

fn main() -> ExitCode {
    match try_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("mutants: {message}");
            ExitCode::from(2)
        }
    }
}

fn try_main() -> Result<bool, String> {
    let mut args = std::env::args().skip(1);
    let mode = args.next().unwrap_or_default();
    let mut lines = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} takes a value"))?;
        match flag.as_str() {
            "--lines" => lines = Some(line_set(&value)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let text = fs::read_to_string(CATALOGUE).map_err(|e| format!("{CATALOGUE}: {e}"))?;
    let mut rows = parse(&text)?;
    if let Some(lines) = lines {
        rows.retain(|row| lines.contains(&row.line));
    }
    let root = Path::new(".");
    match mode.as_str() {
        "check" => {
            let problems = check(root, &rows);
            for problem in &problems {
                println!("{CATALOGUE}: {problem}");
            }
            println!("{} rows, {} problems", rows.len(), problems.len());
            Ok(problems.is_empty())
        }
        "run" => run(root, &rows).map_err(|e| e.to_string()),
        _ => Err("usage: mutants check|run [--lines 25,41-43]".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn killers_split_outside_braces_and_notes() {
        let column = "sandf-sim traits::tests::{a, b}; rand tests::c (debug profile only; \
                      see PR 19); sandf churn_index::d";
        let got = killers_of(column);
        let want = [
            ("sandf-sim", "traits", true),
            ("rand", "tests", false),
            ("sandf", "churn_index", true),
        ];
        assert_eq!(got.len(), want.len(), "{got:?}");
        for (killer, (package, first, release)) in got.iter().zip(want) {
            assert_eq!(*killer, Killer { package: package.into(), first: first.into(), release });
        }
    }

    #[test]
    fn rows_decode_newlines_and_want_five_fields() {
        let rows = parse("header\np\ta\\nb\t\twhy\tsandf-sim x::y\n").unwrap();
        assert_eq!(
            (rows[0].line, rows[0].original.as_str(), rows[0].replacement.as_str()),
            (2, "a\nb", "")
        );
        assert!(parse("header\np\ta\tb\n").unwrap_err().contains("3 fields"));
        assert_eq!(line_set("3,41-43").unwrap(), [3, 41, 42, 43]);
    }

    /// A row whose snippet no longer matches stops the run before the tree
    /// is copied, so it is never judged (and never reported a survivor).
    #[test]
    fn a_stale_row_stops_the_run() {
        let root = std::env::temp_dir().join(format!("mutants-stale-{}", std::process::id()));
        fs::create_dir_all(&root).unwrap();
        fs::write(root.join("a.rs"), "fn a() {}\n").unwrap();
        let rows = parse("header\na.rs\tfn b()\tfn c()\twhy\tsandf-sim x::y\n").unwrap();
        let err = run(&root, &rows).unwrap_err().to_string();
        let copied = root.join("target").exists();
        fs::remove_dir_all(&root).unwrap();
        assert!(err.contains("line 2: original occurs 0 times in a.rs"), "{err}");
        assert!(!copied);
    }

    /// Every row of the workspace's catalogue still applies to the tree.
    #[test]
    fn the_catalogue_matches_the_tree() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let rows = parse(&fs::read_to_string(root.join(CATALOGUE)).unwrap()).unwrap();
        assert_eq!(check(&root, &rows), Vec::<String>::new());
        for row in &rows {
            for killer in &row.killers {
                assert!(package_dir(&root, &killer.package).is_some(), "line {}", row.line);
            }
        }
    }
}
