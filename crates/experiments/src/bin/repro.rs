//! `repro` — regenerate any table or figure of the paper.
//!
//! ```text
//! repro <id> [--quick] [--no-save] [--force] [--dry-run] [--cache-dir DIR]
//!            [--trace DIR]           one experiment (fig9, tab3, browse_sweep,
//!                                    trace, ...): `matrix` on its embedded spec
//! repro all [--quick] [--no-save] [--force] [--dry-run] [--cache-dir DIR]
//!                                    everything, in registry order
//! repro list                         show available ids
//! repro matrix <spec.json> [--quick] [--no-save] [--force] [--dry-run]
//!              [--cache-dir DIR] [--trace DIR]
//!                                    declarative experiment matrix
//! ```
//!
//! Each target reads only the flags [`Target::flags`] lists for it; any
//! other flag is an error, never silently ignored.
//!
//! Reports go to stdout and `results/<name>.txt` (the spec's name; an
//! alias writes its artifact's file); `--no-save` skips the file so smoke
//! runs don't overwrite the committed Full reports.
//!
//! `matrix` expands a spec (see `crates/experiments/specs/`) into cells,
//! serves unchanged cells from the content-addressed cache (default
//! `.expcache/`), executes only the rest, and assembles the figure in a
//! fixed merge order — output is byte-identical whatever the cache state.
//! `--force` re-executes everything (refreshing the cache); `--dry-run`
//! reports cell counts and cache hits without running anything. `repro
//! <id>` is `matrix` on the spec embedded in the registry.
//!
//! `--trace DIR` executes every cell of a spec of streaming cells with
//! telemetry enabled, without reading the cache, and writes each cell's
//! scheduler decisions (with their inputs and which rule fired) plus
//! transport/network lifecycle events to `DIR/<spec>-<cell>.jsonl` and its
//! counters to `DIR/<spec>-<cell>.counters`. `repro trace --trace DIR`
//! traces the paper's most heterogeneous streaming pair (0.3/8.6, ECF).

#![forbid(unsafe_code)]

use experiments::expmatrix::Spec;
use experiments::{find, registry, Effort, Experiment, MatrixOptions};

const USAGE: &str = "usage: repro <id> [--quick] [--no-save] [--force] [--dry-run] \
[--cache-dir DIR] [--trace DIR] \
| repro all|list [--quick] [--no-save] [--force] [--dry-run] [--cache-dir DIR] \
| repro matrix <spec.json> [--quick] [--no-save] [--force] [--dry-run] [--cache-dir DIR] \
[--trace DIR]";

const SWITCHES: [&str; 4] = ["--quick", "--no-save", "--force", "--dry-run"];
const VALUED: [&str; 2] = ["--cache-dir", "--trace"];

/// What a command line runs.
#[derive(Debug, Clone, Copy)]
enum Target {
    List,
    All,
    One(Experiment),
    Matrix,
}

impl Target {
    /// The flags each target reads — the one table the parser checks.
    fn flags(self) -> &'static [&'static str] {
        const ALL: &[&str] = &["--quick", "--no-save", "--force", "--dry-run", "--cache-dir"];
        const ONE_SPEC: &[&str] =
            &["--quick", "--no-save", "--force", "--dry-run", "--cache-dir", "--trace"];
        match self {
            Target::List => &[],
            Target::All => ALL,
            Target::One(_) | Target::Matrix => ONE_SPEC,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Target::List => "list",
            Target::All => "all",
            Target::One(e) => e.id,
            Target::Matrix => "matrix",
        }
    }
}

/// The command line, split once: a value-taking flag consumes the word after
/// it, so what remains in `words` is the target followed by its operand.
#[derive(Debug)]
struct Cli {
    target: Target,
    words: Vec<String>,
    switches: Vec<String>,
    values: Vec<(String, String)>,
}

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, String> {
        let (mut words, mut switches, mut values) = (Vec::new(), Vec::new(), Vec::new());
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if VALUED.contains(&arg.as_str()) {
                match it.next().filter(|v| !v.starts_with("--")) {
                    Some(v) => values.push((arg.clone(), v.clone())),
                    None => return Err(format!("{arg} needs a value")),
                }
            } else if SWITCHES.contains(&arg.as_str()) {
                switches.push(arg.clone());
            } else if arg.starts_with("--") {
                return Err(format!("unknown flag '{arg}'"));
            } else {
                words.push(arg.clone());
            }
        }
        let target = match words.first().map(String::as_str) {
            None | Some("list") => Target::List,
            Some("all") => Target::All,
            Some("matrix") => Target::Matrix,
            Some(id) => Target::One(
                find(id).ok_or_else(|| format!("unknown experiment '{id}'; try `repro list`"))?,
            ),
        };
        let operands = match target {
            Target::Matrix if words.len() < 2 => return Err("matrix needs a spec file".into()),
            Target::Matrix => 2,
            _ => 1,
        };
        if let Some(extra) = words.get(operands) {
            return Err(format!("unexpected argument '{extra}'"));
        }
        let accepted = target.flags();
        let flags = switches.iter().chain(values.iter().map(|(f, _)| f));
        if let Some(flag) = flags.into_iter().find(|f| !accepted.contains(&f.as_str())) {
            return Err(format!(
                "`repro {}` does not read {flag} (it reads: {})",
                target.name(),
                if accepted.is_empty() { "no flags".to_string() } else { accepted.join(" ") }
            ));
        }
        Ok(Cli { target, words, switches, values })
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.values.iter().find(|(f, _)| f == flag).map(|(_, v)| v.as_str())
    }

    fn matrix_options(&self) -> MatrixOptions {
        let mut opts = MatrixOptions::new(self.value("--cache-dir").unwrap_or(".expcache"));
        opts.effort = if self.has("--quick") { Effort::Quick } else { Effort::Full };
        opts.force = self.has("--force");
        opts.dry_run = self.has("--dry-run");
        opts.trace = self.value("--trace").map(Into::into);
        opts
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = Cli::parse(&args).unwrap_or_else(|err| {
        eprintln!("{err}\n{USAGE}");
        std::process::exit(2);
    });
    let save = !cli.has("--no-save");

    match cli.target {
        Target::Matrix => {
            let path = &cli.words[1];
            run_matrix_cmd(Spec::from_file(path), path, cli.matrix_options(), save);
        }
        Target::List => {
            println!("available experiments:\n");
            for e in registry() {
                println!("  {:<22} {}", e.id, e.title);
            }
            println!("\n{USAGE}");
        }
        Target::All => {
            // Aliases (fig7/fig10 etc.) share a title and a generator.
            let mut seen = std::collections::HashSet::new();
            for e in registry() {
                if seen.insert(e.title) {
                    run_one(&e, cli.matrix_options(), save);
                }
            }
        }
        Target::One(e) => run_one(&e, cli.matrix_options(), save),
    }
}

/// Run one registry entry: `repro matrix` on its embedded spec.
fn run_one(e: &Experiment, opts: MatrixOptions, save: bool) {
    run_matrix_cmd(e.spec(), &format!("`{}`'s embedded spec", e.id), opts, save);
}

fn run_matrix_cmd(spec: Result<Spec, String>, origin: &str, opts: MatrixOptions, save: bool) {
    let started = std::time::Instant::now();
    let spec = spec.unwrap_or_else(|err| {
        eprintln!("bad spec: {err}");
        std::process::exit(2);
    });
    eprintln!("== matrix {} ({origin}) ==", spec.name);
    let outcome = experiments::run_matrix(&spec, &opts).unwrap_or_else(|err| {
        eprintln!("matrix failed: {err}");
        std::process::exit(1);
    });
    eprintln!("{}", outcome.summary());
    if opts.dry_run {
        print!("{}", outcome.report);
        return;
    }
    println!("{}", outcome.report);
    if let Some(dir) = &opts.trace {
        eprintln!("traced {} cells into {}", outcome.executed, dir.display());
    }
    eprintln!("== {} done in {:.1}s ==\n", spec.name, started.elapsed().as_secs_f64());
    if save {
        save_report(&spec.name, &outcome.report);
    }
}

/// Write `results/<name>.txt` relative to the working directory.
fn save_report(name: &str, report: &str) {
    if let Err(err) = std::fs::create_dir_all("results")
        .and_then(|_| std::fs::write(format!("results/{name}.txt"), report))
    {
        eprintln!("warning: could not write results/{name}.txt: {err}");
    }
}

#[cfg(test)]
mod tests {
    use super::{Cli, Target};

    fn parse(line: &str) -> Result<Cli, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        Cli::parse(&args)
    }

    /// `accepted` parses; each line of `refused` is an error naming the
    /// target and the flag it does not read.
    fn check(target: &str, accepted: &str, refused: &[(&str, &str)]) {
        parse(accepted).unwrap_or_else(|err| panic!("`repro {accepted}`: {err}"));
        for &(line, flag) in refused {
            let err = parse(line).expect_err(line);
            assert!(
                err.starts_with(&format!("`repro {target}` does not read {flag}")),
                "`repro {line}`: {err}"
            );
        }
    }

    #[test]
    fn flag_values_are_not_positionals() {
        let cli = parse("matrix --cache-dir /tmp/c specs/smoke.json").unwrap();
        assert_eq!(cli.words, ["matrix", "specs/smoke.json"]);
        assert_eq!(cli.value("--cache-dir"), Some("/tmp/c"));

        let cli = parse("--trace out trace --quick").unwrap();
        assert_eq!(cli.target.name(), "trace");
        assert_eq!(cli.value("--trace"), Some("out"));
        assert!(cli.has("--quick"));
    }

    #[test]
    fn unknown_flags_missing_values_and_extra_words_are_errors() {
        assert_eq!(parse("fig9 --quik").unwrap_err(), "unknown flag '--quik'");
        assert_eq!(parse("trace --trace").unwrap_err(), "--trace needs a value");
        assert_eq!(parse("trace --trace --quick").unwrap_err(), "--trace needs a value");
        assert_eq!(parse("fig9 fig5").unwrap_err(), "unexpected argument 'fig5'");
        assert_eq!(parse("matrix --quick").unwrap_err(), "matrix needs a spec file");
        assert!(parse("fig99 --quick").unwrap_err().starts_with("unknown experiment 'fig99'"));
    }

    #[test]
    fn the_retired_sweep_and_trace_flags_are_unknown() {
        for flag in ["--coupled", "--units", "--shards", "--workers", "--seed", "--scenario"] {
            for line in [format!("fig9 {flag}"), format!("trace {flag} 3")] {
                assert_eq!(parse(&line).unwrap_err(), format!("unknown flag '{flag}'"), "{line}");
            }
        }
        assert!(parse("sweep --quick").unwrap_err().starts_with("unknown experiment 'sweep'"));
    }

    #[test]
    fn list_reads_no_flags() {
        parse("").unwrap();
        check("list", "list", &[("list --quick", "--quick"), ("list --trace d", "--trace")]);
    }

    #[test]
    fn an_entry_reads_the_matrix_flags_and_trace() {
        for id in ["fig9", "tab1", "quic_web", "coupled_browse", "trace"] {
            parse(&format!("{id} --quick --no-save --force --dry-run --cache-dir DIR --trace T"))
                .unwrap_or_else(|err| panic!("{id}: {err}"));
        }
    }

    #[test]
    fn all_reads_the_matrix_flags_but_not_trace() {
        check(
            "all",
            "all --quick --no-save --force --dry-run --cache-dir DIR",
            &[("all --trace DIR", "--trace"), ("all --quick --trace DIR", "--trace")],
        );
    }

    #[test]
    fn matrix_reads_the_matrix_flags_and_trace() {
        parse("matrix s.json --quick --no-save --force --dry-run --cache-dir DIR --trace T")
            .unwrap();
    }

    /// A spec with a cell `--trace` cannot trace is refused before any cell
    /// runs: nothing is cached and no trace file is written.
    #[test]
    fn trace_refuses_a_spec_with_a_non_streaming_cell_before_running() {
        let dir = std::env::temp_dir().join(format!("repro-trace-refusal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for id in ["browse_sweep", "coupled_browse", "quic_web", "fig18", "fig22"] {
            let line = format!(
                "{id} --quick --cache-dir {} --trace {}",
                dir.join("cache").display(),
                dir.join("traces").display()
            );
            let cli = parse(&line).unwrap();
            let Target::One(e) = cli.target else { panic!("{line}: not one entry") };
            let err = experiments::run_matrix(&e.spec().unwrap(), &cli.matrix_options())
                .expect_err(&line);
            assert!(err.starts_with("--trace runs streaming cells only"), "{line}: {err}");
            assert!(!dir.exists(), "{line}: a cell ran before the refusal");
        }
    }

    #[test]
    fn every_verify_sh_command_line_parses() {
        for line in [
            "all --no-save --cache-dir DIR",
            "all --dry-run --cache-dir DIR",
            "trace --quick --no-save --cache-dir DIR --trace DIR",
            "dyn_handover --quick --no-save --cache-dir DIR",
            "quic_web --quick --no-save --cache-dir DIR",
            "coupled_browse --quick --no-save --cache-dir DIR",
            "matrix spec.json --quick --no-save --cache-dir DIR",
        ] {
            parse(line).unwrap_or_else(|err| panic!("`repro {line}`: {err}"));
        }
    }
}
