//! `repro` — regenerate any table or figure of the paper.
//!
//! ```text
//! repro <id> [--quick] [--no-save] [--force] [--dry-run] [--cache-dir DIR]
//!                                    one experiment (fig9, tab3, ...):
//!                                    `matrix` on its embedded spec
//! repro all [--quick] [--no-save] [--force] [--dry-run] [--cache-dir DIR]
//!                                    everything, in paper order
//! repro list                         show available ids
//! repro matrix <spec.json> [--quick] [--no-save] [--force] [--dry-run]
//!              [--cache-dir DIR]     declarative experiment matrix
//! repro sweep [--coupled] [--quick] [--units N] [--shards N] [--workers N]
//!             [--seed N]             sharded browse population sweep;
//!                                    --coupled adds a shared LTE bottleneck
//!                                    (lockstep co-sim) and prints its
//!                                    window/round/boundary telemetry
//! repro --trace out.jsonl [--quick] [--scenario dyn.json] [--seed N]
//!                                    traced canonical run (0.3/8.6, ECF)
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
//! `--trace` runs the paper's most heterogeneous streaming pair with
//! telemetry enabled and writes every scheduler decision (with its inputs
//! and which rule fired) plus transport/network lifecycle events as JSONL.
//! `--scenario` layers network dynamics from a JSON file (schema:
//! `scenario::Scenario::from_json`) onto the traced run.

#![forbid(unsafe_code)]

use experiments::expmatrix::Spec;
use experiments::{find, registry, run_traced, Effort, Experiment, MatrixOptions};
use scenario::Scenario;

const USAGE: &str = "usage: repro <id>|all|list [--quick] [--no-save] [--force] [--dry-run] \
[--cache-dir DIR] \
| repro matrix <spec.json> [--quick] [--no-save] [--force] [--dry-run] [--cache-dir DIR] \
| repro sweep [--coupled] [--quick] [--units N] [--shards N] [--workers N] [--seed N] \
| repro --trace <out.jsonl> [--quick] [--scenario dyn.json] [--seed N]";

const SWITCHES: [&str; 5] = ["--quick", "--no-save", "--force", "--dry-run", "--coupled"];
const VALUED: [&str; 7] =
    ["--trace", "--scenario", "--seed", "--cache-dir", "--units", "--shards", "--workers"];

/// What a command line runs.
#[derive(Debug, Clone, Copy)]
enum Target {
    List,
    All,
    One(Experiment),
    Matrix,
    Sweep,
    Trace,
}

impl Target {
    /// The flags each target reads — the one table the parser checks.
    fn flags(self) -> &'static [&'static str] {
        const MATRIX: &[&str] = &["--quick", "--no-save", "--force", "--dry-run", "--cache-dir"];
        match self {
            Target::List => &[],
            Target::One(_) | Target::All | Target::Matrix => MATRIX,
            Target::Sweep => {
                &["--quick", "--coupled", "--units", "--shards", "--workers", "--seed"]
            }
            Target::Trace => &["--trace", "--quick", "--scenario", "--seed"],
        }
    }

    fn name(self) -> &'static str {
        match self {
            Target::List => "list",
            Target::All => "all",
            Target::One(e) => e.id,
            Target::Matrix => "matrix",
            Target::Sweep => "sweep",
            Target::Trace => "--trace",
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
        let target = if values.iter().any(|(f, _)| f == "--trace") {
            Target::Trace
        } else {
            match words.first().map(String::as_str) {
                None | Some("list") => Target::List,
                Some("all") => Target::All,
                Some("matrix") => Target::Matrix,
                Some("sweep") => Target::Sweep,
                Some(id) => Target::One(
                    find(id)
                        .ok_or_else(|| format!("unknown experiment '{id}'; try `repro list`"))?,
                ),
            }
        };
        let operands = match target {
            Target::Trace => 0,
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
        // A sweep of no units or on no workers runs nothing. `--shards 0`
        // is valid: one shard per component.
        for (flag, v) in &values {
            if ["--units", "--workers"].contains(&flag.as_str()) && v.parse::<usize>() == Ok(0) {
                return Err(format!("{flag} must be at least 1"));
            }
        }
        Ok(Cli { target, words, switches, values })
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.values.iter().find(|(f, _)| f == flag).map(|(_, v)| v.as_str())
    }

    fn matrix_options(&self, effort: Effort) -> MatrixOptions {
        let mut opts = MatrixOptions::new(self.value("--cache-dir").unwrap_or(".expcache"));
        opts.effort = effort;
        opts.force = self.has("--force");
        opts.dry_run = self.has("--dry-run");
        opts
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = Cli::parse(&args).unwrap_or_else(|err| {
        eprintln!("{err}\n{USAGE}");
        std::process::exit(2);
    });
    let quick = cli.has("--quick");
    let save = !cli.has("--no-save");
    let effort = if quick { Effort::Quick } else { Effort::Full };

    let num = |name: &str, default: usize| -> usize {
        cli.value(name).map_or(default, |s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("{name} needs an integer, got '{s}'");
                std::process::exit(2);
            })
        })
    };

    match cli.target {
        Target::Trace => {
            let scenario = cli.value("--scenario").map(|file| {
                Scenario::from_json_file(file).unwrap_or_else(|err| {
                    eprintln!("bad scenario: {err}");
                    std::process::exit(2);
                })
            });
            let path = cli.value("--trace").unwrap_or_default();
            run_trace(path, effort, scenario, num("--seed", 1) as u64);
        }
        Target::Matrix => {
            let path = &cli.words[1];
            run_matrix_cmd(Spec::from_file(path), path, cli.matrix_options(effort), save);
        }
        Target::Sweep => run_sweep_cmd(
            num("--units", if quick { 20 } else { 167 }),
            num("--shards", 0),
            cli.value("--workers").map(|_| num("--workers", 1)),
            num("--seed", 1) as u64,
            cli.has("--coupled"),
        ),
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
                    run_one(&e, cli.matrix_options(effort), save);
                }
            }
        }
        Target::One(e) => run_one(&e, cli.matrix_options(effort), save),
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
    eprintln!(
        "== {} done in {:.1}s ==\n",
        spec.name,
        started.elapsed().as_secs_f64()
    );
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

fn run_sweep_cmd(
    units: usize,
    max_shards: usize,
    workers: Option<usize>,
    seed: u64,
    coupled: bool,
) {
    use experiments::{browse_coupled_population, browse_population, run_sweep, SweepOptions};
    use telemetry::Counter;
    let pop = if coupled {
        browse_coupled_population(seed, units, 6, 1.0, 50.0, ecf_core::SchedulerKind::Ecf)
    } else {
        browse_population(seed, units, 6, 1.0, 10.0, ecf_core::SchedulerKind::Ecf)
    };
    let n_conns: usize = pop.units.iter().map(|u| u.conns.len()).sum();
    eprintln!(
        "== sweep{}: {units} units, {n_conns} conns, {} paths, seed {seed} ==",
        if coupled { " (coupled)" } else { "" },
        pop.paths.len()
    );
    // Always enabled: the wheel flushes its fast-forward / batching
    // counters into this handle at testbed teardown, and seeing them is
    // half the point of this command. The ring-emit overhead taints the
    // events/s line slightly.
    let tel = telemetry::TelemetryHandle::enabled();
    let started = std::time::Instant::now();
    let report = run_sweep(&pop, &SweepOptions { max_shards, workers, telemetry: tel.clone() });
    let wall = started.elapsed().as_secs_f64();
    let events = report.events_total();
    let loaded = report.units.iter().filter(|u| u.page_load.is_some()).count();
    println!("shards:      {}", report.shard_events.len());
    if coupled {
        println!(
            "window:      {:.3} ms lookahead",
            pop.couplings[0].window_nanos() as f64 / 1e6
        );
        println!("sync rounds: {}", tel.counter(Counter::CosimRounds));
        println!("boundary:    {} msgs", tel.counter(Counter::CosimBoundaryMsgs));
        println!(
            "stall:       {:.1} ms barrier wait",
            tel.counter(Counter::CosimStallNs) as f64 / 1e6
        );
    }
    println!("events:      {events}");
    println!("events/s:    {:.0}", events as f64 / wall.max(1e-9));
    println!(
        "idle ff:     {} jumps, {:.1} ms skipped",
        tel.counter(Counter::FfJumps),
        tel.counter(Counter::FfSkippedNs) as f64 / 1e6
    );
    println!(
        "batching:    {} batched deliveries, longest batch {}",
        tel.counter(Counter::BatchDeliveries),
        tel.counter(Counter::BatchMaxLen)
    );
    println!("pages done:  {loaded}/{units}");
    println!("digest:      {}", testkit::digest::hex16(report.digest));
    eprintln!("== sweep done in {wall:.1}s ==");
}

fn run_trace(path: &str, effort: Effort, scenario: Option<Scenario>, seed: u64) {
    let started = std::time::Instant::now();
    eprintln!("== traced run: 0.3/8.6 Mbps, ECF, seed {seed} ==");
    let t = run_traced(effort, scenario, seed).unwrap_or_else(|err| {
        eprintln!("bad scenario: {err}");
        std::process::exit(2);
    });
    if let Err(err) = std::fs::write(path, &t.jsonl) {
        eprintln!("could not write {path}: {err}");
        std::process::exit(1);
    }
    print!("{}", t.digest);
    if t.overflow > 0 {
        eprintln!(
            "note: ring wrapped — {} oldest events dropped, {} kept",
            t.overflow, t.captured
        );
    }
    eprintln!(
        "== wrote {} events to {path} in {:.1}s ==",
        t.captured,
        started.elapsed().as_secs_f64()
    );
}

#[cfg(test)]
mod tests {
    use super::Cli;

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

        let cli = parse("--seed 5 sweep --quick").unwrap();
        assert_eq!(cli.target.name(), "sweep");
        assert_eq!(cli.value("--seed"), Some("5"));
        assert!(cli.has("--quick"));
    }

    #[test]
    fn unknown_flags_missing_values_and_extra_words_are_errors() {
        assert_eq!(parse("fig9 --quik").unwrap_err(), "unknown flag '--quik'");
        assert_eq!(parse("sweep --units").unwrap_err(), "--units needs a value");
        assert_eq!(parse("--trace --quick").unwrap_err(), "--trace needs a value");
        assert_eq!(parse("fig9 fig5").unwrap_err(), "unexpected argument 'fig5'");
        assert_eq!(parse("matrix --quick").unwrap_err(), "matrix needs a spec file");
        assert_eq!(parse("fig9 --trace t.jsonl").unwrap_err(), "unexpected argument 'fig9'");
        assert!(parse("fig99 --quick").unwrap_err().starts_with("unknown experiment 'fig99'"));
    }

    #[test]
    fn list_reads_no_flags() {
        parse("").unwrap();
        check("list", "list", &[("list --quick", "--quick"), ("--seed 3", "--seed")]);
    }

    #[test]
    fn an_entry_reads_the_matrix_flags() {
        for id in ["fig9", "tab1", "quic_web"] {
            check(
                id,
                &format!("{id} --quick --no-save --force --dry-run --cache-dir DIR"),
                &[
                    (&format!("{id} --coupled"), "--coupled"),
                    (&format!("{id} --seed 2"), "--seed"),
                    (&format!("{id} --units 5"), "--units"),
                ],
            );
        }
    }

    #[test]
    fn all_reads_the_matrix_flags() {
        check(
            "all",
            "all --quick --no-save --force --dry-run --cache-dir DIR",
            &[("all --coupled", "--coupled"), ("all --units 5", "--units")],
        );
    }

    #[test]
    fn matrix_reads_the_matrix_flags() {
        check(
            "matrix",
            "matrix s.json --quick --no-save --force --dry-run --cache-dir DIR",
            &[("matrix s.json --coupled", "--coupled"), ("matrix s.json --workers 2", "--workers")],
        );
    }

    #[test]
    fn sweep_reads_population_flags() {
        check(
            "sweep",
            "sweep --coupled --quick --units 9 --shards 3 --workers 2 --seed 7",
            &[("sweep --no-save", "--no-save"), ("sweep --cache-dir DIR", "--cache-dir")],
        );
    }

    #[test]
    fn sweep_refuses_zero_units() {
        for line in ["sweep --units 0", "sweep --coupled --units 0"] {
            assert_eq!(parse(line).unwrap_err(), "--units must be at least 1", "{line}");
        }
    }

    #[test]
    fn sweep_refuses_zero_workers_but_not_zero_shards() {
        for line in ["sweep --workers 0", "sweep --coupled --workers 0"] {
            assert_eq!(parse(line).unwrap_err(), "--workers must be at least 1", "{line}");
        }
        parse("sweep --shards 0 --workers 1 --units 1").unwrap();
    }

    #[test]
    fn trace_reads_its_run_flags() {
        check(
            "--trace",
            "--trace out.jsonl --quick --scenario dyn.json --seed 3",
            &[("--trace out.jsonl --no-save", "--no-save"), ("--trace t --units 5", "--units")],
        );
    }

    #[test]
    fn every_verify_sh_command_line_parses() {
        for line in [
            "all --no-save --cache-dir DIR",
            "all --dry-run --cache-dir DIR",
            "--trace out.jsonl --quick",
            "dyn_handover --quick --no-save --cache-dir DIR",
            "quic_web --quick --no-save --cache-dir DIR",
            "sweep --coupled --quick",
            "matrix spec.json --quick --no-save --cache-dir DIR",
        ] {
            parse(line).unwrap_or_else(|err| panic!("`repro {line}`: {err}"));
        }
    }
}
