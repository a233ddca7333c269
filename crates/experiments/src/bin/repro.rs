//! `repro` — regenerate any table or figure of the paper.
//!
//! ```text
//! repro <id> [--quick] [--no-save]   one experiment (fig9, tab3, ...)
//! repro all [--quick] [--no-save]    everything, in paper order
//! repro list                         show available ids
//! repro matrix <spec.json> [--quick] [--no-save] [--force] [--dry-run]
//!              [--cache-dir DIR]     declarative experiment matrix
//! repro sweep [--coupled] [--units N] [--shards N] [--workers N] [--seed N]
//!                                    sharded browse population sweep;
//!                                    --coupled adds a shared LTE bottleneck
//!                                    (lockstep co-sim) and prints its
//!                                    window/round/boundary telemetry
//! repro --trace out.jsonl [--quick] [--scenario dyn.json] [--seed N]
//!                                    traced canonical run (0.3/8.6, ECF)
//! ```
//!
//! Reports go to stdout and `results/<id>.txt`; `--no-save` skips the
//! file so smoke runs don't overwrite committed full-effort results.
//!
//! `matrix` expands a spec (see `crates/experiments/specs/`) into cells,
//! serves unchanged cells from the content-addressed cache (default
//! `.expcache/`), executes only the rest, and assembles the figure in a
//! fixed merge order — output is byte-identical whatever the cache state.
//! `--force` re-executes everything (refreshing the cache); `--dry-run`
//! reports cell counts and cache hits without running anything.
//!
//! `--trace` runs the paper's most heterogeneous streaming pair with
//! telemetry enabled and writes every scheduler decision (with its inputs
//! and which rule fired) plus transport/network lifecycle events as JSONL.
//! `--scenario` layers network dynamics from a JSON file (schema:
//! `scenario::Scenario::from_json`) onto the traced run.

use std::io::Write;

use experiments::{find, registry, run_traced, Effort};
use scenario::Scenario;

const USAGE: &str = "usage: repro <id>|all|list [--quick] [--no-save] \
| repro matrix <spec.json> [--quick] [--no-save] [--force] [--dry-run] [--cache-dir DIR] \
| repro sweep [--coupled] [--quick] [--units N] [--shards N] [--workers N] [--seed N] \
| repro --trace <out.jsonl> [--quick] [--scenario dyn.json] [--seed N]";

const SWITCHES: [&str; 5] = ["--quick", "--no-save", "--force", "--dry-run", "--coupled"];
const VALUED: [&str; 7] =
    ["--trace", "--scenario", "--seed", "--cache-dir", "--units", "--shards", "--workers"];

/// The command line, split once: a value-taking flag consumes the word after
/// it, so what remains in `words` is the target followed by its operand.
#[derive(Debug, Default)]
struct Cli {
    words: Vec<String>,
    switches: Vec<String>,
    values: Vec<(String, String)>,
}

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if VALUED.contains(&arg.as_str()) {
                match it.next().filter(|v| !v.starts_with("--")) {
                    Some(v) => cli.values.push((arg.clone(), v.clone())),
                    None => return Err(format!("{arg} needs a value")),
                }
            } else if SWITCHES.contains(&arg.as_str()) {
                cli.switches.push(arg.clone());
            } else if arg.starts_with("--") {
                return Err(format!("unknown flag '{arg}'"));
            } else {
                cli.words.push(arg.clone());
            }
        }
        let matrix = cli.target() == Some("matrix");
        if matrix && cli.words.len() < 2 {
            return Err("matrix needs a spec file".to_string());
        }
        match cli.words.get(1 + usize::from(matrix)) {
            Some(extra) => Err(format!("unexpected argument '{extra}'")),
            None => Ok(cli),
        }
    }

    fn target(&self) -> Option<&str> {
        self.words.first().map(String::as_str)
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.values.iter().find(|(f, _)| f == flag).map(|(_, v)| v.as_str())
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

    if let Some(trace_path) = cli.value("--trace") {
        let scenario = cli.value("--scenario").map(|file| {
            Scenario::from_json_file(file).unwrap_or_else(|err| {
                eprintln!("bad scenario: {err}");
                std::process::exit(2);
            })
        });
        run_trace(trace_path, effort, scenario, num("--seed", 1) as u64);
        return;
    }

    let target = cli.target();

    if target == Some("matrix") {
        let spec_path = &cli.words[1];
        let mut opts = experiments::MatrixOptions::new(
            cli.value("--cache-dir").unwrap_or(".expcache"),
        );
        opts.effort = effort;
        opts.force = cli.has("--force");
        opts.dry_run = cli.has("--dry-run");
        run_matrix_cmd(spec_path, opts, save);
        return;
    }

    if target == Some("sweep") {
        run_sweep_cmd(
            num("--units", if quick { 20 } else { 167 }),
            num("--shards", 0),
            cli.value("--workers").map(|_| num("--workers", 1)).filter(|&w| w > 0),
            num("--seed", 1) as u64,
            cli.has("--coupled"),
        );
        return;
    }

    match target {
        None | Some("list") => {
            println!("available experiments:\n");
            for e in registry() {
                println!("  {:<22} {}", e.id, e.title);
            }
            println!("\n{USAGE}");
        }
        Some("all") => {
            // Dedup aliases (fig7/fig10 etc. share a generator).
            let mut seen = std::collections::HashSet::new();
            for e in registry() {
                if !seen.insert(e.run as usize) {
                    continue;
                }
                run_one(&e, effort, save);
            }
        }
        Some(id) => match find(id) {
            Some(e) => run_one(&e, effort, save),
            None => {
                eprintln!("unknown experiment '{id}'; try `repro list`");
                std::process::exit(1);
            }
        },
    }
}

fn run_one(e: &experiments::Experiment, effort: Effort, save: bool) {
    let started = std::time::Instant::now();
    eprintln!("== running {} ({}) ==", e.id, e.title);
    let report = (e.run)(effort);
    println!("{report}");
    eprintln!("== {} done in {:.1}s ==\n", e.id, started.elapsed().as_secs_f64());
    if !save {
        return;
    }
    if let Err(err) = std::fs::create_dir_all("results")
        .and_then(|_| std::fs::File::create(format!("results/{}.txt", e.id)))
        .and_then(|mut f| f.write_all(report.as_bytes()))
    {
        eprintln!("warning: could not write results/{}.txt: {err}", e.id);
    }
}

fn run_matrix_cmd(spec_path: &str, opts: experiments::MatrixOptions, save: bool) {
    let started = std::time::Instant::now();
    let spec = experiments::expmatrix::Spec::from_file(spec_path).unwrap_or_else(|err| {
        eprintln!("bad spec: {err}");
        std::process::exit(2);
    });
    eprintln!("== matrix {} ({}) ==", spec.name, spec_path);
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
    if !save {
        return;
    }
    if let Err(err) = std::fs::create_dir_all("results").and_then(|_| {
        std::fs::write(format!("results/{}.txt", spec.name), outcome.report.as_bytes())
    }) {
        eprintln!("warning: could not write results/{}.txt: {err}", spec.name);
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
    let t = run_traced(effort, scenario, seed);
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

    #[test]
    fn flag_values_are_not_positionals() {
        let cli = parse("matrix --cache-dir /tmp/c specs/smoke.json").unwrap();
        assert_eq!(cli.words, ["matrix", "specs/smoke.json"]);
        assert_eq!(cli.value("--cache-dir"), Some("/tmp/c"));

        let cli = parse("--seed 5 sweep --quick").unwrap();
        assert_eq!(cli.target(), Some("sweep"));
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
    }

    #[test]
    fn every_documented_form_parses() {
        for line in [
            "",
            "fig9 --quick --no-save",
            "all --quick --no-save",
            "list",
            "matrix spec.json --quick --no-save --force --dry-run --cache-dir DIR",
            "sweep --coupled --units 9 --shards 3 --workers 2 --seed 7",
            "--trace out.jsonl --quick --scenario dyn.json --seed 3",
        ] {
            parse(line).unwrap_or_else(|err| panic!("`repro {line}`: {err}"));
        }
    }
}
