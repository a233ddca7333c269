//! `benchmark`: the repo's benchmark of record. See `../README.md`.
//!
//! ```text
//! benchmark run   [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
//! benchmark trace [--workload W] [--seed N] [--quick] [--out FILE]     (run --trace 1)
//! benchmark agree <a.json> <b.json>
//! benchmark spec                                                        (print BENCHMARK.json)
//! ```

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use ecf_benchmark::measure::{self, Args};
use ecf_benchmark::workloads::Workload;
use ecf_benchmark::{agree, perlayer, report, spec};
use testkit::json::Value;

const USAGE: &str = "usage: benchmark run|trace [--workload W] [--seed N] [--seconds S] \
                     [--trace 0|1] [--quick] [--out FILE]\n       benchmark agree <a.json> <b.json>\n       \
                     benchmark spec";

/// Parsed `run` / `trace` / `child` options.
struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse(args: &[String], trace: bool) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: measure::PINNED_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w =
                    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
                o.workload = Some(w);
            }
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => o.quick = true,
            "--out" => o.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(o)
}

/// The benchmark's own output directory, next to its manifest: the
/// checkout the driver runs in is the current directory, and everything
/// written stays under `benchmark/`.
fn out_dir() -> PathBuf {
    let here = Path::new("benchmark");
    if here.join("Cargo.toml").is_file() {
        here.join("out")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

/// Measure one workload in this process and print its rich object last.
fn child(o: &Options) -> ExitCode {
    let workload = o.workload.expect("the parent names the workload");
    let args = Args { workload, seed: o.seed, seconds: o.seconds, quick: o.quick };
    let rich = if o.trace {
        let dir = out_dir();
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("benchmark: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        let run = perlayer::run(&args, &dir);
        report::print_traced(workload, o.seed, &run);
        let spans = dir.join(format!("trace-{}.jsonl", workload.name()));
        if let Err(e) = std::fs::write(&spans, &run.spans_jsonl) {
            eprintln!("benchmark: cannot write {}: {e}", spans.display());
            return ExitCode::FAILURE;
        }
        println!("  spans written to {}", spans.display());
        report::traced(&run)
    } else {
        let m = measure::run(&args);
        report::print_untraced(workload, o.seed, &m);
        report::untraced(&m)
    };
    println!("{}", testkit::json::canonical(&rich));
    if rich.get("correct") == Some(&Value::Bool(true)) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run `workload` in a child process of its own (a fresh `VmHWM`, a fresh
/// allocator), forwarding what it prints. Returns its rich object.
fn spawn(o: &Options, workload: Workload) -> Result<(Value, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", workload.name()])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if o.trace { "1" } else { "0" }]);
    if o.quick {
        cmd.arg("--quick");
    }
    let mut proc =
        cmd.stdout(Stdio::piped()).spawn().map_err(|e| format!("cannot start the child: {e}"))?;
    let stdout = proc.stdout.take().expect("stdout was piped");
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("reading the child's output: {e}"))?;
        // The rich object stays between parent and child.
        if !line.starts_with('{') {
            println!("{line}");
        }
        last = line;
    }
    let status = proc.wait().map_err(|e| format!("waiting for the child: {e}"))?;
    let rich = testkit::json::parse(&last)
        .map_err(|e| format!("{}: the child ({status}) printed no result: {e}", workload.name()))?;
    Ok((rich, status.success()))
}

fn run(o: &Options) -> ExitCode {
    let workloads: Vec<Workload> = o.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut results = Vec::new();
    let mut ok = true;
    for &w in &workloads {
        match spawn(o, w) {
            Ok((rich, success)) => {
                ok &= success;
                results.push((w, rich));
            }
            Err(e) => {
                eprintln!("benchmark: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let write = |path: &Path| {
        let doc = report::result_file(o.seed, o.quick, o.trace, &results);
        path.parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, doc))
    };
    let default_out = (workloads.len() > 1).then(|| {
        let kind = if o.trace { "trace" } else { "run" };
        out_dir().join(format!("{kind}-seed{}{}.json", o.seed, if o.quick { "-quick" } else { "" }))
    });
    if let Some(path) = o.out.clone().or(default_out) {
        match write(&path) {
            Ok(()) => println!("results written to {}", path.display()),
            Err(e) => {
                eprintln!("benchmark: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    // The last line: the contract's object for the one workload asked for,
    // or one object per workload, keyed by name.
    match results.as_slice() {
        [(_, rich)] => println!("{}", report::strict_line(rich)),
        all => {
            let rows: Vec<String> = all
                .iter()
                .map(|(w, rich)| format!("\"{}\":{}", w.name(), report::strict_line(rich)))
                .collect();
            println!("{{{}}}", rows.join(","));
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn agree_files(a: &str, b: &str) -> ExitCode {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        testkit::json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            let lines = agree::disagreements(&a, &b);
            for line in &lines {
                println!("DISAGREE {line}");
            }
            println!("{} disagreement(s)", lines.len());
            if lines.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let parsed = |trace| {
        parse(rest, trace).map_err(|e| {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::FAILURE
        })
    };
    match (command.as_str(), rest) {
        ("run", _) => parsed(false).map_or_else(|code| code, |o| run(&o)),
        ("trace", _) => parsed(true).map_or_else(|code| code, |o| run(&o)),
        ("child", _) => parsed(false).map_or_else(|code| code, |o| child(&o)),
        ("agree", [a, b]) => agree_files(a, b),
        ("spec", []) => {
            print!("{}", spec::benchmark_json());
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}
