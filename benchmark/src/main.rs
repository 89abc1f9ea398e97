//! `v10-benchmark` — runs the benchmark, compares two results files, or
//! prints the manifest. Run `v10-benchmark --help` for usage.

use std::process::ExitCode;

use v10_bench::jsonio;
use v10_benchmark::run::{run, RunConfig, Stop};
use v10_benchmark::trace::Tracer;
use v10_benchmark::workloads::{Kind, Scale};
use v10_benchmark::{compare, metrics, report};

const USAGE: &str = "\
usage:
  v10-benchmark [--workload NAME]... [--seed N] [--reps N | --seconds S]
                [--trace 0|1] [--spans FILE] [--out FILE]
      Runs the workloads (default: all four, interleaved) and prints every
      metric by name with its unit; the last line is a JSON result. Exits 1
      if a correctness check fails.
        --seed N       input seed (default 2023)
        --reps N       timed passes per workload (default 9)
        --seconds S    instead, run rounds of passes until S seconds pass
        --trace 0|1    1 (default) also runs the traced pass; the JSON line
                       then holds the per-layer metrics, else the
                       end-to-end ones
        --spans FILE   write the recorded spans as JSON lines
        --out FILE     write every metric with its quartiles, for compare
  v10-benchmark compare A.json B.json [--manifest BENCHMARK.json]
      Applies the manifest's bounds with A as the baseline; exits 1 on a
      regression or a changed simulated output.
  v10-benchmark manifest
      Prints BENCHMARK.json.";

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("v10-benchmark: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn value<'a>(
    args: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<&'a String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn parsed<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: cannot parse {text:?}"))
}

struct Options {
    config: RunConfig,
    spans: Option<String>,
    out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<Options, String> {
    let mut kinds = Vec::new();
    let mut seed = 2023;
    let mut stop = None;
    let mut trace = true;
    let mut spans = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = value(&mut it, flag)?;
                let kind = Kind::from_name(name).ok_or_else(|| {
                    let known: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {name:?} (known: {})", known.join(", "))
                })?;
                if !kinds.contains(&kind) {
                    kinds.push(kind);
                }
            }
            "--seed" => seed = parsed(value(&mut it, flag)?, flag)?,
            "--reps" => {
                let n: usize = parsed(value(&mut it, flag)?, flag)?;
                if n == 0 {
                    return Err("--reps must be at least 1".to_owned());
                }
                stop = Some(Stop::Reps(n));
            }
            "--seconds" => {
                let s: f64 = parsed(value(&mut it, flag)?, flag)?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
                stop = Some(Stop::Seconds(s));
            }
            "--trace" => {
                trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--spans" => spans = Some(value(&mut it, flag)?.clone()),
            "--out" => out = Some(value(&mut it, flag)?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if kinds.is_empty() {
        kinds = Kind::ALL.to_vec();
    }
    Ok(Options {
        config: RunConfig {
            kinds,
            seed,
            scale: Scale::Full,
            stop: stop.unwrap_or(Stop::Reps(9)),
            trace,
        },
        spans,
        out,
    })
}

fn write_file(path: &str, contents: &[u8]) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("writing {path}: {e}"))
}

fn run_command(args: &[String]) -> ExitCode {
    let opts = match parse_run(args) {
        Ok(o) => o,
        Err(e) => return usage_error(&e),
    };
    let cfg = &opts.config;
    let mut tracer = Tracer::new();
    let results = run(cfg, &mut tracer);
    for r in &results {
        println!("{}", report::human(r, cfg.seed));
    }
    let mut ok = results.iter().all(|r| r.violations.is_empty());
    if let Some(path) = &opts.spans {
        let mut buf = Vec::new();
        let written = tracer
            .write_json_lines(&mut buf)
            .map_err(|e| e.to_string())
            .and_then(|()| write_file(path, &buf));
        if let Err(e) = written {
            eprintln!("v10-benchmark: {e}");
            ok = false;
        }
    }
    if let Some(path) = &opts.out {
        if let Err(e) = write_file(path, report::results_json(&results, cfg.seed).as_bytes()) {
            eprintln!("v10-benchmark: {e}");
            ok = false;
        }
    }
    println!("{}", report::result_line(&results, cfg.trace));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn read_json(path: &str) -> Result<jsonio::Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    jsonio::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn compare_command(args: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut manifest = "BENCHMARK.json".to_owned();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--manifest" {
            match value(&mut it, arg) {
                Ok(path) => manifest = path.clone(),
                Err(e) => return usage_error(&e),
            }
        } else {
            files.push(arg.as_str());
        }
    }
    let [a, b] = files[..] else {
        return usage_error("compare takes two results files");
    };
    let rows = read_json(&manifest).and_then(|m| {
        let (a, b) = (read_json(a)?, read_json(b)?);
        compare::compare(&m, &a, &b)
    });
    match rows {
        Ok(rows) => {
            print!("{}", compare::render(&rows));
            let failing = rows.iter().filter(|r| r.verdict.fails()).count();
            let unresolved = rows
                .iter()
                .filter(|r| r.verdict == compare::Verdict::Unresolved)
                .count();
            println!(
                "{} rows: {failing} failing, {unresolved} unresolved",
                rows.len()
            );
            if failing == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("v10-benchmark compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => compare_command(&args[1..]),
        Some("manifest") if args.len() == 1 => {
            print!("{}", metrics::manifest_json());
            ExitCode::SUCCESS
        }
        Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        _ => run_command(&args),
    }
}
