//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints the run's metrics one per line (`metric <name> <value> <unit>`),
//! the simulated-report digest, the layer shares of a traced run and a host
//! record, then, as the last line, one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}` holding
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Exit code 2 on bad arguments, 1 on an I/O error.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use alecto_perfbench::workloads::{Kind, Scale};
use alecto_perfbench::{run, Metric, Options, Outcome, DEFAULT_SEED, HELD_OUT_SEED};

const USAGE: &str = "usage: perfbench --workload <mem-stream|resident-replay|server-mix> \
[--seed N] [--seconds S] [--trace 0|1]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    let work_dir = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".perfbench-work")
        .join(format!("{}-{}", kind.name(), std::process::id()));
    Ok(Options { kind, seed, seconds, trace, scale: Scale::FULL, work_dir })
}

/// A JSON number: every digit Rust's shortest round-trip rendering gives.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|&v| num(v)).collect();
    format!("[{}]", items.join(","))
}

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .collect::<String>()
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
}

fn render(opts: &Options, out: &Outcome) -> String {
    let mut s = String::new();
    let w = &mut s;
    let _ = writeln!(
        w,
        "workload {} seed {} (default {DEFAULT_SEED}, held-out {HELD_OUT_SEED}) trace {} \
         cells {} records/pass {}",
        opts.kind.name(),
        opts.seed,
        u8::from(opts.trace),
        out.attempted,
        out.records_per_pass
    );
    let _ = writeln!(w, "digest {} {:#018x}", opts.kind.name(), out.digest);
    for failure in &out.failures {
        let _ = writeln!(w, "failed {failure}");
    }
    for m in out.end_to_end.iter().chain(&out.per_layer) {
        let _ = writeln!(w, "metric {} {} {}", m.name, num(m.value), m.unit);
    }
    for (layer, share) in &out.shares {
        let _ = writeln!(w, "share {layer} {:.4}", share);
    }
    let h = &out.host;
    let p = &out.passes;
    let _ = writeln!(
        w,
        "host {{\"cpu\":\"{}\",\"nproc\":{},\"rustc\":\"{}\",\"profile\":\"{}\",\"seed\":{},\
         \"passes\":{{\"setup_s\":{},\"wall_s\":{},\"cpu_s\":{},\"traced_wall_s\":{}}}}}",
        escape(&h.cpu),
        h.nproc,
        escape(h.rustc),
        escape(h.profile),
        opts.seed,
        list(&p.setup_s),
        list(&p.wall_s),
        list(&p.cpu_s),
        list(&p.traced_wall_s)
    );
    let metrics: Vec<&Metric> = if opts.trace {
        out.per_layer.iter().collect()
    } else {
        // `fail_frac` is carried by `attempted` and `failed`.
        out.end_to_end.iter().filter(|m| m.name != "fail_frac").collect()
    };
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, num(m.value), m.unit)
        })
        .collect();
    let _ = writeln!(
        w,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        fields.join(", ")
    );
    s
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = std::fs::create_dir_all(&opts.work_dir).and_then(|()| run(&opts));
    // The recordings are scratch; remove them whatever happened.
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    if let Some(parent) = opts.work_dir.parent().map(PathBuf::from) {
        let _ = std::fs::remove_dir(parent);
    }
    match result {
        Ok(outcome) => {
            print!("{}", render(&opts, &outcome));
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::from(1)
        }
    }
}
