//! `perfbench`: one measured operation of a named replay workload per
//! process, printed as one JSON object on stdout. `perfbench/run.py`
//! builds this binary and drives it; see `perfbench/NOTES.md`.
//!
//! ```text
//! perfbench calibrate
//! perfbench gen-trace --seed N --requests ROWS --out FILE
//! perfbench count     --workload W --seed N --requests N [--trace-file F]
//! perfbench setup     --workload W --seed N --requests N
//! perfbench replay    --workload W --seed N --requests N --out DIR
//!                     [--trace-file F] [--expect N] [--cli-seed]
//! perfbench layers    --workload W --seed N --requests N --out DIR
//!                     [--trace-file F] [--expect N]
//! ```
//!
//! `--cli-seed` replaces the seed with the one `experiments replay` fixes
//! (`grid_seed(92, 0, 0)`), for the cross-check against the CLI.
//! `calibrate` times a fixed loop that calls none of the workspace's code,
//! the host speed index `run.py` scales the host times by.

mod calibrate;
mod layers;
mod replay;
mod workload;

use std::error::Error;
use std::path::PathBuf;
use std::process::ExitCode;

use workload::{Spec, Workload};

struct Args {
    cmd: String,
    workload: Option<Workload>,
    seed: u64,
    requests: u64,
    out: Option<PathBuf>,
    trace_file: Option<PathBuf>,
    expect: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let cmd = it.next().ok_or("missing subcommand")?;
    let mut args = Args {
        cmd,
        workload: None,
        seed: 1,
        requests: 0,
        out: None,
        trace_file: None,
        expect: None,
    };
    while let Some(flag) = it.next() {
        if flag == "--cli-seed" {
            args.seed = spindown_experiments::grid_seed(92, 0, 0);
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => args.seed = number()?,
            "--requests" => args.requests = number()?,
            "--expect" => args.expect = Some(number()?),
            "--out" => args.out = Some(PathBuf::from(value)),
            "--trace-file" => args.trace_file = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.requests == 0 && args.cmd != "calibrate" {
        return Err("--requests needs a positive count".into());
    }
    Ok(args)
}

/// One flat JSON object: numbers (non-finite ones as `null`) and strings.
fn json(fields: &[(&str, Value)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| {
            let v = match v {
                Value::Num(x) if x.is_finite() => format!("{x}"),
                Value::Num(_) => "null".into(),
                Value::Str(s) => format!("{s:?}"),
                Value::List(l) => format!("{l:?}"),
            };
            format!("{k:?}: {v}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

enum Value {
    Num(f64),
    Str(String),
    List(Vec<String>),
}

fn run(args: Args) -> Result<String, Box<dyn Error>> {
    if args.cmd == "calibrate" {
        return Ok(json(&[("calibrate_s", Value::Num(calibrate::calibrate()))]));
    }
    if args.cmd == "gen-trace" {
        let out = args.out.ok_or("gen-trace needs --out")?;
        let rows = workload::write_trace(args.seed, args.requests, &out)?;
        return Ok(json(&[("rows", Value::Num(rows as f64))]));
    }
    let w = args.workload.ok_or("missing --workload")?;
    let spec = Spec::new(w, args.seed, args.requests, args.trace_file);
    let out = || args.out.clone().ok_or("missing --out");
    match args.cmd.as_str() {
        "count" => {
            let (n, _) = spec.with_source(&workload::catalog(), layers::Drain)?;
            Ok(json(&[("requests", Value::Num(n as f64))]))
        }
        "setup" => Ok(json(&[(
            "setup_s",
            Value::Num(replay::setup(&spec)?.setup_s),
        )])),
        "replay" => {
            let r = replay::replay(&spec, &out()?, false)?;
            let failed = replay::check(&r, args.expect);
            let report = &r.report;
            let completions = report.responses.len() as f64;
            Ok(json(&[
                (
                    "digest",
                    Value::Str(format!("{:#018x}", replay::digest(&r))),
                ),
                ("failed", Value::List(failed)),
                ("setup_s", Value::Num(r.setup_s)),
                ("requests", Value::Num(completions)),
                ("run_s", Value::Num(r.run_s)),
                ("wall_s", Value::Num(r.wall_s)),
                ("throughput_req_s", Value::Num(completions / r.run_s)),
                (
                    "sim_energy_mj",
                    Value::Num(report.energy.total_joules() / 1e6),
                ),
                ("sim_resp_mean_s", Value::Num(report.responses.mean())),
                ("sim_resp_p99_s", Value::Num(report.response_p99())),
                ("sim_availability", Value::Num(replay::availability(report))),
            ]))
        }
        "layers" => {
            let l = layers::layers(&spec, &out()?, args.expect)?;
            let mut fields = vec![
                ("digest", Value::Str(format!("{:#018x}", l.digest))),
                ("failed", Value::List(l.failed)),
            ];
            fields.extend(l.metrics.into_iter().map(|(k, v)| (k, Value::Num(v))));
            Ok(json(&fields))
        }
        other => Err(format!("unknown subcommand {other:?}").into()),
    }
}

fn main() -> ExitCode {
    match parse_args().map_err(Into::into).and_then(run) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
