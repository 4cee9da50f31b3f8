//! `perfbench --workload <grid|ycsb-star|crash-sweep> --seed <n>
//! --seconds <s> --trace <0|1>`: runs one workload and prints, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The line before it is a JSON
//! object of supporting detail (host fingerprint, paper errors, sample
//! counts, traced layer split). Exits 1 when any check fails and 2 on
//! bad arguments.

use std::process::ExitCode;

use star_perfbench::{run, Options, Scale, WorkloadName};

const USAGE: &str = "usage: perfbench --workload <grid|ycsb-star|crash-sweep> --seed <n> \
                     --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WorkloadName::from_label(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::Full,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = match std::panic::catch_unwind(|| run(&opts)) {
        Ok(out) => out,
        Err(_) => {
            eprintln!("perfbench: the run panicked");
            println!("{{\"correct\":false,\"attempted\":1,\"failed\":1,\"metrics\":{{}}}}");
            return ExitCode::from(1);
        }
    };
    for m in &out.metrics {
        println!("# {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", out.detail);
    println!("{}", out.result_json());
    if out.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} checks failed",
            out.failed, out.attempted
        );
        ExitCode::from(1)
    }
}
