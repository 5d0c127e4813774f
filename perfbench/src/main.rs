//! Benchmark command:
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload protein_oneshot --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints progress to standard error and, as the last line of standard
//! output, one JSON object with `correct`, `attempted`, `failed` and the
//! end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics. The traced
//! run writes its spans to `.bench_out/trace-<workload>-seed<seed>.json`.
//! `--size tiny` selects the smoke-test inputs.

use polaroct_perfbench::inputs::{Inputs, Size};
use polaroct_perfbench::report::{result_line, END_TO_END, PER_LAYER};
use polaroct_perfbench::workloads::{Run, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

/// Scratch directory for the worker sockets of `fig4_proc`, inside the
/// directory the benchmark runs from.
const TMP_DIR: &str = ".bench_out/tmp";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut size = Size::Full;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                seconds = Some(s).filter(|s| s.is_finite() && *s >= 0.0);
                seconds.ok_or_else(bad)?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--size" => size = Size::parse(&value).ok_or_else(bad)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    Ok(Args {
        workload: workload
            .ok_or_else(|| format!("--workload is required ({})", names.join(", ")))?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace 0|1 is required")?,
        size,
    })
}

fn main() -> ExitCode {
    // Worker processes of `fig4_proc` re-exec this binary; they must be
    // routed to their rank body before anything else runs.
    polaroct_core::maybe_worker();

    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == Workload::Fig4Proc {
        // Worker sockets go under the run directory, not the system temp.
        if let Err(e) = std::fs::create_dir_all(TMP_DIR) {
            eprintln!("perfbench: cannot create {TMP_DIR}: {e}");
            return ExitCode::from(1);
        }
        std::env::set_var("TMPDIR", TMP_DIR);
    }

    let inputs = Inputs::new(args.seed, args.size);
    let mut run = Run::new(args.workload, inputs, args.seconds, args.trace);
    run.execute();

    if let Some(tr) = &run.tracer {
        let path = PathBuf::from(format!(
            ".bench_out/trace-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        match tr.write_chrome(&path) {
            Ok(()) => eprintln!(
                "[perfbench] {} spans written to {}",
                tr.spans().len(),
                path.display()
            ),
            Err(e) => run
                .tally
                .trace_fault(&format!("cannot write {}: {e}", path.display())),
        }
    }
    let spec = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", result_line(&run.tally, spec, &run.metrics));
    ExitCode::SUCCESS
}
